"""Scalar backends shared by the exterior-algebra and curvature code.

Two interchangeable coefficient fields are supported:

* plain python ``complex`` (fast, default), and
* :class:`QQi`, exact Gaussian rationals, used when structure constants and
  metric parameters are rational so that verification can be exact.

The two are never mixed inside a single computation.  :func:`unify` is the
one place where the arithmetic of an input is decided: every entry point
(structure files, command-line parameters, catalog entries, metric
matrices) passes its numbers through it, and the containers built from the
result carry the decision as their ``exact`` attribute.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

# Float zero test: relative against the largest coefficient in the
# expression, with an absolute fallback for expressions that are zero
# outright.  Calibrated for double precision over <= 4 wedge factors.
REL_TOL = 1e-12
ABS_TOL = 1e-14

# metric parameters that must be real
REAL_KEYS = ("r", "s", "ell")


class QQi:
    """Gaussian rational a + b*sqrt(-1) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            re, im = re.re, re.im + Fraction(im)
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, Rational):
            return QQi(other)
        return NotImplemented

    # Zero operands short-circuit: sparse structure constants make most
    # terms of a dense contraction zero, and Fraction arithmetic is costly.
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not (o.re or o.im):
            return self
        if not (self.re or self.im):
            return o
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not (self.re or self.im):
            return self
        if not (o.re or o.im):
            return o
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    # the parts under python's complex-number names, so that code written
    # against ``.real``/``.imag`` serves both backends
    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    # -- predicates and conversions -------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


I_EXACT = QQi(0, 1)


def is_exact(x) -> bool:
    return isinstance(x, (QQi, Rational))


def unify(tables, exact=None):
    """Decide the arithmetic of one input and coerce all of it to it.

    ``tables`` is a list of dicts of numbers that enter one computation.
    With ``exact=None`` they are exact when every value is rational (int,
    Fraction or QQi) and float otherwise, so mixed input is promoted to
    float; ``exact=True`` refuses a non-rational value and ``exact=False``
    forces floats.  Exact values become QQi and floats complex, except
    under the keys in ``REAL_KEYS``, which become Fractions or floats and
    must be real.  Returns ``(exact, coerced tables)``; raises ValueError.
    """
    if exact is not False:
        bad = [v for t in tables for v in t.values() if not is_exact(v)]
        if exact and bad:
            raise ValueError(f"exact arithmetic needs rational input, got "
                             f"{bad[0]}")
        exact = not bad
    lift = QQi if exact else complex
    out = []
    for table in tables:
        coerced = {}
        for key, val in table.items():
            z = lift(val)
            if key in REAL_KEYS:
                if z.imag:
                    raise ValueError(f"parameter {key} must be real, "
                                     f"got {complex(val)}")
                z = z.real
            coerced[key] = z
        out.append(coerced)
    return exact, out


def conj(x):
    """Complex conjugate, valid for both scalar backends."""
    return x.conjugate()


def times_i(x):
    """sqrt(-1) * x in the arithmetic of x, exactly in both backends."""
    return I_EXACT * x if is_exact(x) else 1j * x


def is_zero(x, scale=None, tol=REL_TOL) -> bool:
    """Zero test honouring the backend: exact for QQi, toleranced for floats.

    ``scale`` is the magnitude of the largest coefficient in the enclosing
    expression; when given, the test is relative to it.
    """
    if is_exact(x):
        return not x
    m = abs(x)
    if scale is not None and scale > 0:
        return m <= max(tol * scale, ABS_TOL)
    return m <= ABS_TOL


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_solve(a, rhs):
    """Solve A x = b columnwise by Gaussian elimination, backend generic.

    ``rhs`` is a list of columns is not assumed; it is an n x m matrix whose
    columns are independent right-hand sides.  Raises ZeroDivisionError on a
    singular matrix (exact) and numpy-equivalent breakdown for floats.
    """
    n = len(a)
    m = len(rhs[0])
    aug = [[a[i][j] for j in range(n)] + [rhs[i][j] for j in range(m)]
           for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if is_zero(aug[piv][col]):
            raise ZeroDivisionError("singular matrix in generic solve")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        for j in range(col, n + m):
            aug[col][j] = aug[col][j] * inv
        for r in range(n):
            if r != col and not is_zero(aug[r][col]):
                f = aug[r][col]
                for j in range(col, n + m):
                    aug[r][j] = aug[r][j] - f * aug[col][j]
    return [[aug[i][n + j] for j in range(m)] for i in range(n)]


def mat_inv(a):
    n = len(a)
    return mat_solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def mat_det(a):
    """Determinant by cofactor expansion; matrices here are tiny."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * mat_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
