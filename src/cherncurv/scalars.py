"""Scalar backends shared by the exterior-algebra and curvature code.

Two interchangeable coefficient fields are supported:

* plain python ``complex`` (fast, default), and
* :class:`QQi`, exact Gaussian rationals, used when structure constants and
  metric parameters are rational so that verification can be exact.  A QQi
  is a Gaussian integer over one positive denominator, kept in lowest
  terms, so its arithmetic is int arithmetic and one gcd; Fractions appear
  only where a caller reads its real and imaginary parts.

The two are never mixed inside a single computation.  :func:`unify` is the
one place where the arithmetic of an input is decided: every entry point
(structure files, command-line parameters, catalog entries, metric
matrices) passes its numbers through it, and the containers built from the
result carry the decision as their ``exact`` attribute.

:func:`negligible` is the invariant layer's one rule for "is this zero":
equality in exact arithmetic, and in floats a magnitude within
``ROUNDING`` times the value's first-order rounding bound, which the
tensor pipeline computes beside every float result.  :func:`is_zero` is
the relative test of the form algebra, the pivots of :func:`mat_solve`
and input validation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

# Float zero test of is_zero: relative against the largest coefficient in
# the expression, with an absolute fallback for expressions that are zero
# outright.  Calibrated for double precision over <= 4 wedge factors.
REL_TOL = 1e-12
ABS_TOL = 1e-14

# unit roundoff u of double precision, the unit of rounding bounds
UNIT_ROUNDOFF = 2.0 ** -53
# negligible's one constant, its margin over a first-order rounding bound
# for the dropped second-order terms and the few additions a bound folds
# in.  Over 9 entries x 17 points, r and s from 1e-3 to 1e4, zero results
# reached 0.73 of their bound and nonzero ones no less than 13.8 of it.
ROUNDING = 4.0

# metric parameters that must be real
REAL_KEYS = ("r", "s", "ell")


class QQi:
    """Gaussian rational (a + b*sqrt(-1)) / d on Python ints.

    The stored form is canonical: d > 0 and gcd(a, b, d) = 1, so equality
    and hashing compare the triple (a, b, d), and arithmetic is integer
    arithmetic followed by one gcd.  ``QQi(re, im)`` takes any two
    rationals (or a QQi and a rational to add to its imaginary part);
    ``re``, ``im``, ``real`` and ``imag`` read the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            re, im = re.re, re.im + Fraction(im)
        (p, q), (r, s) = _ratio(re), _ratio(im)
        # two parts in lowest terms over the lcm of their denominators
        # are canonical already
        d = math.lcm(q, s)
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if type(other) is int:
            return _qqi(other, 0, 1)
        if type(other) is Fraction:
            return _qqi(other.numerator, 0, other.denominator)
        if isinstance(other, Rational):
            return QQi(other)
        return NotImplemented

    # Zero operands short-circuit: sparse structure constants make most
    # terms of a dense contraction zero.
    def __add__(self, other):
        o = other if type(other) is QQi else self._coerce(other)
        if o is NotImplemented:
            return o
        if not (o.a or o.b):
            return self
        if not (self.a or self.b):
            return o
        if self.d == o.d:
            return _reduced(self.a + o.a, self.b + o.b, self.d)
        return _reduced(self.a * o.d + o.a * self.d,
                        self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + -self

    def __mul__(self, other):
        o = other if type(other) is QQi else self._coerce(other)
        if o is NotImplemented:
            return o
        if not (self.a or self.b):
            return self
        if not (o.a or o.b):
            return o
        return _reduced(self.a * o.a - self.b * o.b,
                        self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # x / y = x conj(y) / |y|^2, with |y|^2 = (a^2 + b^2) / d^2
        norm = o.a * o.a + o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((self.a * o.a + self.b * o.b) * o.d,
                        (self.b * o.a - self.a * o.b) * o.d, self.d * norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return _qqi(-self.a, -self.b, self.d)

    # the parts as Fractions, also under python's complex-number names, so
    # that code written against ``.real``/``.imag`` serves both backends
    re = real = property(lambda self: Fraction(self.a, self.d))
    im = imag = property(lambda self: Fraction(self.b, self.d))

    def conjugate(self):
        return _qqi(self.a, -self.b, self.d)

    # -- predicates and conversions -------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does, and raises
        # OverflowError past the float range
        return complex(self.a / self.d, self.b / self.d)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _ratio(x):
    """(numerator, denominator) of a rational in lowest terms."""
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _qqi(a, b, d):
    """The QQi (a + b i) / d of a canonical triple, unchecked."""
    x = object.__new__(QQi)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a, b, d):
    """The QQi (a + b i) / d for ints a, b and d > 0, made canonical."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = object.__new__(QQi)
    x.a, x.b, x.d = a, b, d
    return x


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


def is_zero(x, scale=None) -> bool:
    """Zero test honouring the backend: exact for QQi, toleranced for floats.

    ``scale`` is the magnitude of the largest coefficient in the enclosing
    expression; when given, the test is relative to it.
    """
    if is_exact(x):
        return not x
    m = abs(x)
    if scale is not None and scale > 0:
        return m <= max(REL_TOL * scale, ABS_TOL)
    return m <= ABS_TOL


def negligible(x, bound) -> bool:
    """Whether x is zero: exact x when it is zero, float x when it is at
    most ``ROUNDING * bound``, with ``bound`` a first-order bound on the
    rounding error of x (0 for an input value).  The bound scales with the
    input, so the answer is the same at every scale of it."""
    return not x if is_exact(x) else abs(x) <= ROUNDING * bound


def resolve(x, bound):
    """x with each of its real and imaginary parts that is negligible
    against ``bound``, the rounding bound of x, set to 0: a float's parts
    that are rounding noise print as 0.  Exact x is returned as it is."""
    if is_exact(x):
        return x
    x = complex(x)
    return complex(0.0 if negligible(x.real, bound) else x.real,
                   0.0 if negligible(x.imag, bound) else x.imag)


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
    exact = all(is_exact(v) for row in a for v in row)
    aug = [[a[i][j] for j in range(n)] + [rhs[i][j] for j in range(m)]
           for i in range(n)]
    for col in range(n):
        rows = range(col, n)
        # any nonzero pivot gives the exact solution; floats take the
        # largest (partial pivoting)
        piv = (next((r for r in rows if aug[r][col]), col) if exact
               else max(rows, key=lambda r: abs(aug[r][col])))
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
