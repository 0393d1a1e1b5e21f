"""Complex exterior algebra over a fixed invariant (1,0)-coframe.

Basis covectors are indexed 0..2n-1 in the canonical total order
phi^1 < ... < phi^n < bar(phi)^1 < ... < bar(phi)^n; a monomial is a strictly
increasing tuple of indices and all signs are normalised at construction.
The exterior differential is induced by structure constants

    d phi^i = sum_{j<k} A^i_{jk} phi^j ^ phi^k
            + sum_{j,k}  B^i_{jk} phi^j ^ bar(phi)^k
            + sum_{j<k} C^i_{jk} bar(phi)^j ^ bar(phi)^k

with all indices 1-based in the public constructor, matching how such
structure equations are usually displayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .scalars import conj, is_exact, is_zero


class DimensionMismatch(ValueError):
    pass


class NotIntegrable(ValueError):
    """The coframe carries a (0,2)-component in some d(phi^i)."""


def _sort_indices(idx):
    """Sort a monomial index tuple, returning (sorted tuple, sign) or None
    when an index repeats."""
    idx = list(idx)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return tuple(idx), sign


@dataclass(frozen=True)
class CoframeAlgebra:
    """Structure constants of d on an invariant (1,0)-coframe.

    ``a``, ``b``, ``c`` map 1-based index triples (i, j, k) to coefficients:
    a[(i,j,k)] multiplies phi^j^phi^k (j<k) in d(phi^i), b[(i,j,k)]
    multiplies phi^j^bar(phi)^k, c[(i,j,k)] multiplies bar(phi)^j^bar(phi)^k
    (j<k).  Entry points build it from :func:`~cherncurv.scalars.unify`,
    so all coefficients share one arithmetic.
    """

    n: int
    a: Dict[Tuple[int, int, int], object] = field(default_factory=dict)
    b: Dict[Tuple[int, int, int], object] = field(default_factory=dict)
    c: Dict[Tuple[int, int, int], object] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be positive")
        for table, strict in ((self.a, True), (self.b, False), (self.c, True)):
            for (i, j, k) in table:
                if not (1 <= i <= self.n and 1 <= j <= self.n
                        and 1 <= k <= self.n):
                    raise ValueError(f"structure index out of range: {(i,j,k)}")
                if strict and not j < k:
                    raise ValueError("antisymmetric table needs j < k")

    @property
    def exact(self) -> bool:
        """Every structure constant is rational (vacuously so with none).

        An algebra without constants fixes no arithmetic; the metric of a
        computation does."""
        return all(is_exact(v) for table in (self.a, self.b, self.c)
                   for v in table.values())

    def basis_1form(self, idx: int, barred=False) -> "InvariantForm":
        """phi^idx (or bar(phi)^idx), idx 1-based; the coefficient 1 is the
        unit of both arithmetics."""
        key = (idx - 1 + (self.n if barred else 0),)
        return InvariantForm(self.n, {key: 1})

    def d_basis(self, idx: int, barred=False) -> "InvariantForm":
        """Structure-equation expansion of d(phi^idx) resp. d(bar phi^idx)."""
        n = self.n
        coeffs = {}

        def add(key, val):
            srt = _sort_indices(key)
            if srt is None:
                return
            key2, sgn = srt
            v = val if sgn > 0 else -val
            coeffs[key2] = coeffs[key2] + v if key2 in coeffs else v

        for (i, j, k), v in self.a.items():
            if i == idx:
                add((j - 1, k - 1), v)
        for (i, j, k), v in self.b.items():
            if i == idx:
                add((j - 1, k - 1 + n), v)
        for (i, j, k), v in self.c.items():
            if i == idx:
                add((j - 1 + n, k - 1 + n), v)
        form = InvariantForm(n, coeffs)
        return form.conj() if barred else form

    def check_integrable(self):
        """C must vanish: d(phi^i) has no (0,2)-part."""
        for v in self.c.values():
            if not is_zero(v):
                raise NotIntegrable(
                    "coframe has a (0,2)-component in its differential")

    def is_integrable(self) -> bool:
        try:
            self.check_integrable()
        except NotIntegrable:
            return False
        return True

    def check_jacobi(self):
        """d(d phi^i) termwise for every basis covector.

        Returns (passed, residual) with residual the largest offending
        coefficient magnitude (0 in exact arithmetic on a pass).
        """
        residual = 0.0
        for idx in range(1, self.n + 1):
            for barred in (False, True):
                dd = ext_d(self, self.d_basis(idx, barred))
                for v in dd.coefficients.values():
                    residual = max(residual, abs(v))
        scale = self._coefficient_scale()
        passed = residual <= max(1e-12 * max(scale, 1.0), 1e-14) \
            if not self.exact else residual == 0
        return passed, residual

    def _coefficient_scale(self):
        vals = [abs(v) for t in (self.a, self.b, self.c) for v in t.values()]
        return max(vals, default=0.0)


class InvariantForm:
    """Graded element of the complex exterior algebra over 2n covectors.

    Storage is canonical: strictly increasing index tuples mapped to
    coefficients, so two forms are equal iff their coefficient maps agree.
    """

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients=None):
        self.n = n
        self.coefficients = {}
        if coefficients:
            for key, val in coefficients.items():
                srt = _sort_indices(tuple(key))
                if srt is None:
                    continue
                key2, sgn = srt
                v = val if sgn > 0 else -val
                if key2 in self.coefficients:
                    v = self.coefficients[key2] + v
                self.coefficients[key2] = v
            self._prune()

    # -- helpers --------------------------------------------------------
    def _prune(self):
        scale = self.max_abs()
        dead = [k for k, v in self.coefficients.items()
                if is_zero(v, scale=scale)]
        for k in dead:
            del self.coefficients[k]

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coefficients.values()), default=0.0)

    def is_zero(self, tol_scale=None) -> bool:
        scale = tol_scale if tol_scale is not None else self.max_abs()
        return all(is_zero(v, scale=scale) for v in self.coefficients.values())

    def coeff(self, *indices):
        """Coefficient of the monomial with the given 0-based indices,
        including the sign produced by canonical reordering."""
        srt = _sort_indices(tuple(indices))
        if srt is None:
            return 0
        key, sgn = srt
        v = self.coefficients.get(key)
        if v is None:
            return 0
        return v if sgn > 0 else -v

    def bidegrees(self):
        out = set()
        for key in self.coefficients:
            p = sum(1 for i in key if i < self.n)
            out.add((p, len(key) - p))
        return out

    # -- algebra --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("forms over different coframe dimensions")
        coeffs = dict(self.coefficients)
        for k, v in other.coefficients.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        out = InvariantForm(self.n)
        out.coefficients = coeffs
        out._prune()
        return out

    def __neg__(self):
        out = InvariantForm(self.n)
        out.coefficients = {k: -v for k, v in self.coefficients.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        out = InvariantForm(self.n)
        out.coefficients = {k: v * c for k, v in self.coefficients.items()}
        out._prune()
        return out

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        if other.n != self.n:
            raise DimensionMismatch("forms over different coframe dimensions")
        coeffs = {}
        for ka, va in self.coefficients.items():
            for kb, vb in other.coefficients.items():
                srt = _sort_indices(ka + kb)
                if srt is None:
                    continue
                key, sgn = srt
                v = va * vb
                if sgn < 0:
                    v = -v
                coeffs[key] = coeffs[key] + v if key in coeffs else v
        out = InvariantForm(self.n)
        out.coefficients = coeffs
        out._prune()
        return out

    def conj(self) -> "InvariantForm":
        n = self.n
        coeffs = {}
        for key, val in self.coefficients.items():
            swapped = tuple((i + n) % (2 * n) for i in key)
            srt = _sort_indices(swapped)
            key2, sgn = srt
            v = conj(val)
            coeffs[key2] = v if sgn > 0 else -v
        out = InvariantForm(n)
        out.coefficients = coeffs
        return out

    def project_bidegree(self, p: int, q: int) -> "InvariantForm":
        if p < 0 or q < 0:
            raise ValueError("bidegree components must be nonnegative")
        out = InvariantForm(self.n)
        out.coefficients = {
            k: v for k, v in self.coefficients.items()
            if sum(1 for i in k if i < self.n) == p and len(k) - (
                sum(1 for i in k if i < self.n)) == q}
        return out

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero(
            tol_scale=max(self.max_abs(), other.max_abs()))

    def __repr__(self):
        if not self.coefficients:
            return "InvariantForm(0)"
        parts = []
        for key in sorted(self.coefficients):
            names = ["phi%d" % (i + 1) if i < self.n else
                     "bar%d" % (i - self.n + 1) for i in key]
            parts.append(f"({self.coefficients[key]!r}) " + "^".join(names)
                         if names else repr(self.coefficients[key]))
        return "InvariantForm[" + " + ".join(parts) + "]"


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    return a.wedge(b)


def ext_d(alg: CoframeAlgebra, form: InvariantForm) -> InvariantForm:
    """Exterior differential via Leibniz over the structure equations."""
    if form.n != alg.n:
        raise DimensionMismatch("form does not match the coframe dimension")
    n = alg.n
    out = InvariantForm(n)
    d_cache = {}
    for key, val in form.coefficients.items():
        for pos, idx in enumerate(key):
            if idx not in d_cache:
                if idx < n:
                    d_cache[idx] = alg.d_basis(idx + 1)
                else:
                    d_cache[idx] = alg.d_basis(idx - n + 1, barred=True)
            dphi = d_cache[idx]
            rest = key[:pos] + key[pos + 1:]
            sgn_val = val if pos % 2 == 0 else -val
            for dkey, dval in dphi.coefficients.items():
                srt = _sort_indices(dkey + rest)
                if srt is None:
                    continue
                key2, sgn = srt
                v = sgn_val * dval
                if sgn < 0:
                    v = -v
                cur = out.coefficients.get(key2)
                out.coefficients[key2] = cur + v if cur is not None else v
    out._prune()
    return out


def _d_componentwise(alg, form, dp, dq):
    out = InvariantForm(alg.n)
    for (p, q) in form.bidegrees():
        comp = form.project_bidegree(p, q)
        out = out + ext_d(alg, comp).project_bidegree(p + dp, q + dq)
    return out


def del_part(alg: CoframeAlgebra, form: InvariantForm) -> InvariantForm:
    """(1,0)-part of d: raises each (p,q)-component to (p+1,q)."""
    return _d_componentwise(alg, form, 1, 0)


def dbar_part(alg: CoframeAlgebra, form: InvariantForm) -> InvariantForm:
    """(0,1)-part of d: raises each (p,q)-component to (p,q+1)."""
    return _d_componentwise(alg, form, 0, 1)
