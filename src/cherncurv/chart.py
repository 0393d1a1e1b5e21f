"""Coordinate-patch backend: curvature of Hermitian metric fields.

A metric field is a callable h(z) -> n x n Hermitian matrix where z is a
list of n complex scalars; the callable must be generic in its arithmetic so
it can be evaluated on hyper-dual numbers (for exact first and second
derivatives) as well as on plain complex numbers (for the finite-difference
oracle).  Holomorphic and antiholomorphic derivatives are assembled from the
real-coordinate jets as

    d/dz    = (d/dx - sqrt(-1) d/dy) / 2 ,
    d/dzbar = (d/dx + sqrt(-1) d/dy) / 2 .

The curvature implements, verbatim,

    Theta_{i jbar k lbar} = - d^2 h_{k lbar} / dz^i dzbar^j
        + h^{p qbar} (d h_{k qbar} / dz^i) (d h_{p lbar} / dzbar^j) .

h^{-1} and the traces of Theta come from :mod:`cherncurv.invariant`, whose
contractions take a point as the stack of M = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import invariant as inv
from .scalars import mat_det


# ---------------------------------------------------------------------------
# hyper-dual forward mode

class HyperDual:
    """Truncated Taylor value f + f1 e1 + f2 e2 + f12 e1 e2, e_i^2 = 0.

    Seeding e1/e2 along two real coordinates makes ``f12`` the exact mixed
    second derivative.  Components are generic, so instances nest: a
    HyperDual whose components are HyperDuals differentiates through an
    inner jet evaluation (used for metric fields defined by a potential).
    """

    __slots__ = ("f0", "f1", "f2", "f12")

    def __init__(self, f0, f1=0.0, f2=0.0, f12=0.0):
        self.f0, self.f1, self.f2, self.f12 = f0, f1, f2, f12

    @staticmethod
    def lift(x):
        return x if isinstance(x, HyperDual) else HyperDual(x)

    def __add__(self, o):
        o = HyperDual.lift(o)
        return HyperDual(self.f0 + o.f0, self.f1 + o.f1,
                         self.f2 + o.f2, self.f12 + o.f12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.f0, -self.f1, -self.f2, -self.f12)

    def __sub__(self, o):
        return self + (-HyperDual.lift(o))

    def __rsub__(self, o):
        return HyperDual.lift(o) + (-self)

    def __mul__(self, o):
        o = HyperDual.lift(o)
        return HyperDual(
            self.f0 * o.f0,
            self.f0 * o.f1 + self.f1 * o.f0,
            self.f0 * o.f2 + self.f2 * o.f0,
            self.f0 * o.f12 + self.f12 * o.f0
            + self.f1 * o.f2 + self.f2 * o.f1)

    __rmul__ = __mul__

    def _recip(self):
        v = 1 / self.f0
        v2 = v * v
        return HyperDual(v, -self.f1 * v2, -self.f2 * v2,
                         -self.f12 * v2 + 2 * self.f1 * self.f2 * v2 * v)

    def __truediv__(self, o):
        return self * HyperDual.lift(o)._recip()

    def __rtruediv__(self, o):
        return HyperDual.lift(o) * self._recip()

    def conjugate(self):
        # valid because differentiation directions are real coordinates
        return HyperDual(self.f0.conjugate(), self.f1.conjugate(),
                         self.f2.conjugate(), self.f12.conjugate())

    def _chain(self, f, df, d2f):
        return HyperDual(f, df * self.f1, df * self.f2,
                         df * self.f12 + d2f * self.f1 * self.f2)

    def exp(self):
        v = hd_exp(self.f0)
        return self._chain(v, v, v)

    def log(self):
        v0 = self.f0
        return self._chain(hd_log(v0), 1 / v0, -1 / (v0 * v0))


def hd_exp(x):
    return x.exp() if isinstance(x, HyperDual) else cmath.exp(x)


def hd_log(x):
    return x.log() if isinstance(x, HyperDual) else cmath.log(x)


def _seed(x, a, b):
    """Complex coordinates z_i built from real coords x[2i], x[2i+1] with
    dual directions a and b seeded (indices into the real coordinates)."""
    n = len(x) // 2
    zs = []
    for i in range(n):
        re = HyperDual(x[2 * i],
                       1.0 if a == 2 * i else 0.0,
                       1.0 if b == 2 * i else 0.0)
        im = HyperDual(x[2 * i + 1],
                       1.0 if a == 2 * i + 1 else 0.0,
                       1.0 if b == 2 * i + 1 else 0.0)
        zs.append(re + 1j * im)
    return zs


def jet2(fn, x):
    """Value, gradient and Hessian of ``fn`` in the 2n real coordinates.

    ``fn`` maps a list of n complex scalars to a scalar or a nested list;
    the jet is computed entrywise.  Returns (value, grad, hess) where grad
    has one entry per real coordinate and hess is the full symmetric matrix.
    ``fn`` is evaluated m(m+1)/2 times, once per seeded pair a <= b of the
    m real coordinates; the pairs a == b also give the gradient.
    """
    m = len(x)
    grad = [None] * m
    hess = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            out = fn(_seed(x, a, b))
            if a == b:
                grad[a] = _map_struct(lambda h: h.f1, out)
            hess[a][b] = hess[b][a] = _map_struct(lambda h: h.f12, out)
    return _map_struct(lambda h: h.f0, out), grad, hess


def _map_struct(f, struct):
    if isinstance(struct, list):
        return [_map_struct(f, s) for s in struct]
    return f(HyperDual.lift(struct))


# ---------------------------------------------------------------------------
# fields

@dataclass
class ChartMetricField:
    """Differentiable Hermitian metric field over an axis-aligned box.

    ``fn`` maps a list of n complex coordinates to an n x n nested list;
    ``box`` is ((lo, hi), ...) per real coordinate; ``excluded`` is an
    optional predicate on the real coordinate vector marking points to
    avoid (with a margin enforced at sampling time).
    """

    n: int
    fn: Callable
    box: tuple
    name: str = ""
    excluded: Optional[Callable] = None

    def matrix(self, x):
        z = [complex(x[2 * i], x[2 * i + 1]) for i in range(self.n)]
        return np.array(self.fn(z), dtype=complex)

    def in_domain(self, x, margin=1e-2) -> bool:
        for v, (lo, hi) in zip(x, self.box):
            if not lo + margin <= v <= hi - margin:
                return False
        if self.excluded is not None and self.excluded(x, margin):
            return False
        return True


@dataclass
class ScalarField:
    n: int
    fn: Callable
    name: str = ""


EXCLUSION_MARGIN = 1e-2


def _halton(index, base):
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def sample_points(field: ChartMetricField, count: int, seed: int = 0):
    """Deterministic low-discrepancy points inside the field's domain box,
    skipping excluded regions with the standard margin."""
    dim = 2 * field.n
    pts = []
    idx = 1 + 1000 * seed
    while len(pts) < count:
        x = tuple(lo + ( hi - lo) * _halton(idx, _PRIMES[d % len(_PRIMES)])
                  for d, (lo, hi) in enumerate(field.box))
        idx += 1
        if field.in_domain(x, EXCLUSION_MARGIN):
            pts.append(x)
        if idx > 1000 * (seed + 1) + 100 * count + 10000:
            raise RuntimeError("could not draw enough admissible points")
    return pts


# ---------------------------------------------------------------------------
# holomorphic derivative assembly

def _d2_holo(hess, i, j):
    """d^2 / dz^i dzbar^j from the real Hessian."""
    return 0.25 * (hess[2 * i][2 * j] + hess[2 * i + 1][2 * j + 1]
                   + 1j * (hess[2 * i][2 * j + 1] - hess[2 * i + 1][2 * j]))


def _holo(grad, hess):
    """(d/dz^i, d/dzbar^i, d^2/dz^i dzbar^j) as lists over i (and j), from
    the real-coordinate gradient and Hessian.  Entries may be scalars,
    arrays or hyper-dual numbers."""
    n = len(grad) // 2
    dz = [0.5 * (grad[2 * i] - 1j * grad[2 * i + 1]) for i in range(n)]
    dzbar = [0.5 * (grad[2 * i] + 1j * grad[2 * i + 1]) for i in range(n)]
    d2 = [[_d2_holo(hess, i, j) for j in range(n)] for i in range(n)]
    return dz, dzbar, d2


def _holo_jets(fn, x):
    """Value, d/dz^i, d/dzbar^i and d^2/dz^i dzbar^j of ``fn`` at the real
    point x as complex arrays, derivative indices first:
    dz[i, k, l] = d fn_kl / dz^i."""
    val, grad, hess = jet2(fn, list(x))
    dz, dzbar, d2 = _holo(np.array(grad, dtype=complex),
                          np.array(hess, dtype=complex))
    return (np.array(val, dtype=complex), np.array(dz), np.array(dzbar),
            np.array(d2))


def _assemble_curvature(up, dh, dhb, d2h):
    return -d2h + np.einsum("pq,ikq,jpl->ijkl", up, dh, dhb)


def _curvature(field: ChartMetricField, x):
    """(Theta, h, h^{-1} as :func:`invariant._upper`) at x from one jet of
    the metric field, with h inverted once; the inverse refuses a metric
    that is not positive definite at x."""
    h0, dh, dhb, d2h = _holo_jets(field.fn, x)
    up = inv._upper(h0)
    return _assemble_curvature(up, dh, dhb, d2h), h0, up


def curvature_at(field: ChartMetricField, x):
    """Lowered Chern curvature Theta[i,j,k,l] at the point x (real coords)."""
    return _curvature(field, x)[0]


def ricci_matrices_at(field: ChartMetricField, x):
    """(Ric1, Ric2, S = <h^{-1}, Ric1>) from the curvature tensor at x, by
    the invariant layer's contractions of the stack of one point."""
    theta, _, up = _curvature(field, x)
    up, theta = up[..., None], theta[..., None]
    ric1 = np.einsum(inv._RICCI[1], up, theta)[..., 0]
    return (ric1, np.einsum(inv._RICCI[2], up, theta)[..., 0],
            float(np.einsum(inv._S, up, ric1)[0].real))


def chern_laplacian_at(field: ChartMetricField, f: ScalarField, x):
    """Delta^Ch f = -2 h^{j kbar} d^2 f / dz^j dzbar^k at x."""
    up, d2f = inv._upper(field.matrix(x)), _holo_jets(f.fn, x)[3]
    return float(inv._laplacian_stack(up[..., None], d2f[..., None])[0])


def fd_oracle(field: ChartMetricField, x, step: float = 1e-4):
    """Curvature by Richardson-extrapolated central finite differences.

    Entirely independent of the hyper-dual path; same curvature formula.
    """
    for v, (lo, hi) in zip(x, field.box):
        if not (lo + 2 * step <= v <= hi - 2 * step):
            raise ValueError("insufficient margin for finite differences")
    n = field.n

    def jets(hstep):
        dim = 2 * n
        base = np.array(x, dtype=float)
        g = np.empty((dim, n, n), dtype=complex)
        hes = np.empty((dim, dim, n, n), dtype=complex)
        for a in range(dim):
            xp, xm = base.copy(), base.copy()
            xp[a] += hstep
            xm[a] -= hstep
            g[a] = (field.matrix(xp) - field.matrix(xm)) / (2 * hstep)
        f0 = field.matrix(base)
        for a in range(dim):
            for b in range(a, dim):
                if a == b:
                    xp, xm = base.copy(), base.copy()
                    xp[a] += hstep
                    xm[a] -= hstep
                    val = (field.matrix(xp) - 2 * f0 + field.matrix(xm)) \
                        / hstep ** 2
                else:
                    xpp, xpm = base.copy(), base.copy()
                    xmp, xmm = base.copy(), base.copy()
                    xpp[[a, b]] += hstep
                    xmm[[a, b]] -= hstep
                    xpm[a] += hstep
                    xpm[b] -= hstep
                    xmp[a] -= hstep
                    xmp[b] += hstep
                    val = (field.matrix(xpp) - field.matrix(xpm)
                           - field.matrix(xmp) + field.matrix(xmm)) \
                        / (4 * hstep ** 2)
                hes[a, b] = hes[b, a] = val
        return f0, g, hes

    def assemble(hstep):
        f0, g, hes = jets(hstep)
        dh, dhb, d2h = (np.array(v) for v in _holo(g, hes))
        return _assemble_curvature(inv._upper(f0), dh, dhb, d2h)

    coarse = assemble(step)
    fine = assemble(step / 2)
    return (4 * fine - coarse) / 3


# ---------------------------------------------------------------------------
# conformal change laws

def conformal_check(field: ChartMetricField, f: ScalarField, x):
    """Verify the three conformal-change identities at one point.

    Returns a dict of max relative discrepancies for the curvature identity,
    the Ric1 law and the Ric2 law.
    """
    n = field.n

    def scaled_fn(z):
        ef = hd_exp(f.fn(z))
        mat = field.fn(z)
        return [[ef * mat[i][j] for j in range(n)] for i in range(n)]

    scaled = ChartMetricField(n, scaled_fn, field.box,
                              name=field.name + "*e^f",
                              excluded=field.excluded)
    theta_f, _, up_f = _curvature(scaled, x)
    theta, h0, up = _curvature(field, x)
    fval, _, _, d2f = _holo_jets(f.fn, x)
    ef = math.exp(float(np.real(fval)))
    rhs = ef * (theta - np.einsum("kl,ij->ijkl", h0, d2f))
    out = {"curvature": _rel(theta_f, rhs)}

    # the rescaled and the base metric as one stack of M = 2
    ups, thetas = np.stack([up_f, up], -1), np.stack([theta_f, theta], -1)
    ric1_f, ric1 = inv._leading(np.einsum(inv._RICCI[1], ups, thetas))
    out["ric1"] = _rel(ric1_f, ric1 - n * d2f)
    ric2_f, ric2 = inv._leading(np.einsum(inv._RICCI[2], ups, thetas))
    lap = inv._laplacian_stack(up[..., None], d2f[..., None])[0]
    out["ric2"] = _rel(ric2_f, ric2 + 0.5 * lap * h0)
    return out


def _rel(a, b):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# first-Chern-Einstein metrics from a Kahler potential

@dataclass
class PotentialCEReport:
    points: list
    max_error: float
    factors: list  # Einstein factor sign * e^{-f/n} per point


def metric_from_potential(potential: ScalarField) -> ChartMetricField:
    """omega = sqrt(-1) del delbar of the potential, as a metric field.

    The returned field nests a second-order jet inside whatever arithmetic
    it is evaluated with, so it remains differentiable.
    """
    n = potential.n

    def fn(z):
        # split the complex coordinates back into generic real/imag parts
        x = []
        for zi in z:
            x.append((zi + zi.conjugate()) * 0.5)
            x.append((zi - zi.conjugate()) * (-0.5j))
        _, grad, hess = jet2(potential.fn, x)
        return _holo(grad, hess)[2]

    return ChartMetricField(n, fn, box=((-1.5, 1.5),) * (2 * n),
                            name=potential.name + "-potential-metric")


def first_ce_from_potential(potential: ScalarField, sign: int,
                            points) -> PotentialCEReport:
    """Build the conformally rescaled metric e^{f/n} omega from a Kahler
    potential and verify the weak-first-Chern-Einstein property pointwise.

    f = -log det(del delbar potential) - sign * potential makes
    Ric1(omega) = sign*omega + sqrt(-1) del delbar f an identity; the claim
    verified here is Ric1(e^{f/n} omega) = sign * omega, equivalently the
    Einstein factor of the rescaled metric is sign * e^{-f/n}.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = potential.n
    base = metric_from_potential(potential)

    def f_of(mat, z):
        return -hd_log(mat_det(mat)) - sign * potential.fn(z)

    def scaled_fn(z):
        mat = base.fn(z)
        ef = hd_exp(f_of(mat, z) * (1.0 / n))
        return [[ef * mat[i][j] for j in range(n)] for i in range(n)]

    scaled = ChartMetricField(n, scaled_fn, base.box,
                              name=potential.name + "-ce")
    worst = 0.0
    factors = []
    for x in points:
        h0 = base.matrix(x)
        if np.min(np.linalg.eigvalsh(h0)) <= 0:
            raise ValueError(
                "potential is not strictly plurisubharmonic at a point")
        theta, _, up = _curvature(scaled, x)
        ric1 = np.einsum(inv._RICCI[1], up[..., None],
                         theta[..., None])[..., 0]
        worst = max(worst, _rel(ric1, sign * h0))
        z = [complex(x[2 * i], x[2 * i + 1]) for i in range(n)]
        fval = float(np.real(complex(f_of(h0.tolist(), z))))
        factors.append(sign * math.exp(-fval / n))
    return PotentialCEReport(points=list(points), max_error=worst,
                             factors=factors)


# ---------------------------------------------------------------------------
# registered test metrics

def _flat_fn(z):
    n = len(z)
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _hopf_fn(z):
    # delta_ij / (2 |z|^2), normalised so that Ric^(2) = 2 omega; this is
    # the chart expression of the invariant Hopf metric with r = 1
    n = len(z)
    r2 = None
    for zi in z:
        t = zi * zi.conjugate()
        r2 = t if r2 is None else r2 + t
    inv = 0.5 / r2
    return [[inv if i == j else 0.0 * inv for j in range(n)]
            for i in range(n)]


def _fs_product_fn(z):
    n = len(z)
    out = [[0.0 if i != j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        t = 1 + z[i] * z[i].conjugate()
        out[i][i] = 1 / (t * t)
    return out


def _random_poly_fn_factory(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n), scale=0.25) + 1j * rng.normal(size=(n, n),
                                                              scale=0.25)
    b = rng.normal(size=(n, n), scale=0.25) + 1j * rng.normal(size=(n, n),
                                                              scale=0.25)

    def fn(z):
        # h = Id + 0.3 v v^dagger with v linear in (z, conj z): smooth,
        # Hermitian and positive definite everywhere
        v = []
        for i in range(n):
            acc = 0j
            for k in range(n):
                acc = acc + complex(a[i, k]) * z[k] \
                    + complex(b[i, k]) * z[k].conjugate()
            v.append(acc)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                base = (1.0 + 0j) if i == j else 0j
                out[i][j] = base + 0.3 * v[i] * v[j].conjugate()
        return out

    return fn


def registered_metrics(n: int = 2, seed: int = 7):
    """Named chart test metrics exposed through the CLI and the test suite."""
    box_sym = ((-1.2, 1.2),) * (2 * n)

    def hopf_excluded(x, margin):
        return sum(v * v for v in x) < (10 * margin) ** 2

    return {
        "flat": ChartMetricField(n, _flat_fn, box_sym, name="flat"),
        "hopf-chart": ChartMetricField(
            n, _hopf_fn, ((0.2, 1.8),) * (2 * n), name="hopf-chart",
            excluded=hopf_excluded),
        "fs-product": ChartMetricField(n, _fs_product_fn, box_sym,
                                       name="fs-product"),
        "random-poly": ChartMetricField(
            n, _random_poly_fn_factory(n, seed), box_sym, name="random-poly"),
    }


def registered_factors(n: int = 2):
    """Smooth real conformal factors used by the verification suites."""

    def abs2_first(z):
        return z[0] * z[0].conjugate()

    def mixed(z):
        t = z[0] * z[1].conjugate()
        return 0.2 * z[0] * z[0].conjugate() + 0.1 * (t + t.conjugate())

    def const(z):
        return 0.3 + 0.0 * z[0]

    return {
        "constant": ScalarField(n, const, name="constant"),
        "abs2": ScalarField(n, abs2_first, name="abs2"),
        "mixed": ScalarField(n, mixed, name="mixed"),
    }
