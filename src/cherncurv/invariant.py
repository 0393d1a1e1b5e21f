"""Chern-connection geometry of invariant Hermitian metrics.

Everything here works over a :class:`~cherncurv.forms.CoframeAlgebra` with a
constant Hermitian matrix h.  With B^i_{j k} the coefficient of
phi^j ^ bar(phi)^k in d phi^i, the Chern connection is

    theta^m_k = gamma^m_{k l} phi^l + B^m_{k l} bar(phi)^l,

its (0,1)-part killing the (1,1)-torsion and its (1,0)-part gamma fixed by
compatibility with the constant metric,

    gamma^m_{i l} h_{m jbar} = - h_{i kbar} conj(B^k_{j l}).

All coefficients are constant, so Theta^m_k = d theta^m_k + theta^m_l ^
theta^l_k = R^m_{k i jbar} phi^i ^ bar(phi)^j has the closed form

    R^m_{k i jbar} = gamma^m_{k l} B^l_{i j} - B^m_{k l} conj(B^l_{j i})
                   + gamma^m_{l i} B^l_{k j} - B^m_{l j} gamma^l_{k i},
    Theta_{i jbar k lbar} = R^m_{k i jbar} h_{m lbar}.

One einsum evaluation of this formula, and one set of contractions (the two
Ricci forms, the third Ricci tensor, both scalar curvatures, the Einstein
residuals), serves a single metric in exact QQi or float arithmetic and a
float batch of metrics alike.

:func:`chern_curvature` validates and solves a (coframe, metric) pair once;
its :class:`CurvatureTensor` carries A, B, gamma and h^{-1} beside R and
Theta, and that one solved tensor serves every contraction below.

Every zero test of a float result (a printed Theta entry, a Ricci form
entry, a trace, the Gauduchon coefficient, the Bogomolov-Lubke pairing, a
catalog comparison) is :func:`~cherncurv.scalars.negligible` against the
result's first-order rounding bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 3.3 and ch. 14).  :func:`chern_curvature`
bounds each entry of h^{-1} (by |h^{-1}| |h| |h^{-1}|), gamma, R and
Theta, and each contraction carries the bounds on by the same einsums on
absolute values, err(AB) <= |A| err(B) + err(A) |B| + k u |A| |B|.
Exact solves have zero bounds, and the batched scan computes none.

The other invariant quantities are contractions of gamma, B, the
antisymmetric (2,0)-table A (d phi^i = A^i_{a b} phi^a ^ phi^b / 2 + ...),
R and up = h^{-1} (up^{a bbar}), with (n-1)-fold and (n-2)-fold powers of
omega entering through det h and up alone:

* torsion  T^i_{a b} = A^i_{a b} + gamma^i_{b a} - gamma^i_{a b}, the
  coefficients of d phi^i + theta^i_j ^ phi^j, whose (1,1)-part cancels
  identically; its trace is tau_j = T^k_{j k};
* Lee form  theta = tau + conj(tau), with d omega^{n-1} = theta ^ omega^{n-1};
* Gauduchon residual  |del dbar omega^{n-1}| =
  (n-1)! |det h| |up^{l kbar} alpha_{l kbar}|, with
  alpha_{l kbar} = - conj(tau_j B^j_{k l}) + tau_l conj(tau_k);
* Bogomolov-Lubke pairing  ((n-1) c1^2 - 2n c2) ^ omega^{n-2} against
  omega^n / n!, equal to
  -(n-2)!/(4 pi^2) [ (L tr R)^2 - <tr R, tr R>
                     - n sum_{m,l} (L R^m_l L R^l_m - <R^m_l, R^l_m>) ],
  with L X = up^{a bbar} X_{a bbar} and
  <X, Y> = up^{a bbar} up^{c dbar} X_{a dbar} Y_{c bbar}.

The form-algebra evaluations of the same quantities with ``ext_d`` and
``wedge`` are kept as test oracles in ``tests/forms_oracle.py``; the Lee
checks still use ``ext_d`` and ``wedge`` on the computed Lee form.

Sign calibration is normative against the Hopf anchors
Ric1 = 2 sqrt(-1) phi^1 ^ bar(phi)^1, Ric2 = (2/r^2) omega, S = 4/r^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import CoframeAlgebra, InvariantForm, ext_d
from .scalars import (UNIT_ROUNDOFF, QQi, conj, is_zero, mat_det, mat_inv,
                      mat_solve, negligible, times_i, unify)


class NotPositiveDefinite(ValueError):
    pass


class DegenerateMetric(ValueError):
    pass


class HermitianMetric:
    """Constant Hermitian positive-definite matrix h_{i jbar}.

    The associated fundamental form is
    omega = sqrt(-1) h_{i jbar} phi^i ^ bar(phi)^j.  The entries pass
    through :func:`~cherncurv.scalars.unify`: ``exact`` is True when all
    of them are rational, and they are then QQi, else complex.  ``h``
    holds the matrix as nested lists and ``array`` as a numpy array.
    """

    def __init__(self, h):
        rows = [list(row) for row in h]
        self.n = len(rows)
        if any(len(row) != self.n for row in rows):
            raise ValueError("metric matrix must be square")
        self.exact, (flat,) = unify([{(i, j): v for i, row in enumerate(rows)
                                      for j, v in enumerate(row)}])
        self.h = [[flat[i, j] for j in range(self.n)] for i in range(self.n)]
        self._validate()
        self.array = np.array(self.h, dtype=object if self.exact else complex)
        self._up = None

    def _validate(self):
        n = self.n
        scale = max(abs(self.h[i][j]) for i in range(n) for j in range(n))
        for i in range(n):
            for j in range(n):
                if not is_zero(self.h[i][j] - conj(self.h[j][i]), scale=scale):
                    raise ValueError("metric matrix is not Hermitian")
        det = mat_det(self.h)
        if not self.exact and abs(det) < 1e-10 * scale ** n:
            raise DegenerateMetric("metric is numerically degenerate")
        # positive definiteness via leading principal minors
        for k in range(1, n + 1):
            minor = mat_det([row[:k] for row in self.h[:k]])
            val = complex(minor)
            if val.real <= 0:
                raise NotPositiveDefinite(
                    f"leading principal minor {k} is not positive")

    def inverse_upper(self):
        """h^{i jbar}, the inverse satisfying h^{i jbar} h_{k jbar} = delta,
        computed on the first call and kept."""
        if self._up is None:
            self._up = _upper(self.array[None])[0]
        return self._up

    def scaled(self, c) -> "HermitianMetric":
        return HermitianMetric([[v * c for v in row] for row in self.h])

    def omega(self) -> InvariantForm:
        return _matrix_to_form(self.h, np.zeros((self.n, self.n)))


# Elementwise x ** k and |z| by libm pow and hypot, the functions Python's
# float ``**`` and ``abs(complex)`` call.  numpy's ``**``, ``abs`` and
# complex ``*`` on arrays take SIMD paths that round differently, so a
# formula written with these two and real + - * / gives the same bits for
# a point whether it is evaluated alone, on Python scalars, or in an array.

def libm_pow(x, k):
    """x ** k elementwise, by libm pow."""
    return np.float_power(x, k)


def libm_abs(z):
    """|z| elementwise, by libm hypot."""
    return np.hypot(np.real(z), np.imag(z))


def surface_admissible(r, s, u):
    """Elementwise r^2 > 0, s^2 > 0 and r^2 s^2 - |u|^2 > 0: whether
    (r, s, u), real parts of r and s taken, gives a positive-definite
    surface metric.  Scalars give a numpy bool, arrays a boolean mask."""
    r2, s2 = libm_pow(np.real(r), 2), libm_pow(np.real(s), 2)
    return (r2 > 0) & (s2 > 0) & (r2 * s2 - libm_pow(libm_abs(u), 2) > 0)


@dataclass(frozen=True)
class SurfaceMetricParams:
    """(r, s, u) parameterisation of invariant surface metrics.

    Induces h11 = r^2/2, h22 = s^2/2, h12 = -sqrt(-1) u / 2,
    h21 = sqrt(-1) conj(u) / 2, admissible when r^2 s^2 - |u|^2 > 0.
    """

    r: object
    s: object
    u: object = 0

    def admissible(self) -> bool:
        return bool(surface_admissible(complex(self.r), complex(self.s),
                                       complex(self.u)))

    def metric(self, exact: Optional[bool] = None) -> HermitianMetric:
        """The metric, exact when r, s and u are rational unless ``exact``
        says otherwise (see :func:`~cherncurv.scalars.unify`)."""
        _, (p,) = unify([{"r": self.r, "s": self.s, "u": self.u}], exact)
        r, s, u = p["r"], p["s"], p["u"]
        return HermitianMetric([[r * r / 2, -times_i(u) / 2],
                                [times_i(conj(u)) / 2, s * s / 2]])


@dataclass
class CurvatureTensor:
    """The solved Chern connection and curvature of one (coframe, metric)
    pair, as numpy arrays.

    ``r_upper[m, k, i, j]`` is R^m_{k i jbar}, with
    Theta^m_k = R^m_{k i jbar} phi^i ^ bar(phi)^j, and ``lowered[i, j, k, l]``
    is Theta_{i jbar k lbar} = R^m_{k i jbar} h_{m lbar}; ``a`` and ``b``
    are A and B (:func:`_structure`), ``gamma[m, k, l]`` = gamma^m_{k l}
    and ``up[k, l]`` = h^{k lbar}, the inverse every contraction reads, of
    the metric ``h``.  Entries are QQi (dtype object) for an exact metric
    and complex otherwise.
    """

    r_upper: np.ndarray
    lowered: np.ndarray
    n: int
    a: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    up: np.ndarray
    h: np.ndarray

    @functools.cached_property
    def bound(self):
        """Maps "up", "gamma", "r_upper" and "lowered" to the rounding
        bound of each entry of that array, zeros for an exact metric;
        computed on first use."""
        names = ("up", "gamma", "r_upper", "lowered")
        if self.h.dtype == object:
            return {name: np.zeros(getattr(self, name).shape)
                    for name in names}
        return dict(zip(names, _rounding(self.b, self.h, self.up, self.gamma,
                                         self.r_upper)))

    def component(self, i, j, k, l):
        """1-based Theta_{i jbar k lbar}."""
        return self.lowered[i - 1, j - 1, k - 1, l - 1]


# ---------------------------------------------------------------------------
# the curvature formula, over stacks of M metrics
#
# Arrays carry a leading batch index M.  Their dtype is the arithmetic:
# complex for floats, object (QQi entries) for exact input.  Only the
# gamma solve and the inverse metric depend on it.

def _check_pair(alg: CoframeAlgebra, n: int):
    """Refuse a coframe that is not integrable or fails the Jacobi check,
    and a metric dimension n other than the coframe's."""
    alg.check_integrable()
    ok, res = alg.check_jacobi()
    if not ok:
        raise ValueError(f"structure equations fail the Jacobi check ({res})")
    if n != alg.n:
        raise ValueError("metric dimension does not match the coframe")


def _structure(alg: CoframeAlgebra, exact):
    """(A, B), 0-based: d phi^i = A[i, j, k] phi^j ^ phi^k / 2
    + B[i, j, k] phi^j ^ bar(phi)^k, with A antisymmetric in (j, k)."""
    n = alg.n
    a, b = (np.full((n, n, n), QQi() if exact else 0j,
                    dtype=object if exact else complex) for _ in range(2))
    for (i, j, k), v in alg.a.items():
        a[i - 1, j - 1, k - 1] = v
        a[i - 1, k - 1, j - 1] = -v
    for (i, j, k), v in alg.b.items():
        b[i - 1, j - 1, k - 1] = v
    return a, b


def chern_connection(b, hs):
    """gamma[M, m, k, l] = gamma^m_{k l}, the (1,0)-part of the Chern
    connection theta^m_k = gamma^m_{k l} phi^l + B^m_{k l} bar(phi)^l of
    each metric in ``hs``: B removes the (1,1)-part of the torsion, and
    gamma solves gamma^m_{i l} h_{m jbar} = - h_{i kbar} conj(B^k_{j l})."""
    count, n = hs.shape[0], hs.shape[1]
    rhs = -np.einsum("Mik,kjl->Mjil", hs, np.conj(b)).reshape(count, n,
                                                                 n * n)
    ht = np.transpose(hs, (0, 2, 1))
    if hs.dtype == object:
        sol = np.array([mat_solve(a.tolist(), r.tolist())
                        for a, r in zip(ht, rhs)], dtype=object)
    else:
        sol = np.linalg.solve(ht, rhs)
    return sol.reshape(count, n, n, n)


def _upper(hs):
    """up[M, k, l] = h^{k lbar}, the inverse with h^{k lbar} h_{m lbar} =
    delta_km."""
    if hs.dtype == object:
        inv = np.array([mat_inv(a.tolist()) for a in hs], dtype=object)
    else:
        inv = np.linalg.inv(hs)
    return np.transpose(inv, (0, 2, 1))


def _curvature(b, gamma, hs):
    """(R, Theta) of the connection theta = gamma phi + B bar(phi).

    R[M, m, k, i, j] = R^m_{k i jbar} is the (1,1)-part of
    d theta^m_k + theta^m_l ^ theta^l_k for constant coefficients; the
    (2,0)- and (0,2)-parts vanish identically for an integrable coframe
    with the Jacobi identity.  Theta[M, i, j, k, l] is the lowered tensor.
    """
    r = (np.einsum("Mmkl,lab->Mmkab", gamma, b)
         - np.einsum("mkl,lba->mkab", b, np.conj(b))[None]
         + np.einsum("Mmla,lkb->Mmkab", gamma, b)
         - np.einsum("mlb,Mlka->Mmkab", b, gamma))
    return r, np.einsum("Mmkij,Mml->Mijkl", r, hs)


def _bound(spec, *pairs):
    """First-order rounding bound of each entry of np.einsum(spec, values)
    over (value, bound) pairs, bound None for an input value: the einsum
    of |values| with one operand's bound in place of its magnitude, summed
    over the operands, plus k u times the einsum of |values|, k being the
    number of operands plus the number of terms each entry sums.  Exact
    (object) values have none."""
    ins, out = spec.split("->")
    size = dict(zip(ins.replace(",", ""), (d for v, _ in pairs
                                           for d in v.shape)))
    if pairs[0][0].dtype == object:
        return np.zeros([size[c] for c in out])
    mags = [abs(v) for v, _ in pairs]
    ku = UNIT_ROUNDOFF * (len(pairs) + math.prod(
        d for c, d in size.items() if c not in out))
    total = None
    for i, (_, err) in enumerate(pairs):
        if err is not None:
            if total is None:  # the k u term rides in the first slot
                err = err + ku * mags[i]
            term = np.einsum(spec, *mags[:i], err, *mags[i + 1:])
            total = term if total is None else total + term
    return ku * np.einsum(spec, *mags) if total is None else total


def _rounding(b, h, up, gamma, r):
    """First-order rounding bounds of (up, gamma, R, Theta) of one float
    solve: h^{-1} by |h^{-1}| |h| |h^{-1}|, gamma = -h^{-T} h conj(B)
    through it, and R and Theta by their formulas on absolute values, each
    product carrying err(A) |B| + k u |A| |B| (the few additions are left
    to :data:`~cherncurv.scalars.ROUNDING`)."""
    n, u = len(h), UNIT_ROUNDOFF
    a_up, a_h, a_b = abs(up), abs(h), abs(b)
    e_up = (3 + n * n) * u * np.einsum("ka,ba,bl->kl", a_up, a_h, a_up)
    e_gamma = np.einsum("mj,ik,kjl->mil", e_up + (3 + n * n) * u * a_up,
                        a_h, a_b)
    # the terms of _curvature's R, gamma carrying its bound and the k u term
    g = e_gamma + (2 + n) * u * abs(gamma)
    e_r = (np.einsum("mkl,lab->mkab", g, a_b)
           + (2 + n) * u * np.einsum("mkl,lba->mkab", a_b, a_b)
           + np.einsum("mla,lkb->mkab", g, a_b)
           + np.einsum("mlb,lka->mkab", a_b, g))
    e_theta = np.einsum("mkij,ml->ijkl", e_r + (2 + n) * u * abs(r), a_h)
    return e_up, e_gamma, e_r, e_theta


_RICCI = {1: "Mkl,Mabkl->Mab", 2: "Mij,Mijab->Mab", 3: "Mil,Mibal->Mab"}


def _ricci_stack(kind, up, theta):
    """Ric^(kind) coefficient matrices [M, a, b]; kind 3 has indices
    (k, jbar)."""
    if kind not in _RICCI:
        raise ValueError("kind must be 1, 2 or 3")
    return np.einsum(_RICCI[kind], up, theta)


def _einstein_stack(kind, mode, n, hs, up, theta, s=None):
    """(lambda*, residual, relative residual, S) per metric, in floats;
    S is computed here unless given.

    The relative residual divides by max(|Ric|, |lambda| |h|): a
    dimensionless distance from the Einstein condition that is comparable
    across metric scales.
    """
    ric = _ricci_stack(kind, up, theta).astype(complex, copy=False)
    if s is None:
        s = np.einsum(_S_CHERN, up, up, theta)
    s = np.asarray(s).astype(complex, copy=False)
    hs = hs.astype(complex, copy=False)
    if mode == "strong":
        lam = s.real / n
    elif mode == "weak":
        lam = (np.real(np.einsum("Mab,Mab->M", hs.conj(), ric))
               / np.sum(np.abs(hs) ** 2, axis=(1, 2)))
    else:
        raise ValueError("mode must be 'strong' or 'weak'")
    resid = np.max(np.abs(ric - lam[:, None, None] * hs), axis=(1, 2))
    scale = np.maximum(np.max(np.abs(ric), axis=(1, 2)),
                       np.abs(lam) * np.max(np.abs(hs), axis=(1, 2)))
    return lam, resid, resid / np.maximum(scale, 1e-300), s


# ---------------------------------------------------------------------------
# one metric: the solve, and the contractions that read it

def chern_curvature(alg: CoframeAlgebra, h: HermitianMetric
                    ) -> CurvatureTensor:
    """The one solve of (alg, h), the M = 1 case of :func:`batch_curvature`
    in the metric's own arithmetic; refuses a coframe that is not
    integrable or fails the Jacobi check."""
    _check_pair(alg, h.n)
    a, b = _structure(alg, h.exact)
    hs = h.array[None]
    gamma = chern_connection(b, hs)
    r, theta = _curvature(b, gamma, hs)
    return CurvatureTensor(r_upper=r[0], lowered=theta[0], n=alg.n, a=a,
                           b=b, gamma=gamma[0], up=h.inverse_upper(),
                           h=h.array)


def _ric_matrix(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """Coefficient matrix M with Ric = sqrt(-1) M_{a bbar} phi^a ^ bar(phi)^b
    for kinds 1 and 2; for kind 3 the tensor Ric3_{k jbar} itself."""
    return _ricci_stack(kind, curv.up[None], curv.lowered[None])[0]


def _ric_bound(kind: int, curv: CurvatureTensor):
    """The rounding bound of each entry of :func:`_ric_matrix`."""
    return _bound(_RICCI[kind], _stacked(curv, "up"),
                  _stacked(curv, "lowered"))[0]


def _stacked(curv, name):
    """(array, bound) of one attribute of ``curv``, with the batch index
    of length 1 the stacked contractions take."""
    return getattr(curv, name)[None], curv.bound[name][None]


def _matrix_to_form(m, bound) -> InvariantForm:
    """The (1,1)-form sqrt(-1) m_{a bbar} phi^a ^ bar(phi)^b, without the
    entries that are negligible against their rounding bound."""
    n = len(m)
    form = InvariantForm(n)
    form.coefficients = {(a, b + n): times_i(m[a][b])
                         for a in range(n) for b in range(n)
                         if not negligible(m[a][b], bound[a][b])}
    return form


def ricci(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """Chern-Ricci contraction of the given kind.

    Kinds 1 and 2 return real (1,1)-forms; kind 3 returns the coefficient
    matrix of the Ricci tensor with indices (k, jbar).
    """
    m = _ric_matrix(kind, curv, h)
    if kind == 3:
        return m
    return _matrix_to_form(m.tolist(), _ric_bound(kind, curv))


_S_CHERN = "Mij,Mkl,Mijkl->M"
_S_THIRD = "Mkj,Mil,Mijkl->M"


def scalar_chern(curv: CurvatureTensor, h: HermitianMetric):
    """S = h^{i jbar} h^{k lbar} Theta_{i jbar k lbar} (real)."""
    return _double_trace(_S_CHERN, curv)[0]


def scalar_third(curv: CurvatureTensor, h: HermitianMetric):
    """The alternative double trace h^{k jbar} h^{i lbar} Theta_{i jbar k lbar}."""
    return _double_trace(_S_THIRD, curv)[0]


def _double_trace(spec, curv):
    """(real value, rounding bound) of a double trace of Theta; a float
    value within its bound is 0."""
    up, theta = _stacked(curv, "up"), _stacked(curv, "lowered")
    bound = _bound(spec, up, up, theta).item()
    x = _realize(np.einsum(spec, up[0], up[0], theta[0]).item(), bound)
    return (0.0 if x and negligible(x, bound) else x), bound


def _realize(x, bound):
    """The real part of a trace whose imaginary part must vanish: exactly,
    or in floats up to its rounding bound."""
    if not negligible(x.imag, bound):
        raise ValueError(f"expected a real scalar, got {x!r}")
    return x.real


# ---------------------------------------------------------------------------
# torsion, Lee form, Gauduchon

def torsion(curv: CurvatureTensor):
    """(T, tau) of the solved Chern connection, in its arithmetic.

    T[i, a, b] = T^i_{a b}, antisymmetric in (a, b), gives the torsion
    d phi^i + theta^i_j ^ phi^j = T^i_{a b} phi^a ^ phi^b / 2, of type
    (2,0) since the B-part of theta cancels the (1,1)-part of d phi^i;
    tau[j] = T^k_{j k} is its trace.
    """
    t = curv.a + np.transpose(curv.gamma, (0, 2, 1)) - curv.gamma
    return t, np.einsum("kjk->j", t)


def lee_form(alg: CoframeAlgebra, h: HermitianMetric):
    """The Lee 1-form theta = tau + conj(tau), for which
    d omega^{n-1} = theta ^ omega^{n-1}.

    Returns (theta, lck, residual), with ``residual`` the largest
    coefficient of d omega^{n-1} - theta ^ omega^{n-1}; ``theta`` is None
    when the residual exceeds 1e-9 max(|d omega^{n-1}|, 1).  lck is True
    when additionally d theta = 0 (for n = 2 this is the
    locally-conformally-Kahler condition).  The checks are float form
    algebra, so exact input is refused.
    """
    n = alg.n
    if n < 2:
        raise ValueError("Lee form needs n >= 2")
    if h.exact:
        raise ValueError("the Lee form is checked in floats; "
                         "exact input is refused")
    tau = torsion(chern_curvature(alg, h))[1].tolist()
    theta = InvariantForm(n, {(j + bar * n,): conj(t) if bar else t
                              for bar in (0, 1) for j, t in enumerate(tau)})
    omega = h.omega()
    power = omega
    for _ in range(n - 2):
        power = power.wedge(omega)
    target = ext_d(alg, power)
    residual = (target - theta.wedge(power)).max_abs()
    if residual > 1e-9 * max(target.max_abs(), 1.0):
        return None, False, residual
    lck = ext_d(alg, theta).is_zero(tol_scale=max(theta.max_abs(), 1.0))
    return theta, lck, residual


def is_gauduchon(curv: CurvatureTensor, h: HermitianMetric):
    """del dbar omega^{n-1} = 0, with the magnitude of its one coefficient
    as residual (see the module docstring).

    A coefficient within its rounding bound is 0, residual included: tau
    grows with the condition of h, and so does the rounding of terms that
    cancel.  The positive factor (n-1)! det h does not decide it.
    """
    n, b, e_gamma = curv.n, curv.b, curv.bound["gamma"]
    t, tau = torsion(curv)
    e_tau = _bound("kjk->j", (t, e_gamma + np.transpose(e_gamma, (0, 2, 1))))
    alpha = (np.einsum("l,k->lk", tau, np.conj(tau))
             - np.conj(np.einsum("j,jkl->lk", tau, b)))
    e_alpha = (_bound("l,k->lk", (tau, e_tau), (tau, e_tau))
               + _bound("j,jkl->lk", (tau, e_tau), (b, None)))
    x = np.einsum("lk,lk->", curv.up, alpha)
    if negligible(x, _bound("lk,lk->", (curv.up, curv.bound["up"]),
                            (alpha, e_alpha))):
        return True, 0.0
    volume = math.factorial(n - 1) * mat_det(h.h).real
    return False, float(abs(volume * x))


def gauduchon_degree(curv: CurvatureTensor, h: HermitianMetric):
    """Gauduchon degree for invariant data: the Chern scalar curvature of
    the unit-volume rescaling of h (the integrand is constant).

    Requires h to be Gauduchon.
    """
    ok, res = is_gauduchon(curv, h)
    if not ok:
        raise ValueError(f"metric is not Gauduchon (residual {res})")
    det = complex(mat_det(h.h)).real
    s = float(scalar_chern(curv, h))
    # S(c*h) = S(h)/c with c = det^{-1/n} normalising det to 1
    return s * det ** (1.0 / curv.n)


# ---------------------------------------------------------------------------
# Einstein residuals

def einstein_residual(kind: int, alg: CoframeAlgebra, h: HermitianMetric,
                      mode: str = "strong",
                      curv: Optional[CurvatureTensor] = None):
    """(lambda*, residual) of Ric^(kind) - lambda * omega.

    strong: lambda* = S / n.  weak: least-squares over real lambda in the
    Frobenius inner product of coefficient matrices.  For kind 3 the tensor
    h^{i lbar} Theta_{i jbar k lbar} is compared against lambda h_{k jbar}.
    """
    if curv is None:
        curv = chern_curvature(alg, h)
    # the strong lambda* divides S by n after the rounding rule of
    # scalar_chern, which also refuses a non-real S
    s = [scalar_chern(curv, h)] if mode == "strong" else None
    lam, resid, _, _ = _einstein_stack(kind, mode, alg.n, h.array[None],
                                       curv.up[None], curv.lowered[None], s)
    return float(lam[0]), float(resid[0])


# ---------------------------------------------------------------------------
# Chern-Weil forms and the Bogomolov-Lubke pairing

def chern_weil(curv: CurvatureTensor):
    """(c1, c2) as invariant forms: the degree-2 and degree-4 parts of
    det(I + sqrt(-1) Theta / 2 pi)."""
    n = curv.n
    r = curv.r_upper.astype(complex).tolist()
    theta_end = [[InvariantForm(n, {(i, j + n): r[m][k][i][j]
                                    for i in range(n) for j in range(n)})
                  for k in range(n)] for m in range(n)]
    tr = InvariantForm(n)
    for m in range(n):
        tr = tr + theta_end[m][m]
    trtr = InvariantForm(n)
    for m in range(n):
        for l in range(n):
            trtr = trtr + theta_end[m][l].wedge(theta_end[l][m])
    c1 = tr.scale(1j / (2 * math.pi))
    c2 = (tr.wedge(tr) - trtr).scale(-1.0 / (8 * math.pi ** 2))
    return c1, c2


def bogomolov_lubke(curv: CurvatureTensor, h: HermitianMetric):
    """Coefficient of ((n-1) c1^2 - 2n c2) ^ omega^{n-2} against the volume
    form omega^n / n!, by the contraction in the module docstring.
    Non-positive for (2)-Chern-Einstein data (Lubke)."""
    n = curv.n
    if n < 2:
        raise ValueError("Bogomolov-Lubke pairing needs n >= 2")
    r = curv.r_upper.astype(complex)
    up = curv.up.astype(complex)
    tr = np.einsum("mmab->ab", r)
    lam = np.einsum("ab,mlab->ml", up, r)
    pairs = (np.trace(lam) ** 2
             - np.einsum("ab,cd,ad,cb->", up, up, tr, tr)
             - n * (np.einsum("ml,lm->", lam, lam)
                    - np.einsum("ab,cd,mlad,lmcb->", up, up, r, r)))
    c = math.factorial(n - 2) / (4 * math.pi ** 2)
    # the pairing is evaluated in floats, so an exact solve is rounded here
    r, up = (r, curv.bound["r_upper"]), (up, curv.bound["up"])
    tr, lam = (tr, _bound("mmab->ab", r)), (lam, _bound("ab,mlab->ml", up, r))
    bound = c * (_bound("ll,mm->", lam, lam)
                 + _bound("ab,cd,ad,cb->", up, up, tr, tr)
                 + n * (_bound("ml,lm->", lam, lam)
                        + _bound("ab,cd,mlad,lmcb->", up, up, r, r)))
    value = _realize(complex(-c * pairs), bound)
    return 0.0 if negligible(value, bound) else value


# ---------------------------------------------------------------------------
# batched float pipeline (used by parameter scans)

def batch_curvature(alg: CoframeAlgebra, hs: np.ndarray):
    """Lowered curvature for a batch of constant metrics, vectorised.

    ``hs`` has shape (M, n, n).  Returns Theta of shape (M, n, n, n, n)
    indexed [batch, i, j, k, l], by the formula :func:`chern_curvature`
    applies to one metric.
    """
    _check_pair(alg, hs.shape[1])
    b = _structure(alg, exact=False)[1]
    return _curvature(b, chern_connection(b, hs), hs)[1]


def batch_einstein_residual(kind: int, alg: CoframeAlgebra, hs: np.ndarray,
                            mode: str = "strong"):
    """Vectorised (lambda*, residual, relative residual, S) over a batch of
    metrics.

    The relative residual is normalised by max(|Ric|, |lambda| |h|) per
    point, a dimensionless distance from the Einstein condition that is
    comparable across metric scales.
    """
    lam, resid, rel, s = _einstein_stack(kind, mode, alg.n, hs, _upper(hs),
                                         batch_curvature(alg, hs))
    return lam, resid, rel, s.real


# ---------------------------------------------------------------------------
# parameter scan over the surface metric family

@dataclass
class ScanReport:
    entry: Optional[str]
    kind: int
    count: int
    min_residual: float    # relative residual at the best point
    argmin: tuple          # (r, s, u) at the minimum
    certificate_ok: Optional[bool]
    certificate_worst: Optional[float]
    min_residual_abs: float = 0.0


def default_surface_grid(r_values=None, s_values=None, radii=9, phases=8):
    """The (r, s, u) grid as an (M, 3) complex array of rows: r, s in
    0.25..3 and, for each (r, s) pair in that order, u = 0 and then u on a
    polar grid strictly inside the admissibility cone |u| < 0.95 r s,
    radius 0.95 r s a / (radii + 1) for a = 1..radii, each at the phases
    2 pi p / phases."""
    if r_values is None:
        r_values = [0.25 * k for k in range(1, 13)]
    if s_values is None:
        s_values = [0.25 * k for k in range(1, 13)]
    r, s = (v.ravel() for v in np.meshgrid(r_values, s_values,
                                           indexing="ij"))
    rho = (0.95 * r[:, None] * s[:, None] * np.arange(1, radii + 1)
           / (radii + 1))
    angles = [2 * math.pi * p / phases for p in range(phases)]
    phase = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    u = np.zeros((len(r), 1 + radii * phases), complex)
    u[:, 1:] = (rho[:, :, None] * phase).reshape(len(r), -1)
    per = u.shape[1]
    return np.stack([np.repeat(r, per), np.repeat(s, per), u.ravel()],
                    axis=1)


def scan(alg: CoframeAlgebra, kind: int, grid=None, mode: str = "strong",
         certificate=None, entry_name=None) -> ScanReport:
    """Einstein residual over an (r, s, u) grid: an (M, 3) array of rows,
    or anything ``np.asarray`` makes one of, such as a list of triples;
    :func:`default_surface_grid` when None.  Rows that are not
    :func:`surface_admissible` are dropped.

    ``certificate``, optional, is a sign certificate
    callable(r, s, u, lam) -> values that must all be negative; it is
    called once, on the arrays of the admissible rows and their lambda*.

    The minimised quantity is the relative residual (see
    :func:`batch_einstein_residual`), which puts points with very
    different metric scales on a common footing; the absolute residual at
    the minimiser is reported alongside."""
    grid = np.asarray(default_surface_grid() if grid is None else grid,
                      dtype=complex)
    if grid.ndim != 2 or grid.shape[1] != 3:
        raise ValueError(f"grid must be (r, s, u) rows, shape M x 3, "
                         f"got shape {grid.shape}")
    grid = grid[surface_admissible(grid[:, 0], grid[:, 1], grid[:, 2])]
    if not len(grid):
        raise ValueError("no admissible grid points")
    r, s, u = grid[:, 0].real, grid[:, 1].real, grid[:, 2]
    hs = np.empty((len(grid), 2, 2), dtype=complex)
    hs[:, 0, 0] = r * r / 2
    hs[:, 1, 1] = s * s / 2
    hs[:, 0, 1] = -1j * u / 2
    hs[:, 1, 0] = 1j * u.conjugate() / 2
    lam, resid_abs, resid, _ = batch_einstein_residual(kind, alg, hs,
                                                       mode=mode)
    order = np.lexsort((np.arange(len(grid)), resid))
    best = int(order[0])
    cert_ok, cert_worst = None, None
    if certificate is not None:
        vals = certificate(r, s, u, lam)
        cert_ok = bool(np.all(vals < 0))
        cert_worst = float(np.max(vals))
    return ScanReport(entry=entry_name, kind=kind, count=len(grid),
                      min_residual=float(resid[best]),
                      argmin=(float(r[best]), float(s[best]),
                              complex(u[best])),
                      certificate_ok=cert_ok, certificate_worst=cert_worst,
                      min_residual_abs=float(resid_abs[best]))


# ---------------------------------------------------------------------------
# one-stop summary

@dataclass
class RicciReport:
    ric1: InvariantForm
    ric2: InvariantForm
    ric3: list
    s_chern: object
    s_third: object
    einstein: dict  # (kind, mode) -> (lambda*, residual)


def ricci_report(alg: CoframeAlgebra, h: HermitianMetric) -> RicciReport:
    curv = chern_curvature(alg, h)
    einstein = {(kind, mode): einstein_residual(kind, alg, h, mode, curv)
                for kind in (1, 2, 3) for mode in ("strong", "weak")}
    return RicciReport(ric1=ricci(1, curv, h), ric2=ricci(2, curv, h),
                       ric3=ricci(3, curv, h),
                       s_chern=scalar_chern(curv, h),
                       s_third=scalar_third(curv, h),
                       einstein=einstein)
