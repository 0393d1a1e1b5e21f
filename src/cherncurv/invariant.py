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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import CoframeAlgebra, InvariantForm, ext_d
from .scalars import (QQi, conj, is_zero, mat_det, mat_inv, mat_solve,
                      negligible, times_i, unify)


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
        return _matrix_to_form(self.h, self.n, negligible)


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
        r2 = complex(self.r).real ** 2
        s2 = complex(self.s).real ** 2
        uu = abs(complex(self.u)) ** 2
        return r2 > 0 and s2 > 0 and r2 * s2 - uu > 0

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
    and ``up[k, l]`` = h^{k lbar}, the inverse every contraction reads.
    Entries are QQi (dtype object) for an exact metric and complex
    otherwise.
    """

    r_upper: np.ndarray
    lowered: np.ndarray
    n: int
    a: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    up: np.ndarray

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


_RICCI = {1: "Mkl,Mabkl->Mab", 2: "Mij,Mijab->Mab", 3: "Mil,Mibal->Mab"}


def _ricci_stack(kind, up, theta):
    """Ric^(kind) coefficient matrices [M, a, b]; kind 3 has indices
    (k, jbar)."""
    if kind not in _RICCI:
        raise ValueError("kind must be 1, 2 or 3")
    return np.einsum(_RICCI[kind], up, theta)


def _einstein_stack(kind, mode, n, hs, up, theta):
    """(lambda*, residual, relative residual, S) per metric, in floats.

    The relative residual divides by max(|Ric|, |lambda| |h|): a
    dimensionless distance from the Einstein condition that is comparable
    across metric scales.
    """
    ric = _ricci_stack(kind, up, theta).astype(complex, copy=False)
    s = np.einsum("Mij,Mkl,Mijkl->M", up, up, theta).astype(complex,
                                                           copy=False)
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
                           b=b, gamma=gamma[0], up=h.inverse_upper())


def _ric_matrix(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """Coefficient matrix M with Ric = sqrt(-1) M_{a bbar} phi^a ^ bar(phi)^b
    for kinds 1 and 2; for kind 3 the tensor Ric3_{k jbar} itself."""
    return _ricci_stack(kind, curv.up[None], curv.lowered[None])[0]


def _matrix_to_form(m, n, zero) -> InvariantForm:
    """The (1,1)-form sqrt(-1) m_{a bbar} phi^a ^ bar(phi)^b, without the
    entries v for which ``zero(v, largest entry magnitude)`` holds."""
    big = max(abs(v) for row in m for v in row)
    form = InvariantForm(n)
    form.coefficients = {(a, b + n): times_i(m[a][b])
                         for a in range(n) for b in range(n)
                         if not zero(m[a][b], big)}
    return form


def ricci(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """Chern-Ricci contraction of the given kind.

    Kinds 1 and 2 return real (1,1)-forms; kind 3 returns the coefficient
    matrix of the Ricci tensor with indices (k, jbar).
    """
    m = _ric_matrix(kind, curv, h)
    if kind == 3:
        return m
    # Ricci forms do not change when h is rescaled, and a form that is 0
    # comes out as rounding noise of any size relative to its largest
    # entry, so the zero test keeps its absolute floor
    return _matrix_to_form(m.tolist(), curv.n, is_zero)


def scalar_chern(curv: CurvatureTensor, h: HermitianMetric):
    """S = h^{i jbar} h^{k lbar} Theta_{i jbar k lbar} (real)."""
    return _double_trace("Mij,Mkl,Mijkl->M", curv)


def scalar_third(curv: CurvatureTensor, h: HermitianMetric):
    """The alternative double trace h^{k jbar} h^{i lbar} Theta_{i jbar k lbar}."""
    return _double_trace("Mkj,Mil,Mijkl->M", curv)


def _double_trace(spec, curv):
    up, theta = curv.up[None], curv.lowered[None]
    return _realize(np.einsum(spec, up, up, theta).item(),
                    _trace_scale(up, theta))


def _trace_scale(up, theta):
    """max |h^-1|^2 max |Theta|, a bound on each term of a double trace."""
    return float(np.max(np.abs(up))) ** 2 * float(np.max(np.abs(theta)))


def _realize(x, scale):
    """The real part of a trace whose terms are at most ``scale``; its
    imaginary part must vanish exactly, or in floats up to rounding
    relative to ``scale``."""
    if not is_zero(x.imag, scale=max(abs(x), scale), tol=1e-9):
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

    A coefficient within rounding of the terms it sums is 0: tau grows
    with the condition of h, and so does the rounding of terms that
    cancel.  Otherwise the test is relative to max(|omega^{n-1}|, 1), where
    |omega^{n-1}| = (n-1)! |det h| max|up|.
    """
    n, b, up = curv.n, curv.b, curv.up
    _, tau = torsion(curv)
    alpha = (np.einsum("l,k->lk", tau, np.conj(tau))
             - np.conj(np.einsum("j,jkl->lk", tau, b)))
    volume = math.factorial(n - 1) * mat_det(h.h).real
    ddc = volume * np.einsum("lk,lk->", up, alpha)
    abs_up, abs_tau, abs_b = (np.abs(x).astype(float) for x in (up, tau, b))
    terms = float(volume) * np.einsum(
        "lk,lk->", abs_up, np.outer(abs_tau, abs_tau)
        + np.einsum("j,jkl->lk", abs_tau, abs_b))
    if negligible(ddc, terms):
        return True, 0.0
    scale = max(float(volume) * float(np.max(abs_up)), 1.0)
    return bool(is_zero(ddc, scale=scale)), float(abs(ddc))


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
    hs, up, theta = h.array[None], curv.up[None], curv.lowered[None]
    lam, resid, _, s = _einstein_stack(kind, mode, alg.n, hs, up, theta)
    if mode == "strong":  # refuses a non-real S, as scalar_chern does
        _realize(s.item(), _trace_scale(up, theta))
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
    # each summand of the pairs is at most max|up|^2 max|R|^2
    scale = c * (float(np.max(np.abs(up))) * float(np.max(np.abs(r)))) ** 2
    value = _realize(complex(-c * pairs), scale)
    return 0.0 if negligible(value, scale) else value


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
    """(r, s, u) triples with r, s in 0.25..3 and u on a polar grid strictly
    inside the admissibility cone |u| < 0.95 r s."""
    if r_values is None:
        r_values = [0.25 * k for k in range(1, 13)]
    if s_values is None:
        s_values = [0.25 * k for k in range(1, 13)]
    pts = []
    for r in r_values:
        for s in s_values:
            pts.append((r, s, 0j))
            for a in range(1, radii + 1):
                rho = 0.95 * r * s * a / (radii + 1)
                for p in range(phases):
                    ang = 2 * math.pi * p / phases
                    pts.append((r, s, rho * complex(math.cos(ang),
                                                    math.sin(ang))))
    return pts


def scan(alg: CoframeAlgebra, kind: int, grid=None, mode: str = "strong",
         certificate=None, entry_name=None) -> ScanReport:
    """Einstein residual over a (r, s, u) grid, with optional per-point sign
    certificate callable(r, s, u, lam) -> float that must stay negative.

    The minimised quantity is the relative residual (see
    :func:`batch_einstein_residual`), which puts points with very
    different metric scales on a common footing; the absolute residual at
    the minimiser is reported alongside."""
    if grid is None:
        grid = default_surface_grid()
    grid = [(r, s, complex(u)) for (r, s, u) in grid
            if SurfaceMetricParams(r, s, u).admissible()]
    if not grid:
        raise ValueError("no admissible grid points")
    hs = np.empty((len(grid), 2, 2), dtype=complex)
    for idx, (r, s, u) in enumerate(grid):
        hs[idx, 0, 0] = r * r / 2
        hs[idx, 1, 1] = s * s / 2
        hs[idx, 0, 1] = -1j * u / 2
        hs[idx, 1, 0] = 1j * u.conjugate() / 2
    lam, resid_abs, resid, _ = batch_einstein_residual(kind, alg, hs,
                                                       mode=mode)
    order = np.lexsort((np.arange(len(grid)), resid))
    best = int(order[0])
    cert_ok, cert_worst = None, None
    if certificate is not None:
        vals = np.array([certificate(r, s, u, lam[i])
                         for i, (r, s, u) in enumerate(grid)])
        cert_ok = bool(np.all(vals < 0))
        cert_worst = float(np.max(vals))
    return ScanReport(entry=entry_name, kind=kind, count=len(grid),
                      min_residual=float(resid[best]),
                      argmin=grid[best],
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
