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

One einsum evaluation of this formula gives a single metric's Theta, in
exact QQi or float arithmetic.  Ric1, Ric3, S = <h^{-1}, Ric1> and S3 =
<h^{-1}, Ric3> have one rule, for a scan block and for one metric as its
stack of one: :func:`_connection_traces` contracts gamma, B, h^{-1} and h,
without R or Theta.  Ric2 of one metric is Theta's trace, about four times
cheaper there; a scan block's runs over B's nonzero entries alone.  The
chart backend (:mod:`cherncurv.chart`) contracts the Theta of its jets by
the same einsums.  The tests keep Theta's contractions as the kernel's
independent reference; one metric is the batch of size M = 1.

:func:`chern_curvature` validates and solves a (coframe, metric) pair once;
its :class:`CurvatureTensor` carries A, B, gamma and h^{-1}, forms R and
Theta on first use, and owns every contraction of that metric, each
evaluated at most once, on first use and in the tensor's arithmetic; the
public functions below are views of it.  A coframe's integrability and
Jacobi verdict is kept per process, so each algebra is checked once.

Every zero test of a float result (each part, real or imaginary, of a
printed Theta entry or Ricci form entry, a trace, the Gauduchon
coefficient, the Bogomolov-Lubke pairing, a catalog comparison) is
:func:`~cherncurv.scalars.negligible` against the result's first-order
rounding bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 3.3 and ch. 14), which :func:`_bound` takes from
the result's own einsum on absolute values, err(AB) <= |A| err(B) +
err(A) |B| + k u |A| |B|.  h^{-1}, gamma, R and Theta are
bounded on first use, each magnitude taken once; exact solves have zero
bounds, a caller that needs no bound computes none, nor does the batched
scan, and the Einstein residuals stay in the solve's arithmetic.

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
``wedge``, the Chern-Weil forms among them, are kept as test oracles in
``tests/forms_oracle.py``; the Lee checks still use ``ext_d`` and
``wedge`` on the computed Lee form.

Sign calibration is normative against the Hopf anchors
Ric1 = 2 sqrt(-1) phi^1 ^ bar(phi)^1, Ric2 = (2/r^2) omega, S = 4/r^2.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .forms import CoframeAlgebra, InvariantForm, ext_d
# mat_inv and mat_solve are unused here, but benchmarks/tracer.py wraps
# them in this module (tests/test_tracer_targets.py checks that they
# resolve)
from .scalars import (UNIT_ROUNDOFF, QQi, conj, is_zero, mat_det, mat_inv,
                      mat_solve, negligible, resolve, times_i, unify)


class NotPositiveDefinite(ValueError):
    pass


class DegenerateMetric(ValueError):
    pass


# a float pivot p_k of :func:`_upper` below TAU Re h_kk is degenerate, a
# scale-free rule: diagonal scaling keeps p_k / h_kk (van der Sluis, Numer.
# Math. 14, 1969); for the surface family p_2 / h_11 = 1 - |u|^2 / (r s)^2
TAU = 1e-10


class HermitianMetric:
    """Constant Hermitian matrix h_{i jbar} that :func:`_upper`'s rule admits.

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
        self.array = np.array(self.h, dtype=object if self.exact else complex)
        # refused as degenerate, not Hermitian or not positive definite, in
        # that order, the first and last by _upper's verdict; floats are
        # judged Hermitian against the largest entry
        up, fault = _upper(self.array)
        h, n = self.h, self.n
        scale = None if self.exact else max(abs(v) for row in h for v in row)
        if fault >= 0 and not all(is_zero(h[i][j] - conj(h[j][i]), scale)
                                  for i in range(n) for j in range(n)):
            raise ValueError("metric matrix is not Hermitian")
        self._up = _admit(up, fault)

    def inverse_upper(self):
        """h^{i jbar}, the inverse satisfying h^{i jbar} h_{k jbar} = delta;
        the solved tensor keeps it as ``up``."""
        return self._up

    def scaled(self, c) -> "HermitianMetric":
        return HermitianMetric([[v * c for v in row] for row in self.h])

    def omega(self) -> InvariantForm:
        return _matrix_to_form(self.array, np.zeros((self.n, self.n)))


def abs2(z):
    """|z|^2 elementwise, as re^2 + im^2 in real products: the same bits
    for a Python scalar and inside an array."""
    return np.real(z) * np.real(z) + np.imag(z) * np.imag(z)


def surface_matrix(r, s, u):
    """The surface family's h(r, s, u) as a 2 x 2 nested list,
    [[r^2/2, -sqrt(-1) u/2], [sqrt(-1) conj(u)/2, s^2/2]], elementwise in
    the arithmetic of r, s and u: QQi or complex scalars, or arrays of
    scan rows."""
    return [[r * r / 2, -times_i(u) / 2],
            [times_i(conj(u)) / 2, s * s / 2]]


@dataclass(frozen=True)
class SurfaceMetricParams:
    """(r, s, u) parameterisation of invariant surface metrics, inducing
    :func:`surface_matrix`."""

    r: object
    s: object
    u: object = 0

    def admissible(self) -> bool:
        """Whether :meth:`metric` answers, in the arithmetic of r, s, u."""
        try:
            return bool(self.metric())
        except (ValueError, ArithmeticError):
            return False

    def metric(self, exact: Optional[bool] = None) -> HermitianMetric:
        """The metric, exact when r, s and u are rational unless ``exact``
        says otherwise (see :func:`~cherncurv.scalars.unify`)."""
        _, (p,) = unify([{"r": self.r, "s": self.s, "u": self.u}], exact)
        return HermitianMetric(surface_matrix(p["r"], p["s"], p["u"]))


# ---------------------------------------------------------------------------
# the curvature formula, over stacks of M metrics
#
# Arrays carry a trailing batch index M, so that each einsum's inner loop
# runs over the metrics; one metric is the stack x[..., None].  Their dtype
# is the arithmetic: complex for floats, object (QQi entries) for exact
# input, and one code serves both.  The inverse metric, like the public
# batch functions, takes a stack hs[M, ...], the leading-M view
# :func:`_leading` makes of a trailing-M array, and computes on the
# trailing-M array again.

def _leading(x):
    """The view of a trailing-M array x[..., M] as x[M, ...]."""
    return x.transpose(x.ndim - 1, *range(x.ndim - 1))


def _trailing(x):
    """x[..., M] of a leading-M array x[M, ...]: a view when M is already
    the innermost index in memory, as in :func:`_leading` of a trailing-M
    array, or M = 1, else a C-contiguous copy."""
    x = x.transpose(*range(1, x.ndim), 0)
    if x.shape[-1] == 1 or x.strides[-1] == x.itemsize:
        return x
    return np.ascontiguousarray(x)


def _check_pair(alg: CoframeAlgebra, n: int):
    """Refuse a coframe that is not integrable or fails the Jacobi check,
    and a metric dimension n other than the coframe's.  The verdict on the
    coframe is kept per process (:func:`_coframe_verdict`), keyed on its
    structure constants as they are now, each with its type."""
    ok, res = _coframe_verdict(alg.n, *(
        tuple((idx, type(v), v) for idx, v in sorted(table.items()))
        for table in (alg.a, alg.b, alg.c)))
    if not ok:
        raise ValueError(f"structure equations fail the Jacobi check ({res})")
    if n != alg.n:
        raise ValueError("metric dimension does not match the coframe")


@functools.lru_cache(maxsize=64)
def _coframe_verdict(n, a, b, c):
    """(passed, residual) of the Jacobi check of the coframe of dimension
    n with the tables (a, b, c) of (index, type, value) triples, after its
    integrability check, which raises; a type in the key keeps float and
    exact constants from sharing a verdict."""
    alg = CoframeAlgebra(n, *({idx: v for idx, _, v in table}
                              for table in (a, b, c)))
    alg.check_integrable()
    return alg.check_jacobi()


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


_GAMMA = "mjM,ikM,kjl->milM"


def chern_connection(b, hs, up):
    """gamma[m, k, l, M] = gamma^m_{k l}, the (1,0)-part of the Chern
    connection theta^m_k = gamma^m_{k l} phi^l + B^m_{k l} bar(phi)^l of
    each trailing-M metric ``hs`` of inverse ``up``: B removes the
    (1,1)-part of the torsion, and gamma = - h^{-1} h conj(B)."""
    return -np.einsum(_GAMMA, up, hs, np.conj(b))


def _upper(hs):
    """(up, fault) of a stack hs[M, ...] of matrices, the leading-M view
    of a trailing-M array, or of one matrix: up[..., k, l] = h^{k lbar},
    the inverse with h^{k lbar} h_{m lbar} = delta_km, and fault[M] (an int
    for one matrix) the verdict of the one rule that admits a metric: 0,
    or the first pivot k (1-based) that fails, -k if it is degenerate.

    One Gauss-Jordan elimination without pivoting runs on the trailing-M
    stack, each entry an M-vector, complex or QQi.  On Hermitian
    positive-definite matrices it is backward stable (Higham, 10.1), and
    its pivots p_k, ratios of leading principal minors, are positive.  An
    exact p_k passes if Re p_k > 0, a float one if finite and Re p_k >
    :data:`TAU` Re h_kk; a finite float Re p_k < 0 is not positive.  The
    elimination goes on past a failed pivot, replaced by 1, and that
    metric's up means nothing.  The rule decides conditioning, not range."""
    one = hs.ndim == 2
    h = hs[..., None] if one else _trailing(hs)
    n, exact = h.shape[0], h.dtype == object
    fault = np.zeros(h.shape[-1], dtype=int)
    a = [[h[i, j] for j in range(n)] for i in range(n)]
    # a refused float metric may overflow, or make NaNs, on its way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n):
            piv = a[k][k]
            re = np.array([x.real for x in piv]) if exact else piv.real
            # Re p_k <= Re h_kk after pivots that pass: this implies Re p_k > 0
            ok = re > 0 if exact else np.isfinite(piv) & (
                re > TAU * h[k, k].real)
            if not ok.all():
                code = np.where(exact or np.isfinite(piv) & (re < 0), k + 1,
                                -k - 1)
                fault = np.where((fault != 0) | ok, fault, code)
                piv = np.where(ok, piv, QQi(1) if exact else 1)
            row = [1 / piv if j == k else x / piv
                   for j, x in enumerate(a[k])]
            a = [row if i == k else
                 [-(a[i][k] * row[j]) if j == k
                  else a[i][j] - a[i][k] * row[j] for j in range(n)]
                 for i in range(n)]
    up = np.array([[a[l][k] for l in range(n)] for k in range(n)])
    return (up[..., 0], int(fault[0])) if one else (_leading(up), fault)


def _admit(up, fault):
    """``up`` of :func:`_upper`, once its ``fault`` admits every metric and
    a float ``up`` is in range; else raise for the first that is not."""
    k = next((int(f) for f in np.ravel(fault) if f), 0)
    if k < 0:
        raise DegenerateMetric("metric is numerically degenerate")
    if k:
        raise NotPositiveDefinite(f"metric is not positive definite: "
                                  f"pivot {k} is not positive")
    if up.dtype != object and not np.isfinite(up).all():
        raise FloatingPointError("metric is out of range: its inverse "
                                 "overflows")
    return up


# R^m_{k i jbar} as (sign, einsum spec, operands) terms, and Theta
_R_TERMS = ((1, "mklM,lab->mkabM", "gamma", "b"),
            (-1, "mkl,lba->mkab", "b", "conj_b"),
            (1, "mlaM,lkb->mkabM", "gamma", "b"),
            (-1, "mlb,lkaM->mkabM", "b", "gamma"))
_THETA = "mkijM,mlM->ijklM"


def _curvature(b, gamma, hs):
    """(R, Theta) of the connection theta = gamma phi + B bar(phi).

    R[m, k, i, j, M] = R^m_{k i jbar} is the (1,1)-part of
    d theta^m_k + theta^m_l ^ theta^l_k for constant coefficients; the
    (2,0)- and (0,2)-parts vanish identically for an integrable coframe
    with the Jacobi identity.  Theta[i, j, k, l, M] is the lowered tensor,
    laid out in memory as einsum leaves it, (k, i, j, l, M); the
    contractions read it in that order.  gamma[m, k, l, M] and hs[i, j, M]
    have M innermost in memory.
    """
    ops = {"gamma": gamma, "b": b, "conj_b": np.conj(b)}
    (_, spec, *names), *rest = _R_TERMS
    r = np.einsum(spec, *(ops[x] for x in names))
    for sign, spec, *names in rest:
        # in place, and each term freed before the next is made; a term
        # without M is the same for every metric
        term = np.einsum(spec, *(ops[x] for x in names))
        (np.add if sign > 0 else np.subtract)(
            r, term if "M" in spec else term[..., None], out=r)
        del term
    return r, np.einsum(_THETA, r, hs)


@functools.lru_cache(maxsize=None)
def _parse(spec, shapes):
    """(spec without M, k u) of :func:`_bound` over operands of the given
    shapes, parsed once per (spec, shapes)."""
    spec = spec.replace("M", "")
    ins, out = spec.split("->")
    size = dict(zip(ins.replace(",", ""), (d for s in shapes for d in s)))
    return spec, UNIT_ROUNDOFF * (len(shapes) + math.prod(
        d for c, d in size.items() if c not in out))


def _bound(spec, *pairs):
    """First-order rounding bound of each entry of a float
    np.einsum(spec, values) over (|value|, bound) pairs of one metric (M
    dropped from ``spec``), bound None for an input: the einsum of |values|
    with one operand's bound in place of its magnitude, summed over the
    operands, plus k u times the einsum of |values|, k the operand count
    plus the terms each entry sums."""
    mags = [m for m, _ in pairs]
    spec, ku = _parse(spec, tuple(m.shape for m in mags))
    total = None
    for i, (_, err) in enumerate(pairs):
        if err is not None:
            if total is None:  # the k u term rides in the first slot
                err = err + ku * mags[i]
            term = np.einsum(spec, *mags[:i], err, *mags[i + 1:])
            total = term if total is None else total + term
    return ku * np.einsum(spec, *mags) if total is None else total


def _contract(spec, *pairs):
    """(np.einsum(spec, values) as an array, its :func:`_bound`) over
    (value, bound) pairs; exact (object) values have a zero bound."""
    value = np.asarray(np.einsum(spec.replace("M", ""),
                                 *(v for v, _ in pairs)))
    if pairs[0][0].dtype == object:
        return value, np.zeros(value.shape)
    return value, _bound(spec, *((abs(v), e) for v, e in pairs))


# the einsum of Ric^(kind) [a, b, M] over trailing-M (up, Theta), kinds 1
# and 2: the chart's Ricci forms, and a solved metric's Ric2
_RICCI = {1: "klM,abklM->abM", 2: "ijM,ijabM->abM"}


def _laplacian_stack(up, d2f):
    """Delta^Ch f [M] = -2 Re h^{j kbar} d^2 f / dz^j dzbar^k of trailing-M
    (up, d2f)."""
    return -2 * np.einsum("jkM,jkM->M", up, d2f).real


def _einstein_stack(mode, hs, ric, s):
    """(lambda*, max |Ric - lambda* h|) per metric of trailing-M (h, Ric)
    in the arithmetic of the solve: strong S / n for the real ``s``, weak
    Re <h, Ric> / <h, h>."""
    if mode == "strong":
        lam = s / hs.shape[0]
    elif mode == "weak":
        num = np.einsum("abM,abM->M", hs.conj(), ric)
        if hs.dtype == object:  # numpy's real returns object arrays as is
            den = np.sum(hs * hs.conj(), axis=(0, 1))
            lam = np.array([a.real / b.real for a, b in zip(num, den)])
        else:
            lam = num.real / np.sum(abs2(hs), axis=(0, 1))
    else:
        raise ValueError("mode must be 'strong' or 'weak'")
    return lam, np.max(np.abs(ric - lam * hs), axis=(0, 1))


# ---------------------------------------------------------------------------
# one metric: the solve, and the tensor that owns its contractions

_TAU = "kjk->j"


@dataclass
class CurvatureTensor:
    """The solved Chern connection and curvature of one (coframe, metric)
    pair, as numpy arrays, and the contractions of that pair.

    ``a`` and ``b`` are A and B (:func:`_structure`), ``gamma[m, k, l]``
    = gamma^m_{k l} and ``up[k, l]`` = h^{k lbar}, the inverse every
    contraction reads, of the metric ``h``; ``r_upper[m, k, i, j]`` is
    R^m_{k i jbar}, with Theta^m_k = R^m_{k i jbar} phi^i ^ bar(phi)^j, and
    ``lowered[i, j, k, l]`` is Theta_{i jbar k lbar} = R^m_{k i jbar}
    h_{m lbar}, both formed on first use.  Entries are QQi (dtype object)
    for an exact metric and complex otherwise.  Contractions, bounds and
    magnitudes are kept.
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    up: np.ndarray
    h: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _once(self, key, compute):
        """compute(), evaluated on the first call with ``key`` and kept."""
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    @property
    def exact(self) -> bool:
        return self.h.dtype == object

    def _abs(self, name):
        """|x| of the tensor's float array ``name``."""
        return self._once(("abs", name), lambda: abs(getattr(self, name)))

    @functools.cached_property
    def _r_theta(self):
        """(R, Theta) of the solved connection (:func:`_curvature`)."""
        r, theta = _curvature(self.b, self.gamma[..., None], self.h[..., None])
        return r[..., 0], theta[..., 0]

    @property
    def r_upper(self):
        return self._r_theta[0]

    @property
    def lowered(self):
        return self._r_theta[1]

    @functools.cached_property
    def bound(self):
        """Maps "up", "gamma", "r_upper" and "lowered" to the rounding
        bound of each entry of that array (:meth:`_err`)."""
        return {name: self._err(name)
                for name in ("up", "gamma", "r_upper", "lowered")}

    def _err(self, name):
        """The rounding bound of each entry of the array ``name``, each
        evaluated once: h^{-1} as |h^{-1}| |h| |h^{-1}|, gamma as
        -h^{-1} h conj(B), R term by term, Theta as R h; zero for an exact
        solve, which rounds nothing."""
        def compute():
            if self.exact:
                return np.zeros(getattr(self, name).shape)
            mag = self._abs
            h, b = (mag("h"), None), (mag("b"), None)
            if name == "up":
                return _bound("ka,ba,bl->kl", (mag("up"), None), h,
                              (mag("up"), None))
            if name == "gamma":
                return _bound(_GAMMA, (mag("up"), self._err("up")), h, b)
            if name == "r_upper":
                # |conj(B)| = |B|
                ops = {"gamma": (mag("gamma"), self._err("gamma")), "b": b,
                       "conj_b": b}
                return sum(_bound(spec, *(ops[x] for x in names))
                           for _, spec, *names in _R_TERMS)
            return _bound(_THETA, (mag("r_upper"), self._err("r_upper")), h)
        return self._once(("bound", name), compute)

    @functools.cached_property
    def _ric3_steps(self):
        """(t, g, Ric3) of :func:`_ric3` on the stack of one."""
        return tuple(x[..., 0] for x in _ric3(self.b, self.h[..., None],
                                              self.up[..., None]))

    def ric(self, kind: int):
        """Coefficient matrix M with Ric = sqrt(-1) M_{a bbar} phi^a ^
        bar(phi)^b for kinds 1 and 2; for kind 3 the tensor Ric3_{k jbar}:
        Theta's trace for kind 2, the connection kernel's for 1 and 3."""
        def compute():
            if kind == 1:
                return _ric1(self.b)
            if kind == 3:
                return self._ric3_steps[2]
            if kind == 2:
                return np.einsum(_RICCI[2], self.up[..., None],
                                 self.lowered[..., None])[..., 0]
            raise ValueError("kind must be 1, 2 or 3")
        return self._once(("ric", kind), compute)

    def ric_bound(self, kind: int):
        """Each entry's rounding bound of :meth:`ric`, by :func:`_bound` over
        the einsums that formed it (B is an input)."""
        def compute():
            if self.exact:
                return np.zeros((self.n, self.n))
            up, b = (self._abs("up"), self._err("up")), (self._abs("b"), None)
            if kind == 1:  # Ric1 = X + X^*
                e_x = _bound(_X, b, b)
                return e_x + e_x.T
            if kind == 3:
                t, g, _ = map(abs, self._ric3_steps)
                e_g = _bound(_G, (self._abs("h"), None),
                             (t, _bound(_T, up, b)))
                return _bound(_RIC3[0], (g, e_g), b) + _bound(_RIC3[1], b, b)
            return _bound(_RICCI[2], up, (self._abs("lowered"),
                                          self._err("lowered")))
        return self._once(("ric_bound", kind), compute)

    def _trace(self, kind):
        """(real value, rounding bound) of <h^{-1}, Ric^(kind)>, the kernel's
        S on the stack of one; a float value within its bound is 0."""
        ric = self.ric(kind)
        bound = 0.0 if self.exact else _bound(
            _S, (self._abs("up"), self._err("up")),
            (abs(ric), self.ric_bound(kind))).item()
        x = _realize(np.einsum(_S, self.up[..., None], ric)[0], bound)
        return (0.0 if x and negligible(x, bound) else x), bound

    @functools.cached_property
    def s_chern(self):
        """(S, its rounding bound); see :func:`scalar_chern`."""
        return self._trace(1)

    @functools.cached_property
    def s_third(self):
        """(S3, its rounding bound); see :func:`scalar_third`."""
        return self._trace(3)

    def einstein(self, kind: int, mode: str = "strong"):
        """(lambda*, residual); see :func:`einstein_residual`."""
        def compute():
            # the strong lambda* divides S by n after the rounding rule of
            # s_chern, which also refuses a non-real S
            s = np.array([self.s_chern[0]]) if mode == "strong" else None
            lam, resid = _einstein_stack(mode, self.h[..., None],
                                         self.ric(kind)[..., None], s)
            return float(lam[0]), float(resid[0])
        return self._once(("einstein", kind, mode), compute)

    def einstein_bound(self, kind: int) -> float:
        """The rounding bound of the strong residual of :meth:`einstein`,
        the largest over the entries of Ric - (S/n) h."""
        def compute():
            if self.exact:
                return 0.0
            s, e_s = self.s_chern
            e_lam_h = _bound("ab,->ab", (self._abs("h"), None),
                             (np.asarray(abs(s / self.n)), e_s / self.n))
            return float(np.max(self.ric_bound(kind) + e_lam_h))
        return self._once(("einstein_bound", kind), compute)

    @functools.cached_property
    def tau(self):
        """(tau, its rounding bound): the torsion trace of :func:`torsion`,
        T bounded by gamma's bound and its transpose (A is an input)."""
        e_gamma = self._err("gamma")
        t, tau = torsion(self)
        return tau, np.zeros(self.n) if self.exact else _bound(
            _TAU, (abs(t), e_gamma + np.transpose(e_gamma, (0, 2, 1))))

    @functools.cached_property
    def gauduchon(self):
        """(verdict, residual); see :func:`is_gauduchon`."""
        tau = self.tau
        outer, e_outer = _contract("l,k->lk", tau, (np.conj(tau[0]), tau[1]))
        tb, e_tb = _contract("j,jkl->lk", tau, (self.b, None))
        x, bound = _contract("lk,lk->", (self.up, self._err("up")),
                             (outer - np.conj(tb), e_outer + e_tb))
        if negligible(x.item(), bound):
            return True, 0.0
        volume = math.factorial(self.n - 1) * mat_det(self.h.tolist()).real
        return False, float(abs(volume * x.item()))

    def component(self, i, j, k, l):
        """1-based Theta_{i jbar k lbar}."""
        return self.lowered[i - 1, j - 1, k - 1, l - 1]


def chern_curvature(alg: CoframeAlgebra, h: HermitianMetric
                    ) -> CurvatureTensor:
    """The one solve of (alg, h), the M = 1 case of :func:`batch_curvature`
    in the metric's own arithmetic, R and Theta formed on first use;
    refuses a coframe that is not integrable or fails the Jacobi check."""
    _check_pair(alg, h.n)
    a, b = _structure(alg, h.exact)
    up = h.inverse_upper()
    gamma = chern_connection(b, h.array[..., None], up[..., None])
    return CurvatureTensor(n=alg.n, a=a, b=b, gamma=gamma[..., 0], up=up,
                           h=h.array)


def _ric_matrix(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """:meth:`CurvatureTensor.ric`."""
    return curv.ric(kind)


def _matrix_to_form(m, bound) -> InvariantForm:
    """The (1,1)-form sqrt(-1) m_{a bbar} phi^a ^ bar(phi)^b of an array,
    each real and imaginary part negligible against its entry's rounding
    bound set to 0 (:func:`~cherncurv.scalars.resolve`), and the entries
    that leaves 0 dropped."""
    n, m = len(m), m.tolist()
    form = InvariantForm(n)
    coefficients = ((a, b, resolve(m[a][b], bound[a][b]))
                    for a in range(n) for b in range(n))
    form.coefficients = {(a, b + n): times_i(v)
                         for a, b, v in coefficients if v}
    return form


def ricci(kind: int, curv: CurvatureTensor, h: HermitianMetric):
    """Chern-Ricci contraction of the given kind.

    Kinds 1 and 2 return real (1,1)-forms; kind 3 returns the coefficient
    matrix of the Ricci tensor with indices (k, jbar).
    """
    if kind == 3:
        return curv.ric(kind)
    return _matrix_to_form(curv.ric(kind), curv.ric_bound(kind))


def scalar_chern(curv: CurvatureTensor, h: HermitianMetric):
    """S = h^{i jbar} h^{k lbar} Theta_{i jbar k lbar} (real)."""
    return curv.s_chern[0]


def scalar_third(curv: CurvatureTensor, h: HermitianMetric):
    """S3 = h^{k jbar} h^{i lbar} Theta_{i jbar k lbar} = <h^{-1}, Ric3>."""
    return curv.s_third[0]


def _realize(x, bound):
    """The real part of a trace whose imaginary part must vanish: exactly,
    or in floats up to its rounding bound."""
    if not negligible(x.imag, bound):
        raise ValueError(f"expected a real scalar, got {x!r}")
    return x.real


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
    return curv.einstein(kind, mode)


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
    return t, np.einsum(_TAU, t)


def lee_form(alg: CoframeAlgebra, h: HermitianMetric):
    """The Lee 1-form theta = tau + conj(tau), for which
    d omega^{n-1} = theta ^ omega^{n-1}.

    Returns (theta, lck, residual), with ``residual`` the largest
    coefficient of d omega^{n-1} - theta ^ omega^{n-1}; ``theta`` is None
    when the residual exceeds 1e-9 max(|d omega^{n-1}|, 1).  lck is True
    when additionally d theta = 0 (for n = 2 this is the
    locally-conformally-Kahler condition).  The checks are float form
    algebra, so exact input is refused.  The returned theta has each real
    and imaginary part of tau that is negligible against tau's rounding
    bound set to 0 (:func:`~cherncurv.scalars.resolve`); the checks read
    tau as computed.
    """
    n = alg.n
    if n < 2:
        raise ValueError("Lee form needs n >= 2")
    if h.exact:
        raise ValueError("the Lee form is checked in floats; "
                         "exact input is refused")
    tau, bound = (x.tolist() for x in chern_curvature(alg, h).tau)
    theta = _lee(tau)
    omega = h.omega()
    power = omega
    for _ in range(n - 2):
        power = power.wedge(omega)
    target = ext_d(alg, power)
    residual = (target - theta.wedge(power)).max_abs()
    if residual > 1e-9 * max(target.max_abs(), 1.0):
        return None, False, residual
    lck = ext_d(alg, theta).is_zero(tol_scale=max(theta.max_abs(), 1.0))
    return _lee([resolve(t, e) for t, e in zip(tau, bound)]), lck, residual


def _lee(tau) -> InvariantForm:
    """The 1-form tau_j phi^j + conj(tau_j) bar(phi)^j of a list tau."""
    n = len(tau)
    return InvariantForm(n, {(j + bar * n,): conj(t) if bar else t
                             for bar in (0, 1) for j, t in enumerate(tau)})


def is_gauduchon(curv: CurvatureTensor, h: HermitianMetric):
    """del dbar omega^{n-1} = 0, with the magnitude of its one coefficient
    as residual (see the module docstring); the verdict is kept on the
    tensor.

    A coefficient within its rounding bound is 0, residual included: tau
    grows with the condition of h, and so does the rounding of terms that
    cancel.  The positive factor (n-1)! det h does not decide it.
    """
    return curv.gauduchon


def gauduchon_degree(curv: CurvatureTensor, h: HermitianMetric):
    """Gauduchon degree for invariant data: the Chern scalar curvature of
    the unit-volume rescaling of h (the integrand is constant).

    Requires h to be Gauduchon.
    """
    ok, res = is_gauduchon(curv, h)
    if not ok:
        raise ValueError(f"metric is not Gauduchon (residual {res})")
    det = complex(mat_det(h.h)).real
    # S(c*h) = S(h)/c with c = det^{-1/n} normalising det to 1
    return float(scalar_chern(curv, h)) * det ** (1.0 / curv.n)


# ---------------------------------------------------------------------------
# the Bogomolov-Lubke pairing

def bogomolov_lubke(curv: CurvatureTensor, h: HermitianMetric):
    """Coefficient of ((n-1) c1^2 - 2n c2) ^ omega^{n-2} against the volume
    form omega^n / n!, by the contraction in the module docstring.
    Non-positive for (2)-Chern-Einstein data (Lubke)."""
    n = curv.n
    if n < 2:
        raise ValueError("Bogomolov-Lubke pairing needs n >= 2")
    # the pairing is evaluated in floats, so an exact solve is rounded here
    r = (curv.r_upper.astype(complex), curv.bound["r_upper"])
    up = (curv.up.astype(complex), curv.bound["up"])
    lam = _contract("ab,mlab->ml", up, r)
    # (L tr R)^2, <tr R, tr R>, L R^m_l L R^l_m and <R^m_l, R^l_m>
    (a, e_a), (b, e_b), (c, e_c), (d, e_d) = (
        _contract("ll,mm->", lam, lam),
        _contract("ab,cd,mmad,llcb->", up, up, r, r),
        _contract("ml,lm->", lam, lam),
        _contract("ab,cd,mlad,lmcb->", up, up, r, r))
    k = math.factorial(n - 2) / (4 * math.pi ** 2)
    bound = k * (e_a + e_b + n * (e_c + e_d))
    value = _realize(complex(-k * (a - b - n * (c - d))), bound)
    return 0.0 if negligible(value, bound) else value


# ---------------------------------------------------------------------------
# batched float pipeline (used by parameter scans)

def batch_curvature(alg: CoframeAlgebra, hs: np.ndarray):
    """Lowered curvature for a batch of constant metrics, vectorised.

    ``hs`` has shape (M, n, n).  Returns Theta of shape (M, n, n, n, n)
    indexed [batch, i, j, k, l], by the formula :func:`chern_curvature`
    applies to one metric: the leading-M view of a trailing-M array.  The
    scan does not call it.
    """
    _check_pair(alg, hs.shape[1])
    b = _structure(alg, exact=False)[1]
    up = _trailing(_admit(*_upper(hs)))
    hs = _trailing(hs)
    return _leading(_curvature(b, chern_connection(b, hs, up), hs)[1])


def _connection_traces(kind, b, hs, up):
    """(Ric^(kind) [a, b, M], S [M]) of trailing-M (h, up), contracted from
    B, h^{-1}, h and, for kind 2, gamma, without forming R or Theta.  With
    t_l = h^{i jbar} B^l_{i j}, the traces of R's closed form are

        Ric1_{a bbar} = R^m_{m a bbar} = X_{a b} + conj(X_{b a}),
            X_{a b} = -conj(B^m_{m l}) B^l_{a b},
        S = h^{a bbar} Ric1_{a bbar},
        Ric3_{a bbar} = R^i_{a i bbar} = -h_{l kbar} conj(t_k) B^l_{a b}
                        - B^i_{a l} conj(B^l_{b i}),
        Ric2_{a bbar} = K^m_a h_{m bbar},  K^m_a = h^{i jbar} R^m_{a i jbar}
            = sum_l (gamma^m_{a l} t_l - B^m_{a l} conj(t_l)
                     + gamma^m_{l i} U^l_{a i} - U^m_{l i} gamma^l_{a i}),
            U^l_{a i} = h^{i jbar} B^l_{a j}.

    Under the trace over m R's last two terms cancel by relabelling, and
    under the trace over i its first and last; sum_m gamma^m_{m l} =
    -conj(B^m_{m l}) since h^{m jbar} h_{m kbar} = delta_jk, so Ric1 is the
    same for every metric; conj(t_k) is h^{i jbar} conj(B^k_{j i}), as
    h^{-1} is Hermitian.  Kind 2 reads only B's nonzero entries
    (:func:`_ric2`), where the catalog's B has 1 to 3 of n^3 = 8.  K's
    commutator terms l = m = a are the same products and are left out;
    summed with the rest instead, their rounding, times a large h_{m bbar},
    reached 2e-3 of Ric2 at kodaira-secondary r = 718, s = 0.28, u = 0."""
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    ric1 = _ric1(b)
    s = np.einsum(_S, up, ric1)
    if kind == 1:
        return np.broadcast_to(ric1[..., None], hs.shape), s
    if kind == 3:
        return _ric3(b, hs, up)[2], s
    ric = np.full(hs.shape, QQi() if hs.dtype == object else 0j, hs.dtype)
    for (a, c), x in _ric2(_nonzeros(b), hs, up).items():
        ric[a, c] = x
    return ric, s


# the kernel's einsums of kinds 1 and 3 and S, which the tensor's bounds reuse
_X, _S = "mml,lab->ab", "abM,ab->M"
_T, _G, _RIC3 = "ijM,lij->lM", "lkM,kM->lM", ("lM,lab->abM", "ial,lbi->ab")


def _ric1(b):
    """Ric1 = X + X^* of B (:func:`_connection_traces`)."""
    x = -np.einsum(_X, np.conj(b), b)
    return x + np.conj(x.T)


def _ric3(b, hs, up):
    """(t, g, Ric3) of trailing-M (h, up) (:func:`_connection_traces`)."""
    t = np.einsum(_T, up, b)
    g = -np.einsum(_G, hs, np.conj(t))
    return t, g, (np.einsum(_RIC3[0], g, b)
                  - np.einsum(_RIC3[1], b, np.conj(b))[..., None])


def _nonzeros(b):
    """B's nonzero entries as ((l, a, j), B^l_{a j}, -conj(B^l_{a j})), in
    index order: the plan of the kind-2 kernel :func:`_ric2`."""
    return [(idx, b[idx], -conj(b[idx]))
            for idx in map(tuple, np.argwhere(b).tolist())]


def _sums(terms):
    """{key: the sum of its M-vectors} over (key, sign, M-vector) terms,
    each key's terms added or subtracted in the order given: a sparse
    tensor holding only the entries that some term reaches."""
    out = {}
    for key, sign, x in terms:
        if key in out:
            out[key] = out[key] + x if sign > 0 else out[key] - x
        else:
            out[key] = x if sign > 0 else -x
    return out


def _ric2(nonzeros, hs, up):
    """{(a, b): Ric2_{a bbar} [M]} of trailing-M (h, up) from B's
    ``nonzeros`` (:func:`_nonzeros`), by the identities of
    :func:`_connection_traces`: each tensor is kept as its entries that
    some product of nonzero factors reaches, each entry an M-vector, so
    every step is an elementwise ufunc over the metrics, in complex or
    QQi arithmetic alike, and an entry absent from the result is 0.

    gamma^m_{i l} = h^{m jbar} w_{i j l} with w_{i j l} = -h_{i kbar}
    conj(B^k_{j l}); the commutator's products l = m = a are the same and
    cancel, so they are left out."""
    n = len(hs)
    u = _sums(((l, a, i), 1, up[i, j] * v)
              for (l, a, j), v, _ in nonzeros for i in range(n))
    w = _sums(((i, j, l), 1, hs[i, k] * cv)
              for (k, j, l), _, cv in nonzeros for i in range(n))
    gamma = _sums(((m, i, l), 1, up[m, j] * x)
                  for (i, j, l), x in w.items() for m in range(n))
    t = _sums((l, 1, x) for (l, a, i), x in u.items() if a == i)
    e1 = _sums(((m, a, l), 1, gamma[m, l, i] * x)
               for (l, a, i), x in u.items() for m in range(n)
               if (m, l, i) in gamma and not m == a == l)
    e2 = _sums(((m, a, l), 1, x * gamma[l, a, i])
               for (m, l, i), x in u.items() for a in range(n)
               if (l, a, i) in gamma and not m == a == l)
    k = _sums([(key, 1, x) for key, x in e1.items()]
              + [(key, -1, x) for key, x in e2.items()]
              + [((m, a, l), 1, x * t[l])
                 for (m, a, l), x in gamma.items() if l in t]
              + [((m, a, l), -1, v * np.conj(t[l]))
                 for (m, a, l), v, _ in nonzeros if l in t])
    # K^m_a = sum_l k^m_{a l}, then Ric2_{a bbar} = K^m_a h_{m bbar}
    kk = _sums(((m, a), 1, k[m, a, l]) for m, a, l in sorted(k))
    return _sums(((a, c), 1, x * hs[m, c])
                 for (m, a), x in sorted(kk.items()) for c in range(n))


def batch_einstein_residual(kind: int, alg: CoframeAlgebra, hs: np.ndarray,
                            mode: str = "strong", b=None, h_max=None,
                            up=None):
    """Vectorised (lambda*, residual, relative residual, S) over a batch of
    metrics, from the traces of :func:`_connection_traces`.  ``b``, if
    given, is the structure B of ``alg`` (:func:`_structure`), whose pair
    the caller has checked, as :func:`scan` does once for all its blocks;
    ``h_max`` and ``up``, if given, are max |h| and h^{-1} per metric, as
    :func:`scan` has them; else h is inverted here, and refused as one is.

    The relative residual is normalised by max(|Ric|, |lambda| |h|) per
    point, a dimensionless distance from the Einstein condition that is
    comparable across metric scales.
    """
    if b is None:
        _check_pair(alg, hs.shape[1])
        b = _structure(alg, exact=False)[1]
    up = _trailing(_admit(*_upper(hs)) if up is None else up)
    hs = _trailing(hs)
    ric, s = _connection_traces(kind, b, hs, up)
    s = s.real
    lam, resid = _einstein_stack(mode, hs, ric, s)
    # Ric1 is one matrix broadcast over the metrics: its moduli over one
    # metric's slice
    top = np.max(np.abs(ric[..., :1] if kind == 1 else ric), axis=(0, 1))
    if h_max is None:
        h_max = np.max(np.abs(hs), axis=(0, 1))
    scale = np.maximum(top, np.abs(lam) * h_max)
    return lam, resid, resid / np.maximum(scale, 1e-300), s


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


# scan reports the earliest row whose relative residual is within TIE of
# the grid's least; rows that h -> c h maps onto each other differ by
# rounding, at most 1e-13 apart, and TIE is the float goldens' tolerance
TIE = 1e-9

# grid rows per block of a scan, chosen by measurement: a K=42 kind-2 scan
# ran fastest at 4096 of 2048, 4096, 8192 and 16384, whose M-vectors outgrow
# the CPU's caches.  A block's temporaries peak at 2.8 MB, ~680 B a row
# (tracemalloc, inoue-sm kind 2 strong with its certificate; kinds 1 and 3
# at 1.3 and 1.6 MB); the tie rule keeps at most 7 rows in any entry, kind
# and mode at K=42.  Blocks start at the same row offsets whether the rows
# come as one array or in chunks
SCAN_BLOCK = 4096

# grid rows :func:`surface_grid_chunks` builds at a time, ten blocks,
# chosen by measurement.  Freeing a chunk raises glibc's dynamic mmap
# threshold to its size and the trim threshold to twice that, and the
# heap is trimmed, and its pages faulted in anew, whenever more than that
# is free at its top: a chunk and a block's temporaries must fit under it.
# Minor page faults per op of the invariant-scan workload's mix (K=12 and
# K=42 kind-2 scans), chunks of 1, 8, 10, 12 and 16 blocks: 915 and
# 20,209; 144 and 674; 0 and 411; 0 and 606; 0 and 1,026, each fault
# about 3.4 us on a shared 2-vCPU host.  A whole K=100 scan command peaks
# at 3.8, 4.8, 5.2, 6.1 and 7.7 MB (tracemalloc)
SCAN_CHUNK = 10 * SCAN_BLOCK

# default_surface_grid's u values per (r, s) pair: zero, then radii x phases
SURFACE_RADII, SURFACE_PHASES = 9, 8
SURFACE_PAIR_ROWS = 1 + SURFACE_RADII * SURFACE_PHASES
SURFACE_AXIS = tuple(0.25 * k for k in range(1, 13))


def default_surface_grid(r_values=None, s_values=None):
    """The (r, s, u) grid as an (M, 3) complex array of rows: r, s in
    0.25..3 and, for each (r, s) pair in that order, u = 0 and then u on a
    polar grid strictly inside the admissibility cone |u| < 0.95 r s,
    radius 0.95 r s a / (radii + 1) for a = 1..radii, each at the phases
    2 pi p / phases (:data:`SURFACE_RADII`, :data:`SURFACE_PHASES`)."""
    radii, phases = SURFACE_RADII, SURFACE_PHASES
    if r_values is None:
        r_values = SURFACE_AXIS
    if s_values is None:
        s_values = SURFACE_AXIS
    r, s = (v.ravel() for v in np.meshgrid(r_values, s_values,
                                           indexing="ij"))
    angles = [2 * math.pi * p / phases for p in range(phases)]
    phase = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    # (pair, u, column), filled in place: the rows are the only array of
    # their size that is made
    rows = np.zeros((len(r), 1 + radii * phases, 3), complex)
    rows[:, :, 0] = r[:, None]
    rows[:, :, 1] = s[:, None]
    # r s overflows for huge r and s; :func:`scan` drops those rows
    with np.errstate(over="ignore", invalid="ignore"):
        rho = (0.95 * r[:, None] * s[:, None] * np.arange(1, radii + 1)
               / (radii + 1))
        rows[:, 1:, 2] = (rho[:, :, None] * phase).reshape(len(r),
                                                           radii * phases)
    return rows.reshape(-1, 3)


def surface_grid_chunks(r_values=None, s_values=None):
    """The rows of ``default_surface_grid(r_values, s_values)``, in its
    order and with its bits, as an iterator of (M, 3) arrays: each is
    :func:`default_surface_grid` of a run of consecutive r values, as many
    as keep it within :data:`SCAN_CHUNK` rows, and at least one."""
    if r_values is None:
        r_values = SURFACE_AXIS
    if s_values is None:
        s_values = SURFACE_AXIS
    group = max(1, SCAN_CHUNK // max(len(s_values) * SURFACE_PAIR_ROWS, 1))
    for lo in range(0, len(r_values), group):
        yield default_surface_grid(r_values[lo:lo + group], s_values)


def _row_blocks(grid):
    """``grid``'s rows (see :func:`scan`) in blocks of :data:`SCAN_BLOCK`,
    each starting at a multiple of it in the whole run of rows: views of a
    chunk, or a copy where a block spans two chunks."""
    chunks = grid if isinstance(grid, Iterator) else iter([grid])
    carry = np.empty((0, 3), complex)
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=complex)
        if chunk.shape == (0,):  # an empty list of rows
            continue
        if chunk.ndim != 2 or chunk.shape[1] != 3:
            raise ValueError(f"grid must be (r, s, u) rows, shape M x 3, "
                             f"got shape {chunk.shape}")
        if len(carry):
            need = SCAN_BLOCK - len(carry)
            carry, chunk = np.concatenate([carry, chunk[:need]]), chunk[need:]
            if len(carry) < SCAN_BLOCK:
                continue
            yield carry
        full = len(chunk) - len(chunk) % SCAN_BLOCK
        for lo in range(0, full, SCAN_BLOCK):
            yield chunk[lo:lo + SCAN_BLOCK]
        carry = chunk[full:]
    if len(carry):
        yield carry


def _surface_block(block):
    """The (r, s, u, h stack, max |h|) of the rows of a block of
    :func:`_row_blocks`, r and s their real parts and h their
    :func:`surface_matrix` as the leading-M view of a trailing-M array.
    h_00, h_11 are real and |h_10| = |h_01|, so max |h| = max(h_00, h_11,
    |h_01|), the residual's scale, is taken in real arithmetic."""
    r, s, u = block[:, 0].real, block[:, 1].real, block[:, 2]
    h = surface_matrix(r, s, u)
    (p, off), (_, q) = h
    top = np.maximum(np.maximum(p, q), np.abs(off))
    hs = np.empty((2, 2, len(r)), complex)
    (hs[0, 0], hs[0, 1]), (hs[1, 0], hs[1, 1]) = h
    return r, s, u, _leading(hs), top


def scan(alg: CoframeAlgebra, kind: int, grid=None, mode: str = "strong",
         certificate=None, entry_name=None) -> ScanReport:
    """Einstein residual over an (r, s, u) grid: an (M, 3) array of rows,
    or anything ``np.asarray`` makes one of, such as a list of triples; or
    an iterator of such arrays, whose rows run on as one grid; when None,
    :func:`surface_grid_chunks` of the default axes.  Each block's metrics
    (:func:`_surface_block`) go through one :func:`_upper`, whose h^{-1}
    the residual reads and whose verdict drops the rows that
    :class:`HermitianMetric` refuses; a row whose lambda* or residual is
    not finite, out of range, is dropped too.

    ``certificate``, optional, is a sign certificate
    callable(r, s, u, lam) -> values that must all be negative; it is
    called once per block of kept rows, on the arrays of those rows and
    their lambda*.

    The minimised quantity is the relative residual (see
    :func:`batch_einstein_residual`), which puts points with very
    different metric scales on a common footing; the absolute residual at
    the minimiser is reported alongside.  The minimiser is the earliest
    row whose relative residual is within :data:`TIE` of the least, so
    rounding cannot move it.

    The rows run in blocks of :data:`SCAN_BLOCK`; only per-block
    reductions and the tie rule's few candidates are kept.  With rows
    streamed in chunks, as :func:`surface_grid_chunks` yields them (the
    default, and ``scan --grid``), memory is O(chunk), not O(grid): rows
    are built :data:`SCAN_CHUNK` at a time.  Every per-row quantity
    is elementwise in its row, and blocks start at the same rows however
    the rows are chunked, so the report depends on neither."""
    _check_pair(alg, 2)
    b = _structure(alg, exact=False)[1]
    # (relative residual, r, s, u, absolute residual) of the rows below
    # every earlier row and within TIE of the running minimum ``low``; the
    # first survivor wins
    count, low, kept, certs = 0, np.inf, [], []
    for block in _row_blocks(surface_grid_chunks() if grid is None
                             else grid):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r, s, u, hs, h_max = _surface_block(block)
            up, fault = _upper(hs)
            lam, resid_abs, resid, _ = batch_einstein_residual(
                kind, alg, hs, mode=mode, b=b, h_max=h_max, up=up)
        # the rule's verdict, then range
        rows = ((fault == 0) & np.isfinite(lam) & np.isfinite(resid_abs)
                & np.isfinite(resid))
        if not rows.all():
            r, s, u, lam, resid_abs, resid = (
                x[rows] for x in (r, s, u, lam, resid_abs, resid))
        if not len(r):
            continue
        # before[i]: the least earlier residual
        before = np.minimum.accumulate(np.concatenate(([low], resid[:-1])))
        low = min(low, np.min(resid))
        new = np.flatnonzero((resid < before) & (resid <= low + TIE))
        kept = [c for c in kept if c[0] <= low + TIE] + [
            (resid[b], r[b], s[b], u[b], resid_abs[b]) for b in new]
        count += len(r)
        if certificate is not None:
            vals = certificate(r, s, u, lam)
            certs.append((bool(np.all(vals < 0)), np.max(vals)))
    if not count:
        raise ValueError("no admissible grid points")
    resid, r, s, u, resid_abs = kept[0]
    cert_ok, cert_worst = None, None
    if certs:
        oks, maxima = zip(*certs)
        # np.max, not max: a NaN maximum propagates
        cert_ok, cert_worst = all(oks), float(np.max(maxima))
    return ScanReport(entry=entry_name, kind=kind, count=count,
                      min_residual=float(resid),
                      argmin=(float(r), float(s), complex(u)),
                      certificate_ok=cert_ok, certificate_worst=cert_worst,
                      min_residual_abs=float(resid_abs))

