import dataclasses
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cherncurv import catalog
from cherncurv import invariant as inv
from cherncurv.forms import CoframeAlgebra, InvariantForm, ext_d
from cherncurv.scalars import (ROUNDING, I_EXACT, QQi, conj, mat_det,
                               negligible)
from cherncurv.invariant import (DegenerateMetric, HermitianMetric,
                                 NotPositiveDefinite, SurfaceMetricParams)
from forms_oracle import (chern_weil, ddbar_gauduchon, forms_curvature,
                          forms_torsion, lstsq_lee_form,
                          wedge_bogomolov_lubke)
from rounding_oracle import rounding_bounds, trace_bounds
from traces_oracle import dense_ric2

ENTRIES = catalog.list_entries()


def rng_metric(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T + np.eye(n)
    return HermitianMetric(h.tolist())


# ---------------------------------------------------------------------------
# Hopf anchors, exact arithmetic

@pytest.mark.parametrize("r", [1, 2, Fraction(1, 3)])
def test_hopf_anchors_exact(r):
    alg, h, _ = catalog.build("hopf", {"r": r}, exact=True)
    curv = inv.chern_curvature(alg, h)
    ric1 = inv.ricci(1, curv, h)
    assert ric1 == InvariantForm(2, {(0, 2): 2 * I_EXACT})
    s = inv.scalar_chern(curv, h)
    assert s == Fraction(4) / (Fraction(r) ** 2)
    lam, residual = inv.einstein_residual(2, alg, h)
    assert lam == pytest.approx(float(4 / (Fraction(r) ** 2 * 2)))
    assert residual == pytest.approx(0.0, abs=1e-14)


def test_hopf_anchors_float():
    alg, h, _ = catalog.build("hopf", {"r": 2.0}, exact=False)
    curv = inv.chern_curvature(alg, h)
    assert inv.scalar_chern(curv, h) == pytest.approx(1.0, rel=1e-12)
    lam, residual = inv.einstein_residual(2, alg, h)
    assert lam == pytest.approx(0.5, rel=1e-12)
    assert residual < 1e-14


# ---------------------------------------------------------------------------
# structural identities across the whole catalog

@pytest.mark.parametrize("name", ENTRIES)
def test_ric1_closed(name):
    alg, h, _ = catalog.build(name, exact=True)
    curv = inv.chern_curvature(alg, h)
    ric1 = inv.ricci(1, curv, h)
    assert ext_d(alg, ric1).is_zero()


@pytest.mark.parametrize("name", ENTRIES)
def test_trace_identity(name):
    alg, h, _ = catalog.build(name, exact=True)
    curv = inv.chern_curvature(alg, h)
    s = inv.scalar_chern(curv, h)
    up = h.inverse_upper()
    n = alg.n
    for kind in (1, 2):
        m = inv._ric_matrix(kind, curv, h)
        tr = sum((up[a][b] * m[a][b] for a in range(n) for b in range(n)),
                 QQi())
        assert tr == QQi(s)


@pytest.mark.parametrize("name", ENTRIES)
def test_hermitian_pair_symmetry(name):
    rng = np.random.default_rng(11)
    alg, _, _ = catalog.build(name, {"r": 1.0}, exact=False)
    h = rng_metric(rng, alg.n)
    th = inv.chern_curvature(alg, h).lowered
    n = alg.n
    scale = max(abs(th[i][j][k][l])
                for i, j, k, l in product(range(n), repeat=4)) + 1e-30
    for i, j, k, l in product(range(n), repeat=4):
        assert abs(th[i][j][k][l] - conj(th[j][i][l][k])) < 1e-12 * scale


@pytest.mark.parametrize("name", ENTRIES)
def test_exact_pipeline_takes_no_float_magnitude(monkeypatch, name):
    # exact zero tests and pivots need no float scale: form pruning, the
    # Jacobi check, metric validation and the solves take none
    def refuse(self):
        raise AssertionError("float magnitude of an exact value")

    monkeypatch.setattr(QQi, "__abs__", refuse)
    alg, h, _ = catalog.build(name, exact=True)
    assert h.exact and alg.check_jacobi() == (True, 0.0)
    curv = inv.chern_curvature(alg, h)
    for kind in (1, 2, 3):
        inv.ricci(kind, curv, h)
    inv.scalar_chern(curv, h)


def test_rescaling_covariance():
    alg, h, _ = catalog.build("inoue-sm", exact=True)
    lam, _ = inv.einstein_residual(2, alg, h)
    for c in (2, Fraction(1, 3)):
        hc = h.scaled(QQi(c))
        lam_c, _ = inv.einstein_residual(2, alg, hc)
        assert lam_c == pytest.approx(lam / float(c), rel=1e-12)
        s = inv.scalar_chern(inv.chern_curvature(alg, h), h)
        sc = inv.scalar_chern(inv.chern_curvature(alg, hc), hc)
        assert sc == s / c


def test_third_ricci_hopf():
    alg, h, _ = catalog.build("hopf", exact=True)
    curv = inv.chern_curvature(alg, h)
    ric3 = inv.ricci(3, curv, h)
    assert ric3[0][0] == QQi(1)
    assert not ric3[1][1]


# ---------------------------------------------------------------------------
# the tensor formula against the form-algebra oracle

@pytest.mark.parametrize("name", ENTRIES)
def test_curvature_matches_forms_oracle_exact(name):
    for point in catalog.get(name).points:
        alg, h, _ = catalog.build(name, point, exact=True)
        curv = inv.chern_curvature(alg, h)
        r_upper, lowered = (np.array(t, dtype=object)
                            for t in forms_curvature(alg, h))
        for idx in product(range(alg.n), repeat=4):
            assert isinstance(curv.lowered[idx], QQi)
            assert isinstance(curv.r_upper[idx], QQi)
            assert curv.lowered[idx] == lowered[idx]
            assert curv.r_upper[idx] == r_upper[idx]


@pytest.mark.parametrize("name", ENTRIES)
def test_curvature_matches_forms_oracle_float(name):
    rng = np.random.default_rng(5)
    alg, _, _ = catalog.build(name, {"r": 1.0}, exact=False)
    for _ in range(4):
        h = rng_metric(rng, alg.n)
        curv = inv.chern_curvature(alg, h)
        r_upper, lowered = forms_curvature(alg, h)
        for got, want in ((curv.lowered, lowered), (curv.r_upper, r_upper)):
            want = np.array(want, dtype=complex)
            scale = np.max(np.abs(want)) + 1e-30
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_batch_matches_forms_engine():
    rng = np.random.default_rng(3)
    for name in ("hopf", "inoue-spm", "kodaira-secondary", "ovando-r4"):
        alg, _, _ = catalog.build(name, {"r": 1.0}, exact=False)
        hs = np.empty((8, 2, 2), dtype=complex)
        mets = []
        for idx in range(8):
            m = rng_metric(rng)
            mets.append(m)
            hs[idx] = np.array(m.h)
        batch = inv.batch_curvature(alg, hs)
        for idx, m in enumerate(mets):
            ref = np.array(forms_curvature(alg, m)[1])
            scale = np.max(np.abs(ref)) + 1e-30
            assert np.max(np.abs(batch[idx] - ref)) < 1e-12 * scale


def test_batch_residual_relative_dimensionless():
    alg, _, _ = catalog.build("inoue-sm", {"r": 1.0}, exact=False)
    hs = np.empty((2, 2, 2), dtype=complex)
    for idx, c in enumerate((1.0, 50.0)):
        hs[idx] = c * np.array([[0.5, 0], [0, 0.5]])
    _, absolute, rel, _ = inv.batch_einstein_residual(2, alg, hs)
    assert rel[0] == pytest.approx(rel[1], rel=1e-12)
    for idx in range(2):
        single = inv.einstein_residual(2, alg, HermitianMetric(hs[idx]))
        assert absolute[idx] == pytest.approx(single[1], rel=1e-12)


# ---------------------------------------------------------------------------
# the trailing batch index against the leading one, bit for bit
#
# The batched arrays carry the metric index M last, so that each einsum's
# inner loop runs over the metrics.  The oracle is the same pipeline with M
# first; equal bytes mean that every sum adds its terms in the same order.

_LEADING_R_TERMS = ((1, "Mmkl,lab->Mmkab", "gamma", "b"),
                    (-1, "mkl,lba->mkab", "b", "conj_b"),
                    (1, "Mmla,lkb->Mmkab", "gamma", "b"),
                    (-1, "mlb,Mlka->Mmkab", "b", "gamma"))
_LEADING_RICCI = {1: "Mkl,Mabkl->Mab", 2: "Mij,Mijab->Mab",
                  3: "Mil,Mibal->Mab"}


def _leading_upper(hs):
    """up[M, k, l] = h^{k lbar} of an (M, n, n) stack by the package's
    Gauss-Jordan elimination without pivoting, entries hs[:, i, j]."""
    n = hs.shape[1]
    a = [[hs[:, i, j] for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = a[k][k]
        row = [1 / piv if j == k else x / piv for j, x in enumerate(a[k])]
        a = [row if i == k else
             [-(a[i][k] * row[j]) if j == k else a[i][j] - a[i][k] * row[j]
              for j in range(n)] for i in range(n)]
    return np.stack([np.stack(col, axis=-1) for col in zip(*a)], axis=1)


def _leading_residuals(hs, ric, s):
    """{mode: the four arrays of batch_einstein_residual} of leading-M
    (h, Ric, S)."""
    n, out = hs.shape[1], {}
    for mode in ("strong", "weak"):
        if mode == "strong":
            lam = s / n
        else:
            lam = (np.einsum("Mab,Mab->M", hs.conj(), ric).real
                   / np.sum(hs.real ** 2 + hs.imag ** 2, axis=(1, 2)))
        resid = np.max(np.abs(ric - lam[:, None, None] * hs), axis=(1, 2))
        scale = np.maximum(np.max(np.abs(ric), axis=(1, 2)),
                           np.abs(lam) * np.max(np.abs(hs), axis=(1, 2)))
        out[mode] = (lam, resid, resid / np.maximum(scale, 1e-300), s)
    return out


def _leading_traces(kind, b, hs, up):
    """(Ric^(kind), S) of leading-M (h, up), contracted from the connection
    as batch_einstein_residual contracts it, M first."""
    cb = np.conj(b)
    x = -np.einsum("mml,lab->ab", cb, b)
    ric1 = x + np.conj(x.T)
    s = np.einsum("Mab,ab->M", up, ric1)
    if kind == 1:
        return np.broadcast_to(ric1, hs.shape), s
    if kind == 3:
        t = np.einsum("Mij,lij->Ml", up, b)
        g = -np.einsum("Mlk,Mk->Ml", hs, np.conj(t))
        return (np.einsum("Ml,lab->Mab", g, b)
                - np.einsum("ial,lbi->ab", b, cb)), s
    return _leading_ric2(b, hs, up), s


def _leading_ric2(b, hs, up):
    """Ric2 [M, a, b] of leading-M (h, up) by the sparse kernel's steps:
    each entry of U, w, gamma, t, the commutator terms, K and Ric2 sums
    the same products of B's nonzeros, in the same order, M first."""
    n = len(b)
    nz = [(idx, b[idx]) for idx in zip(*np.nonzero(b))]

    def add(table, key, x, sign=1):
        if key not in table:
            table[key] = x if sign > 0 else -x
        else:
            table[key] = table[key] + x if sign > 0 else table[key] - x

    u, w, gamma, t, e1, e2, k, kk = {}, {}, {}, {}, {}, {}, {}, {}
    for (l, a, j), v in nz:
        for i in range(n):
            add(u, (l, a, i), up[:, i, j] * v)
    for (k_, j, l), v in nz:
        for i in range(n):
            add(w, (i, j, l), hs[:, i, k_] * -np.conj(v))
    for (i, j, l), x in w.items():
        for m in range(n):
            add(gamma, (m, i, l), up[:, m, j] * x)
    for (l, a, i), x in u.items():
        if a == i:
            add(t, l, x)
    for (l, a, i), x in u.items():
        for m in range(n):
            if (m, l, i) in gamma and not m == a == l:
                add(e1, (m, a, l), gamma[m, l, i] * x)
    for (m, l, i), x in u.items():
        for a in range(n):
            if (l, a, i) in gamma and not m == a == l:
                add(e2, (m, a, l), x * gamma[l, a, i])
    for key, x in e1.items():
        add(k, key, x)
    for key, x in e2.items():
        add(k, key, x, -1)
    for (m, a, l), x in gamma.items():
        if l in t:
            add(k, (m, a, l), x * t[l])
    for (m, a, l), v in nz:
        if l in t:
            add(k, (m, a, l), v * np.conj(t[l]), -1)
    for m, a, l in sorted(k):
        add(kk, (m, a), k[m, a, l])
    ric2 = {}
    for (m, a), x in sorted(kk.items()):
        for c in range(n):
            add(ric2, (a, c), x * hs[:, m, c])
    ric = np.zeros(hs.shape, complex)
    for (a, c), x in ric2.items():
        ric[:, a, c] = x
    return ric


def _leading_axis_pipeline(alg, hs):
    """(Theta, {kind: Ric}, S, {(kind, mode): the four arrays of
    batch_einstein_residual}) of an (M, n, n) stack by the single path's
    Theta route, and {kind: (Ric, S)} and {(kind, mode): those arrays} by
    batch_einstein_residual's connection-contracted traces, computed with
    M first in every array."""
    b = inv._structure(alg, exact=False)[1]
    up = _leading_upper(hs)
    gamma = -np.einsum("Mmj,Mik,kjl->Mmil", up, hs, np.conj(b))
    ops = {"gamma": gamma, "b": b, "conj_b": np.conj(b)}
    (_, spec, *names), *rest = _LEADING_R_TERMS
    r = np.einsum(spec, *(ops[x] for x in names))
    for sign, spec, *names in rest:
        (np.add if sign > 0 else np.subtract)(
            r, np.einsum(spec, *(ops[x] for x in names)), out=r)
    theta = np.einsum("Mmkij,Mml->Mijkl", r, hs)
    s = np.einsum("Mij,Mkl,Mijkl->M", up, up, theta).real
    ric, residuals, traced, traced_residuals = {}, {}, {}, {}
    for kind, spec in _LEADING_RICCI.items():
        ric[kind] = np.einsum(spec, up, theta)
        traced[kind] = _leading_traces(kind, b, hs, up)
        for mode, arrays in _leading_residuals(hs, ric[kind], s).items():
            residuals[kind, mode] = arrays
        for mode, arrays in _leading_residuals(
                hs, traced[kind][0], traced[kind][1].real).items():
            traced_residuals[kind, mode] = arrays
    return theta, ric, s, residuals, traced, traced_residuals


def _log_uniform_params(seed, m, lo=-2, hi=3):
    """m surface-metric parameters (r, s, u): r and s log-uniform in
    10^lo..10^hi, |u| < 0.95 r s at a uniform phase, and u = 0 on every
    fifth."""
    rng = np.random.default_rng(seed)
    r, s = 10 ** rng.uniform(lo, hi, (2, m))
    u = (0.95 * r * s * rng.uniform(0, 1, m)
         * np.exp(2j * np.pi * rng.uniform(0, 1, m)))
    u[::5] = 0
    return r, s, u


def _log_uniform_stack(seed, m):
    """The metrics of :func:`_log_uniform_params`, (M, 2, 2)."""
    r, s, u = _log_uniform_params(seed, m)
    hs = np.empty((m, 2, 2), dtype=complex)
    hs[:, 0, 0] = r * r / 2
    hs[:, 1, 1] = s * s / 2
    hs[:, 0, 1] = -1j * u / 2
    hs[:, 1, 0] = 1j * u.conjugate() / 2
    return hs


def _kept_metrics(grid):
    """The h stack, (M, 2, 2), of the rows of an (M, 3) grid that one
    scan block keeps by the rule: the metrics of inv._surface_block that
    inv._upper admits."""
    hs = inv._surface_block(np.asarray(grid, complex))[3]
    return hs[inv._upper(hs)[1] == 0]


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ENTRIES)
def test_trailing_batch_axis_is_bit_identical(name):
    alg, _, _ = catalog.build(name, exact=False)
    hs = _log_uniform_stack(ENTRIES.index(name), 3000)
    theta, ric, s, _, traced, residuals = _leading_axis_pipeline(alg, hs)
    batch_theta = inv.batch_curvature(alg, hs)
    _same_bits(batch_theta, theta)
    up, th = inv._trailing(inv._upper(hs)[0]), inv._trailing(batch_theta)
    _same_bits(np.einsum("ijM,klM,ijklM->M", up, up, th).real, s)
    _same_bits(inv._leading(np.einsum(inv._RICCI[2], up, th)), ric[2])
    b = inv._structure(alg, exact=False)[1]
    for kind in (1, 2, 3):
        got = inv._connection_traces(kind, b, inv._trailing(hs), up)
        _same_bits(inv._leading(got[0]), traced[kind][0])
        _same_bits(got[1], traced[kind][1])
        for mode in ("strong", "weak"):
            got = inv.batch_einstein_residual(kind, alg, hs, mode)
            for g, w in zip(got, residuals[kind, mode]):
                _same_bits(g, w)


def _float_and_exact(name, r, s, u):
    """(float, exact) solves of an entry at one (r, s, u) of doubles, the
    exact run on the same numbers as fractions."""
    alg, h, _ = catalog.build(name, {"r": r, "s": s, "u": u}, exact=False)
    got = inv.chern_curvature(alg, h)
    alg, h, _ = catalog.build(name, {"r": Fraction(r), "s": Fraction(s),
                                     "u": QQi(Fraction(u.real),
                                              Fraction(u.imag))}, exact=True)
    return got, inv.chern_curvature(alg, h)


def _theta_error(name, r, s, u):
    """max |Theta_float - Theta_exact| / max |Theta_exact| of an entry at
    one (r, s, u) of doubles."""
    got, want = (x.lowered for x in _float_and_exact(name, r, s, u))
    want = want.astype(complex)
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def _bound_ratios(name, r, s, u):
    """{key: the largest |float - exact| / bound over the entries} of
    h^-1, gamma, R and Theta, as the keys of ``CurvatureTensor.bound``."""
    got, want = _float_and_exact(name, r, s, u)
    ratios = {}
    for key, bound in got.bound.items():
        err = np.abs(getattr(got, key) - getattr(want, key).astype(complex))
        ratios[key] = np.max(err / np.where(err > 0, bound, 1))
    return ratios


@pytest.mark.parametrize("name", ENTRIES)
def test_float_error_is_within_its_rounding_bound(name):
    # the bound of h^-1 is its first-order sensitivity, |h^-1| |h| |h^-1|,
    # which an elimination without pivoting keeps to on these positive-
    # definite metrics; over 1980 points drawn as here (20 seeds x 11 per
    # entry), LAPACK's partially pivoted inverse exceeded it up to 252
    # times and Theta's bound up to 147 times, the elimination reached 0.28
    # and 0.20 of them
    r, s, u = _log_uniform_params(300 + ENTRIES.index(name), 6)
    for point in zip(r.tolist(), s.tolist(), u.tolist()):
        assert max(_bound_ratios(name, *point).values()) <= 1, point


@pytest.mark.parametrize("name, point", [
    ("kodaira-secondary", (0.6509, 63.67, -0.985 + 0.342j)),
    ("ovando-r2r2", (0.16606, 134.006, 0.12234 + 0.04656j))])
def test_float_error_is_within_its_rounding_bound_where_it_was_not(name,
                                                                     point):
    # the worst points of the draw above with LAPACK's inverse: there
    # h^-1 was 159 and 542 times its bound off, and Theta 51 and 316 times
    assert max(_bound_ratios(name, *point).values()) <= 1


@pytest.mark.parametrize("name", ENTRIES)
def test_float_theta_against_exact(name):
    r, s, u = _log_uniform_params(200 + ENTRIES.index(name), 12)
    errors = [_theta_error(name, *p) for p in zip(r.tolist(), s.tolist(),
                                                  u.tolist())]
    assert max(errors) <= 1e-12


def _wide_draw():
    """(entry, (r, s, u)) of the float/exact draw: default_rng(5), 40
    points per entry in catalog order, r and s log-uniform in 1e-3..1e4,
    |u| < 0.99 r s at a uniform phase, and u = 0 on every fifth point."""
    rng = np.random.default_rng(5)
    for name in catalog.list_entries():
        r, s = 10 ** rng.uniform(-3, 4, (2, 40))
        u = (0.99 * r * s * rng.uniform(0, 1, 40)
             * np.exp(2j * np.pi * rng.uniform(0, 1, 40)))
        u[::5] = 0
        for point in zip(r.tolist(), s.tolist(), u.tolist()):
            yield name, point


def test_float_answers_where_exact_does_on_the_wide_draw():
    # every float run answers, as its exact twin does, and its S lies
    # within its rounding bound of the exact S (at most 0.11 of it here);
    # the old rule, |det h| >= 1e-10 max |h|^2, refused 24 of these 360
    # metrics, all with a pivot ratio 1 - |u|^2 / (r s)^2 of at least 0.02
    points = list(_wide_draw())
    grid = np.array([p for _, p in points])
    assert np.count_nonzero(~_old_rule(grid)) == 24
    for name, point in points:
        got, want = _float_and_exact(name, *point)
        s, bound = got.s_chern
        assert abs(s - float(want.s_chern[0])) <= bound, (name, point)


@pytest.mark.xfail(strict=True, reason="R's four terms cancel: the error "
                   "grows as r^2 / s^2 at u = 0")
def test_float_theta_of_kodaira_secondary_at_u_zero():
    # 2.65e-10; the worst of 1979 points drawn as in the test above
    assert _theta_error("kodaira-secondary", 347.48332771002515,
                        0.22486784935168957, 0j) <= 1e-12


@pytest.mark.parametrize("name", ENTRIES)
def test_one_metric_is_the_batch_of_one(name):
    # a stack of one metric against the connection-contracted oracle; the
    # single-metric path's Ric1, Ric3 and S are the connection kernel's on
    # its stack of one, and its Ric2 is the Theta-route one
    alg, _, _ = catalog.build(name, exact=False)
    hs = _log_uniform_stack(100 + ENTRIES.index(name), 30)
    for idx in range(len(hs)):
        theta, ric, _, residuals, _, traced = _leading_axis_pipeline(
            alg, hs[idx:idx + 1])
        for (kind, mode), want in traced.items():
            got = inv.batch_einstein_residual(kind, alg, hs[idx:idx + 1], mode)
            for g, w in zip(got, want):
                _same_bits(g, w)
        try:
            h = HermitianMetric(hs[idx])
        except DegenerateMetric:
            continue
        curv = inv.chern_curvature(alg, h)
        _same_bits(curv.lowered, theta[0])
        _same_bits(inv._ric_matrix(2, curv, h), ric[2][0])
        for kind in (1, 3):
            want, s = inv._connection_traces(kind, curv.b, curv.h[..., None],
                                             curv.up[..., None])
            _same_bits(inv._ric_matrix(kind, curv, h), want[..., 0])
        # S within its rounding bound prints as 0
        got, bound = curv.s_chern
        assert got == s[0].real or (got == 0.0
                                    and negligible(s[0].real, bound))
        for kind in (1, 2, 3):
            # weak lambda* has no rounding rule, so it is the stack's
            lam, resid = inv.einstein_residual(kind, alg, h, "weak", curv)
            want = (residuals if kind == 2 else traced)[kind, "weak"]
            assert (lam, resid) == (want[0][0], want[1][0])


def _rational_params(seed, m):
    """m exact surface-metric parameters (r, s, u): r and s in 1/8..8 in
    eighths, u = r s (p + q i) / 10 with p, q in -6..6, so |u| < 0.85 r s."""
    rng = np.random.default_rng(seed)
    for r, s, p, q in zip(*rng.integers(1, 65, (2, m)),
                          *rng.integers(-6, 7, (2, m))):
        r, s = Fraction(int(r), 8), Fraction(int(s), 8)
        yield r, s, QQi(r * s * Fraction(int(p), 10),
                        r * s * Fraction(int(q), 10))


# the traces of Theta: Ric^(kind) [a, b] of (up, Theta), kind 3 with
# indices (k, jbar), and S
_THETA_RICCI = {1: "kl,abkl->ab", 2: "ij,ijab->ab", 3: "il,ibal->ab"}
_THETA_S = "ij,kl,ijkl->"


@pytest.mark.parametrize("name", ENTRIES)
def test_connection_traces_against_exact(name):
    # the scan's contractions of the connection, in exact QQi arithmetic,
    # equal the exact traces of Theta; in floats they are within 1e-12 of
    # them, relative to the largest entry
    for point in _rational_params(400 + ENTRIES.index(name), 4):
        alg, h, _ = catalog.build(name, dict(zip("rsu", point)), exact=True)
        curv = inv.chern_curvature(alg, h)
        b, hf = curv.b.astype(complex), curv.h.astype(complex)
        s_theta = np.einsum(_THETA_S, curv.up, curv.up, curv.lowered)
        for kind in (1, 2, 3):
            ric, s = inv._connection_traces(kind, curv.b, curv.h[..., None],
                                            curv.up[..., None])
            want = np.einsum(_THETA_RICCI[kind], curv.up, curv.lowered)
            assert (ric[..., 0] == want).all()
            assert s[0] == s_theta
            ric, s = inv._connection_traces(kind, b, hf[..., None],
                                            inv._upper(hf)[0][..., None])
            want = want.astype(complex)
            assert (np.max(np.abs(ric[..., 0] - want))
                    <= 1e-12 * np.max(np.abs(want))), (kind, point)
            assert (abs(s[0] - complex(s_theta))
                    <= 1e-12 * abs(complex(s_theta))), point


@functools.cache
def _solved_twins():
    """(float, exact) solves of every entry at the 40 points of
    :func:`_log_uniform_params` of seed 12, the exact run on the same
    doubles; the points floats refuse as degenerate left out."""
    r, s, u = _log_uniform_params(12, 40)
    return [solves for name in ENTRIES
            for point in zip(r.tolist(), s.tolist(), u.tolist())
            if (solves := _float_and_exact(name, *point)) is not None]


def test_solved_scalar_curvature_against_exact():
    # S = <h^-1, Ric1> from the connection; through Theta its worst error
    # here was 1.0e-7 relative, and it is 1.2e-15 now
    for got, want in _solved_twins():
        s, exact = got.s_chern[0], float(want.s_chern[0])
        assert abs(s - exact) <= 1e-13 * abs(exact)


def test_solved_ric1_is_exact_where_it_vanishes():
    # Ric1 is a function of B alone; through Theta it was nonzero where the
    # exact Ric1 is 0 at 206 of these points
    zeros = 0
    for got, want in _solved_twins():
        zero = want.ric(1) == 0
        zeros += np.count_nonzero(zero)
        assert not got.ric(1)[zero].any()
    assert zeros


def test_solved_traces_are_within_their_rounding_bounds():
    # Ric1, Ric3, S and S3 against the exact twin, within ROUNDING times
    # the bounds _bound takes over the connection kernel's einsums
    for got, want in _solved_twins():
        for kind in (1, 3):
            err = np.abs(got.ric(kind) - want.ric(kind).astype(complex))
            assert np.all(err <= ROUNDING * got.ric_bound(kind))
        for (x, bound), exact in ((got.s_chern, want.s_chern[0]),
                                  (got.s_third, want.s_third[0])):
            assert abs(x - float(exact)) <= ROUNDING * bound


def _random_structure(rng, n, count):
    """An exact B of n^3 entries with ``count`` nonzero Gaussian rationals
    at random places."""
    b = np.full((n, n, n), QQi(), dtype=object)
    for at in rng.choice(n ** 3, count, replace=False):
        re, im, den = (int(x) for x in rng.integers(-4, 5, 3))
        b.flat[at] = QQi(Fraction(re, abs(den) + 1),
                         Fraction(im, abs(den) + 1)) or QQi(1)
    return b


def _random_metrics(rng, n, m):
    """m exact positive-definite metrics h = L L^* as a trailing-M stack,
    L lower triangular with a positive integer diagonal and Gaussian
    rationals below it."""
    hs = np.empty((n, n, m), dtype=object)
    for idx in range(m):
        low = [[QQi(int(rng.integers(1, 4))) if i == j else
                QQi(Fraction(int(rng.integers(-3, 4)), 2),
                    Fraction(int(rng.integers(-3, 4)), 2)) if j < i else
                QQi() for j in range(n)] for i in range(n)]
        for i, j in product(range(n), repeat=2):
            hs[i, j, idx] = sum((low[i][k] * conj(low[j][k])
                                 for k in range(n)), QQi())
    return hs


@pytest.mark.parametrize("n, count", [(2, c) for c in range(9)]
                         + [(3, 1), (3, 4), (3, 11), (3, 27)])
def test_ric2_kernel_against_dense_einsums(n, count):
    # the sparse kernel equals the dense einsums over all of B in QQi, and
    # is within 1e-12 of them in floats, relative to the largest entry
    rng = np.random.default_rng(100 * n + count)
    b, hs = _random_structure(rng, n, count), _random_metrics(rng, n, 6)
    up = inv._trailing(inv._upper(inv._leading(hs))[0])
    assert (inv._connection_traces(2, b, hs, up)[0]
            == dense_ric2(b, hs, up)).all()
    b, hs = b.astype(complex), hs.astype(complex)
    up = inv._trailing(inv._upper(inv._leading(hs))[0])
    got, want = inv._connection_traces(2, b, hs, up)[0], dense_ric2(b, hs, up)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_ric2_commutator_cancels_before_its_sum():
    # K's commutator terms l = m are the same products and cancel exactly;
    # summed over l first, their rounding times h_11 ~ 2.6e5 left 2e-3 of
    # Ric2 here
    got, want = _float_and_exact("kodaira-secondary", 718.1158706215507,
                                 0.2777800615482869, 0j)
    ric, _ = inv._connection_traces(2, got.b, got.h[..., None],
                                    got.up[..., None])
    want = want.ric(2).astype(complex)
    assert np.max(np.abs(ric[..., 0] - want)) <= 1e-8 * np.max(np.abs(want))


def test_first_chern_ricci_flat_entry_has_zero_kind_1_residual():
    # kodaira-primary is first-Chern-Ricci flat; through the traces of
    # Theta, rounding left residuals of up to 1.8e5 on these rows (4.7e-7
    # where r and s lie in 0.1..10), and > 1e-9 on 380 of them
    rng = np.random.default_rng(3)
    r, s = 10 ** rng.uniform(-3, 4, (2, 2000))
    u = (0.999 * r * s * rng.uniform(0, 1, 2000)
         * np.exp(2j * np.pi * rng.uniform(0, 1, 2000)))
    grid = np.stack([r, s, u], axis=1)
    alg, _, _ = catalog.build("kodaira-primary", exact=False)
    hs = _kept_metrics(grid)
    assert len(hs) == 2000
    for mode in ("strong", "weak"):
        _, resid_abs, resid, _ = inv.batch_einstein_residual(1, alg, hs, mode)
        assert np.max(resid_abs) <= 1e-9 and np.max(resid) <= 1e-9


def test_kind_1_scale_takes_moduli_of_one_ric1(monkeypatch):
    # Ric1 is one matrix broadcast over the batch, so the scale's max |Ric|
    # reads one metric's n^2 entries; only |Ric - lambda h| and |h| read
    # all n^2 M
    grid = np.array([[r, s, 0.1 * r * s] for r in (0.5, 1, 2)
                     for s in (0.7, 3)])
    hs = _kept_metrics(grid)
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    sizes, real = [], np.abs

    def recording(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", recording)
    for kind, whole in ((1, 2), (2, 3), (3, 3)):
        sizes.clear()
        inv.batch_einstein_residual(kind, alg, hs)
        assert sizes.count(hs.size) == whole
        assert max(sizes) == hs.size


def test_scan_checks_the_pair_once(monkeypatch):
    # two blocks, one Jacobi check and one B
    inv._coframe_verdict.cache_clear()
    calls = {"jacobi": 0, "structure": 0}
    for key, owner, name in (("jacobi", CoframeAlgebra, "check_jacobi"),
                             ("structure", inv, "_structure")):
        def counted(*args, _key=key, _fn=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    assert inv.scan(alg, 2, grid=_random_grid(6, B + 1)).count == B + 1
    assert calls == {"jacobi": 1, "structure": 1}


@pytest.fixture
def jacobi_checks(monkeypatch):
    """The calls of CoframeAlgebra.check_jacobi, counted from an empty
    verdict cache."""
    inv._coframe_verdict.cache_clear()
    calls, real = [], CoframeAlgebra.check_jacobi

    def counted(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(CoframeAlgebra, "check_jacobi", counted)
    return calls


_NOT_JACOBI = {"a": {(1, 1, 2): QQi(1)}, "b": {(2, 1, 1): QQi(1)}}


def test_coframe_failing_jacobi_is_refused_on_every_call(jacobi_checks):
    h = HermitianMetric([[1, 0], [0, 1]])
    for _ in range(3):
        with pytest.raises(ValueError, match="Jacobi"):
            inv.chern_curvature(CoframeAlgebra(2, **_NOT_JACOBI), h)
    assert len(jacobi_checks) == 1


def test_coframe_mutated_after_its_check_is_checked_again(jacobi_checks):
    alg, h, _ = catalog.build("kodaira-primary", exact=True)
    inv.chern_curvature(alg, h)
    inv.chern_curvature(alg, h)
    assert len(jacobi_checks) == 1
    alg.a.update(_NOT_JACOBI["a"])
    alg.b.clear()
    alg.b.update(_NOT_JACOBI["b"])
    with pytest.raises(ValueError, match="Jacobi"):
        inv.chern_curvature(alg, h)
    assert len(jacobi_checks) == 2


def test_float_and_exact_coframes_share_no_verdict(jacobi_checks):
    exact = CoframeAlgebra(2, a={(1, 1, 2): QQi(0, Fraction(1, 4))},
                           b={(1, 1, 2): QQi(0, Fraction(-1, 4)),
                              (2, 2, 2): QQi(0, Fraction(1, 2))})
    floats = CoframeAlgebra(2, a={(1, 1, 2): 0.25j},
                            b={(1, 1, 2): -0.25j, (2, 2, 2): 0.5j})
    assert exact.exact and not floats.exact
    for alg in (exact, floats, exact, floats):
        inv._check_pair(alg, 2)
    assert jacobi_checks[0].exact and not jacobi_checks[1].exact
    assert len(jacobi_checks) == 2


def test_scan_forms_no_curvature_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("scan formed R and Theta")

    monkeypatch.setattr(inv, "_curvature", refuse)
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    grid = inv.default_surface_grid([0.5, 1.0], [0.5, 1.0])
    for kind, mode in product((1, 2, 3), ("strong", "weak")):
        inv.scan(alg, kind, grid=grid, mode=mode)


# ---------------------------------------------------------------------------
# torsion, Lee form, Gauduchon

def test_torsion_flat_torus_vanishes():
    alg, h, _ = catalog.build("flat-torus", exact=True)
    t, tau = inv.torsion(inv.chern_curvature(alg, h))
    assert not any(t.flat)
    assert not any(tau)


@pytest.mark.parametrize("name", ENTRIES)
def test_torsion_is_20(name):
    # the form-algebra torsion has no (1,1)- or (0,2)-part, so the (2,0)
    # tensor T holds all of it
    alg, h, _ = catalog.build(name, exact=True)
    taus, _ = forms_torsion(alg, h)
    for t in taus:
        assert t.bidegrees() <= {(2, 0)}


@pytest.mark.parametrize("name", ENTRIES)
def test_torsion_matches_forms_oracle_exact(name):
    for point in catalog.get(name).points:
        alg, h, _ = catalog.build(name, point, exact=True)
        t, tau = inv.torsion(inv.chern_curvature(alg, h))
        taus, trace = forms_torsion(alg, h)
        n = alg.n
        for i, a, b in product(range(n), repeat=3):
            assert isinstance(t[i, a, b], QQi)
            assert t[i, a, b] == taus[i].coeff(a, b)
        for j in range(n):
            assert tau[j] == trace.coeff(j)


def _coefficients(form):
    """The 1-form coefficients over phi^1..phi^n, bar(phi)^1..bar(phi)^n."""
    return np.array([complex(form.coeff(k)) for k in range(2 * form.n)])


@pytest.mark.parametrize("name,n", [(name, n) for n in (2, 3)
                                    for name in ENTRIES])
def test_lee_gauduchon_bl_match_forms_oracle_float(name, n):
    # n = 3 is the entry's coframe plus a closed phi^3
    rng = np.random.default_rng(17)
    alg, _, _ = catalog.build(name, {"r": 1.0}, exact=False)
    alg = CoframeAlgebra(n, alg.a, alg.b)
    for _ in range(3):
        h = rng_metric(rng, n)
        theta, _, residual = inv.lee_form(alg, h)
        want, want_residual = lstsq_lee_form(alg, h)
        got, want = _coefficients(theta), _coefficients(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert residual <= 1e-12 * max(np.max(np.abs(want)), 1.0)

        curv = inv.chern_curvature(alg, h)
        ok, residual = inv.is_gauduchon(curv, h)
        want_ok, want_residual, scale = ddbar_gauduchon(alg, h)
        assert ok == want_ok
        assert abs(residual - want_residual) <= 1e-12 * max(want_residual,
                                                            scale)

        value = inv.bogomolov_lubke(curv, h)
        want = wedge_bogomolov_lubke(curv, h)
        bound = (np.max(np.abs(np.linalg.inv(h.h)))
                 * np.max(np.abs(curv.r_upper))) ** 2
        assert abs(value - want) <= 1e-12 * max(abs(want), bound)


@pytest.mark.parametrize("name", ENTRIES)
def test_lee_form_refuses_exact_input(name):
    alg, h, _ = catalog.build(name, exact=True)
    with pytest.raises(ValueError, match="exact input is refused"):
        inv.lee_form(alg, h)


def test_lee_form_snow():
    alg, h, _ = catalog.build("snow-s5", {"r": 1.0, "ell": 1.0},
                              exact=False)
    theta, lck, residual = inv.lee_form(alg, h)
    assert theta is not None and lck
    assert residual < 1e-12
    assert abs(theta.coeff(0) - 1) < 1e-9
    assert abs(theta.coeff(2) - 1) < 1e-9
    # re-wedge: d omega = theta ^ omega for n = 2
    omega = h.omega()
    assert (ext_d(alg, omega) - theta.wedge(omega)).is_zero(
        tol_scale=max(omega.max_abs(), 1.0))


def test_gauduchon_degrees():
    for name, sign in (("flat-torus", 0), ("hopf", 1), ("inoue-sm", -1)):
        alg, h, _ = catalog.build(name, {"r": 1.0}, exact=False)
        curv = inv.chern_curvature(alg, h)
        ok, residual = inv.is_gauduchon(curv, h)
        assert ok and residual < 1e-12
        deg = inv.gauduchon_degree(curv, h)
        if sign == 0:
            assert abs(deg) < 1e-12
        else:
            assert deg * sign > 0
    # the library call checks h itself; the CLI checks it once beforehand
    alg, h, _ = catalog.build("snow-s5", {"r": 1.0}, exact=False)
    with pytest.raises(ValueError, match="not Gauduchon"):
        inv.gauduchon_degree(inv.chern_curvature(alg, h), h)


def test_ill_conditioned_metric_rounding():
    # at h11 / h22 ~ 2e5 the terms of the Gauduchon and Bogomolov-Lubke
    # contractions cancel to rounding where the exact value is 0: every
    # metric on the unimodular inoue-spm is Gauduchon, and its pairing
    # vanishes; ovando-r2r2's small nonzero pairing survives
    float_p = {"r": 1000.0, "s": 2.2, "u": 0.1j}
    exact_p = {"r": 1000, "s": Fraction(11, 5), "u": QQi(0, Fraction(1, 10))}
    for p, exact in ((float_p, False), (exact_p, True)):
        alg, h, _ = catalog.build("inoue-spm", p, exact=exact)
        assert inv.is_gauduchon(inv.chern_curvature(alg, h), h) == (True,
                                                                    0.0)
    alg, h, _ = catalog.build("inoue-spm", float_p, exact=False)
    assert inv.bogomolov_lubke(inv.chern_curvature(alg, h), h) == 0.0
    alg, h, _ = catalog.build("ovando-r2r2", float_p, exact=False)
    value = inv.bogomolov_lubke(inv.chern_curvature(alg, h), h)
    assert value == pytest.approx(-1.0467064469113673e-08, rel=1e-9)


@pytest.mark.parametrize("name", ENTRIES)
def test_rounding_bounds_hold(name):
    # every float entry of h^-1, gamma, R and Theta is within ROUNDING times
    # its rounding bound of the exact value, at the registry points and at
    # the anisotropic point above
    extra = {"r": 1000, "s": Fraction(11, 5), "u": QQi(0, Fraction(1, 10))}
    if name == "snow-s5":
        extra["ell"] = 2
    for point in catalog.get(name).points + [extra]:
        alg, h, _ = catalog.build(name, point, exact=False)
        curv = inv.chern_curvature(alg, h)
        alg, h, _ = catalog.build(name, point, exact=True)
        exact = inv.chern_curvature(alg, h)
        for key, bound in curv.bound.items():
            err = np.abs(getattr(curv, key)
                         - getattr(exact, key).astype(complex))
            assert np.all(err <= ROUNDING * bound), (point, key)
        assert not any(np.any(bound) for bound in exact.bound.values())


@pytest.mark.parametrize("name", ENTRIES)
def test_bounds_match_hand_expanded_oracle(name):
    # the bounds by _bound over the solve's and the connection kernel's
    # specs equal the hand expansion bit for bit, at the registry points
    # and at seeded metrics with r and s from 1e-2 to 1e3 and |u| up to
    # 0.98 r s
    rng = np.random.default_rng(17)
    points = list(catalog.get(name).points)
    for _ in range(8):
        r, s = 10 ** rng.uniform(-2, 3, size=2)
        u = rng.uniform(0, 0.98) * r * s * np.exp(2j * np.pi * rng.random())
        points.append({"r": float(r), "s": float(s), "u": complex(u)})
    for point in points:
        alg, h, _ = catalog.build(name, point, exact=False)
        curv = inv.chern_curvature(alg, h)
        want = rounding_bounds(curv.b, curv.h, curv.up, curv.gamma,
                               curv.r_upper)
        assert curv.bound.keys() == want.keys()
        for key, bound in want.items():
            assert np.array_equal(curv.bound[key], bound), (point, key)
        # and those of the traces taken from the connection kernel
        t, g, ric3 = inv._ric3(curv.b, curv.h[..., None], curv.up[..., None])
        want = trace_bounds(curv.b, curv.h, curv.up, t[..., 0], g[..., 0],
                            curv.ric(1), ric3[..., 0])
        got = {1: curv.ric_bound(1), 3: curv.ric_bound(3),
               "S": curv.s_chern[1], "S3": curv.s_third[1]}
        for key, bound in want.items():
            assert np.array_equal(got[key], bound), (point, key)


# ---------------------------------------------------------------------------
# metric validation

@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[1, 2], [2, 1]]],
                         ids=["zero-pivot", "negative-pivot"])
def test_inverse_refuses_a_matrix_that_is_not_positive_definite(rows,
                                                                   exact):
    # the elimination's pivots are ratios of leading principal minors: 0
    # and then -3 here.  A zero pivot is not positive in exact arithmetic
    # and degenerate in floats, a negative one not positive in both
    h = np.array([[QQi(v) if exact else complex(v) for v in row]
                  for row in rows], dtype=object if exact else complex)
    fault = 2 if rows[0][0] else 1 if exact else -1
    assert inv._upper(h)[1] == fault
    assert inv._upper(h[None])[1].tolist() == [fault]
    for stack in (h, h[None]):
        with pytest.raises(NotPositiveDefinite if fault > 0
                           else DegenerateMetric):
            inv._admit(*inv._upper(stack))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_upper_gives_each_metric_of_a_stack_its_verdict(exact):
    # one admitted metric beside each way to fail, n = 3: the first pivot
    # that fails decides, and a failed pivot does not stop the elimination
    one = QQi(1) if exact else 1.0
    eye = [[one if i == j else 0 * one for j in range(3)] for i in range(3)]
    near = [row[:] for row in eye]
    near[1][1] = near[1][2] = near[2][1] = one
    near[2][2] = one + one / 10 ** 12   # p3 = 1e-12
    flipped = [row[:] for row in eye]
    flipped[2][2] = -one
    zero = [row[:] for row in eye]
    zero[0][0] = 0 * one
    hs = np.array([eye, near, flipped, zero],
                  dtype=object if exact else complex)
    up, fault = inv._upper(hs)
    assert fault.tolist() == ([0, 0, 3, 1] if exact else [0, -3, 3, -1])
    assert (up[0] == hs[0]).all()


def test_metric_validation():
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric([[1 + 0j, 0j], [0j, -1 + 0j]])
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric([[1 + 0j, 2 + 0j], [2 + 0j, 1 + 0j]])
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMetric([[1 + 0j, 1j], [1j, 1 + 0j]])
    # p2 / h11 = 1e-12
    with pytest.raises(DegenerateMetric):
        HermitianMetric([[1 + 0j, 1 + 0j], [1 + 0j, 1 + 1e-12 + 0j]])
    # degenerate before it is not Hermitian, which comes before a pivot
    # that is not positive
    with pytest.raises(DegenerateMetric):   # p2 = 1 - inf i
        HermitianMetric([[1 + 0j, 1e300 + 0j], [1e300j, 1 + 0j]])
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMetric([[1 + 0j, 2 + 0j], [2j, 1 + 0j]])
    # the rule is scale-free: a diagonal metric is admitted at any
    # anisotropy
    h = HermitianMetric([[2.0 ** -100, 0j], [0j, 2.0 ** 100]])
    assert np.array_equal(h.inverse_upper(), np.diag([2.0 ** 100,
                                                      2.0 ** -100]))


def test_omega_of_tiny_metric():
    # entries are judged against the largest one, at any scale
    h = HermitianMetric([[1e-16, 0.5e-16j], [-0.5e-16j, 2e-16]])
    omega = h.omega()
    assert omega.coeff(0, 2) == 1e-16j
    assert omega.coeff(0, 3) == -0.5e-16
    assert omega.coeff(1, 3) == 2e-16j
    assert len(omega.coefficients) == 4
    exact = HermitianMetric([[QQi(1, 0), QQi()], [QQi(), QQi(2, 0)]])
    assert exact.scaled(QQi(Fraction(1, 10 ** 20))).omega().coefficients \
        == {(0, 2): QQi(0, Fraction(1, 10 ** 20)),
            (1, 3): QQi(0, Fraction(2, 10 ** 20))}


def _answers(params, exact=None):
    """Whether ``params.metric(exact)`` gives a metric, and does not
    refuse its parameters."""
    try:
        params.metric(exact)
    except (ValueError, ArithmeticError):
        return False
    return True


def test_admissibility():
    # admissible() is metric()'s answer, in the arithmetic of r, s and u:
    # exactly, p2 = (1 - u^2) / 2 > 0 at u = 1 - 10^-20, which complex(u)
    # rounds to 1; in floats p2 / h11 = 0.9975 at r = 1e-3, s = 1e4
    cases = [(1, 1, 0.5, True), (1, 1, 1.0, False), (0, 1, 0, False),
             (1, 1, 1 - Fraction(1, 10 ** 20), True),
             (1e-3, 1e4, 0.5, True), (1, 1, 1 - 1e-12, False),
             (1, 1e-160, 0, False), (1j, 1, 0, False)]
    for r, s, u, want in cases:
        params = SurfaceMetricParams(r, s, u)
        assert params.admissible() == _answers(params) == want, (r, s, u)


def test_scan_blocks_hold_the_surface_metric_bit_for_bit():
    # the scan's h stack and a single metric's h come from one formula,
    # inv.surface_matrix; u = 0 on every fifth row
    r, s, u = _log_uniform_params(23, 400)
    r, s, u, hs, _ = inv._surface_block(np.stack([r, s, u], axis=1))
    assert len(hs) == 400
    for i in range(len(hs)):
        _same_bits(hs[i],
                   SurfaceMetricParams(r[i], s[i], u[i]).metric(
                       exact=False).array)


def test_admissibility_mask_matches_params():
    # the rows one scan block keeps are the float parameters admissible()
    # and metric() accept: |u| = r s (1 - 1.7e-13) and |u| = r s (1 -
    # 2^-52) are refused as degenerate, by pivot ratios of 3.3e-13 and
    # 4.4e-16
    rows = [(1, 1, 0.5), (1, 1, 1.0), (0, 1, 0), (1, -2, 0), (2, 3, 6j),
            (2, 3, 6 - 1e-12), (0.3, 0.7, 0.2099 * np.exp(0.4j)),
            (1e-3, 1e4, 10 * (1 - 2 ** -52) * 1j), (1, 1, 0),
            (1e-3, 1e4, 0.5), (1e-3, 1e4, 9.9j)]
    hs = inv._surface_block(np.array(rows, dtype=complex))[3]
    kept = (inv._upper(hs)[1] == 0).tolist()
    params = [SurfaceMetricParams(*row) for row in rows]
    assert kept == [p.admissible() for p in params]
    assert kept == [_answers(p, exact=False) for p in params]
    assert kept == [True, False, False, True, False, False, True, False,
                    True, True, True]


def test_bad_kind_and_mode():
    alg, h, _ = catalog.build("hopf", exact=True)
    curv = inv.chern_curvature(alg, h)
    with pytest.raises(ValueError):
        inv.ricci(4, curv, h)
    with pytest.raises(ValueError):
        inv.einstein_residual(2, alg, h, mode="medium")


# ---------------------------------------------------------------------------
# Einstein residuals, Chern-Weil, Bogomolov-Lubke

def test_ovando_r4_einstein():
    alg, h, _ = catalog.build("ovando-r4", {"r": 1.0}, exact=False)
    for mode in ("strong", "weak"):
        lam, residual = inv.einstein_residual(2, alg, h, mode=mode)
        assert lam == pytest.approx(-1.0, rel=1e-12)
        assert residual < 1e-13


@pytest.mark.parametrize("name", ENTRIES)
def test_c1_closed(name):
    alg, h, _ = catalog.build(name, {"r": 1.0}, exact=False)
    curv = inv.chern_curvature(alg, h)
    c1, _ = chern_weil(curv)
    assert ext_d(alg, c1).is_zero(tol_scale=max(c1.max_abs(), 1.0))


def test_bogomolov_lubke_signs():
    for name in ("hopf", "ovando-r4"):
        alg, h, _ = catalog.build(name, {"r": 1.0}, exact=False)
        curv = inv.chern_curvature(alg, h)
        assert inv.bogomolov_lubke(curv, h) <= 1e-9


# ---------------------------------------------------------------------------
# scans

def test_scan_small_grid():
    grid = inv.default_surface_grid(r_values=[0.5, 1.0], s_values=[0.5, 1.0])
    report = catalog.scan_entry("inoue-sm", kind=2, grid=grid)
    assert report.count > 0
    assert report.min_residual > 1e-3
    assert report.certificate_ok
    assert report.certificate_worst < 0
    assert report.min_residual_abs > 0


def test_scan_rejects_empty_grid():
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with pytest.raises(ValueError):
        inv.scan(alg, 2, grid=[(1.0, 1.0, 5.0)])  # inadmissible point


@pytest.mark.parametrize("grid", [[(1.0, 1.0)], [1.0, 1.0, 0.5],
                                  np.ones((0, 4)), np.ones((4, 3, 1)),
                                  np.ones((2, 4))])
def test_scan_rejects_grid_not_m_by_3(grid):
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with pytest.raises(ValueError, match="M x 3"):
        inv.scan(alg, 2, grid=grid)


@pytest.mark.parametrize("grid", [
    lambda: [], lambda: np.empty((0, 3)), lambda: iter([]),
    lambda: inv.default_surface_grid([1.0], []),
    lambda: inv.surface_grid_chunks([], [1.0]),
    lambda: inv.surface_grid_chunks([1.0], [])],
    ids=["list", "array", "iterator", "grid-no-s", "chunks-no-r",
         "chunks-no-s"])
def test_scan_of_no_rows_has_no_admissible_points(grid):
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with pytest.raises(ValueError, match="no admissible grid points"):
        inv.scan(alg, 2, grid=grid())


@pytest.mark.parametrize("r_values, s_values", [([1.0], []), ([], [1.0])])
def test_default_surface_grid_of_an_empty_axis(r_values, s_values):
    rows = inv.default_surface_grid(r_values, s_values)
    assert rows.shape == (0, 3) and rows.dtype == complex


def _nested_loop_grid(r_values=None, s_values=None, radii=9, phases=8):
    """The surface grid built point by point, as (r, s, u) tuples."""
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


@pytest.mark.parametrize("kwargs", [
    {}, {"r_values": [0.5, 1.0], "s_values": [0.5, 1.0]},
    {"r_values": [0.375, 1.0, 1.625], "s_values": [0.1, 7.3]},
    {"r_values": [1.5], "s_values": [0.5, 2.0]}])
def test_default_surface_grid_matches_nested_loops(kwargs):
    grid = inv.default_surface_grid(**kwargs)
    want = np.array(_nested_loop_grid(**kwargs), dtype=complex)
    assert grid.dtype == complex and grid.shape == want.shape
    assert grid.tobytes() == want.tobytes()  # bit for bit, signed zeros too


def test_scan_list_and_array_grids_agree():
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    cert = catalog.get("inoue-sm").certificate
    triples = _nested_loop_grid([0.5, 1.25], [0.75, 2.0], radii=3, phases=5)
    triples.append((1.0, 1.0, 2.0))  # inadmissible, dropped by both
    for mode in ("strong", "weak"):
        from_list = inv.scan(alg, 2, grid=triples, mode=mode,
                             certificate=cert)
        from_array = inv.scan(alg, 2, grid=np.array(triples), mode=mode,
                              certificate=cert)
        assert from_list == from_array
        assert from_list.count == len(triples) - 1
        r, s, u = from_list.argmin
        assert (type(r), type(s), type(u)) == (float, float, complex)


def test_scan_calls_certificate_once():
    alg, _, _ = catalog.build("kodaira-primary", exact=False)
    calls = []

    def counted(r, s, u, lam):
        calls.append(len(lam))
        return catalog.get("kodaira-primary").certificate(r, s, u, lam)

    report = inv.scan(alg, 2, grid=inv.default_surface_grid(
        [0.5, 1.0], [0.5, 1.0]), certificate=counted)
    assert calls == [report.count] and report.certificate_ok


def test_scan_drops_overflowing_rows():
    # r^2 overflows, so h has infinite entries, yet the row passes the mask
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = inv.scan(alg, 2, grid=[(1e160, 1e160, 0), (1, 1, 0.5)])
    assert report == inv.scan(alg, 2, grid=[(1, 1, 0.5)])
    assert report.count == 1


# |u| = r s (1 - 2^-52): the pivot ratio 1 - |u|^2 / (r^2 s^2) is 4.4e-16
CONE = 1 - 2 ** -52


@pytest.mark.parametrize("big", [1e100, 1e150])
def test_scan_drops_rows_whose_det_overflows(big):
    # h is finite, det h and max |h|^2 overflow, and the rows lie on the
    # cone, where the rule refuses them
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = inv.scan(alg, 2, grid=[(big, big, big * big * CONE),
                                        (1, 1, 0.5)])
        with pytest.raises(ValueError, match="no admissible grid points"):
            inv.scan(alg, 2, grid=[(big, big, big * big * CONE),
                                   (big, 2 * big, 2j * big * big * CONE)])
    assert report == inv.scan(alg, 2, grid=[(1, 1, 0.5)])
    assert report.count == 1


@pytest.mark.parametrize("big", [1e100, 1e150])
def test_scan_keeps_rows_whose_det_overflows(big):
    # h is finite and det h overflows, away from the cone: the rows are
    # kept, as the rows 1/big times the size are, and the same row wins
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    rows = np.array([(1, 2, 0.5j), (1, 1, 0), (2, 1, 0.5 + 0.5j)])
    scaled = rows * [big, big, big * big]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inv.scan(alg, 2, grid=scaled)
    want = inv.scan(alg, 2, grid=rows)
    assert got.count == want.count == 3
    assert got.argmin == (big * want.argmin[0], big * want.argmin[1],
                          big * big * want.argmin[2])
    assert got.min_residual == pytest.approx(want.min_residual, rel=1e-12)


def test_scan_drops_a_row_whose_second_pivot_is_not_positive():
    # |u| just above r s, with r^2 s^2 near the smallest normal float:
    # _upper's second pivot is < 0, so HermitianMetric refuses the row as
    # not positive definite, and the scan drops it
    row = (2.39428969030173e-81, 2.3927200109961983e-81,
           -1.5669719412841712e-162 + 5.51557209272279e-162j)
    with pytest.raises(NotPositiveDefinite, match="pivot 2"):
        SurfaceMetricParams(*row).metric()
    alg, _, _ = catalog.build("hopf", exact=False)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                invalid="raise"):
        warnings.simplefilter("error")
        report = inv.scan(alg, 2, grid=[row, (1, 1, 0.5)])
    assert report == inv.scan(alg, 2, grid=[(1, 1, 0.5)])
    assert report.count == 1


# ---------------------------------------------------------------------------
# the block-wise scan against the whole-grid scan

B = inv.SCAN_BLOCK
EDGE = (4.2078405135370796, 4.72617142078429,
        -19.649257210196208 + 3.065695474006352j)  # degenerate in floats


def _complex_rows(grid):
    """(keep, r, s, u, h, max |h|) of an (M, 3) grid, in numpy and without
    inv._upper: r and s the real parts of the rows', the complex h
    (M, 2, 2) and its largest modulus, and the rule written out for
    n = 2, ``keep``: the pivots p1 = h00 and p2 = h11 - |h01|^2 / h00
    are finite, positive and at least TAU times their h_kk.  |h01|^2 / h00
    is taken as x (x / h00) + y (y / h00) with h01 = x + y i, which
    overflows where h10 (h01 / h00) does, not where |h01|^2 does."""
    grid = np.asarray(grid, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, s, u = grid[:, 0].real, grid[:, 1].real, grid[:, 2]
        hs = np.empty((len(r), 2, 2), dtype=complex)
        hs[:, 0, 0] = r * r / 2
        hs[:, 1, 1] = s * s / 2
        hs[:, 0, 1] = -(1j * u) / 2
        hs[:, 1, 0] = 1j * u.conjugate() / 2
        top = np.max(np.abs(hs), axis=(1, 2))
        h00, h11 = hs[:, 0, 0].real, hs[:, 1, 1].real
        x, y = hs[:, 0, 1].real, hs[:, 0, 1].imag
        p2 = h11 - (x * (x / h00) + y * (y / h00))
        keep = np.ones(len(r), dtype=bool)
        for p, h in ((h00, h00), (p2, h11)):
            keep &= np.isfinite(p) & (p > 0) & (p >= inv.TAU * h)
    return keep, r, s, u, hs, top


def _old_rule(grid):
    """Per row of an (M, 3) grid, whether the scan kept it before its rule
    was :func:`inv._upper`'s, in the arithmetic of its blocks then: the
    mask r^2 > 0, s^2 > 0 and r^2 s^2 - |u|^2 > 0; det h and max |h|
    finite with |det h| >= 1e-10 max |h|^2; and the two pivots positive."""
    grid = np.asarray(grid, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, s, u = grid[:, 0].real, grid[:, 1].real, grid[:, 2]
        r2, s2 = r * r, s * s
        mask = (r2 > 0) & (s2 > 0) & (r2 * s2 - inv.abs2(u) > 0)
        h = inv.surface_matrix(r, s, u)
        (p, off), (_, q) = h
        det = p * q - inv.abs2(off)
        top = np.maximum(np.maximum(p, q), np.abs(off))
        hs = np.empty((2, 2, len(r)), complex)
        (hs[0, 0], hs[0, 1]), (hs[1, 0], hs[1, 1]) = h
        pivot = hs[1, 1] - hs[1, 0] * (hs[0, 1] / hs[0, 0])
        return (mask & np.isfinite(det) & (abs(det) >= 1e-10 * top ** 2)
                & (p > 0) & (pivot.real > 0))


def _whole_grid_scan(alg, kind, grid, mode="strong", certificate=None):
    """The scan on all rows at once: one batched residual over the rows
    :func:`_complex_rows` keeps, h^-1 by the tests' own elimination
    :func:`_leading_upper`; the rows whose lambda* or residual is not
    finite dropped; the first row within TIE of the least residual; all
    and np.max for the certificate."""
    keep, r, s, u, hs, _ = _complex_rows(grid)
    hs, r, s, u = hs[keep], r[keep], s[keep], u[keep]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam, resid_abs, resid, _ = inv.batch_einstein_residual(
            kind, alg, hs, mode=mode, up=_leading_upper(hs))
    rows = np.isfinite(lam) & np.isfinite(resid_abs) & np.isfinite(resid)
    lam, resid_abs, resid, r, s, u = (x[rows] for x in
                                      (lam, resid_abs, resid, r, s, u))
    if not len(r):
        raise ValueError("no admissible grid points")
    best = int(np.argmax(resid <= np.min(resid) + inv.TIE))
    cert_ok, cert_worst = None, None
    if certificate is not None:
        vals = certificate(r, s, u, lam)
        cert_ok, cert_worst = bool(np.all(vals < 0)), float(np.max(vals))
    return inv.ScanReport(entry=None, kind=kind, count=len(r),
                          min_residual=float(resid[best]),
                          argmin=(float(r[best]), float(s[best]),
                                  complex(u[best])),
                          certificate_ok=cert_ok,
                          certificate_worst=cert_worst,
                          min_residual_abs=float(resid_abs[best]))


def _random_grid(seed, m):
    """m admissible rows: r, s in 0.25..3 and |u| < 0.95 r s."""
    rng = np.random.default_rng(seed)
    r, s = rng.uniform(0.25, 3, (2, m))
    u = (0.95 * r * s * rng.uniform(0, 1, m)
         * np.exp(2j * np.pi * rng.uniform(0, 1, m)))
    return np.stack([r, s, u], axis=1)


def _assert_same_report(got, want):
    for field in dataclasses.fields(inv.ScanReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b or (a != a and b != b), field.name  # NaN is NaN


def _check_blocks(grid, kind=2, mode="strong", entry="inoue-sm",
                  certificate=True):
    """The scan's report of a grid, after checking it against the
    whole-grid scan's; or None, when both refuse the grid alike."""
    alg, _, _ = catalog.build(entry, exact=False)
    cert = catalog.get(entry).certificate if certificate else None
    try:
        want = _whole_grid_scan(alg, kind, grid, mode, cert)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            inv.scan(alg, kind, grid=grid, mode=mode, certificate=cert)
        return None
    got = inv.scan(alg, kind, grid=grid, mode=mode, certificate=cert)
    _assert_same_report(got, want)
    return got


def _wide_grid(seed, m):
    """m rows of :func:`_log_uniform_params` with r and s in 1e-80..1e76;
    m / 4 rows with |det h| within 1e-12 of 1e-10 max |h|^2, where the old
    rule's verdict turned on det h's last bits (:func:`_old_rule`); rows
    on the cone, |u| = r s (1 - 2^-52); and rows that underflow or
    overflow: r^2 s^2 subnormal, r^2 s^2 past the largest float where
    (r^2 / 2) (s^2 / 2) is not, det h or h itself not finite."""
    r, s, u = _log_uniform_params(seed, m, -80, 76)
    rng = np.random.default_rng(seed)
    a, b = 10 ** rng.uniform(-1, 1, (2, m // 4))
    p, q = a * a / 2, b * b / 2
    near = 1e-10 * np.maximum(p, q) ** 2 * (1 + rng.uniform(-1e-12, 1e-12,
                                                            m // 4))
    edge = list(zip(a, b, 2 * np.sqrt(p * q - near)
                    * np.exp(2j * np.pi * rng.uniform(0, 1, m // 4))))
    a, b = 10 ** rng.uniform(-30, 30, (2, 40))
    edge += [(x, y, x * y * CONE * phase) for x, y, phase in
             zip(a, b, np.exp(2j * np.pi * rng.uniform(0, 1, 40)))]
    edge += [(x, y, x * y * CONE) for x, y in zip(a, b)]
    a, b = 10 ** rng.uniform(-80, -77, (2, 40))
    edge += [(x, y, x * y * f) for x, y, f in
             zip(a, b, rng.uniform(-0.9, 0.9, 40))]
    edge += [(1.2e77, 1.2e77, 0), (1.2e77, 1.3e77, 1e150),
             (1.5e77, 1e77, 3e153j), (1e150, 1e150, 0), (1e160, 1e160, 0),
             (1e-81, 1e-81, 0), (1e160, 1, 0), (1, 1, 1e160), EDGE]
    return np.concatenate([np.stack([r, s, u], axis=1), edge])


def _near_tau(seed, m):
    """m rows whose pivot ratio 1 - |u|^2 / (r^2 s^2) lies within 1e-6 of
    TAU, relative, where rounding decides the verdict; r and s
    log-uniform in 1e-3..1e4."""
    rng = np.random.default_rng(seed)
    r, s = 10 ** rng.uniform(-3, 4, (2, m))
    ratio = inv.TAU * (1 + rng.uniform(-1e-6, 1e-6, m))
    u = (r * s * np.sqrt(1 - ratio)
         * np.exp(2j * np.pi * rng.uniform(0, 1, m)))
    return np.stack([r, s, u], axis=1)


@pytest.mark.parametrize("seed", [31, 37, 5, 6])
def test_rule_keeps_every_row_the_old_rule_kept(seed):
    # the written-out rule is inv._upper's verdict on every row, and it
    # refuses no row that the old one kept: p_k <= h_kk and det h is the
    # pivots' product, so each ratio p_k / h_kk >= |det h| / max |h|^2
    grid = _wide_grid(seed, 2 * B)
    keep, _, _, _, hs, _ = _complex_rows(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        assert keep.tolist() == (inv._upper(hs)[1] == 0).tolist()
    old = _old_rule(grid)
    assert not (old & ~keep).any()
    assert np.count_nonzero(old) < np.count_nonzero(keep)


@pytest.mark.parametrize("K, step", [(6, 24), (8, 20), (12, 12), (42, 5)])
def test_both_rules_keep_every_row_of_the_workload_grids(K, step):
    # the invariant-scan workload's grids at their widest step, from its
    # least and largest start: r, s in 6/64..(31 + (K - 1) step)/64, where
    # every pivot ratio is at least 1 - 0.855^2
    for start in (6, 31):
        values = [(start + k * step) / 64 for k in range(K)]
        grid = inv.default_surface_grid(values, values)
        assert _old_rule(grid).all() and _complex_rows(grid)[0].all()


def test_one_rule_admits_for_metrics_scans_and_params(monkeypatch):
    # HermitianMetric, scan and SurfaceMetricParams.admissible reach one
    # function, inv._upper, and it gives each row the same verdict through
    # each, near TAU too; a scan block is inverted once, and its residual
    # reads that inverse
    monkeypatch.setattr(inv, "SCAN_BLOCK", 128)
    grid = np.concatenate([_wide_grid(31, 256), _near_tau(31, 128)])
    alg, _, _ = catalog.build("hopf", exact=False)
    calls, real = [], inv._upper

    def recorded(hs):
        calls.append(real(hs))
        return calls[-1]

    monkeypatch.setattr(inv, "_upper", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv.scan(alg, 2, grid=grid)
    assert len(calls) == len(list(inv._row_blocks(grid)))
    verdict = np.concatenate([fault for _, fault in calls]).tolist()
    assert len(verdict) == len(grid)
    assert 0 in verdict and {-1, -2, 2} <= set(verdict)
    assert 0 < verdict[-128:].count(0) < 128
    for (r, s, u), fault in zip(grid.tolist(), verdict):
        params = SurfaceMetricParams(r.real, s.real, u)
        calls.clear()
        assert params.admissible() == (fault == 0)
        try:
            HermitianMetric(inv.surface_matrix(r.real, s.real, u))
        except (DegenerateMetric, NotPositiveDefinite):
            assert fault != 0
        else:
            assert fault == 0
        assert [f for _, f in calls] == [fault, fault]


@pytest.mark.parametrize("kind, mode", [(1, "weak"), (2, "strong"),
                                        (3, "weak")])
def test_block_scan_matches_whole_grid_on_wide_rows(kind, mode):
    grid = _wide_grid(37, 2 * B)
    assert _check_blocks(grid, kind, mode, certificate=False).count > 0


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 3],
                         ids=["1", "B-1", "B", "B+1", "2B+3"])
def test_block_scan_matches_whole_grid(rows):
    assert _check_blocks(_random_grid(rows, rows)).count == rows


@pytest.mark.parametrize("kind, mode", [(1, "weak"), (3, "strong")])
def test_block_scan_matches_whole_grid_modes(kind, mode):
    _check_blocks(_random_grid(1, 2 * B + 3), kind, mode, "hopf", False)


def test_block_scan_skips_inadmissible_block():
    grid = np.concatenate([_random_grid(2, B), _random_grid(3, B + 100)])
    grid[:B, 0] = 0  # r = 0: the whole first block is dropped
    assert _check_blocks(grid).count == B + 100


def test_block_scan_drops_degenerate_row_in_second_block():
    grid = np.insert(_random_grid(4, 2 * B), B + 7, EDGE, axis=0)
    assert _check_blocks(grid).count == 2 * B


def test_block_scan_winner_copied_later():
    grid = _random_grid(5, B + 10)
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    r, s, u = _whole_grid_scan(alg, 2, grid).argmin
    # the later rows repeat earlier ones, so none beats the copy
    grid = np.concatenate([grid, grid[-B:], [(r, s, u)]])
    assert _check_blocks(grid).argmin == (r, s, u)


@pytest.mark.parametrize("resid_of", [
    lambda r, s: np.zeros_like(r),               # every row ties
    lambda r, s: np.floor(s),                    # ties in every block
    lambda r, s: 1e-10 * (3 - r),                # near-ties, all within TIE
    lambda r, s: 2e-9 * (3 - r) / 3,             # some within TIE
    lambda r, s: np.where(r < 2.9, np.nan, s),   # NaN rows sort last
    lambda r, s: np.full_like(r, np.nan)])
def test_block_scan_tie_rule(monkeypatch, resid_of):
    # ties between different rows, so the earliest row is seen to win
    def fake(kind, alg, hs, mode="strong", b=None, h_max=None, up=None):
        r, s = np.sqrt(2 * hs[:, 0, 0].real), np.sqrt(2 * hs[:, 1, 1].real)
        zero = np.zeros(len(hs))
        return zero, zero, resid_of(r, s), zero

    monkeypatch.setattr(inv, "batch_einstein_residual", fake)
    _check_blocks(_random_grid(7, 2 * B + 3), certificate=False)


def test_block_scan_tie_across_blocks(monkeypatch):
    # the tied rows sit at local index 10 of block 1 and 0 of block 2
    def fake(kind, alg, hs, mode="strong", b=None, h_max=None, up=None):
        zero = np.zeros(len(hs))
        return zero, zero, (hs[:, 1, 1].real > 0.1) * 1.0, zero

    monkeypatch.setattr(inv, "batch_einstein_residual", fake)
    grid = _random_grid(9, 2 * B)
    grid[:, 1] = np.maximum(grid[:, 1].real, 1.0)
    grid[[10, B]] = [(1.5, 0.25, 0), (2.5, 0.25, 0)]
    assert _check_blocks(grid, certificate=False).argmin == (1.5, 0.25, 0)


def test_block_scan_certificate_nan_in_later_block():
    grid = _random_grid(8, 2 * B + 3)
    marker = grid[B + 5, 0].real
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)

    def cert(r, s, u, lam):  # -1, but NaN on one row of the second block
        return np.where(r == marker, np.nan, -1.0)

    got = inv.scan(alg, 2, grid=grid, certificate=cert)
    _assert_same_report(got, _whole_grid_scan(alg, 2, grid, "strong", cert))
    assert got.certificate_ok is False and math.isnan(got.certificate_worst)


@pytest.mark.parametrize("name", catalog.NONEXISTENCE_ENTRIES)
def test_scan_argmin_is_not_moved_by_rounding(monkeypatch, name):
    # each relative residual times 1 + 1e-13 noise, as another rounding of
    # the same kernel would give, on a K=12 grid the workload draws
    values = [(20 + 7 * k) / 64 for k in range(12)]
    grid = inv.default_surface_grid(r_values=values, s_values=values)
    alg, _, _ = catalog.build(name, exact=False)
    want = inv.scan(alg, 2, grid=grid)
    real, rng = inv.batch_einstein_residual, np.random.default_rng(13)

    def noisy(*args, **kwargs):
        lam, resid_abs, resid, s = real(*args, **kwargs)
        return lam, resid_abs, resid * (1 + 1e-13 * rng.uniform(
            -1, 1, len(resid))), s

    monkeypatch.setattr(inv, "batch_einstein_residual", noisy)
    got = inv.scan(alg, 2, grid=grid)
    assert got.argmin == want.argmin
    assert got.min_residual == pytest.approx(want.min_residual, rel=1e-12)


def _scan_peak(name, grid):
    """The tracemalloc peak of a kind-2 scan of an entry, with its
    certificate."""
    alg, _, _ = catalog.build(name, exact=False)
    cert = catalog.get(name).certificate
    tracemalloc.start()
    try:
        inv.scan(alg, 2, grid=grid, certificate=cert)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the K=30 grid, 65,700 rows; all rows at once peak at ~55 MB
K30 = [0.25 + 0.1 * k for k in range(30)]


# the tracemalloc peaks of the scans below are 3.1, 2.5 and 3.1 MB with
# 4096-row blocks (13.9 MB each with 16384-row blocks); the bounds leave
# about 30% for other numpy builds

def test_scan_memory_is_bounded_by_the_block():
    grid = inv.default_surface_grid(r_values=K30, s_values=K30)
    assert _scan_peak("inoue-sm", grid) <= 4e6


def test_scan_memory_when_every_row_ties(monkeypatch):
    # kodaira-primary kind 2 has relative residual 1 on every row, up to
    # rounding: the tie rule keeps only rows below every earlier one
    grid = inv.default_surface_grid(r_values=K30, s_values=K30)
    alg, _, _ = catalog.build("kodaira-primary", exact=False)
    tied, real = [], inv.batch_einstein_residual

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        tied.append(np.count_nonzero(abs(out[2] - 1) <= inv.TIE))
        return out

    monkeypatch.setattr(inv, "batch_einstein_residual", counting)
    assert inv.scan(alg, 2, grid=grid).min_residual == pytest.approx(1)
    assert sum(tied) == len(grid)
    monkeypatch.undo()
    assert _scan_peak("kodaira-primary", grid) <= 4e6


def test_scan_memory_of_the_largest_workload_grid():
    # K=42 in 64ths as the invariant-scan workload draws it: 128,772 rows
    # in 32 blocks; stacks with the metric index first peaked at 15.5 MB
    values = [(12 + 5 * k) / 64 for k in range(42)]
    grid = inv.default_surface_grid(r_values=values, s_values=values)
    assert len(grid) == 128_772
    assert _scan_peak("inoue-sm", grid) <= 4e6


# ---------------------------------------------------------------------------
# rows streamed in chunks against the same rows as one array

def _chunked(rows, sizes):
    """An iterator over ``rows`` cut into consecutive chunks of ``sizes``."""
    return iter(np.split(rows, np.cumsum(sizes)[:-1]))


@pytest.mark.parametrize("sizes", [
    [1], [B - 1], [B], [B + 1], [B - 1, 1], [B - 1, 2], [B, B],
    [5, 0, B - 5, B + 3], [1000] * 9, [3 * B + 7, 10]])
def test_row_blocks_start_at_multiples_of_the_block(sizes):
    # below, on and across a block's end, inside a chunk and between two
    m = sum(sizes)
    rows = np.arange(3 * m, dtype=complex).reshape(m, 3)
    want = [rows[lo:lo + B] for lo in range(0, m, B)]
    for grid in (rows, _chunked(rows, sizes)):
        got = list(inv._row_blocks(grid))
        assert [len(b) for b in got] == [len(b) for b in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("r_values, s_values", [
    ([1.0], [1.0]), (None, None), (K30[:6], K30[:6]), (K30[:22], K30[:22]),
    ([(12 + 5 * k) / 64 for k in range(42)],) * 2, (K30, K30[:3]),
    (K30[:3], [0.01 * k for k in range(1, 501)])])
def test_surface_grid_chunks_are_the_grid(r_values, s_values):
    chunks = list(inv.surface_grid_chunks(r_values, s_values))
    whole = inv.default_surface_grid(r_values, s_values)
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    per_r = len(whole) // len(r_values or inv.SURFACE_AXIS)
    assert all(len(c) <= max(inv.SCAN_CHUNK, per_r) for c in chunks)
    # whole r values per chunk, as many as fit
    assert all(len(c) % max(per_r, 1) == 0 for c in chunks)
    assert len(chunks[0]) > inv.SCAN_CHUNK - per_r or len(chunks) == 1


# 12 x 10 (r, s) pairs, 8760 rows: two blocks and part of a third
AXIS_R = [0.25 + 0.25 * k for k in range(12)]
AXIS_S = [0.3 + 0.3 * k for k in range(10)]


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("kind", [1, 2, 3])
@pytest.mark.parametrize("name", catalog.list_entries())
def test_streamed_scan_matches_materialised_rows(monkeypatch, name, kind,
                                                 mode):
    # chunks of two r values, 1460 rows, so that blocks span chunks
    monkeypatch.setattr(inv, "SCAN_CHUNK", 1500)
    alg, _, _ = catalog.build(name, exact=False)
    cert = catalog.get(name).certificate
    rows = inv.default_surface_grid(AXIS_R, AXIS_S)
    want = inv.scan(alg, kind, grid=rows, mode=mode, certificate=cert)
    _assert_same_report(want, _whole_grid_scan(alg, kind, rows, mode, cert))
    got = inv.scan(alg, kind, grid=inv.surface_grid_chunks(AXIS_R, AXIS_S),
                   mode=mode, certificate=cert)
    _assert_same_report(got, want)
    assert got.count == len(rows)


@pytest.mark.parametrize("at", [B - 1, B, B + 1])
@pytest.mark.parametrize("bad", [EDGE, (1e160, 1e160, 0),
                                 (1e150, 1e150, 1e300 * CONE)],
                         ids=["degenerate", "overflow", "det-overflow"])
def test_streamed_scan_drops_rows_next_to_a_boundary(at, bad):
    rows = np.insert(_random_grid(11, 2 * B), at, bad, axis=0)
    alg, _, _ = catalog.build("inoue-sm", exact=False)
    cert = catalog.get("inoue-sm").certificate
    want = inv.scan(alg, 2, grid=np.delete(rows, at, axis=0),
                    certificate=cert)
    assert want.count == 2 * B
    # the dropped row last in its block or first, last in its chunk or
    # first, or alone in one
    for sizes in ([len(rows)], [at, len(rows) - at],
                  [at + 1, len(rows) - at - 1], [at, 1, len(rows) - at - 1]):
        got = inv.scan(alg, 2, grid=_chunked(rows, sizes), certificate=cert)
        _assert_same_report(got, want)


def test_ricci_report_consistent():
    alg, h, _ = catalog.build("ovando-r4", {"r": 1.0}, exact=False)
    curv = inv.chern_curvature(alg, h)
    assert inv.einstein_residual(2, alg, h, "strong", curv)[1] < 1e-13
    assert inv.scalar_chern(curv, h) == pytest.approx(-2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# rescaling: S(c h) = S(h) / c, with no tolerance tied to an absolute scale

@pytest.mark.parametrize("name", ENTRIES)
def test_scalar_chern_rescales(name):
    for point in catalog.get(name).points:
        alg, h, _ = catalog.build(name, point, exact=False)
        curv = inv.chern_curvature(alg, h)
        s = inv.scalar_chern(curv, h)
        # each term of the trace is at most max|h^-1|^2 max|Theta|
        bound = 1e-9 * np.max(np.abs(np.linalg.inv(h.h))) ** 2 \
            * np.max(np.abs(curv.lowered))
        for c in (1e-12, 1e-6, 1e6, 1e12):
            hc = h.scaled(c)
            curv_c = inv.chern_curvature(alg, hc)
            assert abs(c * inv.scalar_chern(curv_c, hc) - s) <= bound
            inv.scalar_third(curv_c, hc)
            inv.einstein_residual(2, alg, hc, curv=curv_c)
