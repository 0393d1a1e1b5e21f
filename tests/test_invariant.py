import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cherncurv import catalog
from cherncurv import invariant as inv
from cherncurv.forms import CoframeAlgebra, InvariantForm, ext_d
from cherncurv.scalars import ROUNDING, I_EXACT, QQi, conj
from cherncurv.invariant import (DegenerateMetric, HermitianMetric,
                                 NotPositiveDefinite, SurfaceMetricParams)
from forms_oracle import (ddbar_gauduchon, forms_curvature, forms_torsion,
                          lstsq_lee_form, wedge_bogomolov_lubke)

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


# ---------------------------------------------------------------------------
# metric validation

def test_metric_validation():
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric([[1 + 0j, 0j], [0j, -1 + 0j]])
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric([[1 + 0j, 2 + 0j], [2 + 0j, 1 + 0j]])
    with pytest.raises(ValueError):
        HermitianMetric([[1 + 0j, 1j], [1j, 1 + 0j]])  # not Hermitian
    with pytest.raises(DegenerateMetric):
        HermitianMetric([[1e-30 + 0j, 0j], [0j, 1e30 + 0j]])


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


def test_admissibility():
    assert SurfaceMetricParams(1, 1, 0.5).admissible()
    assert not SurfaceMetricParams(1, 1, 1.0).admissible()
    assert not SurfaceMetricParams(0, 1, 0).admissible()


def test_admissibility_mask_matches_params():
    rows = [(1, 1, 0.5), (1, 1, 1.0), (0, 1, 0), (1, -2, 0), (2, 3, 6j),
            (2, 3, 6 - 1e-12), (0.3, 0.7, 0.2099 * np.exp(0.4j)),
            (1e-3, 1e4, 10 * (1 - 2 ** -52) * 1j), (1, 1, 0)]
    grid = np.array(rows, dtype=complex)
    mask = inv.surface_admissible(grid[:, 0], grid[:, 1], grid[:, 2])
    assert mask.tolist() == [SurfaceMetricParams(*row).admissible()
                             for row in rows]
    assert mask.tolist() == [True, False, False, True, False, True, True,
                             True, True]


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
    c1, _ = inv.chern_weil(curv)
    assert ext_d(alg, c1).is_zero(tol_scale=max(c1.max_abs(), 1.0))


def test_bogomolov_lubke_signs():
    for name in ("hopf", "ovando-r4"):
        alg, h, _ = catalog.build(name, {"r": 1.0}, exact=False)
        curv = inv.chern_curvature(alg, h)
        assert inv.bogomolov_lubke(curv, h) <= 1e-9


# ---------------------------------------------------------------------------
# scans

def test_scan_small_grid():
    grid = inv.default_surface_grid(r_values=[0.5, 1.0], s_values=[0.5, 1.0],
                                    radii=2, phases=4)
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


@pytest.mark.parametrize("grid", [[(1.0, 1.0)], [1.0, 1.0, 0.5], [],
                                  np.ones((4, 3, 1)), np.ones((2, 4))])
def test_scan_rejects_grid_not_m_by_3(grid):
    alg, _, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    with pytest.raises(ValueError, match="M x 3"):
        inv.scan(alg, 2, grid=grid)


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
    {}, {"radii": 2, "phases": 4},
    {"r_values": [0.375, 1.0, 1.625], "s_values": [0.1, 7.3]},
    {"r_values": [1.5], "s_values": [0.5, 2.0], "radii": 0, "phases": 3}])
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
        [0.5, 1.0], [0.5, 1.0], radii=2, phases=4), certificate=counted)
    assert calls == [report.count] and report.certificate_ok


def test_ricci_report_consistent():
    alg, h, _ = catalog.build("ovando-r4", {"r": 1.0}, exact=False)
    rep = inv.ricci_report(alg, h)
    assert rep.einstein[(2, "strong")][1] < 1e-13
    assert rep.s_chern == pytest.approx(-2.0, rel=1e-12)


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
