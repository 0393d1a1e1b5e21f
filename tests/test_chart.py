import math

import numpy as np
import pytest

from cherncurv import catalog, chart, invariant as inv
from cherncurv.chart import (ChartMetricField, HyperDual, ScalarField,
                             chern_laplacian_at, conformal_check,
                             curvature_at, fd_oracle, first_ce_from_potential,
                             hd_exp, hd_log, jet2, metric_from_potential,
                             registered_factors, registered_metrics,
                             ricci_matrices_at, sample_points)
from logdet_oracle import ric1_logdet_at

METRICS = registered_metrics()
FACTORS = registered_factors()


def rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# hyper-dual arithmetic against closed-form derivatives

def test_hyperdual_exp_log():
    x = HyperDual(0.7, 1.0, 1.0, 0.0)
    e = hd_exp(x)
    assert e.f0 == pytest.approx(math.exp(0.7))
    assert e.f1 == pytest.approx(math.exp(0.7))
    assert e.f12 == pytest.approx(math.exp(0.7))
    l = hd_log(x)
    assert l.f1 == pytest.approx(1 / 0.7)
    assert l.f12 == pytest.approx(-1 / 0.49)


def test_hyperdual_quotient_rule():
    x = HyperDual(2.0, 1.0, 0.0, 0.0)
    q = 1 / (x * x)  # d/dx x^-2 = -2 x^-3
    assert q.f0 == pytest.approx(0.25)
    assert q.f1 == pytest.approx(-0.25)


def test_jet2_mixed_partial():
    # f(z) = x0^2 * y0 has d2f/dx0 dy0 = 2 x0
    def fn(z):
        x = (z[0] + z[0].conjugate()) * 0.5
        y = (z[0] - z[0].conjugate()) * (-0.5j)
        return x * x * y

    val, grad, hess = jet2(fn, [1.5, 0.5])
    assert complex(val).real == pytest.approx(1.5 ** 2 * 0.5)
    assert complex(grad[0]).real == pytest.approx(2 * 1.5 * 0.5)
    assert complex(hess[0][1]).real == pytest.approx(3.0)
    assert complex(hess[1][1]).real == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# curvature against the finite-difference oracle

@pytest.mark.parametrize("name", sorted(METRICS))
def test_ad_matches_fd(name):
    field = METRICS[name]
    for x in sample_points(field, 5, seed=1):
        assert rel(curvature_at(field, x), fd_oracle(field, x)) < 1e-6


def test_flat_curvature_zero():
    field = METRICS["flat"]
    x = sample_points(field, 1)[0]
    assert np.max(np.abs(curvature_at(field, x))) < 1e-14


def test_ric1_two_paths():
    for name in ("hopf-chart", "fs-product", "random-poly"):
        field = METRICS[name]
        for x in sample_points(field, 4, seed=2):
            ric1, _, _ = ricci_matrices_at(field, x)
            assert rel(ric1, ric1_logdet_at(field, x)) < 1e-9


def test_non_positive_definite_rejected():
    bad = ChartMetricField(1, lambda z: [[-1.0 + 0.0 * z[0]]],
                           ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        curvature_at(bad, (0.5, 0.5))


def test_fd_oracle_margin_check():
    field = METRICS["fs-product"]
    with pytest.raises(ValueError):
        fd_oracle(field, (1.2, 0.0, 0.0, 0.0))


def counted(fn):
    """``fn`` with a call counter in its ``calls`` attribute."""

    def wrapped(z):
        wrapped.calls += 1
        return fn(z)

    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("call, evals", [
    (curvature_at, 10),
    (ricci_matrices_at, 10),
    (lambda field, x: conformal_check(field, FACTORS["mixed"], x), 20),
])
def test_one_jet_per_field_per_point(call, evals):
    # n = 2: one evaluation per seeded pair of the 4 real coordinates, and
    # conformal_check takes one jet of the field and one of e^f times it
    base = METRICS["random-poly"]
    field = ChartMetricField(base.n, counted(base.fn), base.box)
    call(field, sample_points(base, 1, seed=6)[0])
    assert field.fn.calls == evals


@pytest.mark.parametrize("call, inversions", [
    (ricci_matrices_at, 1),
    (lambda field, x: conformal_check(field, FACTORS["mixed"], x), 2),
    (lambda field, x: first_ce_from_potential(fs_potential(), 1, [x, x]),
     2),
], ids=["ricci_matrices_at", "conformal_check", "first_ce_from_potential"])
def test_one_inversion_per_chart_solve(monkeypatch, call, inversions):
    # each curvature solve inverts its h once, by the invariant layer's
    # shared inverse, and the Ricci traces reuse that inverse: one per
    # point, and one per metric field in conformal_check
    monkeypatch.setattr(inv, "_upper", counted(inv._upper))
    call(METRICS["random-poly"], sample_points(METRICS["random-poly"], 1,
                                               seed=6)[0])
    assert inv._upper.calls == inversions


def test_curvature_refuses_a_metric_that_is_not_positive_definite():
    # the inverse of h refuses it by its first pivot, -1 + |z1|^2 at x
    def fn(z):
        return [[z[0] * z[0].conjugate() - 1, 0 * z[0]],
                [0 * z[0], 1 + 0 * z[0]]]

    field = ChartMetricField(2, fn, [(-1.0, 1.0)] * 4)
    for call in (curvature_at, ricci_matrices_at):
        with pytest.raises(inv.NotPositiveDefinite):
            call(field, [0.1, 0.2, 0.3, 0.1])


@pytest.mark.parametrize("name", ["hopf-chart", "random-poly"])
def test_chart_ricci_is_the_invariant_contraction(name):
    # the chart's Ric1, Ric2 and S are the invariant layer's contractions
    # of curvature_at's Theta and the inverse of the point's h, bit for bit
    field = METRICS[name]
    for x in sample_points(field, 4, seed=8):
        theta = curvature_at(field, x)
        h0 = chart._holo_jets(field.fn, x)[0]
        up, th = inv._upper(h0)[..., None], theta[..., None]
        ric1, ric2, s = ricci_matrices_at(field, x)
        assert np.array_equal(ric1, np.einsum(inv._RICCI[1], up, th)[..., 0])
        assert np.array_equal(ric2, np.einsum(inv._RICCI[2], up, th)[..., 0])
        assert s == np.einsum(inv._S, up, ric1)[0].real


# ---------------------------------------------------------------------------
# conformal change laws

@pytest.mark.parametrize("mname", ["hopf-chart", "fs-product", "random-poly"])
@pytest.mark.parametrize("fname", sorted(FACTORS))
def test_conformal_laws(mname, fname):
    field = METRICS[mname]
    f = FACTORS[fname]
    for x in sample_points(field, 5, seed=3):
        out = conformal_check(field, f, x)
        assert out["curvature"] < 1e-10
        assert out["ric1"] < 1e-10
        assert out["ric2"] < 1e-10


# ---------------------------------------------------------------------------
# cross-backend agreement on the Hopf metric

def test_hopf_chart_matches_invariant():
    field = METRICS["hopf-chart"]
    for x in sample_points(field, 10, seed=4):
        _, ric2, s = ricci_matrices_at(field, x)
        h0 = field.matrix(x)
        assert rel(ric2, 2 * h0) < 1e-10
        assert s == pytest.approx(4.0, rel=1e-10)
    alg, h, _ = catalog.build("hopf", {"r": 1.0}, exact=False)
    lam, residual = inv.einstein_residual(2, alg, h)
    assert lam == pytest.approx(2.0, rel=1e-12)
    assert residual < 1e-13


# ---------------------------------------------------------------------------
# Chern Laplacian

def test_chern_laplacian_regression():
    flat = METRICS["flat"]

    def x1_sq(z):
        x = (z[0] + z[0].conjugate()) * 0.5
        return x * x

    val = chern_laplacian_at(flat, ScalarField(2, x1_sq), (0.3, 0.1, 0.2, 0.4))
    assert val == pytest.approx(-1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# first-Chern-Einstein construction from a potential

def fs_potential(n=2):
    def fn(z):
        acc = None
        for zi in z:
            t = hd_log(1 + zi * zi.conjugate())
            acc = t if acc is None else acc + t
        return acc

    return ScalarField(n, fn, name="fs")


@pytest.mark.parametrize("sign", [1, -1])
def test_first_ce_from_potential(sign):
    pot = fs_potential()
    base = metric_from_potential(pot)
    points = sample_points(base, 20, seed=5)
    report = first_ce_from_potential(pot, sign, points)
    assert report.max_error < 1e-9
    assert len(report.factors) == len(points)
    for fac in report.factors:
        assert fac * sign > 0


def test_first_ce_one_potential_jet_per_point():
    pot = fs_potential()
    pot.fn = counted(pot.fn)
    points = sample_points(metric_from_potential(pot), 2, seed=6)
    first_ce_from_potential(pot, 1, points)
    # 10 passes of the rescaled metric, each one 10-pass jet of the
    # potential plus one value; then one jet and one value at the point
    assert pot.fn.calls == 121 * len(points)


def test_potential_must_be_psh():
    def neg(z):
        return -(z[0] * z[0].conjugate()) - z[1] * z[1].conjugate()

    pot = ScalarField(2, neg, name="neg")
    base = metric_from_potential(pot)
    with pytest.raises(ValueError):
        first_ce_from_potential(pot, 1, [sample_points_center(base)])


def sample_points_center(field):
    return tuple(0.5 * (lo + hi) for lo, hi in field.box)


# ---------------------------------------------------------------------------
# sampling

def test_sample_points_deterministic_and_in_domain():
    field = METRICS["hopf-chart"]
    a = sample_points(field, 25, seed=9)
    b = sample_points(field, 25, seed=9)
    assert a == b
    for x in a:
        assert field.in_domain(x)
        assert sum(v * v for v in x) >= (10 * 1e-2) ** 2
