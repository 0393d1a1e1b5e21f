import math
import warnings

import numpy as np
import pytest

from cherncurv import yamabe
from cherncurv.yamabe import (GENERATORS, GRID_MAX_N, KRYLOV_DIM,
                              SOLVE_FIELDS, SOLVE_MAX_BYTES, PeriodicGrid,
                              PositiveDegreeOpen, SolverDiverged,
                              YamabeProblem, _gmres, _jacobian, _residual,
                              conformal_scalar_law, gauduchon_degree_grid,
                              load_problem, make_problem, solve_chya,
                              synthetic_v)


# ---------------------------------------------------------------------------
# spectral operators

def test_laplacian_of_band_limited_mode():
    grid = PeriodicGrid(64)
    f = grid.sample(lambda x, y: np.sin(2 * math.pi * x))
    expected = -(2 * math.pi) ** 2 * f
    assert np.max(np.abs(grid.laplacian(f) - expected)) < 1e-9


def test_laplacian_kills_constants():
    grid = PeriodicGrid(16)
    assert np.max(np.abs(grid.laplacian(np.ones((16, 16))))) < 1e-12


def test_poisson_inverts_laplacian():
    grid = PeriodicGrid(32)
    rhs = grid.sample(lambda x, y: np.cos(2 * math.pi * (x + 2 * y)))
    u = grid.poisson(rhs)
    assert abs(np.mean(u)) < 1e-13
    assert np.max(np.abs(grid.laplacian(u) - rhs)) < 1e-10


# the complex full-spectrum formulas, kept as the oracle of the real FFTs
def _full_multiplier(N):
    k = 2.0 * math.pi * np.fft.fftfreq(N, d=1.0 / N)
    return -(k[:, None] ** 2 + k[None, :] ** 2)


def _full_laplacian(f):
    return np.real(np.fft.ifft2(_full_multiplier(len(f)) * np.fft.fft2(f)))


def _full_poisson(rhs):
    mult = _full_multiplier(len(rhs))
    mult[0, 0] = 1.0
    hat = np.fft.fft2(rhs) / mult
    hat[0, 0] = 0.0
    return np.real(np.fft.ifft2(hat))


@pytest.mark.parametrize("N", [32, 33])
def test_real_transforms_match_full_spectrum(N):
    # odd N is where irfft2 needs the shape passed in
    grid = PeriodicGrid(N)
    rng = np.random.default_rng(N)
    f = rng.standard_normal((N, N))
    rhs = f - np.mean(f)
    assert grid.laplacian(f).shape == grid.poisson(rhs).shape == (N, N)
    assert np.max(np.abs(grid.laplacian(f) - _full_laplacian(f))) <= 1e-10
    assert np.max(np.abs(grid.poisson(rhs) - _full_poisson(rhs))) <= 1e-10
    p = make_problem("sine-offset", N=N, offset=-1.2, amplitude=0.5,
                     tol=1e-12)
    result = solve_chya(p)
    assert result.converged and result.f.shape == (N, N)
    F = _full_laplacian(result.f) + p.S / p.n - result.lam * np.exp(-result.f)
    assert np.max(np.abs(F)) <= 1e-10


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(3)
    # refused before any field is made: one past the cap would take
    # hundreds of MB
    with pytest.raises(ValueError, match="above"):
        PeriodicGrid(GRID_MAX_N + 1)
    with pytest.raises(ValueError, match="above"):
        make_problem("constant", N=GRID_MAX_N + 1)
    grid = PeriodicGrid(8)
    with pytest.raises(ValueError):
        grid.laplacian(np.zeros((4, 4)))


def test_problem_validation():
    grid = PeriodicGrid(8)
    with pytest.raises(ValueError):
        YamabeProblem(grid, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        YamabeProblem(grid, np.full((8, 8), np.nan))
    with pytest.raises(ValueError):
        YamabeProblem(grid, np.zeros((8, 8)), n=0)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            YamabeProblem(grid, np.zeros((8, 8)), tol=tol)
    assert YamabeProblem(grid, np.zeros((8, 8)), tol=0.0).tol == 0.0


def test_grid_cap_counts_the_krylov_storage():
    # a solve at the cap holds SOLVE_FIELDS fields of 8 N^2 bytes, within
    # SOLVE_MAX_BYTES; one more row would not be
    assert SOLVE_FIELDS > 2 * KRYLOV_DIM
    assert 8 * SOLVE_FIELDS * GRID_MAX_N ** 2 <= SOLVE_MAX_BYTES
    assert 8 * SOLVE_FIELDS * (GRID_MAX_N + 1) ** 2 > SOLVE_MAX_BYTES


# ---------------------------------------------------------------------------
# solver branches

def test_zero_curvature_is_trivial():
    result = solve_chya(make_problem("zero", N=16))
    assert result.converged
    assert result.lam == 0.0
    assert np.max(np.abs(result.f)) < 1e-13


def test_synthetic_recovery():
    p = make_problem("synthetic-v", N=64, amplitude=0.1)
    result = solve_chya(p)
    assert result.converged and result.lam == 0.0
    grid = p.grid
    v = grid.sample(lambda x, y: synthetic_v(x, y, 0.1))
    assert np.max(np.abs(result.f - (v - np.mean(v)))) < 1e-12
    assert result.residual < 1e-10


def test_constant_negative_curvature():
    # S = -1 with n = 1: f = 0, lam = -1 solves the equation outright
    result = solve_chya(make_problem("constant", N=16, n=1, value=-1.0))
    assert result.converged
    assert result.iterations == 0
    assert result.lam == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(result.f)) < 1e-12


def test_negative_mean_branch_converges():
    p = make_problem("sine-offset", N=64, offset=-1.0, amplitude=0.3)
    result = solve_chya(p)
    assert result.converged
    assert result.residual < 1e-9
    assert result.lam < 0
    law = conformal_scalar_law(p.S, result.f, p.n, p.grid)
    assert np.max(np.abs(law - p.n * result.lam)) < 1e-7


def test_uniqueness_up_to_normalization():
    p = make_problem("sine-offset", N=32)
    rng = np.random.default_rng(5)
    a = solve_chya(p)
    b = solve_chya(p, f0=0.2 * rng.standard_normal((32, 32)))
    assert np.max(np.abs(a.f - b.f)) < 1e-7
    assert a.lam == pytest.approx(b.lam, rel=1e-9)


def test_jacobian_matches_finite_difference():
    p = make_problem("sine-offset", N=32, offset=-1.3, amplitude=0.6)
    grid, gamma = p.grid, float(np.mean(p.S))
    tau = 2 * math.pi
    f = grid.sample(lambda x, y: 0.3 * np.sin(tau * x) * np.cos(2 * tau * y)
                    + 0.2 * np.cos(tau * (x + y)))
    d = grid.sample(lambda x, y: np.cos(tau * x)
                    + 0.5 * np.sin(tau * (x - 2 * y)) + 0.1)
    _, lam, w = _residual(grid.laplacian(f), f, p.S, p.n, gamma)
    jd = _jacobian(lam, w)(d, grid.laplacian(d))
    eps = 1e-4
    plus, minus = (_residual(grid.laplacian(g), g, p.S, p.n, gamma)[0]
                   for g in (f + eps * d, f - eps * d))
    fd = (plus - minus) / (2 * eps)
    assert np.max(np.abs(jd - fd)) <= 1e-8 * np.max(np.abs(jd))


@pytest.mark.parametrize("N", [64, 128, 256])
def test_newton_steps_in_workload_range(N):
    # offsets and amplitudes of the benchmark's sine-offset problems, each
    # from a --seed start
    for k, (off, amp) in enumerate([(-3.0, 0.05), (-3.0, 0.8), (-1.1, 0.4),
                                    (-0.2, 0.05), (-0.2, 0.8)]):
        p = make_problem("sine-offset", N=N, offset=off, amplitude=amp)
        f0 = 0.1 * np.random.default_rng(k).standard_normal((N, N))
        result = solve_chya(p, f0=f0)
        assert result.converged and result.iterations <= 5
        history = result.residuals
        assert len(history) == result.iterations + 1
        assert history[-1] == result.residual
        assert len(result.linear_iterations) == result.iterations
        assert all(m >= 1 for m in result.linear_iterations)
        # quadratic convergence once the first step has landed
        assert all(b <= a / 10 for a, b in zip(history[1:], history[2:]))


def count_transforms(monkeypatch):
    """A list that records each PeriodicGrid._filter call (one rfft2 and
    one irfft2) while patched."""
    calls, real = [], PeriodicGrid._filter

    def counting(self, f, mult):
        calls.append(None)
        return real(self, f, mult)

    monkeypatch.setattr(PeriodicGrid, "_filter", counting)
    return calls


def fresh_residual(p, result):
    """max|lap f + S/n - lam exp(-f)| at the returned f and lam, from a new
    transform, in _residual's order of operations."""
    lap = p.grid.laplacian(result.f)
    return float(np.max(np.abs(lap + p.S / p.n
                               - result.lam * np.exp(-result.f))))


@pytest.mark.parametrize("N", [64, 128, 256])
def test_a_newton_step_costs_its_matvecs(monkeypatch, N):
    calls = count_transforms(monkeypatch)
    for k, (off, amp) in enumerate([(-3.0, 0.05), (-1.1, 0.4),
                                    (-0.2, 0.8)]):
        p = make_problem("sine-offset", N=N, offset=off, amplitude=amp)
        f0 = 0.1 * np.random.default_rng(k).standard_normal((N, N))
        calls.clear()
        seeded = solve_chya(p, f0=f0)
        # one transform of f0, the matvecs, one transform to judge
        assert len(calls) == sum(seeded.linear_iterations) + 2
        calls.clear()
        start = solve_chya(p)
        # from f = 0, whose Laplacian is exactly 0
        assert len(calls) == sum(start.linear_iterations) + 1
    calls.clear()
    result = solve_chya(make_problem("constant", N=N, value=-1.3))
    assert result.converged and result.iterations == 0 and calls == []


@pytest.mark.parametrize("case", [
    ("sine-offset", dict(N=64, offset=-1.0, amplitude=0.3), None),
    ("sine-offset", dict(N=128, offset=-2.5, amplitude=0.7), 7),
    ("sine-offset", dict(N=33, offset=-0.4, amplitude=0.9), 2),
    ("sine-offset", dict(N=64, offset=-1000.0, amplitude=10000.0), 0),
    ("constant", dict(N=16, n=1, value=-1.0), None),
    ("synthetic-v", dict(N=64, amplitude=0.2), None),
], ids=["unseeded", "seeded", "odd-N", "stagnating", "constant",
        "poisson"])
def test_residual_and_verdict_are_those_of_a_fresh_transform(case):
    name, kwargs, seed = case
    p = make_problem(name, **kwargs)
    N = p.grid.N
    f0 = None if seed is None else \
        0.1 * np.random.default_rng(seed).standard_normal((N, N))
    result = solve_chya(p, f0=f0)
    assert result.converged and result.residual <= p.tol
    assert result.residual == fresh_residual(p, result)
    assert result.residuals[-1] == result.residual


def test_a_carried_residual_that_misleads_is_not_believed(monkeypatch):
    # the first Krylov solve hands back a Laplacian update that is off by
    # a smooth 1e-6 field: the carried residual goes below tol while the
    # true one stays near 1e-6, the new transform refuses it, and the
    # iteration goes on from that transform
    p = make_problem("sine-offset", N=32, offset=-1.0, amplitude=0.3)
    plain = solve_chya(p)
    error = 1e-6 * p.grid.sample(lambda x, y: np.cos(2 * math.pi * y))
    real, calls = yamabe._gmres, []

    def drifting(*args):
        x, y, k = real(*args)
        calls.append(None)
        return (x + error if len(calls) == 1 else x), y, k

    monkeypatch.setattr(yamabe, "_gmres", drifting)
    result = solve_chya(p)
    assert result.converged and result.residual == fresh_residual(p, result)
    assert result.iterations > plain.iterations
    # the refused check is in the history: a fresh residual above tol,
    # near the size of the error
    assert any(1e-7 < r < 1e-5 for r in result.residuals[1:])


def test_direct_branch_history():
    result = solve_chya(make_problem("synthetic-v", N=32))
    assert result.residuals == [result.residual]
    assert result.linear_iterations == []


def test_gmres_solves_and_caps_matvecs():
    rng = np.random.default_rng(3)
    A = np.eye(40) + 0.1 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    basis = []

    def op(v):
        basis.append(v)
        return A @ v

    x, y, k = _gmres(op, b, 1e-10, 40)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert k < 40
    # x combines the vectors op was called with by the coefficients y
    assert len(y) == len(basis) == k
    assert np.allclose(x, sum(c * v for c, v in zip(y, basis)), rtol=0,
                       atol=1e-12 * np.linalg.norm(x))
    x, y, k = _gmres(lambda v: A @ v, b, 1e-10, 3)
    assert k == 3 and len(y) == 3
    assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)


def test_gmres_exact_breakdown():
    # b is an eigenvector: the first new Krylov vector has norm exactly 0
    d = np.arange(1.0, 9.0)
    b = np.zeros(8)
    b[2] = 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y, k = _gmres(lambda v: d * v, b, 0.0, 8)
    assert k == 1
    assert np.array_equal(x, b / d)
    assert np.array_equal(y, [2.0 / 3.0])


def test_gmres_non_finite_result_raises():
    with pytest.raises(SolverDiverged, match="non-finite"):
        _gmres(lambda v: np.full_like(v, np.nan), np.ones(4), 1e-3, 4)
    p = make_problem("sine-offset", N=16, offset=-1e290, amplitude=1e300)
    with pytest.raises(SolverDiverged, match="non-finite"):
        solve_chya(p)


def test_resolution_consistency():
    lams = []
    for N in (32, 64, 128):
        result = solve_chya(make_problem("sine-offset", N=N))
        assert result.converged
        lams.append(result.lam)
    # the data is band limited, so all resolutions see the same problem
    assert lams[0] == pytest.approx(lams[2], rel=1e-7)
    assert lams[1] == pytest.approx(lams[2], rel=1e-7)


def test_positive_branch_refused():
    with pytest.raises(PositiveDegreeOpen):
        solve_chya(make_problem("constant", N=16, value=1.0))


def test_divergence_reported():
    # one step leaves the condition failing: the last iterate is the
    # result, with the residual of each iterate, not an error
    result = solve_chya(make_problem("sine-offset", N=32, max_iter=1))
    assert not result.converged and result.iterations == 1
    assert len(result.residuals) == 2 and len(result.linear_iterations) == 1
    assert result.residual == result.residuals[-1] > 1e-9  # the tol


# ---------------------------------------------------------------------------
# generators and problem files

def test_generator_names():
    assert set(GENERATORS) == {"zero", "constant", "synthetic-v",
                               "sine-offset"}
    with pytest.raises(KeyError):
        make_problem("nonsense")


def test_degree_matches_mean():
    p = make_problem("sine-offset", N=32, offset=-2.0)
    assert gauduchon_degree_grid(p.S) == pytest.approx(-2.0, abs=1e-12)


def test_conformal_law_shapes():
    with pytest.raises(ValueError):
        conformal_scalar_law(np.zeros((8, 8)), np.zeros((4, 4)), 2)


def test_load_problem(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("# synthetic recovery\n"
                    "S = synthetic-v\n"
                    "N = 32\n"
                    "n = 2\n"
                    "amplitude = 0.05\n"
                    "tol = 1e-10\n")
    p = load_problem(path)
    assert p.grid.N == 32 and p.n == 2 and p.tol == 1e-10
    result = solve_chya(p)
    assert result.converged and result.lam == 0.0
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.txt"
        bad.write_text("just words\n")
        load_problem(bad)
