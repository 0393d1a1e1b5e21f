import math
import warnings

import numpy as np
import pytest

from cherncurv.yamabe import (GENERATORS, PeriodicGrid, PositiveDegreeOpen,
                              SolverDiverged, YamabeProblem, _gmres,
                              _jacobian, _residual, conformal_scalar_law,
                              gauduchon_degree_grid, load_problem,
                              make_problem, solve_chya, synthetic_v)


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
    _, lam, w = _residual(grid, f, p.S, p.n, gamma)
    jd = _jacobian(lam, w)(d, grid.laplacian(d))
    eps = 1e-4
    plus = _residual(grid, f + eps * d, p.S, p.n, gamma)[0]
    minus = _residual(grid, f - eps * d, p.S, p.n, gamma)[0]
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


def test_direct_branch_history():
    result = solve_chya(make_problem("synthetic-v", N=32))
    assert result.residuals == [result.residual]
    assert result.linear_iterations == []


def test_gmres_solves_and_caps_matvecs():
    rng = np.random.default_rng(3)
    A = np.eye(40) + 0.1 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    x, k = _gmres(lambda v: A @ v, b, 1e-10, 40)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert k < 40
    x, k = _gmres(lambda v: A @ v, b, 1e-10, 3)
    assert k == 3 and np.linalg.norm(b - A @ x) < np.linalg.norm(b)


def test_gmres_exact_breakdown():
    # b is an eigenvector: the first new Krylov vector has norm exactly 0
    d = np.arange(1.0, 9.0)
    b = np.zeros(8)
    b[2] = 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, k = _gmres(lambda v: d * v, b, 0.0, 8)
    assert k == 1
    assert np.array_equal(x, b / d)


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
    with pytest.raises(SolverDiverged):
        solve_chya(make_problem("sine-offset", N=32, max_iter=1))


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
