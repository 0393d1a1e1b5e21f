"""Conformal normalization on the flat torus: a Liouville-type solver.

The conformal factor making the Chern scalar curvature constant satisfies

    lap f + S/n = lam * exp(-f)

on the unit-square torus, where ``lap`` is the Laplace-Beltrami operator of
the flat reference (the Chern Laplacian has no torsion drift there) and lam
is pinned by the integral constraint mean(S/n) = lam * mean(exp(-f)).

Fields are real numpy arrays of shape (N, N) sampled at x_i = i/N.  The
Laplacian is spectral, so band-limited data is differentiated exactly.

The solvable branch is mean(S) <= 0.  A vanishing mean reduces the problem
to a linear Poisson equation with lam = 0; a negative mean is handled by a
damped quasi-Newton iteration.  The positive branch is an open problem and
is refused, not approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class PositiveDegreeOpen(NotImplementedError):
    """Refusal for mean(S) > 0.

    Existence for the positive branch is the open Chern-Yamabe conjecture;
    emitting a made-up answer would be worse than none.
    """


class SolverDiverged(RuntimeError):
    pass


class PeriodicGrid:
    """Unit-square torus sampled on N x N points with a spectral Laplacian."""

    def __init__(self, N: int):
        if N < 4:
            raise ValueError("grid resolution must be at least 4")
        self.N = N
        k = 2.0 * math.pi * np.fft.fftfreq(N, d=1.0 / N)
        self._mult = -(k[:, None] ** 2 + k[None, :] ** 2)

    def coords(self):
        x = np.arange(self.N) / self.N
        return np.meshgrid(x, x, indexing="ij")

    def sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        x, y = self.coords()
        return np.asarray(fn(x, y), dtype=float) + np.zeros((self.N, self.N))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.N, self.N):
            raise ValueError("field shape does not match the grid")
        return np.real(np.fft.ifft2(self._mult * np.fft.fft2(f)))

    def poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of lap u = rhs (rhs must have zero mean)."""
        rhs = np.asarray(rhs, dtype=float)
        hat = np.fft.fft2(rhs)
        mult = self._mult.copy()
        mult[0, 0] = 1.0
        hat = hat / mult
        hat[0, 0] = 0.0
        return np.real(np.fft.ifft2(hat))


@dataclass
class YamabeProblem:
    grid: PeriodicGrid
    S: np.ndarray
    n: int = 2
    tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        if self.S.shape != (self.grid.N, self.grid.N):
            raise ValueError("S does not live on the given grid")
        if not np.all(np.isfinite(self.S)):
            raise ValueError("S must be finite")
        if self.n < 1:
            raise ValueError("complex dimension must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class YamabeResult:
    f: np.ndarray
    lam: float
    residual: float
    iterations: int
    converged: bool


def gauduchon_degree_grid(S: np.ndarray) -> float:
    """Volume-normalized integral of S over the unit torus."""
    return float(np.mean(np.asarray(S, dtype=float)))


def conformal_scalar_law(S: np.ndarray, f: np.ndarray, n: int,
                         grid: Optional[PeriodicGrid] = None) -> np.ndarray:
    """Chern scalar curvature of exp(-f) * omega, given that of omega.

    In trace form the Einstein factor transforms as
    lam -> exp(f) * (lam + lap f), hence S -> exp(f) * (S + n * lap f).
    """
    S = np.asarray(S, dtype=float)
    f = np.asarray(f, dtype=float)
    if S.shape != f.shape:
        raise ValueError("fields live on different grids")
    if grid is None:
        grid = PeriodicGrid(S.shape[0])
    return np.exp(f) * (S + n * grid.laplacian(f))


def _residual(grid, f, S, n, lam):
    return grid.laplacian(f) + S / n - lam * np.exp(-f)


# step length of the quasi-Newton iteration, whose Jacobian is approximate
DAMPING = 0.5


def solve_chya(p: YamabeProblem, f0: Optional[np.ndarray] = None
               ) -> YamabeResult:
    """Solve lap f + S/n = lam exp(-f) on the torus, mean(S) <= 0 branch.

    The solution family f + c, lam * exp(c) is pinned by mean(f) = 0.  For
    mean(S) = 0 the equation degenerates to the Poisson problem
    lap f = -S/n with lam = 0 and is solved directly.  Otherwise a damped
    quasi-Newton iteration runs with lam refreshed from the integral
    constraint each step; the Jacobian is approximated by
    lap + lam * mean(exp(-f)), which a Fourier transform inverts exactly.
    """
    grid, S, n = p.grid, p.S, p.n
    gamma = float(np.mean(S))
    scale = max(float(np.max(np.abs(S))), 1.0)
    if gamma > 1e-12 * scale:
        raise PositiveDegreeOpen(
            "mean(S) > 0: existence there is the open Chern-Yamabe "
            "conjecture, refusing to fabricate a solution")

    if abs(gamma) <= 1e-12 * scale:
        f = grid.poisson(-(S - gamma) / n)
        res = float(np.max(np.abs(_residual(grid, f, S, n, 0.0))))
        return YamabeResult(f, 0.0, res, 0, res <= max(p.tol, 1e-12 * scale))

    f = np.zeros((grid.N, grid.N)) if f0 is None \
        else np.asarray(f0, dtype=float).copy()
    f -= np.mean(f)
    for it in range(p.max_iter):
        w = np.exp(-f)
        lam = (gamma / n) / float(np.mean(w))
        F = grid.laplacian(f) + S / n - lam * w
        res = float(np.max(np.abs(F)))
        if res <= p.tol:
            return YamabeResult(f, lam, res, it, True)
        mu = lam * float(np.mean(w))
        hat = np.fft.fft2(-F) / (grid._mult + mu)
        delta = np.real(np.fft.ifft2(hat))
        f = f + DAMPING * delta
        f -= np.mean(f)
        if not np.all(np.isfinite(f)):
            raise SolverDiverged("iteration produced non-finite values")
    raise SolverDiverged(
        f"no convergence within {p.max_iter} iterations "
        f"(last residual {res:.3e})")


# ---------------------------------------------------------------------------
# named scalar-curvature generators and problem files

def synthetic_v(x, y, amplitude=0.1):
    """The conformal exponent used by the synthetic recovery problems."""
    return amplitude * np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y)


def _gen_zero(grid, params):
    return np.zeros((grid.N, grid.N))


def _gen_constant(grid, params):
    return float(params.get("value", -1.0)) * np.ones((grid.N, grid.N))


def _gen_synthetic_v(grid, params):
    # forward-generated so that the exact solution is f = v with lam = 0:
    # lap v + S/n = 0 forces S = -n lap v, which has zero mean
    n = int(params.get("n", 2))
    amp = float(params.get("amplitude", 0.1))
    v = grid.sample(lambda x, y: synthetic_v(x, y, amp))
    return -n * grid.laplacian(v)


def _gen_sine_offset(grid, params):
    off = float(params.get("offset", -1.0))
    amp = float(params.get("amplitude", 0.3))
    return grid.sample(lambda x, y: off + amp * np.sin(2 * math.pi * x))


GENERATORS = {
    "zero": _gen_zero,
    "constant": _gen_constant,
    "synthetic-v": _gen_synthetic_v,
    "sine-offset": _gen_sine_offset,
}


def make_problem(name: str, N: int = 64, n: int = 2, tol: float = 1e-9,
                 max_iter: int = 200, **params) -> YamabeProblem:
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}; "
                       f"have {sorted(GENERATORS)}")
    grid = PeriodicGrid(N)
    params = dict(params)
    params.setdefault("n", n)
    S = GENERATORS[name](grid, params)
    return YamabeProblem(grid, S, n=n, tol=tol, max_iter=max_iter)


def load_problem(path) -> YamabeProblem:
    """Read a problem from a plain key-value file.

    One ``key = value`` pair per line; '#' starts a comment.  Recognized
    keys: N, n, S (generator name), tol, max_iter, plus any generator
    parameters (amplitude, value, offset).
    """
    kv = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
    name = kv.pop("S", "zero")
    N = int(kv.pop("N", 64))
    n = int(kv.pop("n", 2))
    tol = float(kv.pop("tol", 1e-9))
    max_iter = int(kv.pop("max_iter", 200))
    params = {k: float(v) for k, v in kv.items()}
    return make_problem(name, N=N, n=n, tol=tol, max_iter=max_iter, **params)
