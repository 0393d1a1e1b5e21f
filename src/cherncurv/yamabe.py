"""Conformal normalization on the flat torus: a Liouville-type solver.

The conformal factor making the Chern scalar curvature constant satisfies

    lap f + S/n = lam * exp(-f)

on the unit-square torus, where ``lap`` is the Laplace-Beltrami operator of
the flat reference (the Chern Laplacian has no torsion drift there) and lam
is pinned by the integral constraint mean(S/n) = lam * mean(exp(-f)).

Fields are real numpy arrays of shape (N, N) sampled at x_i = i/N.  The
Laplacian is spectral on real FFTs, so band-limited data is differentiated
exactly.

The solvable branch is mean(S) <= 0.  A vanishing mean reduces the problem
to a linear Poisson equation with lam = 0; a negative mean is handled by an
inexact Newton iteration whose steps are exact-Jacobian linear solves by
spectrally preconditioned GMRES.  A Newton step costs one real-FFT pair per
GMRES matvec and no more, because the Laplacian of the iterate is carried
through the Krylov basis; the convergence verdict costs one more pair, on a
fresh transform that the conformal law of the result reads too, and a given
start f0 one more.  A step of k matvecs holds 2k fields.  The positive
branch is an open problem and is refused, not approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class PositiveDegreeOpen(NotImplementedError):
    """Refusal for mean(S) > 0.

    Existence for the positive branch is the open Chern-Yamabe conjecture;
    emitting a made-up answer would be worse than none.
    """


class SolverDiverged(ArithmeticError):
    """A non-finite iterate: the iteration cannot go on."""


class PeriodicGrid:
    """Unit-square torus sampled on N x N points with a spectral Laplacian.

    Fields are real: multipliers act on the ``rfft2`` half spectrum, and
    ``irfft2`` gets ``s=(N, N)``, without which odd N loses a column.
    """

    def __init__(self, N: int):
        if N < 4:
            raise ValueError("grid resolution must be at least 4")
        if N > GRID_MAX_N:
            raise ValueError(f"grid resolution {N} is above {GRID_MAX_N}: "
                             f"a solve would hold more than "
                             f"{SOLVE_MAX_BYTES >> 30} GiB of fields")
        self.N = N
        k = 2.0 * math.pi * np.fft.fftfreq(N, d=1.0 / N)
        kr = 2.0 * math.pi * np.fft.rfftfreq(N, d=1.0 / N)
        self._mult = -(k[:, None] ** 2 + kr[None, :] ** 2)

    def sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Elementwise fn at (x_i, y_j) = (i/N, j/N), given the axes as
        (N, 1) and (1, N) arrays: N values per axis, not N^2."""
        x = np.arange(self.N)[:, None] / self.N
        return np.asarray(fn(x, x.T), dtype=float) + np.zeros((self.N, self.N))

    def _filter(self, f: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """The field whose half spectrum is mult times that of f."""
        return np.fft.irfft2(mult * np.fft.rfft2(f), s=(self.N, self.N))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.N, self.N):
            raise ValueError("field shape does not match the grid")
        return self._filter(f, self._mult)

    def poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of lap u = rhs (rhs must have zero mean)."""
        inv = np.divide(1.0, self._mult, out=np.zeros_like(self._mult),
                        where=self._mult != 0)
        return self._filter(np.asarray(rhs, dtype=float), inv)


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
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class YamabeResult:
    f: np.ndarray
    lam: float
    residual: float
    iterations: int
    converged: bool
    residuals: list          # max|F| per Newton iterate; the last, a fresh
                             # transform's if converged, included
    linear_iterations: list  # GMRES matvecs per Newton step
    lap_f: Optional[np.ndarray] = None  # a transform of f, or None


def _mean_scale_degree(S):
    """(mean S, max(max|S|, 1), degree): the degree is mean S, or 0 where
    |mean S| <= 1e-12 max(max|S|, 1) puts it below the rounding of the
    samples."""
    S = np.asarray(S, dtype=float)
    mean, scale = float(np.mean(S)), max(float(np.max(np.abs(S))), 1.0)
    return mean, scale, 0.0 if abs(mean) <= 1e-12 * scale else mean


def gauduchon_degree_grid(S: np.ndarray) -> float:
    """Volume-normalized integral of S over the unit torus, 0 within the
    rounding of the samples: the degree :func:`solve_chya` branches on."""
    return _mean_scale_degree(S)[2]


def conformal_scalar_law(S: np.ndarray, f: np.ndarray, n: int,
                         grid: Optional[PeriodicGrid] = None,
                         lap_f: Optional[np.ndarray] = None) -> np.ndarray:
    """Chern scalar curvature of exp(-f) * omega, given that of omega.

    In trace form the Einstein factor goes to exp(f) * (lam + lap f), hence
    S -> exp(f) * (S + n * lap f); a given lap_f is read as lap f.
    """
    S = np.asarray(S, dtype=float)
    f = np.asarray(f, dtype=float)
    if S.shape != f.shape:
        raise ValueError("fields live on different grids")
    if lap_f is None:
        lap_f = (grid or PeriodicGrid(S.shape[0])).laplacian(f)
    return np.exp(f) * (S + n * lap_f)


def _residual(lap_f, f, S, n, gamma):
    """(F, lam, w) at f, given lap f: F = lap f + S/n - lam w with
    w = exp(-f) and lam refreshed from the constraint mean(S/n) = lam
    mean(w)."""
    w = np.exp(-f)
    lam = (gamma / n) / float(np.mean(w))
    return lap_f + S / n - lam * w, lam, w


def _jacobian(lam, w):
    """(z, lap z) -> J z, the derivative of F at the iterate of (lam, w).

    The mean term is the derivative of the refreshed lam; it keeps J z
    mean-free and puts the constants, along which F does not move, in the
    kernel of J.
    """
    lw, mean_w = lam * w, float(np.mean(w))
    return lambda z, lap_z: lap_z + lw * (z - float(np.mean(w * z)) / mean_w)


def _gmres(op, b, rtol, m):
    """(x, y, matvecs): GMRES (Saad & Schultz 1986) for op(x) = b from
    x = 0, stopped once |b - op(x)| <= rtol |b| or after m matvecs.

    x is y[j] times the j-th Krylov vector, summed, where the j-th vector is
    the j-th argument op was called with; a caller that keeps what op made
    of each vector combines those with the same y.

    The least-squares problem is kept triangular by Givens rotations; the
    last sine times the previous residual is the new residual.  An exact
    breakdown (op maps the Krylov space into itself) leaves a new vector of
    norm 0, hence residual 0, and the loop ends before that norm would be
    divided by.
    """
    beta = np.linalg.norm(b)
    V = [b / beta]
    R = np.zeros((m, m))                   # the rotated Hessenberg matrix
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        if j:
            V.append(w / h)
        w = op(V[j])
        for i, v in enumerate(V):          # modified Gram-Schmidt
            R[i, j] = np.vdot(v, w)
            w = w - R[i, j] * v
        h = np.linalg.norm(w)
        for i in range(j):
            R[i, j], R[i + 1, j] = (cs[i] * R[i, j] + sn[i] * R[i + 1, j],
                                    cs[i] * R[i + 1, j] - sn[i] * R[i, j])
        rho = np.hypot(R[j, j], h)
        cs[j], sn[j] = R[j, j] / rho, h / rho
        R[j, j] = rho
        g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
        if abs(g[j + 1]) <= rtol * beta:
            break
    k = j + 1
    y = np.zeros(k)
    for i in reversed(range(k)):           # back substitution, R triangular
        y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:]) / R[i, i]
    x = sum(c * v for c, v in zip(y, V))
    if not np.all(np.isfinite(x)):
        raise SolverDiverged("Krylov solve produced non-finite values")
    return x, y, k


# forcing term of the inexact Newton steps: each step's linear solve leaves
# this share of |F|, and the quadratic convergence does the rest
GMRES_RTOL = 1e-3
# Krylov basis cap; each Newton step starts a new cycle, which is the
# restart.  A step keeps each Krylov vector and its preconditioned image, so
# k matvecs hold 2k fields; one N = 256 field is 0.5 MB.
KRYLOV_DIM = 20
# fields a solve holds at its peak: the Krylov storage and 12 more for S,
# f, lap f, F, exp(-f), the step, the half spectra and their temporaries
# (51.6 in all under tracemalloc at N = 256 with every step at KRYLOV_DIM)
SOLVE_FIELDS = 2 * KRYLOV_DIM + 12
# PeriodicGrid refuses an N whose solve would hold more bytes than this,
# so GRID_MAX_N is 2272
SOLVE_MAX_BYTES = 2 ** 31
GRID_MAX_N = math.isqrt(SOLVE_MAX_BYTES // (8 * SOLVE_FIELDS))


def solve_chya(p: YamabeProblem, f0: Optional[np.ndarray] = None
               ) -> YamabeResult:
    """Solve lap f + S/n = lam exp(-f) on the torus, mean(S) <= 0 branch.

    The solution family f + c, lam * exp(c) is pinned by mean(f) = 0.  For
    degree 0 (see :func:`gauduchon_degree_grid`) the equation degenerates
    to lap f = -S/n with lam = 0 and is solved directly.  Otherwise an inexact
    Newton iteration runs on F(f) = lap f + S/n - lam exp(-f), lam
    refreshed from the integral constraint (Knoll & Keyes, J. Comput. Phys.
    193, 2004).  Each step solves J delta = -F with the exact Jacobian by
    GMRES, right-preconditioned with the spectral inverse of lap + mu,
    mu = mean(S)/n, so that a matvec costs one forward and one inverse real
    FFT.  The preconditioned vectors are kept beside the Krylov basis, as in
    flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993), so a step of k
    matvecs holds 2k fields and gives delta and lap delta with no further
    transform: a Newton step costs its matvecs.  F is formed from the
    carried lap f.  Once max|F| <= tol there, f is transformed anew, and
    convergence and the residual reported are decided on that residual
    alone; if it is above tol, the iteration goes on from the new transform.
    After ``max_iter`` steps above tol the last iterate is returned, not
    converged; a non-finite iterate raises :class:`SolverDiverged`.
    """
    grid, S, n = p.grid, p.S, p.n
    gamma, scale, degree = _mean_scale_degree(S)
    if degree > 0:
        raise PositiveDegreeOpen(
            "mean(S) > 0: existence there is the open Chern-Yamabe "
            "conjecture, refusing to fabricate a solution")

    if degree == 0:
        f = grid.poisson(-(S - gamma) / n)
        lap_f = grid.laplacian(f)
        # lam = 0, so F = lap f + S/n, with no 0 exp(-f) term to overflow
        res = float(np.max(np.abs(lap_f + S / n)))
        return YamabeResult(f, 0.0, res, 0, res <= max(p.tol, 1e-12 * scale),
                            [res], [], lap_f)

    # mu < 0, so lap + mu is invertible; with z = (lap + mu)^-1 v,
    # lap z = v - mu z, and J z needs no further transform.  Nor does the
    # step: delta = sum y_j z_j, and lap delta = sum y_j (v_j - mu z_j),
    # which is x - mu delta for GMRES's x = sum y_j v_j.
    mu = gamma / n
    inv = 1.0 / (grid._mult + mu)
    if f0 is None:
        # the Laplacian of 0 is exactly 0, as a transform would give it
        f, lap_f = np.zeros((grid.N, grid.N)), np.zeros((grid.N, grid.N))
    else:
        f = np.asarray(f0, dtype=float).copy()
        f -= np.mean(f)
        lap_f = grid.laplacian(f)
    fresh = True                 # lap_f is a transform of f, not carried
    residuals, linear = [], []
    # an overflow turns up as a non-finite iterate, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(p.max_iter + 1):
            # a carried residual at or below tol only calls the check: the
            # verdict and the residual reported are those of a new
            # transform, and the iteration goes on from it if it fails
            while True:
                F, lam, w = _residual(lap_f, f, S, n, gamma)
                res = float(np.max(np.abs(F)))
                if fresh or res > p.tol:
                    break
                lap_f, fresh = grid.laplacian(f), True
            residuals.append(res)
            if res <= p.tol or it == p.max_iter:
                break
            jac = _jacobian(lam, w)
            Z = []

            def op(v):
                z = grid._filter(v, inv)
                Z.append(z)
                return jac(z, v - mu * z)

            x, y, matvecs = _gmres(op, -F, GMRES_RTOL, KRYLOV_DIM)
            linear.append(matvecs)
            delta = sum(c * z for c, z in zip(y, Z))
            f = f + delta
            f -= np.mean(f)
            lap_f, fresh = lap_f + (x - mu * delta), False
            if not np.all(np.isfinite(f)):
                raise SolverDiverged("iteration produced non-finite values")
    # converged, or failing after max_iter steps: a result, not an error
    return YamabeResult(f, lam, res, it, res <= p.tol, residuals, linear,
                        lap_f if fresh else None)


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


# name: (generator, the problem-file keys it reads besides FILE_KEYS)
GENERATORS = {
    "zero": (_gen_zero, ()),
    "constant": (_gen_constant, ("value",)),
    "synthetic-v": (_gen_synthetic_v, ("amplitude",)),
    "sine-offset": (_gen_sine_offset, ("offset", "amplitude")),
}
# every problem file's keys and their types; S names the generator
FILE_KEYS = {"S": str, "N": int, "n": int, "tol": float, "max_iter": int}


def make_problem(name: str, N: int = 64, n: int = 2, tol: float = 1e-9,
                 max_iter: int = 200, **params) -> YamabeProblem:
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}; "
                       f"have {sorted(GENERATORS)}")
    grid = PeriodicGrid(N)
    params.setdefault("n", n)
    S = GENERATORS[name][0](grid, params)
    return YamabeProblem(grid, S, n=n, tol=tol, max_iter=max_iter)


def load_problem(path) -> YamabeProblem:
    """Read a problem from a plain key-value file.

    One ``key = value`` pair per line; '#' starts a comment.  The keys are
    FILE_KEYS (S names the generator) and the parameters that generator
    reads (see GENERATORS).  Any other key, an unknown generator and a
    value of the wrong type are refused with the file, line and key.
    """
    kv, where = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            kv[key], where[key] = val, f"{path}:{lineno}: {key}"
    name = kv.get("S", "zero")
    if name not in GENERATORS:
        raise ValueError(f"{where['S']}: unknown generator {name!r}; have "
                         f"{', '.join(sorted(GENERATORS))}")
    types = FILE_KEYS | dict.fromkeys(GENERATORS[name][1], float)
    args = {}
    for key, val in kv.items():
        if key not in types:
            raise ValueError(f"{where[key]}: unknown key; a {name} problem "
                             f"reads {', '.join(types)}")
        try:
            args[key] = types[key](val)
        except ValueError:
            kind = "an integer" if types[key] is int else "a number"
            raise ValueError(f"{where[key]}: expected {kind}, got {val!r}") \
                from None
    return make_problem(args.pop("S", "zero"), **args)
