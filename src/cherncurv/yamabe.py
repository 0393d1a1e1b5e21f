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
start f0 one more.  The iteration allocates no fields: it works in the
grid's scratch fields (see PeriodicGrid.scratch), 2k + 1 for the vectors
of a step of k matvecs and four more, and the solves that follow on that
grid reuse them.  The positive branch is an open problem and is refused,
not approximated.
"""

from __future__ import annotations

import functools
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
    the inverse transform gets the length N, without which odd N loses a
    column.  The grid owns its multipliers, one half-spectrum buffer that
    every transform works in, and the scratch fields of :meth:`scratch`;
    so a grid serves one computation at a time.
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
        # the mean-zero inverse: 0 on the constants, the kernel of lap
        self._inv = np.divide(1.0, self._mult, out=np.zeros_like(self._mult),
                              where=self._mult != 0)
        self._spec = np.empty(self._mult.shape, dtype=complex)
        self._scratch = {}

    def scratch(self, key) -> np.ndarray:
        """The grid's (N, N) scratch field named key, made on first use and
        the same array on every later call: what it holds is its last
        writer's, so a caller reads it back only before another user of
        that name runs."""
        field = self._scratch.get(key)
        if field is None:
            field = self._scratch[key] = np.empty((self.N, self.N))
        return field

    def sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Elementwise fn at (x_i, y_j) = (i/N, j/N), given the axes as
        (N, 1) and (1, N) arrays: N values per axis, not N^2."""
        x = np.arange(self.N)[:, None] / self.N
        return np.asarray(fn(x, x.T), dtype=float) + np.zeros((self.N, self.N))

    def _filter(self, f: np.ndarray, mult: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """The field whose half spectrum is mult times that of f, in out if
        given: the steps of ``irfft2(mult * rfft2(f), s=(N, N))``, bit for
        bit, taken in the grid's spectrum buffer."""
        spec = np.fft.rfft2(f, out=self._spec)
        spec *= mult
        np.fft.ifft(spec, axis=0, out=spec)
        return np.fft.irfft(spec, n=self.N, axis=1, out=out)

    def laplacian(self, f: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.N, self.N):
            raise ValueError("field shape does not match the grid")
        return self._filter(f, self._mult, out)

    def poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of lap u = rhs (rhs must have zero mean)."""
        return self._filter(np.asarray(rhs, dtype=float), self._inv)


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
    # max|S| as max(max S, -min S), exactly, with no |S| field
    mean = float(np.mean(S))
    scale = max(float(np.max(S)), -float(np.min(S)), 1.0)
    return mean, scale, 0.0 if abs(mean) <= 1e-12 * scale else mean


def gauduchon_degree_grid(S: np.ndarray) -> float:
    """Volume-normalized integral of S over the unit torus, 0 within the
    rounding of the samples: the degree :func:`solve_chya` branches on."""
    return _mean_scale_degree(S)[2]


def conformal_scalar_law(S: np.ndarray, f: np.ndarray, n: int,
                         grid: Optional[PeriodicGrid] = None,
                         lap_f: Optional[np.ndarray] = None,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Chern scalar curvature of exp(-f) * omega, given that of omega.

    In trace form the Einstein factor goes to exp(f) * (lam + lap f), hence
    S -> exp(f) * (S + n * lap f); a given lap_f is read as lap f.  The
    law is written into out if given.
    """
    S = np.asarray(S, dtype=float)
    f = np.asarray(f, dtype=float)
    if S.shape != f.shape:
        raise ValueError("fields live on different grids")
    if lap_f is None:
        lap_f = (grid or PeriodicGrid(S.shape[0])).laplacian(f)
    law = np.multiply(lap_f, n, out=out)
    law += S
    law *= np.exp(f)
    return law


# The iteration works in scratch fields that field(key) hands out by name
# (PeriodicGrid.scratch in the solver).  Each operation keeps the order of
# its out-of-place form, and a product or sum with its operands swapped is
# the same IEEE result, so every field is the one that form gives, bit for
# bit.

def _residual(lap_f, f, S, n, gamma, field):
    """(F, lam, w) at f, given lap f: F = lap f + S/n - lam w with
    w = exp(-f) and lam refreshed from the constraint mean(S/n) = lam
    mean(w).  F and w are field("F") and field("w"); field("tmp") is
    overwritten."""
    w = np.exp(np.negative(f, out=field("w")), out=field("w"))
    lam = (gamma / n) / float(np.mean(w))
    F = np.divide(S, n, out=field("F"))
    F += lap_f
    F -= np.multiply(w, lam, out=field("tmp"))
    return F, lam, w


def _jacobian(lam, w, field):
    """(z, lap z, out) -> J z, written into out, the derivative of F at the
    iterate of (lam, w); lam w is kept in field("lw").

    The mean term is the derivative of the refreshed lam; it keeps J z
    mean-free and puts the constants, along which F does not move, in the
    kernel of J.
    """
    lw, mean_w = np.multiply(w, lam, out=field("lw")), float(np.mean(w))

    def jac(z, lap_z, out):
        c = float(np.mean(np.multiply(w, z, out=out))) / mean_w
        np.subtract(z, c, out=out)
        out *= lw
        out += lap_z
        return out
    return jac


def _combine(y, vectors, out, tmp):
    """sum(c * v for c, v in zip(y, vectors)) in out, bit for bit: the sum
    starts from 0."""
    out.fill(0.0)
    for c, v in zip(y, vectors):
        out += np.multiply(v, c, out=tmp)
    return out


def _dot(a, b, tmp):
    """The inner product of a and b: numpy's pairwise sum of their product,
    formed in tmp.  A BLAS dot would split the sum, and so its last digits,
    by the host's thread count."""
    return float(np.multiply(a, b, out=tmp).sum())


def _gmres(op, b, rtol, m, field):
    """(x, y, matvecs): GMRES (Saad & Schultz 1986) for op(x) = b from
    x = 0, stopped once |b - op(x)| <= rtol |b| or after m matvecs.

    x is y[j] times the j-th Krylov vector, summed, where the j-th vector is
    the j-th argument op was called with; a caller that keeps what op made
    of each vector combines those with the same y.  op(v, out) writes its
    image of v into out.  The vectors are buffers of b's shape: the j-th
    Krylov vector is field(("V", j)), x goes into the buffer of the new
    vector that the basis did not take, and field("tmp") is overwritten,
    though not while op runs.

    The least-squares problem is kept triangular by Givens rotations; the
    last sine times the previous residual is the new residual.  An exact
    breakdown (op maps the Krylov space into itself) leaves a new vector of
    norm 0, hence residual 0, and the loop ends before that norm would be
    divided by.
    """
    tmp = field("tmp")
    beta = math.sqrt(_dot(b, b, tmp))
    V = [np.divide(b, beta, out=field(("V", 0)))]
    R = np.zeros((m, m))                   # the rotated Hessenberg matrix
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        if j:
            V.append(np.divide(w, h, out=w))
        w = op(V[j], field(("V", j + 1)))
        for i, v in enumerate(V):          # modified Gram-Schmidt
            R[i, j] = _dot(v, w, tmp)
            w -= np.multiply(v, R[i, j], out=tmp)
        h = math.sqrt(_dot(w, w, tmp))
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
    x = _combine(y, V, w, tmp)
    if not np.all(np.isfinite(x)):
        raise SolverDiverged("Krylov solve produced non-finite values")
    return x, y, k


# forcing term of the inexact Newton steps: each step's linear solve leaves
# this share of |F|, and the quadratic convergence does the rest
GMRES_RTOL = 1e-3
# Krylov basis cap; each Newton step starts a new cycle, which is the
# restart.  A step keeps each Krylov vector and its preconditioned image, so
# k matvecs hold 2k + 1 fields; one N = 256 field is 0.5 MB.
KRYLOV_DIM = 20
# fields a solve holds at its peak, with a field to spare: the Krylov
# storage and 9.5 more for S, f, lap f, F, exp(-f), lam exp(-f), a
# temporary, the spectrum buffer and three half-spectrum multipliers (50.8
# to 51.1 in all under tracemalloc at N = 256, S and a new grid included,
# with every step at KRYLOV_DIM)
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

    tmp = grid.scratch("tmp")
    if degree == 0:
        rhs = np.negative(np.subtract(S, gamma, out=tmp), out=tmp)
        f = grid.poisson(np.divide(rhs, n, out=tmp))
        lap_f = grid.laplacian(f)
        # lam = 0, so F = lap f + S/n, with no 0 exp(-f) term to overflow
        F = np.add(lap_f, np.divide(S, n, out=tmp), out=tmp)
        res = float(np.max(np.abs(F, out=F)))
        return YamabeResult(f, 0.0, res, 0, res <= max(p.tol, 1e-12 * scale),
                            [res], [], lap_f)

    # mu < 0, so lap + mu is invertible; with z = (lap + mu)^-1 v,
    # lap z = v - mu z, and J z needs no further transform.  Nor does the
    # step: delta = sum y_j z_j, and lap delta = sum y_j (v_j - mu z_j),
    # which is x - mu delta for GMRES's x = sum y_j v_j.
    mu = gamma / n
    inv = grid._mult + mu
    np.divide(1.0, inv, out=inv)
    # f and lap f are the result's own arrays, updated in place
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
                F, lam, w = _residual(lap_f, f, S, n, gamma, grid.scratch)
                res = float(np.max(np.abs(F, out=tmp)))
                if fresh or res > p.tol:
                    break
                grid.laplacian(f, out=lap_f)
                fresh = True
            residuals.append(res)
            if res <= p.tol or it == p.max_iter:
                break
            jac = _jacobian(lam, w, grid.scratch)
            Z = []

            def op(v, out):
                Z.append(grid._filter(v, inv, grid.scratch(("Z", len(Z)))))
                lap_z = np.subtract(v, np.multiply(Z[-1], mu, out=tmp),
                                    out=tmp)
                return jac(Z[-1], lap_z, out)

            x, y, matvecs = _gmres(op, np.negative(F, out=F), GMRES_RTOL,
                                   KRYLOV_DIM, grid.scratch)
            linear.append(matvecs)
            # the step goes into the first Krylov vector, spent by now
            delta = _combine(y, Z, grid.scratch(("V", 0)), tmp)
            f += delta
            f -= np.mean(f)
            lap_f += np.subtract(x, np.multiply(delta, mu, out=tmp), out=tmp)
            fresh = False
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


# make_problem's grids, one for each of the last GRID_CACHE sizes asked
# for, as cli builds its parser once: consecutive solves of one size reuse
# one grid's buffers
GRID_CACHE = 4
_grid = functools.lru_cache(maxsize=GRID_CACHE)(PeriodicGrid)


def make_problem(name: str, N: int = 64, n: int = 2, tol: float = 1e-9,
                 max_iter: int = 200, **params) -> YamabeProblem:
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}; "
                       f"have {sorted(GENERATORS)}")
    grid = _grid(N)
    params.setdefault("n", n)
    S = GENERATORS[name][0](grid, params)
    return YamabeProblem(grid, S, n=n, tol=tol, max_iter=max_iter)


def load_problem(path) -> YamabeProblem:
    """Read a problem from a plain key-value file.

    One ``key = value`` pair per line; '#' starts a comment.  The keys are
    FILE_KEYS (S names the generator) and the parameters that generator
    reads (see GENERATORS).  Any other key, a key given twice, an unknown
    generator and a value of the wrong type are refused with the file, line
    and key.
    """
    kv, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key}: given twice, on "
                                 f"lines {lines[key]} and {lineno}")
            kv[key], lines[key] = val, lineno
    where = {key: f"{path}:{lineno}: {key}" for key, lineno in lines.items()}
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
