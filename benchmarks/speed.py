"""Reference probes that track the speed of a shared host.

On the 2-vCPU host the bounds were set on, the same work runs up to 2x
slower for seconds at a time, as other tenants load the physical cores.
Every 0.1 s of op time the benchmark times a fixed probe whose work is
like the workload's: ``python`` (integer and ``Fraction`` loops and a
small FFT) for the CLI and chart workloads, ``spectral`` (numpy
quasi-Newton steps on a torus grid) for the Yamabe solves.  An op's time
is then reported in *reference seconds*::

    scaled = measured * reference / local probe time

where the local probe time is the mean of the probes taken just before
and just after the op, and the reference is the probe's time on an
unloaded core of that host.

The probes do not call cherncurv, and they run with the garbage collector
off, so the size of the heap the program leaves behind does not change
their cost.  A change to the program can still move them through the
state it leaves in the caches or the allocator; ``run.py`` prints the
probe times of every run so that such a shift can be seen.
"""

import gc
import time
from fractions import Fraction

import numpy as np

PROBE_EVERY = 0.1  # seconds of op time between probes
_FIELD = np.random.default_rng(0).standard_normal((64, 64))


def _python_work():
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    f = Fraction(1, 3)
    for i in range(200):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, 7)
    np.fft.fft2(_FIELD).sum()


def _spectral_grid(N):
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    return (-(k[:, None] ** 2 + k[None, :] ** 2),
            0.01 * np.random.default_rng(N).standard_normal((N, N)))


_GRIDS = {N: _spectral_grid(N) for N in (64, 128)}


def _spectral_work():
    """Damped quasi-Newton steps on the torus, written here in numpy:
    three at N=64 and one at N=128."""
    for N, steps in ((64, 3), (128, 1)):
        mult, f = _GRIDS[N]
        for _ in range(steps):
            w = np.exp(-f)
            lam = -0.5 / float(np.mean(w))
            res = np.real(np.fft.ifft2(mult * np.fft.fft2(f))) - 0.5 - lam * w
            f = f + 0.5 * np.real(np.fft.ifft2(np.fft.fft2(-res) / (mult - 1)))


# probe kind -> (work, probe time on an unloaded core of the tuning host)
PROBES = {"python": (_python_work, 1.15e-3),
          "spectral": (_spectral_work, 2.9e-3)}


def probe(kind="python", repeats=3):
    """Seconds of one probe, the best of ``repeats`` back-to-back runs."""
    work = PROBES[kind][0]
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds, probe_seconds, kind="python"):
    """``seconds`` measured while the probe took ``probe_seconds``, in
    reference seconds."""
    return seconds * PROBES[kind][1] / probe_seconds
