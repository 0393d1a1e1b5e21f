"""Set-up cost of a workload: import cherncurv, then make one first call.

``run.py`` calls :func:`setup` in its own fresh process and also runs this
file as a script in further fresh processes, each of which prints the
seconds it took, so that the set-up time is a median of several samples::

    python3 benchmarks/setup_probe.py invariant-single

Only light standard-library modules are imported before the clock starts,
so the sample includes the import of numpy and of every cherncurv module.
"""

import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("invariant-single", "invariant-scan", "chart-points",
             "yamabe-solve")
# the workload's first call, at the smallest size the command accepts
WARMUP_ARGV = {
    "invariant-single": ["curvature", "hopf"],
    "invariant-scan": ["scan", "hopf", "--grid", "1:1:1"],
    "yamabe-solve": ["yamabe", "--generator", "constant", "--N", "8"],
}


class MissingProgram(RuntimeError):
    pass


def check_source():
    """Raise unless the checkout holds the cherncurv sources."""
    if not os.path.isfile(os.path.join(SRC, "cherncurv", "__init__.py")):
        raise MissingProgram(f"no cherncurv package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def setup(workload):
    """Seconds to import cherncurv and make the workload's first call."""
    check_source()
    t0 = time.perf_counter()
    import cherncurv
    from cherncurv import chart, cli
    if not os.path.abspath(cherncurv.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"cherncurv imported from {cherncurv.__file__}")
    if workload == "chart-points":
        field = chart.registered_metrics()["flat"]
        chart.curvature_at(field, chart.sample_points(field, 1)[0])
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(WARMUP_ARGV[workload])
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(setup(sys.argv[1])))
