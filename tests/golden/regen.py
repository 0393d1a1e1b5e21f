"""Regenerate the golden CLI outputs in this directory.

Each case is one ``cherncurv`` invocation, stored in ``<case>.txt``.
Exact-arithmetic cases store their stdout byte for byte:

* ``curvature <entry> --exact --params ...`` at every registry point of
  every catalog entry (``curvature-<entry>-<index>.txt``);
* ``catalog verify <entry> --exact`` for every entry
  (``verify-<entry>.txt``).

Float cases store a first line ``exit <code>`` followed by the stdout:

* ``curvature``, ``einstein``, ``lee``, ``gauduchon`` and
  ``bl <entry> --params ...`` at every registry point of every catalog
  entry (``<command>-<entry>-<index>.txt``, named
  ``curvature-float-<entry>-<index>.txt`` for ``curvature``, whose exact
  outputs hold the plain name);
* ``scan <entry> --kind <k> --mode <mode> --grid <SCAN_GRID>`` for every
  entry, kind 1 to 3 and both modes (``scan-<entry>-<k>-<mode>.txt``),
  and the default-grid ``scan <entry> --kind 2`` of every non-existence
  entry (``scan-default-<entry>.txt``);
* ``yamabe`` runs (``yamabe-<name>.txt``): each generator, ``--seed``,
  ``--n 3``, odd N, a Newton solve at N = 128 (the size from which
  OpenBLAS threads its dot products), runs that do not converge and exit
  1, and the problem files of ``problems/``.

Run from the repository root, against the package under test::

    PYTHONPATH=src python tests/golden/regen.py [PREFIX ...]

With prefixes, only the cases whose names start with one of them are
rewritten, e.g. ``regen.py scan-`` for the scan outputs alone.  With
``--check`` nothing is rewritten: the script prints the name of every
selected case whose exit code or stdout differs byte for byte from its
stored golden (or whose exact case does not exit 0), and exits 1 if
there is one::

    PYTHONPATH=src python tests/golden/regen.py --check [PREFIX ...]

``tests/test_golden.py`` reruns the same cases and compares each output
byte for byte, as ``--check`` does; a float output that differs is
reported key by key, with the largest drift of its numbers relative to
the largest number of the output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from cherncurv import catalog, cli, structfile

GOLDEN_DIR = Path(__file__).resolve().parent
PROBLEM_DIR = GOLDEN_DIR / "problems"


def _params_arg(point: dict) -> str:
    return ",".join(f"{key}={structfile.format_complex(point[key])}"
                    for key in ("r", "s", "u", "ell") if key in point)


def cases():
    """(case name, argv) for every exact golden output, in a fixed order."""
    out = []
    for entry in catalog.list_entries():
        for idx, point in enumerate(catalog.get(entry).points):
            out.append((f"curvature-{entry}-{idx}",
                        ["curvature", entry, "--exact",
                         "--params", _params_arg(point)]))
    for entry in catalog.list_entries():
        out.append((f"verify-{entry}",
                    ["catalog", "verify", entry, "--exact"]))
    return out


FLOAT_COMMANDS = ("curvature", "einstein", "lee", "gauduchon", "bl")
# three values per axis, exact in binary: 3 * 3 * 73 = 657 grid points
SCAN_GRID = "0.375:1.625:0.625"


def float_cases():
    """(case name, argv) for every float golden output, in a fixed order."""
    out = [(f"{'curvature-float' if command == 'curvature' else command}"
            f"-{entry}-{idx}",
            [command, entry, "--params", _params_arg(point)])
           for command in FLOAT_COMMANDS
           for entry in catalog.list_entries()
           for idx, point in enumerate(catalog.get(entry).points)]
    out += [(f"scan-{entry}-{kind}-{mode}",
             ["scan", entry, "--kind", str(kind), "--mode", mode,
              "--grid", SCAN_GRID])
            for entry in catalog.list_entries()
            for kind in (1, 2, 3) for mode in ("strong", "weak")]
    out += [(f"scan-default-{entry}", ["scan", entry, "--kind", "2"])
            for entry in catalog.NONEXISTENCE_ENTRIES]
    return out


# (name, yamabe arguments); a run without --generator reads the problem
# file problems/yamabe-<name>.problem
YAMABE_RUNS = (
    ("sine-offset", ["--generator", "sine-offset", "--N", "32"]),
    ("sine-offset-seed", ["--generator", "sine-offset", "--N", "32",
                          "--seed", "3"]),
    ("sine-offset-n3", ["--generator", "sine-offset", "--N", "24",
                        "--n", "3"]),
    ("sine-offset-odd", ["--generator", "sine-offset", "--N", "33",
                         "--seed", "2"]),
    ("sine-offset-128", ["--generator", "sine-offset", "--N", "128",
                         "--seed", "7"]),
    ("synthetic-v", ["--generator", "synthetic-v", "--N", "64"]),
    ("synthetic-v-n3-odd", ["--generator", "synthetic-v", "--N", "17",
                            "--n", "3"]),
    ("constant", ["--generator", "constant", "--N", "16"]),
    ("constant-kv", ["--generator", "constant", "--N", "8",
                     "--format", "kv"]),
    ("zero", ["--generator", "zero", "--N", "16"]),
    ("tol-0", ["--generator", "sine-offset", "--N", "16", "--tol", "0"]),
    ("every-key", []),
    ("max-iter-1", []),
    ("huge-amplitude", []),
    ("large-amplitude", ["--seed", "0"]),
)


def yamabe_cases():
    """(case name, argv) for every yamabe golden output, in a fixed order."""
    out = []
    for name, argv in YAMABE_RUNS:
        if "--generator" not in argv:
            path = PROBLEM_DIR / f"yamabe-{name}.problem"
            argv = ["--problem", str(path), *argv]
        out.append((f"yamabe-{name}", ["yamabe", *argv]))
    return out


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def main(args=()) -> int:
    check = "--check" in args
    prefixes = tuple(a for a in args if a != "--check") or ("",)
    changed = []
    for exact, (name, argv) in ([(True, c) for c in cases()]
                                + [(False, c) for c in float_cases()
                                   + yamabe_cases()]):
        if not name.startswith(prefixes):
            continue
        rc, text = run(argv)
        if exact and rc != 0 and not check:
            print(f"{name}: exit {rc}", file=sys.stderr)
            return 1
        data = (text if exact else f"exit {rc}\n{text}").encode()
        path = GOLDEN_DIR / f"{name}.txt"
        if not check:
            path.write_bytes(data)
        elif (exact and rc != 0) or not path.exists() \
                or path.read_bytes() != data:
            changed.append(name)
    for name in changed:
        print(name)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
