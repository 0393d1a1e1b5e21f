"""Regenerate the golden exact-arithmetic CLI outputs in this directory.

Each case is one ``cherncurv`` invocation; its stdout is stored byte for
byte in ``<case>.txt``:

* ``curvature <entry> --exact --params ...`` at every registry point of
  every catalog entry (``curvature-<entry>-<index>.txt``);
* ``catalog verify <entry> --exact`` for every entry
  (``verify-<entry>.txt``).

Run from the repository root, against the package under test::

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden.py`` reruns the same cases and compares the bytes.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from cherncurv import catalog, cli, structfile

GOLDEN_DIR = Path(__file__).resolve().parent


def _params_arg(point: dict) -> str:
    return ",".join(f"{key}={structfile.format_complex(point[key])}"
                    for key in ("r", "s", "u", "ell") if key in point)


def cases():
    """(case name, argv) for every golden output, in a fixed order."""
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


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def main() -> int:
    for name, argv in cases():
        rc, text = run(argv)
        if rc != 0:
            print(f"{name}: exit {rc}", file=sys.stderr)
            return 1
        (GOLDEN_DIR / f"{name}.txt").write_bytes(text.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
