"""Exact-arithmetic CLI output is pinned byte for byte.

The stored outputs come from ``tests/golden/regen.py``; regenerate them
only for an intended change of the printed results.
"""

import pytest

from golden import regen


@pytest.mark.parametrize("name,argv", regen.cases(),
                         ids=[name for name, _ in regen.cases()])
def test_exact_output_matches_golden(name, argv):
    rc, text = regen.run(argv)
    assert rc == 0
    assert text.encode() == (regen.GOLDEN_DIR / f"{name}.txt").read_bytes()
