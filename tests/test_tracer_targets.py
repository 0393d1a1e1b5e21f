"""Every function the benchmark tracer wraps by name still exists.

``benchmarks/tracer.py`` monkeypatches the package by (owner path,
attribute) pairs in ``TARGETS``; a renamed function would only surface when
the benchmark runs.  The tracer module is loaded from its file, without
writing a bytecode cache next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cherncurv

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return [(owner, attr) for _, owner, attr, _ in module.TARGETS]


@pytest.mark.parametrize("owner, attr", _targets())
def test_tracer_target_resolves(owner, attr):
    importlib.import_module("cherncurv." + owner.split(".")[0])
    obj = cherncurv
    for part in owner.split("."):
        obj = getattr(obj, part)
    assert callable(getattr(obj, attr))
