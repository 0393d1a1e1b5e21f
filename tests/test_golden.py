"""CLI outputs are pinned against stored goldens.

The stored outputs come from ``tests/golden/regen.py``; regenerate them
only for an intended change of the printed results.  Exact-arithmetic
outputs must match byte for byte.  Float outputs must have the same exit
code and keys, the same text values, and numbers (form coefficients
included, a missing monomial counting as 0) within 1e-9 of the largest
number of the stored output: their last printed digits follow the
rounding of the evaluation order.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cherncurv import cli

from golden import regen

FLOAT_REL_TOL = 1e-9
_MONOMIAL = re.compile(r"\((\S+)\) (\S+)")


def _number(text):
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        return None


def _value(text):
    """A printed value as {monomial: coefficient} (a scalar is the empty
    monomial), or as its text when it is neither a number nor a form."""
    z = _number(text)
    if z is not None:
        return {"": z}
    terms = [_MONOMIAL.fullmatch(part) for part in text.split(" + ")]
    if all(terms) and all(_number(t.group(1)) is not None for t in terms):
        return {t.group(2): _number(t.group(1)) for t in terms}
    return text


def _fields(text):
    out = []
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.append((key, _value(value.strip())))
    return out


def assert_float_output_close(got, want):
    """``got`` and ``want`` are stdout texts of one float command."""
    got, want = _fields(got), _fields(want)
    assert [k for k, _ in got] == [k for k, _ in want]
    scale = max((abs(z) for _, v in want if isinstance(v, dict)
                 for z in v.values()), default=0.0)
    for (key, g), (_, w) in zip(got, want):
        if isinstance(w, str) or isinstance(g, str):
            assert g == w, key
            continue
        for mono in g.keys() | w.keys():
            diff = abs(g.get(mono, 0) - w.get(mono, 0))
            assert diff <= FLOAT_REL_TOL * scale, (key, mono, g, w)


@pytest.mark.parametrize("name,argv", regen.cases(),
                         ids=[name for name, _ in regen.cases()])
def test_exact_output_matches_golden(name, argv):
    rc, text = regen.run(argv)
    assert rc == 0
    assert text.encode() == (regen.GOLDEN_DIR / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name,argv", regen.float_cases(),
                         ids=[name for name, _ in regen.float_cases()])
def test_float_output_matches_golden(name, argv):
    rc, text = regen.run(argv)
    head, _, want = (regen.GOLDEN_DIR / f"{name}.txt").read_text() \
        .partition("\n")
    assert f"exit {rc}" == head
    assert_float_output_close(text, want)


@pytest.mark.parametrize("name,argv", regen.yamabe_cases(),
                         ids=[name for name, _ in regen.yamabe_cases()])
def test_yamabe_output_matches_golden(name, argv):
    rc, text = regen.run(argv)
    assert f"exit {rc}\n{text}".encode() == \
        (regen.GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_yamabe_output_does_not_follow_the_blas_thread_count():
    # N = 128 is the size from which OpenBLAS threads a dot product; the
    # solver takes none, so a fresh process held to one BLAS thread prints
    # the bytes of this process's run, whatever its thread count
    name, argv = "yamabe-sine-offset-128", dict(regen.yamabe_cases())[
        "yamabe-sine-offset-128"]
    rc, text = regen.run(argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cherncurv.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.stderr == ""
    assert f"exit {proc.returncode}\n{proc.stdout}".encode() == \
        f"exit {rc}\n{text}".encode() == \
        (regen.GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_regen_check_lists_changed_goldens_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # one exact and one float case, stored as they are and then with the
    # last digit of a float golden changed
    names = ("verify-hopf", "scan-hopf-1-strong")
    for name in names:
        (tmp_path / f"{name}.txt").write_bytes(
            (regen.GOLDEN_DIR / f"{name}.txt").read_bytes())
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.main(["--check", *names]) == 0
    assert capsys.readouterr().out == ""
    path = tmp_path / "scan-hopf-1-strong.txt"
    text = path.read_text()
    digit = max(i for i, c in enumerate(text) if c.isdigit())
    edited = text[:digit] + str((int(text[digit]) + 1) % 10) \
        + text[digit + 1:]
    path.write_text(edited)
    assert regen.main(["--check", *names]) == 1
    assert capsys.readouterr().out == "scan-hopf-1-strong\n"
    assert path.read_text() == edited
