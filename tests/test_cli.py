import argparse
import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cherncurv import catalog, cli, invariant as inv, yamabe
from cherncurv.cli import fmt_number, main, parse_params
from cherncurv.forms import CoframeAlgebra
from cherncurv.scalars import QQi
from cherncurv.structfile import parse_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument plumbing

def test_parse_params():
    p = parse_params("r=2,s=1/2,u=1/2+1i")
    assert p["r"] == QQi(2)
    assert p["u"] == QQi(Fraction(1, 2), 1)
    with pytest.raises(Exception):
        parse_params("q=2")
    with pytest.raises(Exception):
        parse_params("r")


def test_fmt_number_deterministic():
    assert fmt_number(QQi(1, 2)) == "1+2i"
    assert fmt_number(0.5) == "0.5"
    assert fmt_number(1 / 3) == "0.333333333333"
    assert fmt_number(complex(0, -2.5)) == "-2.5i"


# ---------------------------------------------------------------------------
# exit-code contract

def test_curvature_ok(capsys):
    code, out, _ = run(capsys, "curvature", "hopf", "--params", "r=1")
    assert code == 0
    assert "s_chern" in out and "4" in out


def test_einstein_holds(capsys):
    code, out, _ = run(capsys, "einstein", "ovando-r4", "--kind", "2")
    assert code == 0
    assert "lambda" in out and "-1" in out


def test_einstein_fails(capsys):
    code, out, _ = run(capsys, "einstein", "inoue-sm", "--kind", "2")
    assert code == 1
    assert "false" in out


def test_unknown_entry(capsys):
    code, _, err = run(capsys, "curvature", "no-such-entry")
    assert code == 2
    assert "error" in err


def test_inadmissible_params(capsys):
    code, _, err = run(capsys, "einstein", "inoue-sm",
                       "--params", "r=1,s=1,u=2")
    assert code == 2


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in catalog.list_entries():
        assert name in out


def test_catalog_verify_exact(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "hopf", "--exact")
    assert code == 0
    assert "FAIL" not in out
    assert "all_passed" in out and "true" in out
    assert "reported" in out  # convention-sensitive rows shown, not asserted


@pytest.mark.parametrize("params, exact", [("r=1,s=2", False),
                                           ("r=2,s=1/3", True),
                                           ("r=1,s=1,u=1/2", True),
                                           ("r=1,s=1,u=1/2", False),
                                           ("r=3,s=1/2,u=1/4+1/8i", True)])
def test_catalog_verify_hopf_off_its_family(capsys, params, exact):
    # hopf's closed forms hold on s = r, u = 0, S and lambda on u = 0
    code, out, err = run(capsys, "catalog", "verify", "hopf", "--params",
                         params, *(["--exact"] if exact else []))
    assert code == 0 and err == ""
    rows = [line.split()[0] for line in out.splitlines()]
    on_u_zero = ["hopf.0.S_Ch", "hopf.0.einstein2_lambda"]
    assert rows == ["hopf.0.Ric1", *(on_u_zero if "u" not in params else []),
                    "all_passed"]
    assert "FAIL" not in out


def test_scan_reports(capsys):
    code, out, _ = run(capsys, "scan", "kodaira-primary",
                       "--grid", "0.5:1.5:0.5")
    assert code == 0
    assert "min_residual" in out and "certificate_ok" in out
    assert "true" in out


@pytest.mark.parametrize("grid", ["1:2:0", "1:2:-0.5", "1:inf:1",
                                  "-inf:2:1", "1:2:nan"])
def test_scan_refuses_unbounded_grid(capsys, grid):
    code, out, err = run(capsys, "scan", "hopf", f"--grid={grid}")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_scan_overflowing_grid_is_one_line(capsys):
    # r^2 overflows: every h has an infinite entry, and no row is kept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "scan", "hopf",
                             "--grid", "1e159:1e160:1e159")
    assert (code, out, err) == (2, "", "error: no admissible grid points\n")


@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_scan_det_overflowing_grid_is_the_rescaled_grid(capsys, scale):
    # h is finite and det h overflows on every row, but the rule forms no
    # det h: every row is kept, as on the same grid 1/scale times the size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "scan", "hopf", "--grid",
                             f"{scale:g}:{10 * scale:g}:{scale:g}")
    assert code == 0 and err == ""
    got, want = fields(out), fields(run(capsys, "scan", "hopf", "--grid",
                                        "1:10:1")[1])
    assert got["points"] == want["points"] == "7300"
    assert [float(got[k]) for k in ("argmin_r", "argmin_s")] == \
        [scale * float(want[k]) for k in ("argmin_r", "argmin_s")]


def test_scan_tiny_grid_is_counted_by_its_step(capsys):
    # ten values; an absolute slack of 1e-12 would run on to 1e-12
    code, out, err = run(capsys, "scan", "hopf",
                         "--grid", "1e-160:1e-159:1e-160")
    assert (code, out, err) == (2, "", "error: no admissible grid points\n")


@pytest.mark.parametrize("grid", ["1:371:1", "0:1:1e-300",
                                  "-1e308:1e308:1e-300"])
def test_scan_refuses_grid_beyond_row_cap(capsys, grid):
    code, out, err = run(capsys, "scan", "hopf", f"--grid={grid}")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "10000000 grid rows" in lines[0]


def test_scan_memory_with_its_grid(capsys):
    # the whole command, grid rows included, on a K=60 grid of 262,800
    # rows: 5.3 MB, against 21.3 MB with the grid built before the scan
    spec = f"{12 / 64!r}:{(12 + 59 * 5) / 64!r}:{5 / 64!r}"
    assert len(cli._parse_grid(spec)) == 60
    tracemalloc.start()
    try:
        code = main(["scan", "inoue-sm", "--grid", spec])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and fields(capsys.readouterr().out)["points"] == \
        "262800"
    assert peak <= 7e6


def test_scan_takes_the_entry_structure_parameters(capsys, monkeypatch,
                                                   tmp_path):
    # snow-s5 at ell = 3 scans the algebra its export writes; each ell gives
    # residual 0 at u = 0, so the grid is two rows with u != 0
    code, text, _ = run(capsys, "catalog", "export", "snow-s5",
                        "--params", "ell=3")
    path = tmp_path / "snow-s5-ell3.struct"
    path.write_text(text)
    monkeypatch.setattr(inv, "default_surface_grid",
                        lambda r_values, s_values: [(1, 1, 0.5j),
                                                    (0.5, 1.5, 0.25)])
    outs = {}
    for name, argv in (("ell=3", ["snow-s5", "--params", "ell=3"]),
                       ("file", [str(path)]), ("ell=1", ["snow-s5"])):
        code, out, err = run(capsys, "scan", *argv, "--grid", "1:1:1")
        assert code == 0 and err == ""
        outs[name] = out.splitlines()[1:]  # the entry line names the source
    assert outs["ell=3"] == outs["file"] != outs["ell=1"]


@pytest.mark.parametrize("params", ["r=2", "ell=3,u=1/2,s=1"])
@pytest.mark.parametrize("source", ["entry", "file"])
def test_scan_refuses_metric_params(capsys, tmp_path, source, params):
    if source == "entry":
        source = "snow-s5"
    else:
        source = tmp_path / "snow.struct"
        source.write_text(catalog.to_structure_text("snow-s5"))
    code, out, err = run(capsys, "scan", str(source), "--params", params,
                         "--grid", "1:1:1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: scan takes r, s")


def test_grid_values():
    # the invariant-scan workload's grids: whole 64ths, K values per axis
    for K, most in {6: 24, 8: 20, 12: 12, 42: 5}.items():
        for a in range(6, 33):
            for c in range(2, most + 1):
                spec = f"{a / 64!r}:{(a + (K - 1) * c) / 64!r}:{c / 64!r}"
                assert cli._parse_grid(spec) == [(a + k * c) / 64
                                                 for k in range(K)]
    # the scan goldens' grid, and an accumulated sum that rounds past stop
    assert cli._parse_grid("0.375:1.625:0.625") == [0.375, 1.0, 1.625]
    assert cli._parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.1 + 0.1 + 0.1]
    assert cli._parse_grid("1e76:1e77:1e76")[-1] > 1e77
    assert len(cli._parse_grid("1:370:1")) == 370


def test_yamabe_zero(capsys):
    code, out, _ = run(capsys, "yamabe", "--generator", "zero", "--N", "16")
    assert code == 0
    assert "lambda" in out


def test_yamabe_constant_default(capsys):
    code, _, err = run(capsys, "yamabe", "--generator", "constant",
                       "--N", "16")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_yamabe_refuses_max_iter_below_one(capsys, tmp_path, max_iter):
    path = tmp_path / "p.txt"
    path.write_text(f"S = constant\nvalue = -1\nN = 8\nmax_iter = "
                    f"{max_iter}\n")
    code, out, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 2 and out == ""
    assert err == "error: max_iter must be at least 1\n"


def test_yamabe_large_amplitude_converges(capsys, tmp_path):
    # the hardest corner of the stress range, from a --seed start
    path = tmp_path / "p.txt"
    path.write_text("N = 64\nS = sine-offset\noffset = -10000\n"
                    "amplitude = 10000\n")
    code, out, err = run(capsys, "yamabe", "--problem", str(path),
                         "--seed", "0")
    assert code == 0 and err == ""
    assert float(fields(out)["law_constancy"]) <= 1e-7


def test_yamabe_non_finite_is_one_line(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("N = 16\nS = sine-offset\noffset = -1e290\n"
                    "amplitude = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no overflow warning either
        code, out, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 2 and out == ""
    assert err == "error: Krylov solve produced non-finite values\n"


def test_yamabe_without_convergence_fails_on_stdout(capsys):
    # tol 0 is below the rounding floor of the residual: the condition
    # fails after max_iter steps, reported like any other result
    code, out, err = run(capsys, "yamabe", "--generator", "sine-offset",
                         "--N", "16", "--tol", "0")
    assert code == 1 and err == ""
    got = fields(out)
    assert got["converged"] == "false" and got["iterations"] == "200"
    assert 0 < float(got["residual"]) < 1e-12


def test_yamabe_poisson_branch_of_huge_amplitude(capsys, tmp_path):
    # |mean S| <= 1e-12 max|S| takes the direct Poisson solve; f reaches
    # 1.3e148, so exp(-f) overflows, and the residual has no term in it
    path = tmp_path / "p.txt"
    path.write_text("N = 16\nS = sine-offset\noffset = -1\n"
                    "amplitude = 1e150\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 0 and err == ""
    got = fields(out)
    assert got["iterations"] == "0" and got["converged"] == "true"
    assert np.isfinite(float(got["residual"]))
    assert got["law_constancy"] == "inf"


@pytest.mark.parametrize("text", [
    "N = 16\nS = sine-offset\noffset = -1\namplitude = 1e150\n",
    "S = synthetic-v\n",
], ids=["huge-amplitude", "synthetic-v"])
def test_yamabe_prints_the_degree_it_branched_on(capsys, tmp_path, text):
    # a mean lost in the rounding of the samples takes the Poisson branch,
    # lambda 0, and is printed as the zero degree it was taken for
    path = tmp_path / "p.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "yamabe", "--problem", str(path))
    got = fields(out)
    assert code == 0 and got["degree"] == "0" and got["lambda"] == "0"


@pytest.mark.parametrize("offset, amplitude", [
    (-1, 0.3), (-0.7, 0.4), (-1e-3, 0.5), (-2.5, 1e4)])
def test_yamabe_sine_offset_degree_is_the_mean(capsys, tmp_path, offset,
                                               amplitude):
    path = tmp_path / "p.txt"
    path.write_text(f"N = 32\nS = sine-offset\noffset = {offset}\n"
                    f"amplitude = {amplitude}\n")
    code, out, _ = run(capsys, "yamabe", "--problem", str(path))
    mean = float(np.mean(yamabe.load_problem(path).S))
    assert code == 0 and fields(out)["degree"] == fmt_number(mean)


def test_yamabe_positive_file(capsys, tmp_path):
    path = tmp_path / "pos.txt"
    path.write_text("S = constant\nN = 16\nvalue = 1.0\n")
    code, _, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 2
    assert "open" in err.lower() or "conjecture" in err.lower()


# each bad problem file exits 2 with one line naming the file, the line
# and the key
@pytest.mark.parametrize("text, line, message", [
    ("N = 16\nbogus = 3\n", 2,
     "bogus: unknown key; a zero problem reads S, N, n, tol, max_iter"),
    ("S = sine-offset\nN = 16\nampltude = 0.3\n", 3,
     "ampltude: unknown key; a sine-offset problem reads S, N, n, tol, "
     "max_iter, offset, amplitude"),
    ("S = constant\nvalue = -2\noffset = -1\n", 3,
     "offset: unknown key; a constant problem reads S, N, n, tol, "
     "max_iter, value"),
    ("# a comment\nS = nosuch\n", 2,
     "S: unknown generator 'nosuch'; have constant, sine-offset, "
     "synthetic-v, zero"),
    ("N = 4.5\n", 1, "N: expected an integer, got '4.5'"),
    ("S = synthetic-v\nmax_iter = 2.0\n", 2,
     "max_iter: expected an integer, got '2.0'"),
    ("S = sine-offset\noffset = -1\namplitude = big\n", 3,
     "amplitude: expected a number, got 'big'"),
    ("tol = 1e-9x\n", 1, "tol: expected a number, got '1e-9x'"),
    ("N = 16\nS = constant\n# again\nN = 32\n", 4,
     "N: given twice, on lines 1 and 4"),
    ("S = sine-offset\namplitude = 0.3\namplitude=0.3\n", 3,
     "amplitude: given twice, on lines 2 and 3"),
], ids=["unknown-key", "misspelt", "other-generators-key",
        "unknown-generator", "float-N", "float-max-iter", "bad-amplitude",
        "bad-tol", "twice", "twice-same-value"])
def test_problem_file_refusals_name_file_line_and_key(capsys, tmp_path,
                                                      text, line, message):
    path = tmp_path / "p.txt"
    path.write_text(text)
    lines = refusal_lines(capsys, ["yamabe", "--problem", str(path)])
    assert lines == [f"error: {path}:{line}: {message}"]


# the key sets of the benchmark's problem files and of the stored golden
# problems: every key of the format and of each generator
@pytest.mark.parametrize("text", [
    "N = 64\nS = sine-offset\noffset = -1.2\namplitude = 0.4\n",
    "N = 64\nS = synthetic-v\namplitude = 0.3\n",
    "N = 64\nS = constant\nvalue = -2.5\n",
    "S = zero\nN = 8\nn = 3\ntol = 1e-10\nmax_iter = 5\n",
])
def test_problem_files_with_known_keys_solve(capsys, tmp_path, text):
    path = tmp_path / "p.txt"
    path.write_text(text)
    code, out, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 0 and err == "" and fields(out)["converged"] == "true"


def refusal_lines(capsys, argv):
    """The stderr lines of a call refused with exit code 2, returned by
    main or raised by its parser, after checking it printed no traceback
    and no output."""
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse refusal: usage, then the error
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "Traceback" not in err
    return err.splitlines()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [["einstein", "hopf"], ["bl", "hopf"],
                                  ["yamabe", "--N", "16"]],
                         ids=["einstein", "bl", "yamabe"])
def test_tol_must_be_finite_and_not_negative(capsys, argv, value):
    lines = refusal_lines(capsys, [*argv, "--tol", value])
    # argparse prints its usage first; the refusal itself is one line
    errors = [line for line in lines if "error:" in line]
    assert errors == [lines[-1]]
    assert errors[0].endswith(f"argument --tol: tolerance must be finite "
                              f"and >= 0, got {value!r}")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_problem_file_tol_must_be_finite_and_not_negative(capsys, tmp_path,
                                                          value):
    path = tmp_path / "p.txt"
    path.write_text(f"S = constant\nvalue = -1\nN = 8\ntol = {value}\n")
    lines = refusal_lines(capsys, ["yamabe", "--problem", str(path)])
    assert lines == [f"error: tol must be finite and >= 0, got "
                     f"{float(value)}"]


def test_tol_zero_is_a_tolerance(capsys):
    code, _, err = run(capsys, "yamabe", "--generator", "constant",
                       "--N", "8", "--tol", "0")
    assert code == 0 and err == ""
    assert cli.tolerance("0") == 0.0 and cli.tolerance("1e-6") == 1e-6


def test_yamabe_grid_above_the_cap_is_refused_unallocated(capsys, tmp_path):
    # one past the cap; a grid of that size would take hundreds of MB, so
    # a peak of under 1 MB shows the refusal came before any field
    N = yamabe.GRID_MAX_N + 1
    path = tmp_path / "p.txt"
    path.write_text(f"S = sine-offset\nN = {N}\n")
    want = [f"error: grid resolution {N} is above {yamabe.GRID_MAX_N}: a "
            f"solve would hold more than 2 GiB of fields"]
    for argv in (["yamabe", "--N", str(N)],
                 ["yamabe", "--N", str(N), "--generator", "constant"],
                 ["yamabe", "--problem", str(path)]):
        tracemalloc.start()
        try:
            lines = refusal_lines(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == want and peak < 2 ** 20


@pytest.mark.parametrize("argv", [
    ["curvature", "hopf", "--exact", "--params", "r=1/0"],
    ["einstein", "hopf", "--params", "r=0/0"],
    ["scan", "hopf", "--params", "ell=1/0"],
], ids=["curvature", "einstein", "scan"])
def test_zero_denominator_params_exit_two(capsys, argv):
    lines = refusal_lines(capsys, argv)
    # a bad --params value is refused by argparse, after its usage
    errors = [line for line in lines if "error:" in line]
    assert errors == [lines[-1]] and "argument --params" in errors[0]


@pytest.mark.parametrize("text, where", [
    ("dim 2\nd phi1 = 1/0 phi1^phi2\n", "line 2, column 10"),
    ("dim 2\nd phi1 = phi1^phi2\nmetric surface r=1/0\n",
     "line 3, column 1"),
], ids=["coefficient", "metric"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_zero_denominator_in_a_file_exits_two(capsys, tmp_path, text, where,
                                              exact):
    path = tmp_path / "zero.struct"
    path.write_text(text)
    argv = ["curvature", str(path)] + (["--exact"] if exact else [])
    assert refusal_lines(capsys, argv) == [
        f"error: {where}: zero denominator in '1/0'"]


@pytest.mark.parametrize("params, reason", [
    ("r=1/0", "zero denominator in '1/0'"),
    ("q=1", "unknown parameter 'q'"),
    ("r=abc", "malformed complex literal 'abc'"),
])
def test_params_refusal_names_its_reason(capsys, params, reason):
    lines = refusal_lines(capsys, ["curvature", "hopf", "--params", params])
    assert lines[-1].endswith(f"error: argument --params: {reason}")


def test_lee_gauduchon_bl(capsys):
    code, out, _ = run(capsys, "lee", "snow-s5")
    assert code == 0 and "lee_form" in out
    code, out, _ = run(capsys, "gauduchon", "inoue-sm")
    assert code == 0 and "degree" in out
    code, out, _ = run(capsys, "bl", "hopf")
    assert code == 0 and "inequality_holds" in out


# ---------------------------------------------------------------------------
# structure files as sources

def test_structure_file_source(capsys, tmp_path):
    code, text, _ = run(capsys, "catalog", "export", "ovando-r4")
    assert code == 0
    path = tmp_path / "ovando.struct"
    path.write_text(text)
    code, out, _ = run(capsys, "einstein", str(path), "--kind", "2")
    assert code == 0
    assert "-1" in out


# an entry and its export are one source: both go through catalog.build

SINGLE_METRIC = [["curvature"], ["curvature", "--exact"],
                 ["einstein", "--kind", "1"], ["einstein", "--kind", "2"],
                 ["einstein", "--kind", "3"], ["lee"], ["gauduchon"], ["bl"]]


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """{entry: path of its ``catalog export`` file}."""
    folder = tmp_path_factory.mktemp("exported")
    paths = {}
    for name in catalog.list_entries():
        paths[name] = folder / f"{name}.struct"
        paths[name].write_text(catalog.to_structure_text(name))
    return paths


def kv_body(capsys, *argv):
    """(exit code, the --format kv lines but the source's own), stderr
    left unread."""
    code = main([*argv, "--format", "kv"])
    out = capsys.readouterr().out.splitlines()
    return code, [line for line in out
                  if not line.startswith(("entry =", "param_ell =",
                                          "certificate_"))]


# snow-s5's export reads back as another metric (h/2), and hopf's fixup
# sets s = r when r is given alone, which a file's does not: every
# parameter set gives r and s together
@pytest.mark.parametrize("name", [n for n in catalog.list_entries()
                                  if n != "snow-s5"])
@pytest.mark.parametrize("params", [None, "r=2,s=1", "r=1,s=1,u=1/2",
                                    "r=2,s=1/2,u=1/4+1/3i",
                                    "r=1.5,s=0.5,u=0.25"])
def test_entry_and_its_export_print_the_same(capsys, exported, name,
                                             params):
    extra = ["--params", params] if params else []
    for form in SINGLE_METRIC:
        entry = kv_body(capsys, form[0], name, *form[1:], *extra)
        file = kv_body(capsys, form[0], str(exported[name]), *form[1:],
                       *extra)
        assert entry == file, form


# s is given beside r = 0 for hopf's sake, as above
@pytest.mark.parametrize("name", catalog.list_entries())
@pytest.mark.parametrize("params", ["r=1,s=1,u=2", "r=0,s=1"],
                         ids=["not-positive-definite", "degenerate"])
def test_entry_and_its_export_refuse_alike(capsys, exported, name, params):
    for form in SINGLE_METRIC:
        entry, file = (refusal_lines(capsys, [form[0], source, *form[1:],
                                              "--params", params])
                       for source in (name, str(exported[name])))
        assert entry == file and len(entry) == 1, form
        assert entry[0].startswith("error: metric"), form


@pytest.mark.parametrize("name", catalog.list_entries())
def test_scan_of_an_export_prints_the_entry_scan(capsys, exported, name):
    entry, file = (kv_body(capsys, "scan", source, "--grid", "0.5:1.5:0.5")
                   for source in (name, str(exported[name])))
    assert entry == file and entry[0] == 0


# lee, gauduchon and scan: test_refuses_non_jacobi_or_non_integrable_file
@pytest.mark.parametrize("command", ["curvature", "einstein", "bl"])
def test_jacobi_failing_file_one_error_line(capsys, tmp_path, command):
    path = tmp_path / "bad.struct"
    path.write_text("dim 2\nd phi1 = phi1^phi2\nd phi2 = phi1^bar1\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == ("error: structure equations fail the Jacobi check "
                   "(1.0)\n")


@pytest.mark.parametrize("argv", [
    ["curvature", "hopf", "--params", "r=1e400"],
    ["gauduchon", "inoue-sm", "--params", "r=1e300"],
    ["einstein", "inoue-sm", "--params", "r=1,s=1,u=1e200"],
], ids=["entry-infinite", "entry-overflows", "det-overflows"])
def test_non_finite_metric_is_degenerate(capsys, argv):
    # an entry, det h or the largest |h_ij|^n that is not finite is refused
    # as scan drops such rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: metric is numerically degenerate\n"


def test_non_integrable_file_fatal(capsys, tmp_path):
    path = tmp_path / "c.struct"
    path.write_text("dim 2\nd phi1 = bar1^bar2\n")
    code, _, err = run(capsys, "curvature", str(path))
    assert code == 2
    assert "error" in err


def test_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "syntax.struct"
    path.write_text("dim 2\nd phi1 = wibble\n")
    code, _, err = run(capsys, "curvature", str(path))
    assert code == 2
    assert "line 2" in err


# ---------------------------------------------------------------------------
# determinism and formats

def test_byte_identical_reports(capsys):
    _, first, _ = run(capsys, "curvature", "inoue-spm",
                      "--params", "r=2,s=1,u=1/2")
    _, second, _ = run(capsys, "curvature", "inoue-spm",
                       "--params", "r=2,s=1,u=1/2")
    assert first == second
    _, kv, _ = run(capsys, "curvature", "inoue-spm", "--format", "kv",
                   "--params", "r=2,s=1,u=1/2")
    assert " = " in kv and kv != first


def test_exact_mode_output(capsys):
    code, out, _ = run(capsys, "curvature", "hopf", "--exact",
                       "--params", "r=1/2")
    assert code == 0
    assert "16" in out  # S = 4/r^2 = 16 exactly


# ---------------------------------------------------------------------------
# one arithmetic per run: float by default, --exact refuses what is not
# rational

def fields(out):
    return dict(line.split(None, 1) for line in out.splitlines())


MIXED_TEXT = """dim 2
d phi1 = -1/2 phi1^bar1
d phi2 = -0.5 phi2^bar2
metric surface r=1 s=3/2 u=0.25
"""


def test_lee_flat_torus(capsys):
    code, out, _ = run(capsys, "lee", "flat-torus")
    assert code == 0
    assert fields(out)["lee_form"] == "0"


def test_mixed_literals_compute_in_float(capsys, tmp_path):
    path = tmp_path / "mixed.struct"
    path.write_text(MIXED_TEXT)
    code, out, err = run(capsys, "curvature", str(path))
    assert code == 0 and err == ""
    assert fields(out)["param_s"] == "1.5"
    code, _, err = run(capsys, "curvature", str(path), "--exact")
    assert code == 2
    assert err.startswith("error: exact arithmetic needs rational input")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("equations", [
    "d phi1 = 0.5 phi1^phi2\nd phi2 = 0\n",   # decimals only in phi^phi
    "d phi1 = 0.5i phi1^bar1\nd phi2 = 0\n",
])
def test_exact_refuses_decimal_structure_constants(capsys, tmp_path,
                                                   equations):
    path = tmp_path / "decimal.struct"
    path.write_text("dim 2\n" + equations)
    code, out, err = run(capsys, "curvature", str(path), "--exact")
    assert code == 2 and out == ""
    assert err.startswith("error: exact arithmetic needs rational input")


def test_exact_refuses_decimal_params(capsys):
    code, out, err = run(capsys, "einstein", "hopf", "--exact",
                         "--params", "r=0.5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", catalog.list_entries())
def test_catalog_verify_exact_with_params(capsys, name):
    # hopf's closed forms hold on its family s = r, u = 0 only and are
    # skipped away from it, in both arithmetics
    code, exact_out, _ = run(capsys, "catalog", "verify", name, "--exact",
                             "--params", "r=1,s=2,u=1/2")
    assert code == 0
    _, float_out, _ = run(capsys, "catalog", "verify", name,
                          "--params", "r=1,s=2,u=1/2")

    def verdicts(text):
        return [line for line in text.splitlines() if "reported" not in line]

    assert verdicts(exact_out) == verdicts(float_out)


HOPF_FILE = """dim 2
d phi1 = i phi1^phi2 + i phi1^bar2
d phi2 = -i phi1^bar1
"""


@pytest.mark.parametrize("source", ["hopf", "file"])
@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_non_real_parameter_refused(capsys, tmp_path, source, exact):
    if source == "file":
        source = tmp_path / "hopf.struct"
        source.write_text(HOPF_FILE)
    code, out, err = run(capsys, "curvature", str(source), *exact,
                         "--params", "r=1+1i")
    assert code == 2 and out == ""
    assert err == "error: parameter r must be real, got (1+1j)\n"


@pytest.mark.parametrize("command", ["lee", "gauduchon", "bl", "scan"])
def test_float_only_commands_take_no_exact_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "hopf", "--exact"])
    assert exc.value.code == 2
    assert "--exact" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curvature", "scan", "lee",
                                     "gauduchon"])
def test_only_condition_commands_take_tol(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "hopf", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_huge_rational_literal_in_float_mode(capsys):
    code, out, err = run(capsys, "curvature", "hopf",
                         "--params", "r=1" + "0" * 400)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# main builds its parser on its first call and reuses it

# one cheap call of each of the eight commands
EVERY_COMMAND = [
    ["curvature", "hopf", "--params", "r=3/2"],
    ["einstein", "ovando-r4", "--kind", "2"],
    ["scan", "hopf", "--grid", "1:2:1"],
    ["catalog", "list"],
    ["yamabe", "--generator", "constant", "--N", "8"],
    ["lee", "inoue-sm"],
    ["gauduchon", "inoue-sm"],
    ["bl", "ovando-r2r2"],
]


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    run(capsys, *EVERY_COMMAND[0])
    calls = count_calls(monkeypatch, argparse.ArgumentParser,
                        "add_argument")
    cli.build_parser()
    assert len(calls) >= 40  # the counter sees a parser being built
    calls.clear()
    for i in range(20):
        code, _, err = run(capsys, *EVERY_COMMAND[i % len(EVERY_COMMAND)])
        assert code in (0, 1) and err == ""
    assert calls == []


def fresh_process(argv):
    """(exit code, stdout, stderr) of ``cherncurv argv`` in a new Python
    process, 80 columns wide."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cherncurv.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_a_refused_call_leaves_the_next_as_in_a_fresh_process(capsys,
                                                              monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    refused, valid = ["scan", "hopf", "--kind", "4"], EVERY_COMMAND[2]
    with pytest.raises(SystemExit) as exc:
        main(refused)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (2, b"", captured.err.encode()) == fresh_process(refused)
    assert "--kind" in captured.err
    code, out, err = run(capsys, *valid)
    assert (code, out.encode(), err.encode()) == fresh_process(valid)


@pytest.mark.parametrize("command", [None, "curvature", "einstein", "scan",
                                     "catalog", "yamabe", "lee", "gauduchon",
                                     "bl"])
def test_help_is_that_of_a_new_parser_at_any_width(capsys, monkeypatch,
                                                   command):
    argv = [command, "--help"] if command else ["--help"]
    texts = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        outputs = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if command is None:
            assert outputs[0] == cli.build_parser().format_help()
        texts.append(outputs[0])
    assert texts[0] != texts[1]  # the width reaches the text


def test_params_default_is_read_only(capsys, monkeypatch):
    # main's parser, and so its --params default, is shared by every call
    want = run(capsys, "curvature", "hopf")
    seen = []

    def writing(name, params=None, exact=None):
        seen.append(params)
        params["r"] = 2  # a command that writes into its default

    monkeypatch.setattr(catalog, "build", writing)
    with pytest.raises(TypeError):
        main(["curvature", "hopf"])
    monkeypatch.undo()
    assert run(capsys, "curvature", "hopf") == want
    assert seen == [{}]


def readme_commands():
    """argv of every ``cherncurv`` line in the README's command-line
    block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("cherncurv ")]


def test_readme_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 12
    for argv in commands:
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        code, out, err = run(capsys, *argv)
        # the README documents exit 1 for this one: the condition fails
        expected = 1 if argv[:2] == ["einstein", "inoue-sm"] else 0
        assert code == expected, (argv, err)
        if target is not None:
            (tmp_path / target).write_text(out)


def test_tiny_metric_scale(capsys):
    code, out, _ = run(capsys, "curvature", "hopf", "--params", "r=1e-8")
    assert code == 0
    assert fields(out)["s_chern"] == "4e+16"
    # printed entries are judged against their own rounding bounds, not
    # against 1
    assert fields(out)["theta_1111"] == "5e-17"
    assert fields(out)["theta_1122"] == "5e-17"
    code, out, _ = run(capsys, "curvature", "hopf", "--exact",
                       "--params", "r=1/100000000")
    assert code == 0
    assert fields(out)["theta_1111"] == "1/20000000000000000"
    assert fields(out)["s_chern"] == "40000000000000000"


def test_bl_ovando_r2r2_kahler_einstein(capsys):
    # H^2 x H^2: ((n-1) c1^2 - 2n c2) ^ omega^{n-2} = -1/(2 pi^2) omega^n/n!
    code, out, _ = run(capsys, "bl", "ovando-r2r2",
                       "--params", "r=1,s=1,u=0")
    assert code == 0
    assert fields(out)["bogomolov_lubke"] == "-0.0506605918212"
    assert fields(out)["inequality_holds"] == "true"


@pytest.mark.parametrize("command", ["lee", "gauduchon", "scan"])
@pytest.mark.parametrize("text", [
    "dim 2\nd phi1 = phi1^phi2\nd phi2 = phi1^bar1\n",  # fails Jacobi
    "dim 2\nd phi1 = bar1^bar2\n",                       # not integrable
])
def test_refuses_non_jacobi_or_non_integrable_file(capsys, tmp_path,
                                                   command, text):
    path = tmp_path / "bad.struct"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# one solve per (coframe, metric): the gamma solve and the inversion of h
# run once per command and per catalog point, and the Jacobi check once per
# distinct coframe, counted from an empty verdict cache

@pytest.fixture
def solves(monkeypatch):
    inv._coframe_verdict.cache_clear()
    counts = {}
    for key, owner, name in (("jacobi", CoframeAlgebra, "check_jacobi"),
                             ("gamma", inv, "chern_connection"),
                             ("inverse", inv, "_upper")):
        def counted(*args, _key=key, _fn=getattr(owner, name)):
            counts[_key] += 1
            return _fn(*args)
        counts[key] = 0
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture(params=["entry", "file"])
def source(request, tmp_path):
    if request.param == "entry":
        return "kodaira-primary"
    path = tmp_path / "kodaira.struct"
    path.write_text(catalog.to_structure_text("kodaira-primary"))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["curvature"], ["curvature", "--exact"], ["einstein"], ["lee"],
    ["gauduchon"], ["bl"], ["scan", "--grid", "1:2:1"]],
    ids=["curvature", "curvature-exact", "einstein", "lee", "gauduchon", "bl",
         "scan"])
def test_one_solve_per_command(capsys, solves, source, argv):
    code, _, _ = run(capsys, argv[0], source, *argv[1:])
    assert code in (0, 1)
    # the scan's kind-2 kernel forms gamma from B's nonzeros, not by
    # chern_connection
    gamma = 0 if argv[0] == "scan" else 1
    assert solves == {"jacobi": 1, "gamma": gamma, "inverse": 1}
    run(capsys, argv[0], source, *argv[1:])
    assert solves == {"jacobi": 1, "gamma": 2 * gamma, "inverse": 2}


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["float", "exact"])
def test_one_solve_per_verify_point(capsys, solves, flags):
    code, _, _ = run(capsys, "catalog", "verify", *flags)
    assert code == 0
    points = [(name, p.get("ell")) for name in catalog.list_entries()
              for p in catalog.get(name).points or [{}]]
    # snow-s5's ell is the only parameter that changes a coframe
    assert solves == {"jacobi": len(set(points)), "gamma": len(points),
                      "inverse": len(points)}


# Fraction constructions of an exact run: QQi computes on int numerators
# over one denominator, so Fractions are made only where a value is read
# or a closed form is evaluated (73,559 and 1,200 on Fraction-pair parts)

@pytest.mark.parametrize("argv, most", [
    (("catalog", "verify", "--exact"), 10_000),
    (("curvature", "hopf", "--exact", "--params", "r=1/2"), 300)])
def test_exact_run_makes_few_fractions(capsys, monkeypatch, argv, most):
    calls = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    code, _, err = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0 and err == ""
    assert calls <= most


def test_zero_scalar_curvature_is_real_up_to_rounding(capsys):
    code, out, err = run(
        capsys, "curvature", "kodaira-secondary", "--params",
        "r=0.5,s=3.0,u=0.6061470133953551-0.33875424153513073i")
    assert code == 0 and err == ""
    assert "s_chern" in out


# ---------------------------------------------------------------------------
# zero tests against rounding bounds at an anisotropic metric, h11 / h22 ~
# 2e5, where the exact run at the same rational point is the reference

ANISOTROPIC = ("r=1e3,s=2.2,u=0.1i", "r=1000,s=11/5,u=1/10i")


def test_verify_inoue_spm_anisotropic(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "inoue-spm",
                       "--params", ANISOTROPIC[0])
    assert code == 0
    assert fields(out)["inoue-spm.0.Ric1"] == "pass"


def test_curvature_hopf_anisotropic_keeps_small_entries(capsys):
    # the Theta entries of 5e-9 to 2.4e-7 lie far above their rounding
    # bounds, so every entry the exact run prints is printed
    _, out, _ = run(capsys, "curvature", "hopf", "--params", ANISOTROPIC[0])
    got = {k: complex(v.replace("i", "j")) for k, v in fields(out).items()
           if k.startswith("theta_")}
    _, out, _ = run(capsys, "curvature", "hopf", "--exact", "--params",
                    ANISOTROPIC[1])
    want = {k: complex(parse_complex(v)) for k, v in fields(out).items()
            if k.startswith("theta_")}
    assert len(want) == 16 and got.keys() == want.keys()
    scale = max(abs(v) for v in want.values())
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-9 * scale, key


def _zero_parts(text):
    """{term: (real part is 0, imaginary part is 0)} of a printed number or
    form, a number being the one term ''."""
    terms = [t.split(") ") if t.startswith("(") else ("(" + t, "")
             for t in text.split(" + ")]
    return {mono: tuple(x == 0 for x in (z.real, z.imag))
            for z, mono in ((complex(parse_complex(c[1:])), mono)
                            for c, mono in terms)}


def test_curvature_prints_no_rounding_noise_parts(capsys):
    # each real and imaginary part of a float Theta entry and Ricci
    # coefficient is judged against the entry's rounding bound, so the
    # float run prints 0 exactly where the exact run does
    params = ("r=5/2,s=9/4,u=9/16+63/16i",)
    prints = []
    for flags in ((), ("--exact",)):
        code, out, _ = run(capsys, "curvature", "inoue-sm", *flags,
                           "--params", *params)
        assert code == 0
        prints.append({k: _zero_parts(v) for k, v in fields(out).items()
                       if k.startswith(("theta_", "ric1", "ric2"))})
    got, want = prints
    assert got == want
    assert sum(k.startswith("theta_") for k in want) == 4


@pytest.mark.parametrize("entry", catalog.list_entries())
def test_lee_prints_no_rounding_noise_parts(capsys, entry):
    # lee runs in floats only; each part of tau is judged against tau's
    # rounding bound, so theta prints 0 exactly where the exact tau has 0
    params = "r=5/2,s=9/4,u=9/16+63/16i" + (",ell=1" if entry == "snow-s5"
                                              else "")
    code, out, _ = run(capsys, "lee", entry, "--params", params)
    assert code == 0
    alg, h, _ = catalog.build(entry, parse_params(params), exact=True)
    tau = inv.chern_curvature(alg, h).tau[0]
    want = {f"{name}{j + 1}": (t.real == 0, t.imag == 0)
            for j, t in enumerate(tau) for name in ("phi", "bar")
            if t}
    got = fields(out)["lee_form"]
    assert (_zero_parts(got) if got != "0" else {}) == want
    if entry == "ovando-r4":
        assert got == "(-1i) phi1 + (1i) bar1"


def test_curvature_kodaira_primary_anisotropic_zero_traces(capsys):
    code, out, _ = run(capsys, "curvature", "kodaira-primary", "--params",
                       ANISOTROPIC[0])
    assert code == 0
    assert fields(out)["s_chern"] == "0"
    assert fields(out)["ric1"] == "0"


@pytest.mark.parametrize("kind, einstein", [("1", 0), ("2", 1)])
def test_einstein_kodaira_primary_anisotropic_zero_lambda(capsys, kind,
                                                          einstein):
    # S is 0 within its rounding bound (curvature prints s_chern 0), so the
    # strong lambda* = S / n is 0 too, as the exact run gives
    for params in ANISOTROPIC:
        code, out, _ = run(capsys, "einstein", "kodaira-primary", "--params",
                           params, "--kind", kind)
        assert code == einstein
        assert fields(out)["lambda"] == "0"


# ---------------------------------------------------------------------------
# the Einstein residual in the arithmetic of the solve: exact input gives
# exactly 0 for an Einstein metric, as catalog verify --exact finds

@pytest.mark.parametrize("params, mode", [
    ("r=1/3,s=7/5,u=1/7-2/9i", "strong"),
    ("r=1/3,s=7/5,u=1/7-2/9i", "weak"),
    ("r=3,s=2,u=1+1/2i", "weak")])
def test_exact_einstein_residual_is_zero(capsys, params, mode):
    code, out, err = run(capsys, "einstein", "ovando-r4", "--exact",
                         "--params", params, "--kind", "2", "--mode", mode)
    assert code == 0 and err == ""
    assert fields(out)["residual"] == "0"
    code, out, _ = run(capsys, "catalog", "verify", "ovando-r4", "--exact",
                       "--params", params)
    assert fields(out)["ovando-r4.0.einstein2_residual"] == "pass"


def count_calls(monkeypatch, owner, name):
    """A list that records each call of owner.name while patched."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# float magnitudes of exact values: only the residual's n^2 entries of an
# Einstein row, and the two of a Theta_abs row, which is a magnitude
@pytest.mark.parametrize("argv, most", [
    (("catalog", "verify", "--exact"), 16 * 4 + 20),
    (("einstein", "ovando-r4", "--exact", "--params",
      "r=1/3,s=7/5,u=1/7-2/9i"), 4),
    (("einstein", "hopf", "--exact", "--mode", "weak", "--kind", "3"), 4)])
def test_exact_run_takes_few_magnitudes(capsys, monkeypatch, argv, most):
    calls = count_calls(monkeypatch, QQi, "__abs__")
    code, _, err = run(capsys, *argv)
    monkeypatch.undo()
    assert code in (0, 1) and err == ""
    assert len(calls) <= most


# einsum calls per command: the rounding bounds reuse the solve's specs
# and add none, and the solved tensor evaluates each contraction once (S
# once per verify point, not once per row that reads it); curvature
# contracts the connection for Ric1, S and S3 beside Theta for its rows
@pytest.mark.parametrize("argv, most", [
    ("curvature hopf --params r=1.5", 32),
    ("curvature hopf --exact --params r=1/2", 14),
    ("einstein ovando-r4 --params r=2,s=1.5,u=0.25", 18),
    ("einstein ovando-r4 --params r=2,s=1.5,u=0.25 --mode weak", 9),
    ("lee inoue-sm --params r=1.2,s=0.9,u=0.1", 7),
    ("gauduchon inoue-sm --params r=1.2,s=0.9,u=0.1", 27),
    ("bl ovando-r2r2 --params r=1,s=1,u=0", 33),
    ("catalog verify ovando-r4 --params r=2,s=3/2,u=1/4", 24),
    ("catalog verify ovando-r4 --params r=2,s=3/2,u=1/4 --exact", 9),
    ("scan inoue-sm --grid 0.5:1.5:0.5", 8),
    ("scan inoue-sm --grid 0.5:1.5:0.5 --kind 1", 2),
    ("scan inoue-sm --grid 0.5:1.5:0.5 --kind 3", 6),
    ("scan inoue-sm --grid 0.5:1.5:0.5 --mode weak", 9)])
def test_einsum_budget(capsys, monkeypatch, argv, most):
    calls = count_calls(monkeypatch, np, "einsum")
    code, _, err = run(capsys, *argv.split())
    monkeypatch.undo()
    assert code == 0 and err == ""
    assert len(calls) <= most


# a solved metric takes Ric1, Ric3, S and S3 from the connection: only Ric2,
# the Theta rows and the Bogomolov-Lubke pairing form R and Theta
@pytest.mark.parametrize("argv", [
    "einstein ovando-r4 --params r=2,s=1.5,u=0.25 --kind 1",
    "einstein ovando-r4 --params r=2,s=1.5,u=0.25 --kind 3 --mode weak",
    "einstein ovando-r4 --params r=2,s=3/2,u=1/4 --kind 3 --exact",
    "gauduchon inoue-sm --params r=1.2,s=0.9,u=0.1"])
def test_traces_of_kinds_1_and_3_form_no_theta(capsys, monkeypatch, argv):
    calls = count_calls(monkeypatch, inv, "_curvature")
    code, _, err = run(capsys, *argv.split())
    monkeypatch.undo()
    assert code in (0, 1) and err == "" and calls == []


# a second read of a solved tensor's contraction computes nothing

@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_second_read_of_a_contraction_makes_no_einsum(monkeypatch, exact):
    p = {"r": 2, "s": Fraction(3, 2), "u": QQi(Fraction(1, 4), 1)}
    alg, h, _ = catalog.build("inoue-sm", p, exact=exact)
    curv = inv.chern_curvature(alg, h)

    def read():
        return ([inv.ricci(kind, curv, h) for kind in (1, 2, 3)]
                + [curv.ric_bound(kind) for kind in (1, 2, 3)]
                + [inv.scalar_chern(curv, h), inv.scalar_third(curv, h),
                   curv.s_chern, curv.s_third, curv.bound,
                   inv.is_gauduchon(curv, h)]
                + [inv.einstein_residual(kind, alg, h, mode, curv)
                   for kind in (1, 2, 3) for mode in ("strong", "weak")]
                + [curv.einstein_bound(kind) for kind in (1, 2, 3)])

    first = read()
    calls = count_calls(monkeypatch, np, "einsum")
    assert repr(read()) == repr(first)
    assert calls == []


def test_gauduchon_coefficient_is_evaluated_once(monkeypatch):
    # is_gauduchon then gauduchon_degree, as the gauduchon command does
    alg, h, _ = catalog.build("inoue-sm", {"r": 1.2, "s": 0.9, "u": 0.1},
                              exact=False)
    curv = inv.chern_curvature(alg, h)
    calls = count_calls(monkeypatch, inv, "torsion")
    assert inv.is_gauduchon(curv, h) == (True, 0.0)
    assert inv.gauduchon_degree(curv, h) < 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# hostile parameters: every command keeps the exit-code contract

_HOSTILE_TOKENS = ["nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
                   "1e153", "1e155", "1e300", "1/0", "0", "-1", "1e-160", "2"]
_HOSTILE_FORMS = [["curvature"], ["curvature", "--exact"],
                  ["einstein", "--kind", "2"],
                  ["einstein", "--kind", "1", "--mode", "weak"], ["lee"],
                  ["gauduchon"], ["bl"]]


def _hostile_argvs(entry):
    for key in ("r", "s", "u", "ell"):
        for token in _HOSTILE_TOKENS:
            params = ["--params", f"{key}={token}"]
            for cmd, *flags in _HOSTILE_FORMS:
                yield [cmd, entry, *flags, *params]
            if key == "ell":  # scan takes r, s and u from its grid
                yield ["scan", entry, *params]
            yield ["catalog", "verify", entry, *params]


def _contract_break(argv):
    """Why one in-process run breaks the exit-code contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    # python shows a warning once per source location under the default
    # filters; here every warning of every run is recorded
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse refusal: usage, then error
            code = exc.code
    lines = err.getvalue().splitlines()
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    warned = [str(w.message) for w in caught]
    if warned or any("Traceback" in line for line in lines):
        return f"exit {code} with {lines}, warned {warned}"
    if code == 2 and [line for line in lines if "error:" in line] \
            != lines[-1:]:
        return f"exit 2 with {lines}"
    if code != 2 and lines:
        return f"exit {code} with {lines}"
    return None


@pytest.mark.parametrize("entry", ["snow-s5", "inoue-sm", "hopf",
                                   "kodaira-secondary"])
def test_hostile_params_keep_the_exit_code_contract(entry):
    broken = {" ".join(argv): why for argv in _hostile_argvs(entry)
              if (why := _contract_break(argv))}
    assert broken == {}


@pytest.mark.parametrize("argv, message", [
    (["scan", "inoue-spm", "--grid", "1e40:1e41:1e40"],
     "error: overflow encountered in multiply"),
    (["scan", "inoue-sm", "--grid", "1e40:1e41:1e40"],
     "error: overflow encountered in multiply")])
def test_float_overflow_is_one_line(capsys, argv, message):
    # both certificates overflow in floats past the metric's checks, and
    # would reach -inf and read as a pass
    assert run(capsys, *argv) == (2, "", message + "\n")


@pytest.mark.parametrize("argv", [
    ["curvature", "hopf", "--params", "s=1e153"],
    ["einstein", "snow-s5", "--kind", "1", "--mode", "weak", "--params",
     "ell=1e400"]], ids=["ric2-overflows", "infinite-structure"])
def test_a_result_that_is_not_finite_is_refused(capsys, argv):
    # the rule admits s = 1e153, but Ric2's einsum overflows, and raises
    # no floating-point error; ell = 1e400 is infinite
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: value out of range: ")


def test_scan_drops_rows_whose_residual_overflows(capsys):
    # ell = 1e153 makes some rows' Ric2 overflow: the rule admits their
    # metrics, and the scan drops them for their residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "scan", "snow-s5", "--params",
                             "ell=1e153")
    assert code == 0 and err == ""
    assert 0 < int(fields(out)["points"]) < 144 * 73


# fuzz: structure files of rational and decimal literals never escape the
# exit-code contract

_LITERALS = st.sampled_from(["1", "-1", "2", "1/2", "-3/4", "i", "-i",
                             "1/3i", "1+1/2i", "-2/5-i", "0.5", "-0.25",
                             "1.5i", "0.5-0.5i", "2e-3", "1/2+0.5i", "0",
                             "1/0", "0/0i", "1/2-3/0i", "0.5+1/0i"])
_MONOMIALS = st.sampled_from(["phi1^phi2", "phi2^phi1", "phi1^bar1",
                              "phi1^bar2", "phi2^bar1", "phi2^bar2",
                              "bar1^bar2", "phi1^phi1"])
_EQUATION = st.lists(st.tuples(_LITERALS, _MONOMIALS), max_size=3).map(
    lambda terms: " + ".join(f"{c} {m}" for c, m in terms) or "0")
_METRIC = st.one_of(st.just(""), st.tuples(
    st.sampled_from(["1", "3/2", "0.75", "2"]),
    st.sampled_from(["1", "1/2", "1.25"]),
    st.sampled_from(["0", "1/4", "0.1i", "1/3-1/5i", "5"])).map(
        lambda rsu: "metric surface r={} s={} u={}\n".format(*rsu)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_EQUATION, _EQUATION, _METRIC, st.booleans())
def test_structure_file_fuzz(tmp_path_factory, eq1, eq2, metric, exact):
    path = tmp_path_factory.mktemp("fuzz") / "f.struct"
    path.write_text(f"dim 2\nd phi1 = {eq1}\nd phi2 = {eq2}\n{metric}")
    argv = ["curvature", str(path)] + (["--exact"] if exact else [])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
