import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cherncurv import catalog, invariant as inv
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
    from fractions import Fraction
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


def test_yamabe_positive_file(capsys, tmp_path):
    path = tmp_path / "pos.txt"
    path.write_text("S = constant\nN = 16\nvalue = 1.0\n")
    code, _, err = run(capsys, "yamabe", "--problem", str(path))
    assert code == 2
    assert "open" in err.lower() or "conjecture" in err.lower()


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


# lee, gauduchon and scan: test_refuses_non_jacobi_or_non_integrable_file
@pytest.mark.parametrize("command", ["curvature", "einstein", "bl"])
def test_jacobi_failing_file_one_error_line(capsys, tmp_path, command):
    path = tmp_path / "bad.struct"
    path.write_text("dim 2\nd phi1 = phi1^phi2\nd phi2 = phi1^bar1\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == ("error: structure equations fail the Jacobi check "
                   "(1.0)\n")


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
    # hopf's closed forms hold on its family s = r, u = 0 only, so away
    # from it both arithmetics agree that its rows fail
    code, exact_out, _ = run(capsys, "catalog", "verify", name, "--exact",
                             "--params", "r=1,s=2,u=1/2")
    assert code == (1 if name == "hopf" else 0)
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
# one solve per (coframe, metric): the Jacobi check, the gamma solve and the
# inversion of h each run once per command and per catalog point

@pytest.fixture
def solves(monkeypatch):
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
    assert solves == {"jacobi": 1, "gamma": 1, "inverse": 1}


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["float", "exact"])
def test_one_solve_per_verify_point(capsys, solves, flags):
    code, _, _ = run(capsys, "catalog", "verify", *flags)
    assert code == 0
    points = sum(len(catalog.get(name).points or [None])
                 for name in catalog.list_entries())
    assert solves == {"jacobi": points, "gamma": points, "inverse": points}


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
# fuzz: structure files of rational and decimal literals never escape the
# exit-code contract

_LITERALS = st.sampled_from(["1", "-1", "2", "1/2", "-3/4", "i", "-i",
                             "1/3i", "1+1/2i", "-2/5-i", "0.5", "-0.25",
                             "1.5i", "0.5-0.5i", "2e-3", "1/2+0.5i", "0"])
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
