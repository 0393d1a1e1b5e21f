"""Tests of the benchmark's own code (not part of the package suite):

    python3 -m pytest benchmarks -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from setup_probe import WORKLOADS as NAMES  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

import cherncurv  # noqa: E402
from cherncurv import chart, cli  # noqa: E402


def make(name, seed, path):
    return WORKLOADS[name](seed, str(path))


def test_every_workload_is_runnable():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name, tmp_path):
    a = make(name, 11, tmp_path).make_pass(0)
    b = make(name, 11, tmp_path).make_pass(0)
    assert a.ops == b.ops and a.files == b.files
    assert make(name, 12, tmp_path).make_pass(0).ops != a.ops
    assert make(name, 11, tmp_path).make_pass(1).ops != a.ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_has_the_same_mix(name, tmp_path):
    w = make(name, 3, tmp_path)
    mixes = [sorted(op.kind for op in w.make_pass(i).ops) for i in range(3)]
    assert mixes[0] == mixes[1] == mixes[2]


def test_invariant_single_covers_every_command_and_entry(tmp_path):
    w = make("invariant-single", 1, tmp_path)
    batch = w.make_pass(0)
    pairs = {(op.kind, op.oracle[0]) for op in batch.ops}
    aside = {(op.kind, op.oracle[0]) for op in batch.aside}
    entries = cherncurv.catalog.list_entries()
    kinds = {op.kind for op in batch.ops}
    assert not pairs & aside
    assert pairs | aside == {(k, e) for k in kinds for e in entries}
    # the known defects run aside: lee on flat-torus, and the float
    # commands that check for a real scalar on the entries whose S is 0
    assert aside == {("lee", "flat-torus")} | {
        (k, e) for k in ("curvature", "einstein", "gauduchon")
        for e in w.ZERO_S}
    assert len(batch.aside) == len(aside)


def first(ops, kind, pred=lambda op: True):
    return next(op for op in ops if op.kind == kind and pred(op))


def perturb(result, key, new):
    lines = []
    for line in result.out.splitlines():
        if line.split(None, 1)[0] == key:
            line = f"{key}  {new}"
        lines.append(line)
    return CliResult(result.rc, "\n".join(lines) + "\n", result.err)


def answer_then_perturbed(w, op, key, change):
    result = w.execute(op)
    assert w.refused(op, result) is None
    assert w.check(op, result) is None
    bad = perturb(result, key, change(result.fields()[key]))
    return w.check(op, bad)


def test_checker_flags_perturbed_invariant_output(tmp_path):
    w = make("invariant-single", 4, tmp_path)
    batch = w.make_pass(0)
    run.write_files(w, batch)
    op = first(batch.ops, "curvature-exact",
               lambda op: op.oracle[0] == "inoue-sm")
    assert answer_then_perturbed(w, op, "s_chern",
                                 lambda v: v + "1") is not None
    op = first(batch.ops, "curvature", lambda op: op.oracle[0] == "hopf")
    assert answer_then_perturbed(
        w, op, "s_chern", lambda v: repr(float(v) * (1 + 1e-6))) is not None
    op = first(batch.ops, "verify")
    result = w.execute(op)
    key = next(k for k, v in result.fields().items() if v == "pass")
    assert w.check(op, perturb(result, key, "FAIL")) is not None


def test_checker_flags_perturbed_scan_output(tmp_path):
    w = make("invariant-scan", 4, tmp_path)
    op = first(w.make_pass(0).ops, "K6")
    assert answer_then_perturbed(
        w, op, "min_residual_abs",
        lambda v: repr(float(v) * (1 + 1e-6) + 1e-9)) is not None
    assert answer_then_perturbed(w, op, "points",
                                 lambda v: str(int(v) - 1)) is not None


def test_checker_flags_perturbed_yamabe_output(tmp_path):
    w = make("yamabe-solve", 4, tmp_path)
    batch = w.make_pass(0)
    run.write_files(w, batch)
    op = first(batch.ops, "direct", lambda op: op.oracle[0] == "synthetic-v")
    assert answer_then_perturbed(
        w, op, "f_max", lambda v: repr(float(v) + 1e-6)) is not None
    op = first(batch.ops, "newton", lambda op: op.oracle[1] == 64)
    assert answer_then_perturbed(w, op, "law_constancy",
                                 lambda v: "1e-6") is not None


def test_checker_flags_perturbed_chart_output(tmp_path):
    w = make("chart-points", 4, tmp_path)
    ops = w.make_pass(0).ops
    op = first(ops, "point", lambda op: op.oracle[0])
    x, theta, ric2, conformal = w.execute(op)
    assert w.check(op, (x, theta, ric2, conformal)) is None
    assert w.check(op, (x, theta * (1 + 1e-4), ric2, conformal)) is not None
    worse = dict(conformal, ric1=1e-6)
    assert w.check(op, (x, theta, ric2, worse)) is not None
    op = first(ops, "first-ce")
    rep = w.execute(op)
    assert w.check(op, rep) is None
    rep.factors = [-f for f in rep.factors]
    assert w.check(op, rep) is not None


def test_check_records_counts_raised_refused_and_wrong(tmp_path):
    w = make("invariant-single", 4, tmp_path)
    batch = w.make_pass(0)
    run.write_files(w, batch)
    lee = first(batch.aside, "lee", lambda op: op.oracle[0] == "flat-torus")
    curv = first(batch.ops, "curvature-exact")
    flat = first(batch.aside, "curvature",
                 lambda op: op.oracle[0] == "kodaira-primary")
    good = run.execute(w, curv, 0)
    bad = run.Record(curv, good.seconds,
                     perturb(good.result, "s_chern", "12345"), None)
    refused = run.Record(curv, 0.0, CliResult(2, "", "error: x\n"), None)
    # exit 1 on a command whose condition must hold is a wrong answer
    fails = run.Record(curv, 0.0, CliResult(1, good.result.out, ""), None)
    real = run.Record(flat, 0.0, CliResult(
        2, "", "error: expected a real scalar, got 1e-13j\n"), None)
    raised = run.Record(curv, 0.0, None, "ZeroDivisionError: x")
    records = [run.execute(w, lee, 1), good, bad, refused, fails, real,
               raised]
    run.check_records(w, records)
    # the two known defects fail, but are not wrong answers
    assert records[0].failure and not records[0].wrong
    assert records[5].failure.startswith("exit 2") and not records[5].wrong
    assert records[1].failure is None
    # any other raised or refused op is
    assert records[3].failure.startswith("exit 2") and records[3].wrong
    assert records[6].failure and records[6].wrong
    assert records[2].failure and records[2].wrong
    assert records[4].failure and records[4].wrong


def test_traced_and_untraced_runs_execute_the_same_ops(tmp_path):
    w = make("chart-points", 9, tmp_path)
    untraced, probes, aside = run.run_passes(w, 0.0)
    assert len(probes) >= 2 and aside == []
    assert all(r.scaled > 0 for r in untraced)
    tr = tracing.Tracer()
    base, traced = run.run_traced_pass(w, tr)
    assert [r.op for r in traced] == [r.op for r in untraced]
    assert [r.op for r in base] == [r.op for r in untraced]
    # every wrapper is gone again
    assert not hasattr(chart.curvature_at, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    assert not any(hasattr(f.fn, "__wrapped__") for f in w.fields.values())
    values = tr.per_layer_metrics(len(traced), 0.0)
    assert values["chart.sample_points.calls"] == 1.0
    assert values["chart.field_evals"] > 0
    assert {name for name, _ in tracing.per_layer_metric_specs()} == \
        set(values)


def test_tracer_self_time_subtracts_children():
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    traced_inner = tr.span_wrapper("inner", lambda: work(2.0))
    traced_leaf = tr.leaf_wrapper("leaf", lambda: work(1.0))

    def outer():
        work(0.5)
        traced_inner()
        traced_leaf()
        traced_leaf()
        work(0.25)

    traced_outer = tr.span_wrapper("outer", outer)
    tr.begin_op(0)
    work(0.125)
    traced_outer()
    tr.end_op()
    totals = tr.layer_totals()
    assert totals["op"] == [1, 0.125]
    assert totals["outer"] == [1, 0.75]
    assert totals["inner"] == [1, 2.0]
    assert totals["leaf"] == [2, 2.0]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"),
                tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "chart-points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_result_line_is_the_last_line(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload",
         "chart-points", "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=os.path.dirname(here), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
