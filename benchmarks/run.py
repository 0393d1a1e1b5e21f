"""cherncurv benchmark: one seeded, closed-loop workload per process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process measures its own set-up
(import plus first call, median of nine fresh-process samples), then runs
whole passes of the workload's ops (one client, no threads) until the
measured op time reaches ``--seconds``, checks every op against its oracle
and prints, last, one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, with times in
reference seconds (see ``speed.py``).  ``--trace 1`` runs pass 0 twice,
op by op, untraced and traced, and reports the per-layer metrics and the
tracing overhead.  Set-up samples run in child
processes that are waited for; inputs live in a temporary directory under
``.bench_work/`` that is removed at exit, and the traced run leaves its
spans in ``.bench_work/spans-<workload>-seed<N>.jsonl``.
"""

import os
import sys
import time

import setup_probe

ROOT = setup_probe.ROOT
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9
USAGE = ("usage: run.py --workload NAME --seed N --seconds S "
         "[--trace 0|1]")


def parse_args(argv):
    """--workload, --seed, --seconds and --trace; raises ValueError."""
    opts = {"--trace": "0"}
    if len(argv) % 2:
        raise ValueError("options come in --name value pairs")
    for key, value in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            raise ValueError(f"unknown option {key}")
        opts[key] = value
    missing = {"--workload", "--seed", "--seconds"} - opts.keys()
    if missing:
        raise ValueError(f"missing {', '.join(sorted(missing))}")
    if opts["--trace"] not in ("0", "1"):
        raise ValueError("--trace takes 0 or 1")
    return (opts["--workload"], int(opts["--seed"]),
            float(opts["--seconds"]), opts["--trace"] == "1")


class Record:
    __slots__ = ("op", "seconds", "scaled", "result", "error", "failure",
                 "wrong")

    def __init__(self, op, seconds, result, error):
        self.op, self.seconds = op, seconds
        self.scaled = seconds  # in reference seconds, once probes are in
        self.result, self.error = result, error
        self.failure, self.wrong = None, False


def execute(workload, op, op_id, tracer=None):
    """Run one op, timed; a raising op is recorded, not propagated."""
    if tracer is not None:
        tracer.begin_op(op_id)
    error, result = None, None
    t0 = time.perf_counter()
    try:
        result = workload.execute(op)
    except Exception as exc:  # the op failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return Record(op, seconds, result, error)


def write_files(workload, batch):
    for fname, text in batch.files.items():
        with open(os.path.join(workload.workdir, fname), "w") as fh:
            fh.write(text)


def run_passes(workload, seconds):
    """Whole passes until the measured op time reaches ``seconds``.

    Input files are written between passes and the speed probe runs
    between ops, both outside the measured time.  Each record's ``scaled``
    time uses the mean of the probes just before and just after its op.
    The passes' ``aside`` ops run after the timed phase.
    Returns (records, probe seconds, aside records)."""
    import speed
    kind = workload.probe_kind
    records, probes, before, aside = [], [speed.probe(kind)], [], []
    measured, since, index = 0.0, 0.0, 0
    while measured < seconds or index == 0:
        batch = workload.make_pass(index)
        write_files(workload, batch)
        aside.extend(batch.aside)
        for op in batch.ops:
            records.append(execute(workload, op, len(records)))
            before.append(len(probes) - 1)
            measured += records[-1].seconds
            since += records[-1].seconds
            if since >= speed.PROBE_EVERY:
                probes.append(speed.probe(kind))
                since = 0.0
        index += 1
    probes.append(speed.probe(kind))
    for rec, i in zip(records, before):
        rec.scaled = speed.scale(rec.seconds, (probes[i] + probes[i + 1]) / 2,
                                 kind)
    aside = [execute(workload, op, len(records) + i)
             for i, op in enumerate(aside)]
    return records, probes, aside


def run_traced_pass(workload, tr):
    """Pass 0 twice, op by op: untraced and traced, alternating which
    goes first so that neither side is always the warm one.  Returns the
    untraced and the traced records."""
    import cherncurv
    batch = workload.make_pass(0)
    write_files(workload, batch)
    certs, fields = workload.trace_owners()
    base, traced = [], []
    for op_id, op in enumerate(batch.ops):
        for with_trace in ((False, True) if op_id % 2 else (True, False)):
            if not with_trace:
                base.append(execute(workload, op, op_id))
                continue
            tr.install(cherncurv, certs, fields)
            try:
                traced.append(execute(workload, op, op_id, tr))
            finally:
                tr.restore()
    return base, traced


def check_records(workload, records):
    """Fill ``failure`` (raised, refused or disagreed with the oracle) and
    ``wrong`` (an answer that disagrees with the oracle, or a raised or
    refused op that is not one of the program's known defects)."""
    for rec in records:
        if rec.error is not None:
            rec.failure = rec.error
            rec.wrong = not workload.known_defect(rec.op, rec.failure)
            continue
        try:
            rec.failure = workload.refused(rec.op, rec.result)
            if rec.failure is not None:
                rec.wrong = not workload.known_defect(rec.op, rec.failure)
                continue
            rec.failure = workload.check(rec.op, rec.result)
            rec.wrong = rec.failure is not None
        except Exception as exc:  # a malformed answer is a wrong answer
            rec.failure = f"unreadable output: {type(exc).__name__}: {exc}"
            rec.wrong = True


def failure_lines(workload, records):
    """One ``failed xN: <op>: <why>`` line per distinct failure."""
    reasons = {}
    for r in records:
        if r.failure:
            key = f"{workload.label(r.op)}: {r.failure}"
            reasons[key] = reasons.get(key, 0) + 1
    return [f"failed x{count}: {why}"
            for why, count in sorted(reasons.items())]


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_commit():
    """HEAD of the checkout's repository, read from .git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import platform
    import numpy
    from workloads import cache_sizes
    return {"commit": git_commit(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cache_bytes": cache_sizes()}


def setup_samples(workload, first):
    """(set-up, probe) seconds: this process's own set-up sample and those
    of fresh child processes, each followed by a ``python`` speed probe in
    this process."""
    import subprocess
    import speed
    samples = [(first, speed.probe(repeats=5))]
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "setup_probe.py")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, script, workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append((float(done.stdout.split()[-1]),
                        speed.probe(repeats=5)))
    return samples


def setup_seconds(setup, scaled=True):
    """Median set-up time; in reference seconds (``scaled``) it is scaled
    by the median probe.  The host's speed changes within a second, so a
    single probe often misreads the speed during the sample before it."""
    import statistics
    import speed
    seconds = statistics.median(s for s, _ in setup)
    if not scaled:
        return seconds
    return speed.scale(seconds, statistics.median(p for _, p in setup))


def end_to_end(records, setup, scaled=True):
    """Every end-to-end metric, times in reference seconds (``scaled``) or
    as measured."""
    times = [r.scaled if scaled else r.seconds for r in records]
    busy = sum(times)
    return {
        "setup_s": (setup_seconds(setup, scaled), "s"),
        "ops_per_s": (len(records) / busy, "op/s"),
        "items_per_s": (sum(r.op.items for r in records) / busy, "item/s"),
        "op_p50_ms": (1e3 * quantile(times, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(times, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def main(argv):
    try:
        name, seed, seconds, trace = parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}\n{USAGE}", file=sys.stderr)
        return 2
    if name not in setup_probe.WORKLOADS:
        print(f"error: unknown workload {name!r}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        first = setup_probe.setup(name)
    except setup_probe.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import json
    import shutil
    import tempfile
    import speed
    import tracer as tracing
    import workloads

    setup = setup_samples(name, first)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        if trace:
            tr = tracing.Tracer()
            base, records = run_traced_pass(workload, tr)
            overhead = 100 * (sum(r.seconds for r in records)
                              / sum(r.seconds for r in base) - 1)
            values = tr.per_layer_metrics(len(records), overhead)
            metrics = {k: (values[k], unit)
                       for k, unit in tracing.per_layer_metric_specs()}
            spans = os.path.join(WORK_ROOT, f"spans-{name}-seed{seed}.jsonl")
            tr.write(spans)
            records, aside = base + records, []
        else:
            records, probes, aside = run_passes(workload, seconds)
        check_records(workload, records)
        check_records(workload, aside)
        if not trace:
            metrics = end_to_end(records, setup)
            raw = end_to_end(records, setup, scaled=False)
        props = workload.properties(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.failure]
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(records)} ops")
    print("environment " + json.dumps(environment(seed)))
    print("inputs " + json.dumps(props))
    print("setup_samples_s (set-up, python probe) " + json.dumps(setup))
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value!r} {unit}")
    if not trace:
        beyond = sum(1 for r in records
                     if 1e3 * r.scaled > metrics["op_p90_ms"][0])
        print(f"metric failed_op_ratio = {len(failed) / len(records)!r} "
              f"ratio ({len(failed)} of {len(records)} ops)")
        print(f"op_p90_ms samples: {len(records)} ops, {beyond} beyond p90")
        print(f"times above are reference seconds; {len(probes)} speed "
              f"probes took {min(probes) * 1e3:.3f} to "
              f"{max(probes) * 1e3:.3f} ms, median "
              f"{quantile(probes, 0.5) * 1e3:.3f} ms (reference "
              f"{speed.PROBES[workload.probe_kind][1] * 1e3:.3f} ms); "
              f"as measured:")
        for key, (value, unit) in raw.items():
            print(f"  measured {key} = {value!r} {unit}")
    else:
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    for line in failure_lines(workload, failed):
        print(line)
    if aside:
        print(f"known_defects: {len(aside)} ops set aside, run untimed "
              f"after the measured ops; "
              f"{sum(1 for r in aside if r.failure)} failed")
        for line in failure_lines(workload, aside):
            print(f"  aside {line}")
    print(json.dumps({
        "correct": not any(r.wrong for r in records + aside),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
