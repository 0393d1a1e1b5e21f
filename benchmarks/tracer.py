"""In-memory span tracer that wraps cherncurv functions from the outside.

The package source is never edited: :meth:`Tracer.install` replaces
functions at the module and class attributes their callers look up, and
:meth:`Tracer.restore` puts the originals back.  Each call records a span
(name, start, end, parent span, op id).  Functions called once per grid
point are *leaf* targets: their calls are folded into one aggregate span
per parent span (call count and busy time), which keeps memory bounded on
large scans.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (metric name, owner path, attribute, leaf).  The owner path names a module
# of cherncurv, optionally followed by a class; one metric may be wrapped at
# several owners because a module that does ``from .x import f`` looks the
# name up in its own namespace.
TARGETS = [
    ("cli.main", "cli", "main", False),
    ("structfile.parse_structure", "structfile", "parse_structure", False),
    ("catalog.build", "catalog", "build", False),
    ("catalog.verify", "catalog", "verify", False),
    ("invariant.chern_connection", "invariant", "chern_connection", False),
    ("invariant.chern_curvature", "invariant", "chern_curvature", False),
    ("invariant.ricci", "invariant", "ricci", False),
    ("invariant.scalar_chern", "invariant", "scalar_chern", False),
    ("invariant.scalar_third", "invariant", "scalar_third", False),
    ("invariant.einstein_residual", "invariant", "einstein_residual", False),
    ("invariant.lee_form", "invariant", "lee_form", False),
    ("invariant.is_gauduchon", "invariant", "is_gauduchon", False),
    ("invariant.gauduchon_degree", "invariant", "gauduchon_degree", False),
    ("invariant.bogomolov_lubke", "invariant", "bogomolov_lubke", False),
    ("forms.ext_d", "forms", "ext_d", False),
    ("forms.ext_d", "invariant", "ext_d", False),
    ("forms.InvariantForm.wedge", "forms.InvariantForm", "wedge", False),
    ("scalars.mat_solve", "scalars", "mat_solve", False),
    ("scalars.mat_solve", "invariant", "mat_solve", False),
    ("scalars.mat_det", "scalars", "mat_det", False),
    ("scalars.mat_det", "invariant", "mat_det", False),
    ("scalars.mat_inv", "scalars", "mat_inv", False),
    ("scalars.mat_inv", "invariant", "mat_inv", False),
    ("invariant.scan", "invariant", "scan", False),
    ("invariant.default_surface_grid", "invariant", "default_surface_grid",
     False),
    ("invariant.batch_curvature", "invariant", "batch_curvature", False),
    ("invariant.batch_einstein_residual", "invariant",
     "batch_einstein_residual", False),
    ("invariant.SurfaceMetricParams.admissible",
     "invariant.SurfaceMetricParams", "admissible", True),
    ("chart.jet2", "chart", "jet2", False),
    ("chart.curvature_at", "chart", "curvature_at", False),
    ("chart.ricci_matrices_at", "chart", "ricci_matrices_at", False),
    ("chart.conformal_check", "chart", "conformal_check", False),
    ("chart.first_ce_from_potential", "chart", "first_ce_from_potential",
     False),
    ("chart.sample_points", "chart", "sample_points", False),
    ("yamabe.load_problem", "yamabe", "load_problem", False),
    ("yamabe.solve_chya", "yamabe", "solve_chya", False),
    ("yamabe.PeriodicGrid.laplacian", "yamabe.PeriodicGrid", "laplacian",
     False),
    ("yamabe.PeriodicGrid.poisson", "yamabe.PeriodicGrid", "poisson", False),
    ("yamabe.conformal_scalar_law", "yamabe", "conformal_scalar_law", False),
]

# the entries' sign certificates, wrapped on the registry objects
CERTIFICATE = "catalog.certificate"
# metric and potential ``fn`` evaluations of chart fields (a count only)
FIELD_EVALS = "chart.field_evals"
SOLVE = "yamabe.solve_chya"

SPAN_NAMES = sorted({name for name, *_ in TARGETS} | {CERTIFICATE})


def per_layer_metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.self_ms", "ms/op"))
        specs.append((f"{name}.calls", "call/op"))
    specs.append((FIELD_EVALS, "eval/op"))
    specs.append((f"{SOLVE}.iterations", "iter/solve"))
    specs.append((f"{SOLVE}.ms_per_iteration", "ms/iter"))
    specs.append(("trace.overhead_pct", "%"))
    return specs


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans and counts for one traced pass; not thread-safe (one client)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock    # seconds; replaceable for tests
        self.spans = []       # [id, parent, op, name, start, end]
        self.leaves = {}      # (parent, name) -> [op, count, busy, start, end]
        self.counts = defaultdict(int)  # name -> count
        self.iterations = []  # (solve span id, iterations) per solve
        self._stack = []
        self._op = None
        self._patches = []

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._stack.append(self._open("op"))

    def end_op(self):
        self._close(self._stack.pop())
        self._op = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self._op, name, self.clock(), None])
        return sid

    def _close(self, sid):
        self.spans[sid][5] = self.clock()

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._open(name)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(sid)
            if name == SOLVE:
                self.iterations.append((sid, out.iterations))
            return out

        traced.__wrapped__ = fn
        return traced

    def leaf_wrapper(self, name, fn):
        stack, leaves, clock = self._stack, self.leaves, self.clock

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                key = (stack[-1] if stack else None, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [self._op, 1, t1 - t0, t0, t1]
                else:
                    agg[1] += 1
                    agg[2] += t1 - t0
                    agg[4] = t1

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package, certificate_owners=(), field_owners=()):
        """Wrap every target of ``package`` (the cherncurv module), the
        ``certificate`` attribute of each registry entry given, and the
        ``fn`` attribute of each chart field given."""
        wrappers = {}
        for name, path, attr, leaf in TARGETS:
            owner = _resolve(package, path)
            original = getattr(owner, attr)
            # one wrapper per original function, so a function reachable
            # from two modules is recorded once per call
            key = id(original)
            if key not in wrappers:
                make = self.leaf_wrapper if leaf else self.span_wrapper
                wrappers[key] = make(name, original)
            self._patch(owner, attr, wrappers[key])
        for entry in certificate_owners:
            self._patch(entry, "certificate",
                        self.leaf_wrapper(CERTIFICATE, entry.certificate))
        for field in field_owners:
            self._patch(field, "fn",
                        self.count_wrapper(FIELD_EVALS, field.fn))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """name -> [calls, self seconds] over every recorded span."""
        covered = defaultdict(float)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, _name), (_op, _count, busy, _s, _e) in \
                self.leaves.items():
            if parent is not None:
                covered[parent] += busy
        totals = defaultdict(lambda: [0, 0.0])
        for sid, _parent, _op, name, start, end in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered[sid]
        for (_parent, name), (_op, count, busy, _s, _e) in \
                self.leaves.items():
            entry = totals[name]
            entry[0] += count
            entry[1] += busy
        return totals

    def solve_stats(self):
        """(mean iterations per solve, ms per iteration over solves that
        iterated), or zeros when nothing was solved."""
        if not self.iterations:
            return 0.0, 0.0
        iters = [it for _sid, it in self.iterations]
        busy = sum(self.spans[sid][5] - self.spans[sid][4]
                   for sid, it in self.iterations if it > 0)
        total = sum(it for it in iters if it > 0)
        per_iter = 1e3 * busy / total if total else 0.0
        return sum(iters) / len(iters), per_iter

    def per_layer_metrics(self, ops, overhead_pct):
        """Every per-layer metric, normalised per op (``ops`` traced ops)."""
        totals = self.layer_totals()
        values = {}
        for name in SPAN_NAMES:
            calls, busy = totals.get(name, (0, 0.0))
            values[f"{name}.self_ms"] = 1e3 * busy / ops
            values[f"{name}.calls"] = calls / ops
        values[FIELD_EVALS] = self.counts[FIELD_EVALS] / ops
        iterations, per_iter = self.solve_stats()
        values[f"{SOLVE}.iterations"] = iterations
        values[f"{SOLVE}.ms_per_iteration"] = per_iter
        values["trace.overhead_pct"] = overhead_pct
        return values

    def write(self, path):
        """All spans, one JSON object per line; leaf aggregates carry
        their call count and busy seconds."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            for (parent, name), (op, count, busy, start, end) in \
                    self.leaves.items():
                fh.write(json.dumps({"id": None, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end, "count": count,
                                     "busy": busy}) + "\n")
