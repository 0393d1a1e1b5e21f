"""The four benchmark workloads: seeded op lists, op execution and oracles.

A workload is run as a sequence of *passes*.  Pass ``k`` of seed ``s`` is a
fixed-composition list of ops whose inputs are drawn from
``random.Random("<workload>:<s>:<k>")``, so the same seed gives the same
ops, every pass has the same mix of op kinds, and a run that ends on a
pass boundary measures that mix exactly.  Every op is checked against an
oracle that does not share the code path it checks; checks run after the
timed ops.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from setup_probe import check_source

check_source()

import numpy as np  # noqa: E402
from cherncurv import catalog, chart, cli, invariant  # noqa: E402
from cherncurv.scalars import QQi  # noqa: E402

# stands for the work directory in the argv of ops that read input files
WORK = "{work}"


@dataclass(frozen=True)
class Op:
    kind: str           # op class, used for the input-property record
    args: tuple         # CLI argv, or the chart op's spec
    items: int          # natural work units (points, cells, ...)
    oracle: tuple = ()  # plain data the checker needs


@dataclass
class Pass:
    ops: list
    files: dict         # file name in the work directory -> text
    # ops that can meet a known defect of the program: run after the
    # timed phase, checked, and reported apart from the measured ops
    aside: list = field(default_factory=list)


@dataclass
class CliResult:
    rc: object
    out: str
    err: str

    def fields(self):
        """The default text report as a key -> value dict."""
        pairs = (line.split(None, 1) for line in self.out.splitlines())
        return {p[0]: (p[1] if len(p) > 1 else "") for p in pairs if p}


def run_cli(argv):
    """``cherncurv.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
    return CliResult(rc, out.getvalue(), err.getvalue())


def close(a, b, rel=1e-9, abs_tol=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def parse_complex(text):
    """A number printed by the CLI (``1.5``, ``-2i``, ``0.25-1.5i``)."""
    return complex(text.replace("i", "j"))


class Workload:
    name = ""
    allowed_rc = {}  # op kind -> exit codes that are answers
    probe_kind = "python"  # the speed probe whose work is most like ours

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index):
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_pass(self, index) -> Pass:
        raise NotImplementedError

    def execute(self, op):
        argv = [a.replace(WORK, self.workdir) for a in op.args]
        return run_cli(argv)

    def refused(self, op, result):
        """Why ``result`` is no answer at all, or None.  Exit 1 is an
        answer ("the condition fails"); exit 2 never is."""
        if result.rc in (0, 1):
            return None
        detail = result.err.strip().splitlines()[-1:] or [""]
        return f"exit {result.rc}: {detail[0]}"

    def check(self, op, result):
        """None when the answer ``result`` agrees with the oracle for
        ``op``, else why not."""
        if result.rc not in self.allowed_rc[op.kind]:
            return f"exit {result.rc} where the condition must hold"
        return self.check_fields(op, result.rc, result.fields())

    def check_fields(self, op, rc, fields):
        raise NotImplementedError

    def known_defect(self, op, failure):
        """Whether ``failure`` of a raised or refused op is one of the
        program's known defects.  Other such failures are wrong answers."""
        return False

    def trace_owners(self):
        """(registry entries with a certificate, chart fields) to wrap."""
        return (), ()

    def label(self, op):
        """Short text naming what ``op`` does, for failure reports."""
        return f"{op.kind} {op.oracle[0]}"

    def properties(self, records):
        raise NotImplementedError


def shares(records, key):
    """Per-group share of ops by count and by measured time."""
    total_n = len(records)
    total_t = sum(r.seconds for r in records) or 1.0
    groups = {}
    for r in records:
        g = groups.setdefault(key(r), [0, 0.0])
        g[0] += 1
        g[1] += r.seconds
    return {k: {"ops": n / total_n, "time": t / total_t}
            for k, (n, t) in sorted(groups.items())}


# ---------------------------------------------------------------------------
# invariant-single

def _gauss_text(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"


def _draw_params(rng, entry):
    """Seeded rational (r, s, u[, ell]) for ``entry``, in the ranges the
    package scans itself.  r and s are whole quarters in 1/4..3, the values
    of ``invariant.default_surface_grid``.  u lies strictly inside that
    grid's cone |u| < 0.95 r s, as r s (a + b i) / 10 with whole a, b and
    a^2 + b^2 < 9.5^2.  ell is a whole quarter in 1/2..3, the range of the
    catalog's own snow-s5 points."""
    r = Fraction(rng.randint(1, 12), 4)
    if entry == "hopf":
        return {"r": r, "s": r, "u": QQi(0)}
    s = Fraction(rng.randint(1, 12), 4)
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if 4 * (a * a + b * b) < 19 * 19:
            break
    u = QQi(r * s * Fraction(a, 10), r * s * Fraction(b, 10))
    p = {"r": r, "s": s, "u": u}
    if entry == "snow-s5":
        p["ell"] = Fraction(rng.randint(2, 12), 4)
    return p


def params_text(p):
    return ",".join(
        f"{k}={_gauss_text(v.re, v.im) if isinstance(v, QQi) else v}"
        for k, v in p.items())


def surface_det(p):
    """det h of the (r, s, u) surface metric: (r^2 s^2 - |u|^2) / 4."""
    r, s, u = p["r"], p["s"], p["u"]
    return (r * r * s * s - (u * u.conjugate()).re) / 4


def expected_s_chern(entry, p, exact):
    """Closed-form Chern scalar curvature from the registry.  ovando-r2r2
    lists Ric1 = -(sqrt(-1)/2)(phi1^bar1 + phi2^bar2) but no S_Ch; its
    trace against h^{-1} is -(r^2 + s^2) / (r^2 s^2 - |u|^2)."""
    if entry == "ovando-r2r2":
        value = -(p["r"] ** 2 + p["s"] ** 2) / (4 * surface_det(p))
        return value if exact else float(value)
    value = catalog.expected(entry, "S_Ch", p, exact=exact)
    return Fraction(value) if exact else float(complex(value).real)


class InvariantSingle(Workload):
    """Single-metric CLI commands over every catalog entry, from the
    catalog and from exported structure files."""

    name = "invariant-single"
    allowed_rc = {"curvature-exact": {0}, "curvature": {0},
                  "einstein": {0, 1}, "lee": {0, 1}, "gauduchon": {0, 1},
                  "bl": {0, 1}, "verify": {0}, "verify-exact": {0}}

    # op kind, argv before the source, argv after it.  ``catalog verify``
    # runs at the registry's own points: with ``--params``, its exact mode
    # raises TypeError on five of the nine entries.
    COMMANDS = (
        ("curvature-exact", ["curvature"], ["--exact"]),
        ("curvature", ["curvature"], []),
        ("einstein", ["einstein"], None),  # --kind and --mode drawn
        ("lee", ["lee"], []),
        ("gauduchon", ["gauduchon"], []),
        ("bl", ["bl"], []),
        ("verify", ["catalog", "verify"], []),
        ("verify-exact", ["catalog", "verify"], ["--exact"]),
    )
    REGISTRY_POINTS = ("verify", "verify-exact")

    def make_pass(self, index):
        """Each command once on each entry.  Every op but ``catalog verify``
        has its own drawn parameters and alternates between the catalog
        and a structure file exported at those parameters."""
        rng = self.rng(index)
        ops, files = [], {}
        for pos, entry in enumerate(catalog.list_entries()):
            for cpos, (kind, head, tail) in enumerate(self.COMMANDS):
                if kind in self.REGISTRY_POINTS:
                    ops.append(Op(kind, (*head, entry, *tail), 1,
                                  (entry, "registry", ())))
                    continue
                p = _draw_params(rng, entry)
                if tail is None:
                    tail = ["--kind", str(rng.randint(1, 3)),
                            "--mode", rng.choice(("strong", "weak"))]
                if (pos + index + cpos) % 2 == 0:
                    fname = f"{entry}-{index}-{cpos}.struct"
                    files[fname] = catalog.to_structure_text(entry, p)
                    source, where = "file", [f"{WORK}/{fname}"]
                else:
                    source, where = "catalog", [entry, "--params",
                                                params_text(p)]
                ops.append(Op(kind, (*head, *where, *tail), 1,
                              (entry, source, tuple(p.items()))))
        rng.shuffle(ops)
        return Pass([op for op in ops if not self.defect_prone(op)], files,
                    [op for op in ops if self.defect_prone(op)])

    def check_fields(self, op, rc, f):
        entry, source, pairs = op.oracle
        p = dict(pairs)
        if op.kind in ("verify", "verify-exact"):
            bad = [k for k, v in f.items() if v == "FAIL"]
            if bad or f.get("all_passed") != "true":
                return f"verify rows failed: {bad}"
            return None
        if op.kind == "curvature-exact":
            got = Fraction(f["s_chern"])
            want = expected_s_chern(entry, p, exact=True)
            return None if got == want else f"s_chern {got} != {want}"
        s_expected = expected_s_chern(entry, p, exact=False)
        if op.kind == "curvature":
            got = float(f["s_chern"])
            return None if close(got, s_expected) else \
                f"s_chern {got} != {s_expected}"
        if op.kind == "einstein":
            return self._check_einstein(op, entry, p, rc, f, s_expected)
        if op.kind == "lee":
            if (rc == 0) != (f["lee_form"] != "none"):
                return f"exit {rc} with lee_form {f['lee_form']}"
            return None
        if op.kind == "gauduchon":
            holds = f["gauduchon"] == "true"
            if (rc == 0) != holds:
                return f"exit {rc} with gauduchon {f['gauduchon']}"
            if holds:
                det = surface_det(p)
                if entry == "snow-s5" and source == "catalog":
                    det = 4 * det  # Snow's h omits the 1/2 factors
                want = s_expected * math.sqrt(det)
                if not close(float(f["degree"]), want):
                    return f"degree {f['degree']} != {want}"
            return None
        if op.kind == "bl":
            value = float(f["bogomolov_lubke"])
            holds = f["inequality_holds"] == "true"
            if (rc == 0) != holds or holds != (value <= 1e-9):
                return f"exit {rc}, holds {holds}, value {value}"
            return None
        raise ValueError(op.kind)

    def _check_einstein(self, op, entry, p, rc, f, s_expected):
        kind = op.args[op.args.index("--kind") + 1]
        mode = op.args[op.args.index("--mode") + 1]
        residual = float(f["residual"])
        holds = f["einstein"] == "true"
        if (rc == 0) != holds or holds != (residual <= 1e-9):
            return f"exit {rc}, einstein {f['einstein']}, residual {residual}"
        if kind == "2" and mode == "strong":
            lam = float(f["lambda"])
            if not close(lam, s_expected / 2):
                return f"lambda {lam} != S/2 = {s_expected / 2}"
            if entry in catalog.NONEXISTENCE_ENTRIES and holds:
                return "strong-(2)-Chern-Einstein where none exists"
            try:
                catalog.expected(entry, "einstein2_residual", p)
            except (catalog.UnknownQuantity, ValueError):
                return None
            if not holds:
                return f"expected Einstein, residual {residual}"
        return None

    # entries whose S is 0 at every metric
    ZERO_S = ("kodaira-primary", "kodaira-secondary", "snow-s5")

    def defect_prone(self, op):
        """Whether ``op`` is a (command, entry) pair that can meet one of
        the defects ``known_defect`` names.  Such ops are set aside from
        the measured ops whatever their outcome."""
        entry = op.oracle[0]
        if op.kind == "lee":
            return entry == "flat-torus"
        return (op.kind in ("curvature", "einstein", "gauduchon")
                and entry in self.ZERO_S)

    def known_defect(self, op, failure):
        """Two defects of ROADMAP item 4.  ``lee flat-torus`` raises
        ``TypeError: QQi * complex`` (``CoframeAlgebra.exact``).  Float
        ``curvature``, ``einstein`` and ``gauduchon`` on the entries whose
        S is 0 exit 2 at some parameters with ``expected a real scalar``:
        the check's absolute tolerance of 1e-14 is below the rounding of
        the curvature at these metric scales."""
        entry = op.oracle[0]
        if op.kind == "lee" and entry == "flat-torus":
            return "'QQi' and 'complex'" in failure
        return (op.kind in ("curvature", "einstein", "gauduchon")
                and entry in self.ZERO_S
                and failure.startswith("exit 2: error: expected a real scalar"))

    def label(self, op):
        return f"{op.kind} {op.oracle[0]} ({op.oracle[1]})"

    def properties(self, records):
        exact = shares(records, lambda r: "exact" if "--exact" in r.op.args
                       else "float")
        source = shares(records, lambda r: r.op.oracle[1])
        seen = set()

        def repeated(r):
            # same command, entry and parameters as an earlier op, from
            # the catalog or from a file
            options = r.op.args[-4:] if r.op.kind == "einstein" else ()
            key = (r.op.kind, r.op.oracle[0], r.op.oracle[2], options)
            again = key in seen
            seen.add(key)
            return "repeat" if again else "new"

        return {"arithmetic": exact, "source": source,
                "repeated_input": shares(records, repeated),
                "command": shares(records, lambda r: r.op.kind)}


# ---------------------------------------------------------------------------
# invariant-scan

SURFACE_GRID_POINTS = 1 + 9 * 8  # (r, s) pairs times u: zero plus 9 radii x 8


class InvariantScan(Workload):
    """``scan`` over every catalog entry on seeded r, s grids of four sizes."""

    name = "invariant-scan"
    allowed_rc = {k: {0} for k in ("K6", "K8", "K12", "K42")}
    MODES = [(k, m) for k in ("1", "2", "3") for m in ("strong", "weak")]
    # grid side K -> largest step, in 64ths.  Start and step are whole
    # 64ths, so start + k * step is exact in binary and the CLI's
    # accumulating grid has exactly K values per axis.
    SIZES = {6: 24, 8: 20, 12: 12, 42: 5}

    def _op(self, rng, entry, kind, mode, K):
        a = rng.randint(6, 32)
        c = rng.randint(2, self.SIZES[K])
        spec = f"{a / 64!r}:{(a + (K - 1) * c) / 64!r}:{c / 64!r}"
        argv = ("scan", entry, "--kind", kind, "--mode", mode, "--grid", spec)
        return Op(f"K{K}", argv, SURFACE_GRID_POINTS * K * K,
                  (entry, int(kind), mode, a / 64, c / 64, K))

    def make_pass(self, index):
        """Per pass: 4 K=6 and 1 K=8 scans of every entry, kind and mode
        drawn; K=12 kind-2 strong scans of the four non-existence entries
        plus three drawn-mode scans of the first three; one K=42 kind-2
        strong scan, its entry cycling with the pass index."""
        rng = self.rng(index)
        nonexistence = catalog.NONEXISTENCE_ENTRIES
        ops = []
        for entry in catalog.list_entries():
            for _ in range(4):
                ops.append(self._op(rng, entry, *rng.choice(self.MODES), 6))
            ops.append(self._op(rng, entry, *rng.choice(self.MODES), 8))
        for entry in nonexistence:
            ops.append(self._op(rng, entry, "2", "strong", 12))
        for entry in nonexistence[:3]:
            ops.append(self._op(rng, entry, *rng.choice(self.MODES), 12))
        ops.append(self._op(rng, nonexistence[index % len(nonexistence)],
                            "2", "strong", 42))
        rng.shuffle(ops)
        return Pass(ops, {})

    def trace_owners(self):
        return [catalog.get(e) for e in catalog.list_entries()
                if catalog.get(e).certificate is not None], ()

    @staticmethod
    def grid_point(r, s, u, a, c, K):
        """The exact grid point nearest to a printed (12-digit) argmin,
        rebuilt with the grid's own formula: r, s = a + k c and u on
        radii 0.95 r s j / 10, phases 2 pi p / 8."""
        r = a + c * min(max(round((r - a) / c), 0), K - 1)
        s = a + c * min(max(round((s - a) / c), 0), K - 1)
        step = 0.95 * r * s / 10
        j = round(abs(u) / step)
        if j == 0:
            return r, s, 0j
        p = round((math.atan2(u.imag, u.real) / (2 * math.pi)) * 8) % 8
        rho = 0.95 * r * s * j / 10
        ang = 2 * math.pi * p / 8
        return r, s, rho * complex(math.cos(ang), math.sin(ang))

    def check_fields(self, op, rc, f):
        entry, kind, mode, a, c, K = op.oracle
        if int(f["points"]) != op.items:
            return f"points {f['points']} != {op.items}"
        if kind == 2 and mode == "strong" and \
                entry in catalog.NONEXISTENCE_ENTRIES:
            if f.get("certificate_ok") != "true":
                return f"certificate fails: {f.get('certificate_worst')}"
            if not float(f["min_residual"]) > 1e-3:
                return f"min_residual {f['min_residual']} <= 1e-3"
        r, s, u = self.grid_point(float(f["argmin_r"]), float(f["argmin_s"]),
                                  parse_complex(f["argmin_u"]), a, c, K)
        lam, single = self.single_metric_residual(entry, kind, mode, r, s, u)
        batched = float(f["min_residual_abs"])
        scale = max(1.0, abs(lam) * max(r * r, s * s, abs(u)))
        if not close(batched, single, rel=1e-9, abs_tol=1e-12 * scale):
            return f"residual at argmin {batched} != single-metric {single}"
        return None

    @staticmethod
    def single_metric_residual(entry, kind, mode, r, s, u):
        """(lambda, residual) from the single-metric (form-algebra)
        curvature tensor, contracted here as ``einstein_residual`` defines
        it.  ``einstein_residual`` itself is not called: its real-scalar
        check uses an absolute tolerance and raises on some admissible
        kodaira-secondary metrics where S is 0 up to rounding."""
        alg, _, _ = catalog.build(entry, exact=False)
        h = invariant.SurfaceMetricParams(r, s, u).metric(exact=False)
        theta = np.array(invariant.chern_curvature(alg, h).lowered,
                         dtype=complex)
        hf = np.array(h.h, dtype=complex)
        up = np.linalg.inv(hf).T  # up[k, l] = h^{k lbar}
        ric = np.einsum({1: "kl,abkl->ab", 2: "ij,ijab->ab",
                         3: "il,ibal->ab"}[kind], up, theta)
        if mode == "strong":
            lam = np.einsum("ij,kl,ijkl->", up, up, theta).real / alg.n
        else:
            lam = np.sum(hf.conj() * ric).real / np.sum(np.abs(hf) ** 2)
        return float(lam), float(np.max(np.abs(ric - lam * hf)))

    # curvature arrays of a batch: ~1 KiB per grid point (gamma, four
    # rank-4 einsum terms and the lowered tensor, complex128); computed
    # from the array shapes, not measured
    BYTES_PER_POINT = 1024

    def properties(self, records):
        llc = cache_sizes().get("L3")
        sizes = shares(records, lambda r: f"{r.op.kind} ({r.op.items} pts)")
        big = [r for r in records
               if llc and r.op.items * self.BYTES_PER_POINT > llc]
        return {"grid": sizes,
                "array_bytes_per_point_computed": self.BYTES_PER_POINT,
                "share_of_ops_above_L3": len(big) / len(records)}


# ---------------------------------------------------------------------------
# chart-points

def _fs_potential(z):
    acc = None
    for zi in z:
        t = chart.hd_log(1 + zi * zi.conjugate())
        acc = t if acc is None else acc + t
    return acc


def rel(a, b):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


class ChartPoints(Workload):
    """Point ops (curvature, Ricci, conformal laws at one point) and
    first-Chern-Einstein ops on the Fubini-Study potential."""

    name = "chart-points"
    POINTS_PER_PAIR = 3   # point ops per (field, factor) pair and pass
    CE_PER_SIGN = 3       # first-CE ops per sign and pass
    CE_POINTS = 1
    FD_EVERY = 3          # every 3rd point op is checked against fd_oracle

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        metric_seed = random.Random(f"{self.name}:{seed}").randrange(10 ** 6)
        self.fields = chart.registered_metrics(seed=metric_seed)
        self.factors = chart.registered_factors()
        self.potential = chart.ScalarField(2, _fs_potential, name="fs")
        self.base = chart.metric_from_potential(self.potential)

    def make_pass(self, index):
        rng = self.rng(index)
        ops = []
        for fname in sorted(self.fields):
            for facname in sorted(self.factors):
                for _ in range(self.POINTS_PER_PAIR):
                    ops.append(Op("point", ("point", fname, facname,
                                            rng.randrange(10 ** 6)), 1))
        for sign in (1, -1):
            for _ in range(self.CE_PER_SIGN):
                ops.append(Op("first-ce", ("first-ce", sign,
                                           rng.randrange(10 ** 6)),
                              self.CE_POINTS))
        rng.shuffle(ops)
        n = 0
        for i, op in enumerate(ops):
            if op.kind == "point":
                ops[i] = Op(op.kind, op.args, op.items,
                            (n % self.FD_EVERY == 0,))
                n += 1
        return Pass(ops, {})

    def execute(self, op):
        if op.kind == "point":
            _, fname, facname, pseed = op.args
            field = self.fields[fname]
            x = chart.sample_points(field, 1, seed=pseed)[0]
            theta = chart.curvature_at(field, x)
            _, ric2, _ = chart.ricci_matrices_at(field, x)
            conformal = chart.conformal_check(field, self.factors[facname], x)
            return x, theta, ric2, conformal
        _, sign, pseed = op.args
        points = chart.sample_points(self.base, self.CE_POINTS, seed=pseed)
        return chart.first_ce_from_potential(self.potential, sign, points)

    def refused(self, op, result):
        return None

    def check(self, op, result):
        if op.kind == "first-ce":
            sign = op.args[1]
            if not result.max_error < 1e-7:
                return f"first-CE max_error {result.max_error}"
            if len(result.factors) != self.CE_POINTS or \
                    not all(fac * sign > 0 for fac in result.factors):
                return f"first-CE factors {result.factors} for sign {sign}"
            return None
        _, fname, _, _ = op.args
        x, theta, ric2, conformal = result
        field = self.fields[fname]
        worst = max(conformal.values())
        if not worst < 1e-8:
            return f"conformal law off by {worst}"
        if fname == "hopf-chart" and not rel(ric2, 2 * field.matrix(x)) < 1e-8:
            return "Hopf chart Ric2 != 2 h"
        if fname == "flat" and not rel(theta, 0 * theta) <= 1e-12:
            return "flat metric has curvature"
        if op.oracle[0]:
            err = rel(theta, chart.fd_oracle(field, x))
            if not err < 1e-6:
                return f"AD vs finite differences {err}"
        return None

    def label(self, op):
        return " ".join(map(str, op.args[:2]))

    def trace_owners(self):
        owners = list(self.fields.values()) + list(self.factors.values())
        return (), owners + [self.potential]

    def properties(self, records):
        return {"op": shares(records, lambda r: r.op.kind),
                "first_ce_points_per_op": self.CE_POINTS}


# ---------------------------------------------------------------------------
# yamabe-solve

class YamabeSolve(Workload):
    """``yamabe --problem FILE`` on sine-offset problems (damped
    quasi-Newton) and synthetic-v / constant problems (no iteration)."""

    name = "yamabe-solve"
    probe_kind = "spectral"
    allowed_rc = {"newton": {0}, "direct": {0}}
    # per pass: sine-offset sizes, then (generator, N) of the direct ops
    NEWTON_N = (64,) * 9 + (128,) * 4 + (256,)
    DIRECT = tuple((gen, N) for gen in ("synthetic-v", "constant")
                   for N in (64, 128, 256))

    def make_pass(self, index):
        rng = self.rng(index)
        ops, files = [], {}

        def add(kind, text, N, extra, oracle):
            fname = f"y{index}-{len(ops)}.problem"
            files[fname] = f"N = {N}\n{text}"
            ops.append(Op(kind, ("yamabe", "--problem", f"{WORK}/{fname}",
                                 *extra), N * N, oracle))

        for N in self.NEWTON_N:
            off = round(rng.uniform(-3.0, -0.2), 4)
            amp = round(rng.uniform(0.05, 0.8), 4)
            add("newton", f"S = sine-offset\noffset = {off}\n"
                f"amplitude = {amp}\n", N,
                ("--seed", str(rng.randrange(10 ** 6))),
                ("sine-offset", N, off))
        for gen, N in self.DIRECT:
            if gen == "synthetic-v":
                amp = round(rng.uniform(0.05, 0.5), 4)
                add("direct", f"S = synthetic-v\namplitude = {amp}\n", N, (),
                    (gen, N, amp))
            else:
                value = round(rng.uniform(-3.0, -0.2), 4)
                add("direct", f"S = constant\nvalue = {value}\n", N, (),
                    (gen, N, value))
        rng.shuffle(ops)
        return Pass(ops, files)

    def check_fields(self, op, rc, f):
        gen, N, param = op.oracle
        n = int(f["n"])
        if int(f["N"]) != N or f["converged"] != "true":
            return f"N {f['N']}, converged {f['converged']}"
        if not float(f["law_constancy"]) <= 1e-7:
            return f"law_constancy {f['law_constancy']}"
        if not float(f["residual"]) <= 1e-9:
            return f"residual {f['residual']}"
        lam = float(f["lambda"])
        f_min, f_max = float(f["f_min"]), float(f["f_max"])
        if gen == "sine-offset":
            # mean of offset + amplitude sin(2 pi x) over the grid
            if not close(float(f["degree"]), param, abs_tol=1e-12):
                return f"degree {f['degree']} != offset {param}"
            if not lam < 0:
                return f"lambda {lam} for a negative degree"
        elif gen == "synthetic-v":
            # known solution f = amplitude sin(2 pi x) cos(2 pi y), lam = 0
            if lam != 0 or not (abs(f_max - param) <= 1e-8
                                and abs(f_min + param) <= 1e-8):
                return f"synthetic-v not recovered: lam {lam}, " \
                       f"f in [{f_min}, {f_max}]"
        else:
            # constant S = value: f = 0 and lam = value / n
            if not close(lam, param / n, abs_tol=1e-12) or \
                    max(abs(f_min), abs(f_max)) > 1e-12:
                return f"constant problem: lam {lam}, f in [{f_min}, {f_max}]"
        return None

    def properties(self, records):
        return {"solver": shares(records, lambda r: r.op.kind),
                "N": shares(records, lambda r: f"N={r.op.oracle[1]}")}


WORKLOADS = {w.name: w for w in (InvariantSingle, InvariantScan, ChartPoints,
                                 YamabeSolve)}


def cache_sizes():
    """Data/unified cache sizes in bytes by level (``L2``, ``L3``), read
    from sysfs; empty where it is not available."""
    import glob
    import os
    sizes = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                ctype = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if ctype == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KMG")) * mult
    return sizes
