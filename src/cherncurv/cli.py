"""Command-line front end.

Sources are either catalog entry names or paths to structure-equation
files, read as anonymous entries (:func:`~cherncurv.catalog.from_structure`);
``--params r=..,s=..,u=..`` goes over the entry's defaults, a file's metric
line among them.  Output is deterministic: fixed key order and 12
significant digits for floats.

Without ``--exact`` every command computes in floats.  ``--exact``
(``curvature``, ``einstein`` and ``catalog verify``) computes in exact
Gaussian rationals and refuses, with exit code 2, any input that is not
rational.

Exit codes: 0 success or condition holds, 1 condition fails, 2 input
error, a floating-point overflow or invalid value among them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import types

import numpy as np

from . import catalog, invariant as inv, structfile, yamabe
from .forms import InvariantForm
from .scalars import is_exact, resolve


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic formatting

def fmt_number(v) -> str:
    if is_exact(v):
        return structfile.format_complex(v)
    v = complex(v)
    if v.imag == 0:
        return _fmt_float(v.real)
    out = _fmt_float(v.real) if v.real else ""
    im = _fmt_float(v.imag)
    if not im.startswith("-") and out:
        im = "+" + im
    return out + im + "i"


def _fmt_float(x: float) -> str:
    if x == 0:
        return "0"
    return f"{x:.12g}"


def fmt_form(form: InvariantForm) -> str:
    if not form.coefficients:
        return "0"
    n = form.n
    parts = []
    for key in sorted(form.coefficients):
        names = "^".join(
            f"phi{i + 1}" if i < n else f"bar{i - n + 1}" for i in key)
        parts.append(f"({fmt_number(form.coefficients[key])}) {names}"
                     if names else fmt_number(form.coefficients[key]))
    return " + ".join(parts)


class Report:
    """Flat, ordered key-value tree with text and kv renderings."""

    def __init__(self):
        self.items = []

    def add(self, key: str, value):
        if isinstance(value, InvariantForm):
            text = fmt_form(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, str):
            text = value
        elif isinstance(value, (int,)) and not isinstance(value, bool):
            text = str(value)
        else:
            text = fmt_number(value)
        self.items.append((key, text))

    def render(self, style: str) -> str:
        if style == "kv":
            return "\n".join(f"{k} = {v}" for k, v in self.items)
        width = max((len(k) for k, _ in self.items), default=0)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.items)


# ---------------------------------------------------------------------------
# input resolution

def parse_params(text: str) -> dict:
    """``r=1,s=2,u=1/2+1i[,ell=2]`` in the structure file's ``key=value``
    grammar (:func:`~cherncurv.structfile.parse_params`)."""
    try:
        return structfile.parse_params(text.split(","))
    except ValueError as exc:
        # argparse prints an ArgumentTypeError's text; a ValueError's it
        # drops
        raise argparse.ArgumentTypeError(str(exc)) from None


def resolve_source(source: str) -> catalog.ExampleEntry:
    """The catalog entry a source names: an entry name, or a structure
    file read as an anonymous entry named by its basename
    (:func:`~cherncurv.catalog.from_structure`)."""
    if source in catalog.list_entries():
        return catalog.get(source)
    if not os.path.exists(source):
        raise InputError(f"{source!r} is neither a catalog entry nor a file")
    with open(source) as fh:
        doc = structfile.parse_structure(fh.read())
    return catalog.from_structure(doc, os.path.basename(source))


def _start(args, exact: bool = False):
    """(algebra, metric, report) of a single-metric command: the source at
    ``--params``, and a report that opens with its entry and parameters."""
    entry = resolve_source(args.source)
    alg, h, p = catalog.build(entry, args.params, exact=exact)
    rep = Report()
    rep.add("entry", entry.name)
    for key in ("r", "s", "u", "ell"):
        if key in p:
            rep.add(f"param_{key}", p[key])
    return alg, h, rep


def _emit(report: Report, args) -> None:
    print(report.render(args.format))


# ---------------------------------------------------------------------------
# subcommands

def cmd_curvature(args) -> int:
    alg, h, rep = _start(args, args.exact)
    curv = inv.chern_curvature(alg, h)
    for idx in np.ndindex(curv.lowered.shape):
        v = resolve(curv.lowered[idx], curv.bound["lowered"][idx])
        if v:
            rep.add("theta_" + "".join(str(i + 1) for i in idx), v)
    rep.add("ric1", inv.ricci(1, curv, h))
    rep.add("ric2", inv.ricci(2, curv, h))
    rep.add("s_chern", inv.scalar_chern(curv, h))
    rep.add("s_third", inv.scalar_third(curv, h))
    _emit(rep, args)
    return 0


def cmd_einstein(args) -> int:
    alg, h, rep = _start(args, args.exact)
    lam, residual = inv.einstein_residual(args.kind, alg, h, mode=args.mode)
    rep.add("kind", args.kind)
    rep.add("mode", args.mode)
    rep.add("lambda", lam)
    rep.add("residual", residual)
    holds = residual <= args.tol
    rep.add("einstein", holds)
    _emit(rep, args)
    return 0 if holds else 1


def cmd_scan(args) -> int:
    fixed = [key for key in ("r", "s", "u") if key in args.params]
    if fixed:
        raise InputError(f"scan takes r, s and u from its grid; --params "
                         f"may not set {', '.join(fixed)}")
    grid = None
    if args.grid:
        values = _parse_grid(args.grid)
        grid = inv.surface_grid_chunks(r_values=values, s_values=values)
    report = catalog.scan_entry(resolve_source(args.source), args.kind,
                                grid=grid, mode=args.mode, params=args.params)
    rep = Report()
    rep.add("entry", report.entry)
    rep.add("kind", args.kind)
    rep.add("points", report.count)
    rep.add("min_residual", report.min_residual)
    rep.add("min_residual_abs", report.min_residual_abs)
    r, s, u = report.argmin
    rep.add("argmin_r", r)
    rep.add("argmin_s", s)
    rep.add("argmin_u", u)
    if report.certificate_ok is not None:
        rep.add("certificate_ok", report.certificate_ok)
        rep.add("certificate_worst", report.certificate_worst)
    _emit(rep, args)
    return 0


# the most (r, s, u) rows ``scan --grid`` runs; the default surface grid
# has SURFACE_PAIR_ROWS rows per (r, s) pair, so K values per axis give
# SURFACE_PAIR_ROWS K^2 rows.  The rows are built a chunk at a time, so
# the cap bounds a scan's run time, not its memory: at the cap a kind-2
# hopf scan took 7.8 s and 5.7 MB of resident memory on a shared 2-vCPU
# host
GRID_MAX_ROWS = 10 ** 7


def _parse_grid(spec: str):
    """The axis values start, start + step, ... up to stop of a ``--grid``
    spec, each the last plus step, as the r and s values of a scan."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise InputError(
            f"--grid wants start:stop:step, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and step > 0):
        raise InputError(f"--grid wants finite bounds and a positive "
                         f"step, got {spec!r}")
    # the steps are counted before any value is made; a slack of 1e-9
    # steps keeps a last value that rounding puts just past stop
    steps = (stop - start) / step + 1e-9
    if steps < 0:
        raise InputError("empty grid")
    most = math.isqrt(GRID_MAX_ROWS // inv.SURFACE_PAIR_ROWS)
    if not steps < most:
        raise InputError(f"--grid {spec!r} has more than {most} values per "
                         f"axis, more than {GRID_MAX_ROWS} grid rows")
    values = [start]
    for _ in range(math.floor(steps)):
        values.append(values[-1] + step)
    return values


def cmd_catalog(args) -> int:
    if args.action == "list":
        rep = Report()
        for name in catalog.list_entries():
            rep.add(name, catalog.get(name).doc)
        _emit(rep, args)
        return 0
    if args.action == "export":
        if not args.entry:
            raise InputError("catalog export needs an entry name")
        print(catalog.to_structure_text(args.entry, args.params or None),
              end="")
        return 0
    # verify
    names = [args.entry] if args.entry else catalog.list_entries()
    mode = "exact" if args.exact else "float"
    rep = Report()
    all_ok = True
    for name in names:
        entry = catalog.get(name)
        points = [args.params] if args.params else \
            (entry.points or [entry.defaults])
        for idx, pt in enumerate(points):
            vrep = catalog.verify(name, pt, mode=mode)
            for row in vrep.rows:
                key = f"{name}.{idx}.{row.quantity}"
                if row.asserted:
                    rep.add(key, "pass" if row.passed else "FAIL")
                    all_ok = all_ok and bool(row.passed)
                else:
                    rep.add(key, f"reported {_as_text(row.computed)}")
    rep.add("all_passed", all_ok)
    _emit(rep, args)
    return 0 if all_ok else 1


def _as_text(v):
    if isinstance(v, InvariantForm):
        return fmt_form(v)
    return fmt_number(v)


def cmd_yamabe(args) -> int:
    if args.problem:
        problem = yamabe.load_problem(args.problem)
    else:
        problem = yamabe.make_problem(args.generator, N=args.N, n=args.n,
                                      tol=args.tol)
    f0 = None
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        f0 = 0.1 * rng.standard_normal((problem.grid.N, problem.grid.N))
    try:
        result = yamabe.solve_chya(problem, f0=f0)
    except yamabe.PositiveDegreeOpen as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # exp(f) may overflow; law_constancy then reads inf
    with np.errstate(over="ignore"):
        law = yamabe.conformal_scalar_law(problem.S, result.f, problem.n,
                                          problem.grid)
    rep = Report()
    rep.add("N", problem.grid.N)
    rep.add("n", problem.n)
    rep.add("degree", yamabe.gauduchon_degree_grid(problem.S))
    rep.add("lambda", result.lam)
    rep.add("residual", result.residual)
    rep.add("iterations", result.iterations)
    rep.add("converged", result.converged)
    rep.add("f_min", float(np.min(result.f)))
    rep.add("f_max", float(np.max(result.f)))
    rep.add("law_constancy", float(np.max(np.abs(
        law - problem.n * result.lam))))
    _emit(rep, args)
    return 0 if result.converged else 1


def cmd_lee(args) -> int:
    alg, h, rep = _start(args)
    theta, lck, residual = inv.lee_form(alg, h)
    if theta is None:
        rep.add("lee_form", "none")
    else:
        rep.add("lee_form", theta)
        rep.add("lck", lck)
    rep.add("residual", residual)
    _emit(rep, args)
    return 0 if theta is not None else 1


def cmd_gauduchon(args) -> int:
    alg, h, rep = _start(args)
    curv = inv.chern_curvature(alg, h)
    ok, residual = inv.is_gauduchon(curv, h)
    rep.add("gauduchon", ok)
    rep.add("residual", residual)
    if ok:
        rep.add("degree", inv.gauduchon_degree(curv, h))
    _emit(rep, args)
    return 0 if ok else 1


def cmd_bl(args) -> int:
    alg, h, rep = _start(args)
    curv = inv.chern_curvature(alg, h)
    value = inv.bogomolov_lubke(curv, h)
    rep.add("bogomolov_lubke", value)
    rep.add("inequality_holds", value <= args.tol)
    _emit(rep, args)
    return 0 if value <= args.tol else 1


# ---------------------------------------------------------------------------
# argument parsing

# the --params default; read-only, because main's parser, and so this
# default, is shared by every call in a process
NO_PARAMS = types.MappingProxyType({})


def tolerance(text: str) -> float:
    """A ``--tol`` value: a float that is finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _add_common(sub):
    sub.add_argument("source", help="catalog entry name or structure "
                     "file path")
    sub.add_argument("--params", type=parse_params, default=NO_PARAMS,
                     help="metric parameters, e.g. r=1,s=2,u=1/2+1i")
    sub.add_argument("--format", choices=("text", "kv"), default="text")


def _add_exact(sub):
    sub.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic; input that is not "
                     "rational is refused")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the ``cherncurv`` command line."""
    parser = argparse.ArgumentParser(
        prog="cherncurv",
        description="Chern curvature, Einstein residuals and conformal "
                    "normalization for invariant Hermitian metrics")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("curvature", help="curvature tensor and Ricci forms")
    _add_common(p)
    _add_exact(p)
    p.set_defaults(fn=cmd_curvature)

    p = subs.add_parser("einstein", help="Einstein factor and residual")
    _add_common(p)
    _add_exact(p)
    p.add_argument("--kind", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.set_defaults(fn=cmd_einstein)

    p = subs.add_parser("scan", help="Einstein residual over an (r,s,u) grid")
    _add_common(p)
    p.add_argument("--kind", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--grid", help="r and s range as start:stop:step")
    p.set_defaults(fn=cmd_scan)

    p = subs.add_parser("catalog", help="inspect or verify the registry")
    p.add_argument("action", choices=("list", "verify", "export"))
    p.add_argument("entry", nargs="?", help="restrict to one entry")
    p.add_argument("--params", type=parse_params, default=NO_PARAMS)
    p.add_argument("--format", choices=("text", "kv"), default="text")
    _add_exact(p)
    p.set_defaults(fn=cmd_catalog)

    p = subs.add_parser("yamabe", help="conformal normalization solver")
    p.add_argument("--problem", help="key-value problem file")
    p.add_argument("--generator", default="synthetic-v",
                   choices=sorted(yamabe.GENERATORS))
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--seed", type=int, help="randomize the initial guess")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(fn=cmd_yamabe)

    p = subs.add_parser("lee", help="Lee form of the invariant metric")
    _add_common(p)
    p.set_defaults(fn=cmd_lee)

    p = subs.add_parser("gauduchon", help="Gauduchon condition and degree")
    _add_common(p)
    p.set_defaults(fn=cmd_gauduchon)

    p = subs.add_parser("bl", help="Bogomolov-Lubke pairing")
    _add_common(p)
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.set_defaults(fn=cmd_bl)

    return parser


# main's parser, built on its first call and reused: parsing leaves a
# parser as it was, and help and usage text are formatted when printed,
# at the terminal width of that moment
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        # a float overflow, invalid value or division by zero refuses the
        # input; overflows by design are ignored where they happen
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    # the package's input errors are ValueErrors or KeyErrors; a huge
    # rational literal read as a float raises OverflowError, the errstate
    # above FloatingPointError and a Yamabe iterate that is not finite
    # SolverDiverged, all ArithmeticErrors
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
