"""Plain-text structure-equation files.

Grammar (one declaration per line, '#' comments)::

    dim <n>
    d phi<i> = <term> + <term> - ...
    metric surface r=<num> s=<num> u=<complex> [ell=<num>]

A term is ``<complex> phi<j>^phi<k>``, ``<complex> phi<j>^bar<k>`` or
``<complex> bar<j>^bar<k>``; the coefficient may be omitted when it is 1.
Complex literals look like ``a+bi`` with rational (``3/4``) or decimal
parts; a bare ``i`` denotes the unit.  A file whose literals are all
rational parses to exact Gaussian rationals; one decimal literal anywhere
puts the whole file in floats (:func:`~cherncurv.scalars.unify`).  The
metric parameters r, s and ell must be real.

Only the grammar is checked: integrability and the Jacobi identity are
checked where a metric is solved
(:func:`~cherncurv.invariant.chern_curvature`).

``print_structure(parse_structure(text))`` is the identity on canonical
files, and parse(print(alg)) always reproduces the algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .forms import CoframeAlgebra
from .scalars import QQi, is_exact, unify


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_NUM = r"(?:\d+(?:/\d+|\.\d*(?:[eE][+-]?\d+)?|[eE][+-]?\d+)?" \
       r"|\.\d+(?:[eE][+-]?\d+)?)"
_COMPLEX = rf"[+-]?{_NUM}?i|[+-]?{_NUM}(?:[+-]{_NUM}?i)?"
_MONO = r"(phi|bar)(\d+)\^(phi|bar)(\d+)"
_TERM_RE = re.compile(rf"^(?:({_COMPLEX})\s+)?{_MONO}$")
_COMPLEX_RE = re.compile(rf"^{_COMPLEX}$")
# the CoframeAlgebra table of each monomial type
_TABLES = {("phi", "phi"): "a", ("phi", "bar"): "b", ("bar", "bar"): "c"}


def parse_complex(text: str):
    """Parse an ``a+bi`` literal; exact QQi for rational parts, complex
    otherwise."""
    text = text.strip().replace(" ", "")
    if not _COMPLEX_RE.match(text):
        raise ValueError(f"malformed complex literal {text!r}")
    # split off an imaginary tail if present
    re_part, im_part = "0", "0"
    if text.endswith("i"):
        body = text[:-1]
        m = re.search(rf"(?<![eE])[+-](?:{_NUM})?$", body)
        if m and m.start() > 0:
            re_part, im_part = body[:m.start()], body[m.start():] or "1"
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
    else:
        re_part = text
    exact = not any(c in part for part in (re_part, im_part)
                    for c in ".eE")
    try:
        if exact:
            return QQi(Fraction(re_part), Fraction(im_part))
        return complex(float(Fraction(re_part)) if "/" in re_part
                       else float(re_part),
                       float(Fraction(im_part)) if "/" in im_part
                       else float(im_part))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_complex(v) -> str:
    """Canonical rendering, inverse of :func:`parse_complex`."""
    exact = is_exact(v)
    v = QQi(v) if exact else complex(v)
    re_p, im_p = v.real, v.imag

    def num(x):
        return str(x) if exact else repr(float(x))

    if not im_p:
        return num(re_p)
    im_txt = ("" if im_p == 1 else "-" if im_p == -1
              else num(im_p)) + "i"
    if not re_p:
        return im_txt
    if not im_txt.startswith("-"):
        im_txt = "+" + im_txt
    return num(re_p) + im_txt


@dataclass
class StructureDoc:
    algebra: CoframeAlgebra
    metric_params: Optional[Dict[str, object]] = None


def parse_params(pieces) -> Dict[str, object]:
    """The parameters of ``key=value`` pieces, each key one of r, s, u and
    ell and each value a complex literal (:func:`parse_complex`); blank
    pieces are skipped.  A bad piece raises ValueError."""
    params: Dict[str, object] = {}
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"expected key=value, got {piece!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in ("r", "s", "u", "ell"):
            raise ValueError(f"unknown parameter {key!r}")
        params[key] = parse_complex(val)
    return params


def _parse_metric_line(rest: str, lineno: int, col: int):
    fields = rest.split()
    if not fields or fields[0] != "surface":
        raise ParseError(lineno, col, "only the 'surface' metric family "
                         "is recognized")
    try:
        return parse_params(fields[1:])
    except ValueError as exc:
        raise ParseError(lineno, col, str(exc)) from None


def parse_structure(text: str) -> StructureDoc:
    """Parse a structure file, checking the grammar only."""
    n = None
    terms = []
    metric = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        stripped = line.strip()
        if stripped.startswith("dim"):
            if n is not None:
                raise ParseError(lineno, col, "duplicate dim declaration")
            try:
                n = int(stripped[3:].strip())
            except ValueError:
                raise ParseError(lineno, col, "dim needs an integer") \
                    from None
            if n < 1:
                raise ParseError(lineno, col, "dim must be positive")
            continue
        if stripped.startswith("metric"):
            metric = _parse_metric_line(stripped[6:].strip(), lineno, col)
            continue
        m = re.match(r"^d\s+phi(\d+)\s*=\s*(.*)$", stripped)
        if not m:
            raise ParseError(lineno, col, f"unrecognized line {stripped!r}")
        if n is None:
            raise ParseError(lineno, col, "dim must come before equations")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ParseError(lineno, col, f"index phi{i} out of range 1..{n}")
        _parse_terms(m.group(2), i, n, terms, lineno, col + m.start(2))
    if n is None:
        raise ParseError(1, 1, "missing dim declaration")
    _, (coefs, params) = unify([dict(enumerate(c for _, _, c in terms)),
                                metric or {}])
    tables = {"a": {}, "b": {}, "c": {}}
    for (name, key, _), v in zip(terms, coefs.values()):
        table = tables[name]
        table[key] = table[key] + v if key in table else v
    alg = CoframeAlgebra(n, *({k: v for k, v in tables[name].items() if v}
                              for name in "abc"))
    return StructureDoc(alg, params if metric is not None else None)


def _parse_terms(body: str, i: int, n: int, terms, lineno: int, col0: int):
    """Append the (table, (i, j, k), coefficient) terms of one equation."""
    body = body.strip()
    if not body or body == "0":
        return
    # terms are separated by +/- with surrounding whitespace; signs inside
    # a coefficient literal are never whitespace padded
    pieces = re.split(r"\s([+-])\s", body)
    signed = [("+", pieces[0])]
    for k in range(1, len(pieces), 2):
        signed.append((pieces[k], pieces[k + 1]))
    offset = col0
    for sign, piece in signed:
        m = _TERM_RE.match(piece.strip())
        if not m:
            raise ParseError(lineno, offset, f"malformed term {piece!r}")
        coef_txt, t1, j, t2, k = m.groups()
        try:
            coef = parse_complex(coef_txt) if coef_txt else QQi(1)
        except ValueError as exc:
            raise ParseError(lineno, offset, str(exc)) from None
        if sign == "-":
            coef = -coef
        j, k = int(j), int(k)
        for idx in (j, k):
            if not 1 <= idx <= n:
                raise ParseError(lineno, offset,
                                 f"index {idx} out of range 1..{n}")
        table = _TABLES.get((t1, t2))
        if table is None:
            raise ParseError(lineno, offset,
                             "bar^phi terms must be written as -phi^bar")
        offset += len(piece) + 3
        if table != "b":
            if j == k:
                continue  # phi^j ^ phi^j vanishes
            if j > k:
                j, k, coef = k, j, -coef
        terms.append((table, (i, j, k), coef))


def print_structure(alg: CoframeAlgebra,
                    metric_params: Optional[Dict[str, object]] = None) -> str:
    """Canonical rendering; parse_structure inverts it."""
    lines = [f"dim {alg.n}"]
    for i in range(1, alg.n + 1):
        terms = []
        for (ii, j, k), v in sorted(alg.a.items()):
            if ii == i:
                terms.append(f"{format_complex(v)} phi{j}^phi{k}")
        for (ii, j, k), v in sorted(alg.b.items()):
            if ii == i:
                terms.append(f"{format_complex(v)} phi{j}^bar{k}")
        for (ii, j, k), v in sorted(alg.c.items()):
            if ii == i:
                terms.append(f"{format_complex(v)} bar{j}^bar{k}")
        lines.append(f"d phi{i} = " + (" + ".join(terms) if terms else "0"))
    if metric_params:
        kv = " ".join(f"{key}={format_complex(val)}"
                      for key, val in metric_params.items())
        lines.append(f"metric surface {kv}")
    return "\n".join(lines) + "\n"
