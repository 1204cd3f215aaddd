"""Lossless text encodings for the package's value types.

Rationals travel as strings "p/q" (just "p" when the denominator is 1), never
as floats, so every JSON document round-trips bit-exactly.  Triangle counts
are decimal strings too: rows past n = 20 overflow 64-bit consumers.  The
triangle codecs lift the interpreter's int/str digit limit (Python 3.10.7+
refuses past 4300 digits, which row entries reach near n = 1560) while they
convert, and restore it after; the encoders lift it for one row at a time and
never hold it across a yield.

The LaTeX emitters mirror the usual tabulated presentation: psi rows keep the
K(s-i) prefactor symbolic and pull the coefficients over a common
denominator; Phi rows factor out the content and the leading power of x.

ENCODERS at the bottom holds the one encoder for each (document kind,
format) pair the CLI prints; `encode` looks them up.  Every encoder returns
its text as an iterable of chunks that join to the document: a triangle
comes a row at a time, so its tens of megabytes of text never sit in memory
at once.  Decoders raise ValueError, and only ValueError, on a malformed
document.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .closedform import PsiPolynomial
from .genfun import RationalGF
from .poly import BivariatePolynomial, Polynomial, TruncatedSeries
from .triangle import RunCountTriangle

_FRACTION_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


def fraction_to_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def text_to_fraction(text: str) -> Fraction:
    m = _FRACTION_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


@contextlib.contextmanager
def _any_int_digits():
    """Lift the int <-> str digit limit inside, restoring it after."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # an interpreter without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _fields(doc, kind: str, **types: type) -> list:
    """The named fields of a document of the given kind, each of the given type."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        got = doc.get("kind") if isinstance(doc, dict) else type(doc).__name__
        raise ValueError(f"expected kind {kind!r}, got {got!r}")
    values = [doc.get(name) for name in types]
    for (name, t), value in zip(types.items(), values):
        if not isinstance(value, t) or isinstance(value, bool):
            raise ValueError(f"{kind} field {name!r} must be {t.__name__}, got {value!r:.40}")
    return values


# ---------------------------------------------------------------------------
# JSON-shaped documents (plain dicts, ready for json.dumps)


def polynomial_to_doc(p: Polynomial) -> dict:
    return {
        "kind": "polynomial",
        "variable": p.var,
        "coefficients": [fraction_to_text(c) for c in p.coeffs],
    }


def doc_to_polynomial(doc: dict) -> Polynomial:
    var, coeffs = _fields(doc, "polynomial", variable=str, coefficients=list)
    return Polynomial(var, [text_to_fraction(c) for c in coeffs])


def bivariate_to_doc(p: BivariatePolynomial) -> dict:
    terms = sorted(p.terms.items())
    return {
        "kind": "polynomial",
        "variables": list(p.vars),
        "terms": [[e1, e2, fraction_to_text(c)] for (e1, e2), c in terms],
    }


def doc_to_bivariate(doc: dict) -> BivariatePolynomial:
    names, terms = _fields(doc, "polynomial", variables=list, terms=list)
    if len(names) != 2 or not all(isinstance(v, str) for v in names):
        raise ValueError(f"expected two variable names, got {names!r:.40}")
    parsed = {}
    for term in terms:
        exponents = term[:2] if isinstance(term, list) and len(term) == 3 else ()
        if not (exponents and all(type(e) is int and e >= 0 for e in exponents)):
            raise ValueError(f"expected a term [e1, e2, coefficient], got {term!r:.40}")
        if (term[0], term[1]) in parsed:
            raise ValueError(f"duplicate term for exponents ({term[0]}, {term[1]})")
        parsed[term[0], term[1]] = text_to_fraction(term[2])
    return BivariatePolynomial(tuple(names), parsed)


def series_to_doc(ts: TruncatedSeries) -> dict:
    return {
        "kind": "series",
        "variable": ts.var,
        "order": ts.order,
        "coefficients": [fraction_to_text(c) for c in ts.coeffs],
    }


def doc_to_series(doc: dict) -> TruncatedSeries:
    var, order, coeffs = _fields(doc, "series", variable=str, order=int, coefficients=list)
    if len(coeffs) != order + 1:
        raise ValueError("coefficient list does not match the declared order")
    return TruncatedSeries(var, order, [text_to_fraction(c) for c in coeffs])


@_any_int_digits()
def doc_to_triangle(doc: dict) -> RunCountTriangle:
    n_max, rows = _fields(doc, "triangle", n_max=int, rows=list)
    counts = []
    for n, row in enumerate(rows, start=2):
        cells = row.get("counts") if isinstance(row, dict) and row.get("n") == n else None
        if not (isinstance(cells, list) and all(isinstance(c, str) for c in cells)):
            raise ValueError(f"expected row {{'n': {n}, 'counts': [strings]}}, got {row!r:.40}")
        counts.append(tuple(int(c) for c in cells))
    return RunCountTriangle(n_max=n_max, rows=tuple(counts))


# ---------------------------------------------------------------------------
# TSV


def _triangle_lines(tri: RunCountTriangle, sep: str, end: str = "") -> Iterator[str]:
    """One chunk per row: n and its counts joined by sep, then end; the chunks join to a line per row."""
    for n in range(2, tri.n_max + 1):
        with _any_int_digits():
            line = sep.join(map(str, (n, *tri.row(n))))
        yield ("" if n == 2 else "\n") + line + end


def triangle_to_tsv(tri: RunCountTriangle) -> Iterator[str]:
    return _triangle_lines(tri, "\t")


def polynomial_to_tsv(p: Polynomial | TruncatedSeries, prefix: str = "") -> str:
    """One line `j<TAB>c_j` per stored coefficient of a polynomial or series."""
    lines = [f"{prefix}{j}\t{fraction_to_text(c)}" for j, c in enumerate(p.coeffs)]
    return "\n".join(lines)


def bivariate_to_tsv(p: BivariatePolynomial, prefix: str = "") -> str:
    lines = [
        f"{prefix}{e1}\t{e2}\t{fraction_to_text(c)}"
        for (e1, e2), c in sorted(p.terms.items())
    ]
    return "\n".join(lines)


def _join_lines(*blocks: str) -> str:
    """Concatenate tsv blocks, dropping empty ones so no blank line appears."""
    return "\n".join(b for b in blocks if b)


# ---------------------------------------------------------------------------
# LaTeX


def _power_text(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}" if e < 10 else f"{var}^{{{e}}}"


def _join_signed(parts: list[tuple[Fraction | int, str]]) -> str:
    """Render (coefficient, power-text) monomials as a signed sum."""
    pieces = []
    for c, pow_text in parts:
        sign = "-" if c < 0 else ("+" if pieces else "")
        mag = fraction_to_text(abs(c))
        if pow_text:
            if mag == "1":
                mag = ""
            elif "/" in mag:
                mag = f"({mag})"
        pieces.append(f"{sign}{mag}{pow_text}")
    return "".join(pieces) if pieces else "0"


def polynomial_to_latex(p: Polynomial) -> str:
    parts = [
        (p.coefficient(j), _power_text(p.var, j))
        for j in range(p.degree, -1, -1)
        if p.coefficient(j)
    ]
    return _join_signed(parts)


def _prefactor(i: int) -> str:
    return "K(s)" if i == 0 else f"K(s-{i})"


def psi_row_latex(psi: PsiPolynomial) -> str:
    """One table row: prefactor K(s-i), expanded numerator, common denominator."""
    prefactor, den = _prefactor(psi.index), psi.part.den
    if not psi.part.nums:
        return f"{prefactor}(0)"
    # integer numerators over the common denominator, highest n power first, s powers breaking ties
    ordered = sorted(psi.part.nums.items(), key=lambda item: (-item[0][0], -item[0][1]))
    parts = [(c, _power_text("n", en) + _power_text("s", es)) for (en, es), c in ordered]
    numerator = _join_signed(parts)
    if numerator == "1" and den == 1:
        return prefactor
    body = f"{prefactor}({numerator})"
    return body if den == 1 else f"{body}/{den}"


def phi_row_latex(p: Polynomial) -> str:
    """One table row: content and leading x power factored out of Phi_s."""
    if p.is_zero:
        return "0"
    if p.den != 1:
        return polynomial_to_latex(p)
    power = next(j for j, c in enumerate(p.nums) if c)
    inner = p.nums[power:]
    content = gcd(*inner)
    inner = [c // content for c in inner]
    head = f"{content}{_power_text(p.var, power)}"
    if inner == [1]:
        return head
    parts = [
        (c, _power_text(p.var, j))
        for j, c in sorted(enumerate(inner), reverse=True)
        if c
    ]
    return f"{head}({_join_signed(parts)})"


def delta_latex(factors: tuple[tuple[Fraction, int], ...], var: str = "x") -> str:
    """The factored denominator, e.g. (1-4x)(1-3x)(1-2x)^2(1-x)^2."""
    pieces = []
    for c, e in factors:
        c_text = "" if c == 1 else fraction_to_text(c)
        base = f"(1-{c_text}{var})"
        pieces.append(base if e == 1 else f"{base}^{e}")
    return "".join(pieces)


def series_to_latex(ts: TruncatedSeries) -> str:
    parts = [
        (c, _power_text(ts.var, j)) for j, c in enumerate(ts.coeffs) if c
    ]
    head = _join_signed(parts)
    return f"{head}+O({_power_text(ts.var, ts.order + 1)})"


# ---------------------------------------------------------------------------
# Whole documents, one encoder per (kind, format)
#
#   triangle             RunCountTriangle
#   psi                  list of PsiPolynomial
#   phi                  RationalGF Phi_s / Delta_s
#   series               TruncatedSeries
#   verification-report  list of CheckResult


def _psi_json(family: list[PsiPolynomial]) -> dict:
    rows = [
        {"i": psi.index, "prefactor": _prefactor(psi.index), "part": bivariate_to_doc(psi.part)}
        for psi in family
    ]
    return {"kind": "polynomial", "family": "psi", "rows": rows}


def _phi_json(gf: RationalGF, s: int) -> dict:
    return {
        "kind": "polynomial",
        "family": "phi",
        "s": s,
        "numerator": polynomial_to_doc(gf.numerator),
        "denominator_factors": [
            {"parameter": fraction_to_text(c), "multiplicity": e}
            for c, e in gf.denominator_factors
        ],
    }


def _phi_tsv(gf: RationalGF) -> str:
    factors = [f"factor\t{fraction_to_text(c)}\t{e}" for c, e in gf.denominator_factors]
    return _join_lines(polynomial_to_tsv(gf.numerator, "coefficient\t"), *factors)


def _report_json(results) -> dict:
    return {
        "kind": "verification-report",
        "passed": all(r.passed for r in results),
        "checks": [dataclasses.asdict(r) for r in results],
    }


def _triangle_json(tri: RunCountTriangle, method: str) -> Iterator[str]:
    """The triangle document in the layout of json.dumps(doc, indent=2), a row per chunk."""
    yield f'{{\n  "kind": "triangle",\n  "n_max": {tri.n_max},\n  "rows": ['
    for n in range(2, tri.n_max + 1):
        with _any_int_digits():
            counts = '",\n        "'.join(map(str, tri.row(n)))
        row = f'\n    {{\n      "n": {n},\n      "counts": [\n        "{counts}"\n      ]\n    }}'
        yield row if n == 2 else "," + row
    yield f'\n  ],\n  "method": {json.dumps(method)}\n}}'


def _whole(to_text):
    """An encoder for a small document: its whole text as one chunk."""
    return lambda value, **params: [to_text(value, **params)]


def _json(to_doc):
    """A json encoder for a small document: json.dumps(doc, indent=2) as one chunk."""
    return _whole(lambda value, **params: json.dumps(to_doc(value, **params), indent=2))


ENCODERS = {
    ("triangle", "json"): _triangle_json,
    ("triangle", "tsv"): triangle_to_tsv,
    ("triangle", "latex"): lambda tri: _triangle_lines(tri, " & ", r" \\"),
    ("psi", "json"): _json(_psi_json),
    ("psi", "tsv"): _whole(lambda family: _join_lines(
        *(bivariate_to_tsv(psi.part, f"{psi.index}\t") for psi in family)
    )),
    ("psi", "latex"): _whole(lambda family: "\n".join(
        f"{psi.index} & {psi_row_latex(psi)} \\\\" for psi in family
    )),
    ("phi", "json"): _json(_phi_json),
    ("phi", "tsv"): _whole(_phi_tsv),
    ("phi", "latex"): _whole(lambda gf: (
        f"\\frac{{{phi_row_latex(gf.numerator)}}}{{{delta_latex(gf.denominator_factors)}}}"
    )),
    ("series", "json"): _json(lambda ts, s: {**series_to_doc(ts), "s": s}),
    ("series", "tsv"): _whole(polynomial_to_tsv),
    ("series", "latex"): _whole(series_to_latex),
    ("verification-report", "json"): _json(_report_json),
    ("verification-report", "tsv"): _whole(lambda results: "\n".join(
        f"{r.name}\t{r.status}\t{r.detail}" for r in results
    )),
    ("verification-report", "latex"): _whole(lambda results: "\n".join(
        f"{r.name} & {r.status} \\\\" for r in results
    )),
}


def encode(kind: str, fmt: str, value, **params) -> Iterable[str]:
    """The text of the document of the given kind for value, as chunks to write in order.

    The triangle encoders yield one chunk per row (json adds a header and a
    footer); every other document is small and comes as one chunk.  Only json
    documents echo the request parameters (`method`, `s`); tsv and latex
    carry the bare data.
    """
    encoder = ENCODERS[kind, fmt]
    return encoder(value, **params) if fmt == "json" else encoder(value)
