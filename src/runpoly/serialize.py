"""Lossless text encodings for the package's value types.

Rationals travel as strings "p/q" (just "p" when the denominator is 1), never
as floats, so every JSON document round-trips bit-exactly.  The encoders read
a polynomial's or series' integer numerators over its one denominator, and
ratio_to_text reduces each p/q by its gcd as it prints it.  Triangle counts
are decimal strings too: rows past n = 20 overflow 64-bit consumers.

Every number is written and read in full, past the interpreter's int/str
digit limit (Python 3.10.7+ refuses past 4300 digits, which triangle entries
reach near n = 1560).  The limit is lifted only at the two text boundaries:
encode, around each chunk it makes and never across a yield, and the number
parsers text_to_fraction and doc_to_triangle.  No encoder knows of it.

The LaTeX emitters mirror the usual tabulated presentation: psi rows keep the
K(s-i) prefactor symbolic and pull the coefficients over a common
denominator; Phi rows factor the content and the leading power of x out of
the integer numerators, and a Phi over a denominator ends in /den.

Decoders raise ValueError, and only ValueError, on a malformed document.
They accept ASCII digits only (int() would take any script's digits), and a
count is bare digits: no sign, "_" or space.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterator

from .closedform import PsiPolynomial
from .genfun import RationalGF
from .poly import BivariatePolynomial, Polynomial, TruncatedSeries
from .triangle import RunCountTriangle

_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
_COUNT_RE = re.compile(r"[0-9]+")


def ratio_to_text(p: int, q: int) -> str:
    """The rational p/q, for integers p and q > 0, reduced: "p" when the denominator is 1, else "p/q"."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


class _any_int_digits(contextlib.ContextDecorator):
    """Lift the int <-> str digit limit inside, restoring it after.

    A plain class rather than @contextmanager, as encode enters it once per
    chunk; the saved limits are a stack, so nested and recursive uses restore
    in order.
    """

    def __init__(self):
        self._saved = []

    def __enter__(self):
        if hasattr(sys, "get_int_max_str_digits"):  # an interpreter without the limit has nothing to lift
            self._saved.append(sys.get_int_max_str_digits())
            sys.set_int_max_str_digits(0)
        return self

    def __exit__(self, *exc):
        if self._saved:
            sys.set_int_max_str_digits(self._saved.pop())
        return False


@_any_int_digits()
def text_to_fraction(text: str) -> Fraction:
    m = _FRACTION_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


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
        "coefficients": [ratio_to_text(c, p.den) for c in p.nums],
    }


def doc_to_polynomial(doc: dict) -> Polynomial:
    var, coeffs = _fields(doc, "polynomial", variable=str, coefficients=list)
    return Polynomial(var, [text_to_fraction(c) for c in coeffs])


def bivariate_to_doc(p: BivariatePolynomial) -> dict:
    terms = sorted(p.nums.items())
    return {
        "kind": "polynomial",
        "variables": list(p.vars),
        "terms": [[e1, e2, ratio_to_text(c, p.den)] for (e1, e2), c in terms],
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
        "coefficients": [ratio_to_text(c, ts.den) for c in ts.nums],
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
        label = row.get("n") if isinstance(row, dict) else None
        cells = row.get("counts") if type(label) is int and label == n else None
        if not (isinstance(cells, list) and all(isinstance(c, str) and _COUNT_RE.fullmatch(c) for c in cells)):
            raise ValueError(f"expected row {{'n': {n}, 'counts': [digit strings]}}, got {row!r:.40}")
        counts.append(tuple(int(c) for c in cells))
    return RunCountTriangle(n_max=n_max, rows=tuple(counts))


# ---------------------------------------------------------------------------
# TSV


# Counts per chunk of a triangle row.  A whole row past n = 300 is hundreds
# of KB of text, which lands in freshly mapped pages and sets the process's
# peak memory; much smaller chunks cost CPU in more writes.
_CHUNK = 64


def _row_chunks(tri: RunCountTriangle, between: str, head: str, sep: str, end: str) -> Iterator[str]:
    """Each row of tri as chunks of at most _CHUNK counts joined by sep.

    A row's first chunk opens with between (for every row but the first) and
    head % n; each later chunk opens with sep, and the row's last ends in end.
    """
    lead = ""
    for n, row in enumerate(tri.rows, start=2):
        chunk = lead + head % n + sep.join(map(str, row[:_CHUNK]))
        for i in range(_CHUNK, len(row), _CHUNK):
            yield chunk
            chunk = sep + sep.join(map(str, row[i : i + _CHUNK]))
        yield chunk + end
        lead = between


def _triangle_lines(tri: RunCountTriangle, sep: str, end: str = "") -> Iterator[str]:
    """A line per row, n and its counts joined by sep, then end; each row comes in chunks of at most _CHUNK counts."""
    return _row_chunks(tri, "\n", "%d" + sep, sep, end)


def triangle_to_tsv(tri: RunCountTriangle) -> Iterator[str]:
    return _triangle_lines(tri, "\t")


def polynomial_to_tsv(p: Polynomial | TruncatedSeries, prefix: str = "") -> str:
    """One line `j<TAB>c_j` per stored coefficient of a polynomial or series."""
    lines = [f"{prefix}{j}\t{ratio_to_text(c, p.den)}" for j, c in enumerate(p.nums)]
    return "\n".join(lines)


def bivariate_to_tsv(p: BivariatePolynomial, prefix: str = "") -> str:
    lines = [
        f"{prefix}{e1}\t{e2}\t{ratio_to_text(c, p.den)}"
        for (e1, e2), c in sorted(p.nums.items())
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


def _join_signed(parts: list[tuple[int, str]], den: int = 1) -> str:
    """Render (numerator, power-text) monomials, each numerator over den > 0, as a signed sum."""
    pieces = []
    for c, pow_text in parts:
        sign = "-" if c < 0 else ("+" if pieces else "")
        mag = ratio_to_text(abs(c), den)
        if pow_text:
            if mag == "1":
                mag = ""
            elif "/" in mag:
                mag = f"({mag})"
        pieces.append(f"{sign}{mag}{pow_text}")
    return "".join(pieces) if pieces else "0"


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
    """One table row: content and leading x power factored out of Phi_s's numerators, over den."""
    if p.is_zero:
        return "0"
    power = next(j for j, c in enumerate(p.nums) if c)
    inner = p.nums[power:]
    content = gcd(*inner)
    inner = [c // content for c in inner]
    head = f"{content}{_power_text(p.var, power)}"
    if inner != [1]:
        parts = [
            (c, _power_text(p.var, j))
            for j, c in sorted(enumerate(inner), reverse=True)
            if c
        ]
        head = f"{head}({_join_signed(parts)})"
    return head if p.den == 1 else f"{head}/{p.den}"


def delta_latex(factors: tuple[tuple[int, int], ...]) -> str:
    """The factored denominator, e.g. (1-4x)(1-3x)(1-2x)^2(1-x)^2; a power from 10 up is braced."""
    return "".join(_power_text(f"(1-{'' if c == 1 else c}x)", e) for c, e in factors)


def series_to_latex(ts: TruncatedSeries) -> str:
    parts = [
        (c, _power_text(ts.var, j)) for j, c in enumerate(ts.nums) if c
    ]
    head = _join_signed(parts, ts.den)
    return f"{head}+O({_power_text(ts.var, ts.order + 1)})"


# ---------------------------------------------------------------------------
# Whole documents, one encoder per (kind, format)
#
#   triangle             RunCountTriangle, or cli.DecimalTriangle (n_max and rows)
#   psi                  list of PsiPolynomial
#   phi                  RationalGF Phi_s / Delta_s
#   series               TruncatedSeries
#   verification-report  list of CheckResult


def _psi_json(family: list[PsiPolynomial]) -> dict:
    """The psi document, whose json text _psi_json_text writes."""
    rows = [
        {"i": psi.index, "prefactor": _prefactor(psi.index), "part": bivariate_to_doc(psi.part)}
        for psi in family
    ]
    return {"kind": "polynomial", "family": "psi", "rows": rows}


def _psi_json_text(family: list[PsiPolynomial]) -> str:
    """The text of json.dumps(_psi_json(family), indent=2), written directly."""
    rows = []
    for psi in family:
        p = psi.part
        names = ",".join(f"\n          {json.dumps(v)}" for v in p.vars)
        terms = ",".join(
            f'\n          [\n            {e1},\n            {e2},\n            "{ratio_to_text(c, p.den)}"\n          ]'
            for (e1, e2), c in sorted(p.nums.items())
        )
        terms = f"[{terms}\n        ]" if terms else "[]"
        rows.append(
            f'\n    {{\n      "i": {psi.index},\n      "prefactor": "{_prefactor(psi.index)}",'
            f'\n      "part": {{\n        "kind": "polynomial",\n        "variables": [{names}\n        ],'
            f'\n        "terms": {terms}\n      }}\n    }}'
        )
    body = f"[{','.join(rows)}\n  ]" if rows else "[]"
    return f'{{\n  "kind": "polynomial",\n  "family": "psi",\n  "rows": {body}\n}}'


def _phi_json(gf: RationalGF, s: int) -> dict:
    return {
        "kind": "polynomial",
        "family": "phi",
        "s": s,
        "numerator": polynomial_to_doc(gf.numerator),
        "denominator_factors": [
            {"parameter": str(c), "multiplicity": e}
            for c, e in gf.denominator_factors
        ],
    }


def _phi_tsv(gf: RationalGF) -> str:
    factors = [f"factor\t{c}\t{e}" for c, e in gf.denominator_factors]
    return _join_lines(polynomial_to_tsv(gf.numerator, "coefficient\t"), *factors)


def _report_json(results) -> dict:
    return {
        "kind": "verification-report",
        "passed": all(r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }


def _triangle_json(tri: RunCountTriangle, method: str) -> Iterator[str]:
    """The triangle document in the layout of json.dumps(doc, indent=2), each row in chunks of at most _CHUNK counts."""
    yield f'{{\n  "kind": "triangle",\n  "n_max": {tri.n_max},\n  "rows": ['
    yield from _row_chunks(
        tri, ",", '\n    {\n      "n": %d,\n      "counts": [\n        "', '",\n        "', '"\n      ]\n    }'
    )
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
    ("psi", "json"): _whole(_psi_json_text),
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


def encode(kind: str, fmt: str, value, **params) -> Iterator[str]:
    """The text of the document of the given kind for value, as chunks to write in order.

    Nothing is encoded until the first chunk is asked for.  The triangle
    encoders yield each row in chunks of at most _CHUNK counts, so no row's
    whole text is ever one string (json adds a header and a footer); every
    other document is small and comes as one chunk.  Only json documents echo
    the request parameters (`method`, `s`); tsv and latex carry the bare data.
    Each chunk is made with the digit limit lifted, and the limit is back in
    place before the chunk is handed out.
    """
    encoder = ENCODERS[kind, fmt]
    with _any_int_digits():  # a _whole encoder makes its text here
        chunks = iter(encoder(value, **params) if fmt == "json" else encoder(value))
    while True:
        with _any_int_digits():
            chunk = next(chunks, None)
        if chunk is None:
            return
        yield chunk
