"""Output checks for the benchmark's runpoly commands.

Each check decodes one command's stdout and compares it with values the
benchmark computes on its own: the P(n, s) triangle from the three-term
recurrence (written here, not imported from the program) and factorials.
Decoding goes through `runpoly.serialize` where the program has a decoder.
`check_output` returns None when the output is right and a message naming
the first mismatch otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial


class ReferenceTriangle:
    """P(n, s) by the run-count recurrence, grown on demand; row n is indexed by s."""

    def __init__(self) -> None:
        self.rows: list[list[int]] = [[0], [0, 0], [0, 2, 0]]

    def row(self, n: int) -> list[int]:
        while len(self.rows) <= n:
            m = len(self.rows)
            prev = self.rows[-1] + [0, 0]
            self.rows.append(
                [0]
                + [
                    s * prev[s] + 2 * prev[s - 1] + (m - s) * (prev[s - 2] if s >= 2 else 0)
                    for s in range(1, m)
                ]
                + [0]
            )
        return self.rows[n]

    def value(self, n: int, s: int) -> int:
        row = self.row(n)
        return row[s] if 0 <= s < len(row) else 0


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _tsv_rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


def _check_triangle(argv, text, fmt, ref):
    from runpoly import serialize

    n_max = int(_option(argv, "--n-max"))
    if fmt == "json":
        doc = json.loads(text)
    else:
        rows = _tsv_rows(text)
        doc = {
            "kind": "triangle",
            "n_max": n_max,
            "rows": [{"n": int(r[0]), "counts": r[1:]} for r in rows],
        }
        if [int(r[0]) for r in rows] != list(range(2, n_max + 1)):
            return "tsv row labels are not 2..n_max"
    tri = serialize.doc_to_triangle(doc)
    if tri.n_max != n_max or len(tri.rows) != n_max - 1:
        return f"triangle has n_max={tri.n_max} and {len(tri.rows)} rows, expected n_max={n_max}"
    for n in range(2, n_max + 1):
        row = list(tri.row(n))
        if len(row) != n - 1:
            return f"row n={n} has {len(row)} counts, expected {n - 1}"
        if sum(row) != factorial(n):
            return f"row n={n} sums to {sum(row)}, not {n}!"
        for s, (got, want) in enumerate(zip(row, ref.row(n)[1:n]), start=1):
            if got != want:
                return f"P({n},{s}) = {got}, expected {want}"
    return None


def _check_phi(argv, text, fmt, ref):
    from runpoly import serialize

    s = int(_option(argv, "--s"))
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("s") != s:
            return f"document is for s={doc.get('s')}, expected {s}"
        coeffs = list(serialize.doc_to_polynomial(doc["numerator"]).coeffs)
        factors = [
            (serialize.text_to_fraction(f["parameter"]), f["multiplicity"])
            for f in doc["denominator_factors"]
        ]
    else:
        rows = _tsv_rows(text)
        coeffs = [serialize.text_to_fraction(r[2]) for r in rows if r[0] == "coefficient"]
        if [int(r[1]) for r in rows if r[0] == "coefficient"] != list(range(len(coeffs))):
            return "coefficient rows are not numbered 0..deg"
        factors = [
            (serialize.text_to_fraction(r[1]), int(r[2])) for r in rows if r[0] == "factor"
        ]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    want_degree = 1 + -(-s * (s + 2) // 4)
    if len(coeffs) - 1 != want_degree:
        return f"deg Phi_{s} = {len(coeffs) - 1}, expected {want_degree}"
    if factors != [(s - i, i // 2 + 1) for i in range(s)]:
        return f"Delta_{s} factors are {factors}"
    # Phi_s / Delta_s must expand to the column s of the triangle.
    order = s + 12
    delta = [1]
    for c, e in factors:
        for _ in range(e):
            delta = [a - c * b for a, b in zip(delta + [0], [0] + delta)]
    inverse = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        inverse[m] = -sum(delta[k] * inverse[m - k] for k in range(1, min(m, len(delta) - 1) + 1))
    for n in range(order + 1):
        got = sum(coeffs[j] * inverse[n - j] for j in range(min(n, len(coeffs) - 1) + 1))
        want = ref.value(n, s) if n >= 2 else 0
        if got != want:
            return f"Phi_{s}/Delta_{s} has x^{n} coefficient {got}, expected P({n},{s}) = {want}"
    return None


def _check_psi(argv, text, fmt, ref):
    from runpoly import serialize

    i_max = int(_option(argv, "--i-max"))
    family: dict[int, dict[tuple[int, int], Fraction]] = {}
    if fmt == "json":
        doc = json.loads(text)
        for row in doc["rows"]:
            part = serialize.doc_to_bivariate(row["part"])
            if part.vars != ("n", "s"):
                return f"Q_{row['i']} has variables {part.vars}"
            family[row["i"]] = part.terms
    else:
        for i, en, es, c in _tsv_rows(text):
            family.setdefault(int(i), {})[(int(en), int(es))] = serialize.text_to_fraction(c)
    if sorted(family) != list(range(i_max + 1)):
        return f"psi rows are {sorted(family)}, expected 0..{i_max}"
    for i, terms in family.items():
        degree = max((en for en, _ in terms), default=-1)
        if degree != i // 2:
            return f"deg_n Q_{i} = {degree}, expected {i // 2}"
    # P(n, s) = sum_{i<s} K(s-i) Q_i(n, s) (s-i)^n, K(t) = 2^(2-t), on sample points.
    for s in sorted({1, 2, 3, 5, (i_max + 1) // 2, i_max + 1} & set(range(1, i_max + 2))):
        for n in (s + 1, s + 7):
            total = Fraction(0)
            for i in range(s):
                t = s - i
                q = sum(c * n**en * s**es for (en, es), c in family[i].items())
                total += Fraction(4 * t**n, 2**t) * q
            if total != ref.value(n, s):
                return f"psi closed form gives P({n},{s}) = {total}, expected {ref.value(n, s)}"
    return None


def _check_series(argv, text, fmt, ref):
    from runpoly import serialize

    s = int(_option(argv, "--s"))
    order = int(_option(argv, "--order", "30"))
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("s") != s:
            return f"document is for s={doc.get('s')}, expected {s}"
        series = serialize.doc_to_series(doc)
        if series.order != order:
            return f"series order {series.order}, expected {order}"
        coeffs = list(series.coeffs)
    else:
        rows = _tsv_rows(text)
        if [int(r[0]) for r in rows] != list(range(order + 1)):
            return f"tsv rows are not numbered 0..{order}"
        coeffs = [serialize.text_to_fraction(r[1]) for r in rows]
    for n, c in enumerate(coeffs):
        want = ref.value(n, s) if n >= 2 else 0
        if c != want:
            return f"u_{s} has x^{n} coefficient {c}, expected {want}"
    return None


def _check_verify(argv, text, fmt, ref):
    if fmt == "json":
        doc = json.loads(text)
        checks = doc.get("checks", [])
        if doc.get("kind") != "verification-report" or doc.get("passed") is not True:
            return "verification report does not say passed"
        failed = [c["name"] for c in checks if c.get("passed") is not True]
    else:
        checks = _tsv_rows(text)
        failed = [r[0] for r in checks if len(r) < 2 or r[1] != "ok"]
    if len(checks) != 13:
        return f"verification report has {len(checks)} checks, expected 13"
    if failed:
        return f"checks failed: {', '.join(failed)}"
    return None


CHECKERS = {
    "table": _check_triangle,
    "phi": _check_phi,
    "psi": _check_psi,
    "series": _check_series,
    "verify": _check_verify,
}


def check_output(argv: list[str], stdout: bytes, ref: ReferenceTriangle) -> str | None:
    """None if stdout is the right answer for the cli arguments argv, else why not."""
    fmt = _option(argv, "--format", "json")
    try:
        return CHECKERS[argv[0]](argv, stdout.decode("ascii"), fmt, ref)
    except Exception as exc:  # undecodable output is a wrong answer, not a crash
        return f"output does not decode: {type(exc).__name__}: {exc}"
