import copy
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from runpoly.cli import main
from runpoly.closedform import PsiPolynomial, psi_polys
from runpoly.genfun import RationalGF, delta_factors, phi_s_poly, u_s_series
from runpoly.poly import BivariatePolynomial, Polynomial, TruncatedSeries
from runpoly.serialize import (
    _any_int_digits,
    _psi_json,
    _psi_json_text,
    encode,
    bivariate_to_doc,
    delta_latex,
    doc_to_bivariate,
    doc_to_polynomial,
    doc_to_series,
    doc_to_triangle,
    phi_row_latex,
    polynomial_to_doc,
    polynomial_to_tsv,
    psi_row_latex,
    ratio_to_text,
    series_to_doc,
    series_to_latex,
    text_to_fraction,
    triangle_to_tsv,
)
from runpoly.triangle import RunCountTriangle, build_triangle

DEFAULT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: None)()
small_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def triangle_doc(tri: RunCountTriangle) -> dict:
    """The triangle's json document, as the CLI prints it."""
    return json.loads("".join(encode("triangle", "json", tri, method="recurrence")))


class TestRationalText:
    def test_integer_form_drops_denominator(self):
        assert ratio_to_text(4, 1) == "4"
        assert ratio_to_text(-7, 1) == "-7"
        assert ratio_to_text(6, 4) == "3/2"
        assert ratio_to_text(-1, 8) == "-1/8"

    @given(small_fractions)
    def test_round_trip(self, q):
        assert text_to_fraction(ratio_to_text(q.numerator, q.denominator)) == q

    @pytest.mark.parametrize("bad", ["1.5", "3/0", "1e3", "2/-3", "", "x", "1/2/3", "\u0661", "\u0663/4"])
    def test_rejects_non_rational_text(self, bad):
        with pytest.raises(ValueError):
            text_to_fraction(bad)


class TestJsonDocs:
    @given(st.lists(small_fractions, max_size=8))
    def test_polynomial_round_trip(self, coeffs):
        p = Polynomial("x", coeffs)
        doc = polynomial_to_doc(p)
        assert doc["kind"] == "polynomial"
        assert doc_to_polynomial(json.loads(json.dumps(doc))) == p

    def test_polynomial_doc_has_no_floats(self):
        doc = polynomial_to_doc(Polynomial("x", [Fraction(1, 3), Fraction(2, 7)]))

        def reject(_):
            raise AssertionError("float leaked into JSON")

        json.loads(json.dumps(doc), parse_float=reject)

    def test_bivariate_round_trip(self):
        for psi in psi_polys(6):
            doc = bivariate_to_doc(psi.part)
            assert doc_to_bivariate(json.loads(json.dumps(doc))) == psi.part

    def test_series_round_trip(self):
        ts = u_s_series(3, 12)
        assert doc_to_series(json.loads(json.dumps(series_to_doc(ts)))) == ts

    def test_series_doc_validates_order(self):
        doc = series_to_doc(TruncatedSeries("x", 4, [1, 2, 3]))
        doc["order"] = 7
        with pytest.raises(ValueError):
            doc_to_series(doc)

    def test_triangle_round_trip(self):
        tri = build_triangle(12)
        assert doc_to_triangle(triangle_doc(tri)) == tri

    def test_triangle_counts_are_strings(self):
        doc = triangle_doc(build_triangle(25))
        assert all(
            isinstance(c, str) for row in doc["rows"] for c in row["counts"]
        )

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            doc_to_polynomial({"kind": "triangle", "rows": []})

    @pytest.mark.parametrize(
        "decode, doc",
        [
            (doc_to_triangle, {"kind": "triangle", "n_max": 5, "rows": [{"n": 2, "counts": ["7"]}]}),
            (doc_to_polynomial, {"kind": "polynomial"}),
            (doc_to_series, {"kind": "series", "variable": "x", "order": "2", "coefficients": []}),
            (doc_to_bivariate, {"kind": "polynomial", "variables": ["n", "s"], "terms": [[1, 0, "1"], [1, 0, "2"]]}),
            (doc_to_bivariate, {"kind": "polynomial", "variables": ["n", "n"], "terms": [[1, 0, "1"], [0, 1, "-1"]]}),
            (doc_to_bivariate, {"kind": "polynomial", "variables": ["n"], "terms": [[1, 0, "1"]]}),
            (doc_to_bivariate, {"kind": "polynomial", "variables": ["n", "s", "t"], "terms": [[1, 0, "1"]]}),
        ],
    )
    def test_malformed_doc_rejected(self, decode, doc):
        with pytest.raises(ValueError):
            decode(doc)

    # "\u0662" is the Arabic-Indic digit two, which int() reads as 2
    @pytest.mark.parametrize("count", ["1_0", " 4", "+2", "\u0662", "", "4 "])
    def test_triangle_count_must_be_ascii_digits(self, count):
        doc = triangle_doc(build_triangle(3))
        doc["rows"][1]["counts"][1] = count
        with pytest.raises(ValueError):
            doc_to_triangle(doc)

    @pytest.mark.parametrize("label", [2.0, "2", True])
    def test_triangle_row_label_must_be_an_int(self, label):
        doc = triangle_doc(build_triangle(3))
        doc["rows"][0]["n"] = label
        with pytest.raises(ValueError):
            doc_to_triangle(doc)


# A valid document of each kind, its decoder and its encoder.
CODECS = [
    (polynomial_to_doc(Polynomial("x", [1, Fraction(-1, 2)])), doc_to_polynomial, polynomial_to_doc),
    (bivariate_to_doc(psi_polys(3)[3].part), doc_to_bivariate, bivariate_to_doc),
    (series_to_doc(TruncatedSeries("x", 3, [0, 2, Fraction(1, 3)])), doc_to_series, series_to_doc),
    (triangle_doc(build_triangle(4)), doc_to_triangle, triangle_doc),
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from(["", "x", "7", "-3", "1/2", "2.5", "polynomial", "series", "triangle"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "counts", "order"]), inner, max_size=2),
    max_leaves=6,
)
DELETE = object()


def paths(value, prefix=()):
    """Every position in a JSON value, as a key path."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


@given(st.data())
def test_mutated_doc_round_trips_or_raises_value_error(data):
    doc, decode, encode = data.draw(st.sampled_from(CODECS))
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(paths(doc))))
    new = data.draw(json_values | st.just(DELETE))
    if not path:
        doc = None if new is DELETE else new
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    try:
        value = decode(doc)
    except ValueError:
        return
    assert decode(json.loads(json.dumps(encode(value)))) == value


class TestPsiJsonText:
    def test_is_json_dumps_layout(self):
        # the writer against json.dumps's own indent=2 layout, for every i_max <= 40
        family = psi_polys(40)
        for i_max in range(41):
            rows = family[: i_max + 1]
            assert _psi_json_text(rows) == json.dumps(_psi_json(rows), indent=2), i_max

    def test_empty_lists_are_written_like_json_dumps(self):
        zero = PsiPolynomial(0, BivariatePolynomial(("n", "s")))
        for rows in ([], [zero]):
            assert _psi_json_text(rows) == json.dumps(_psi_json(rows), indent=2)


class TestTsv:
    def test_triangle_rows(self):
        text = "".join(triangle_to_tsv(build_triangle(4)))
        assert text.splitlines() == ["2\t2", "3\t2\t4", "4\t2\t12\t10"]

    def test_polynomial_rows(self):
        text = polynomial_to_tsv(Polynomial("x", [1, Fraction(-1, 2)]))
        assert text.splitlines() == ["0\t1", "1\t-1/2"]


class TestLatex:
    def test_psi_rows_match_tabulated_style(self):
        family = psi_polys(3)
        assert psi_row_latex(family[0]) == "K(s)"
        assert psi_row_latex(family[1]) == "K(s-1)(-2)"
        assert psi_row_latex(family[2]) == "K(s-2)(-2n+s+8)/4"
        assert psi_row_latex(family[3]) == "K(s-3)(2n-s-3)/2"

    def test_phi_rows_factor_content_and_power(self):
        assert phi_row_latex(phi_s_poly(1)) == "2x^2"
        assert phi_row_latex(phi_s_poly(3)) == "2x^4(-6x+5)"
        assert phi_row_latex(phi_s_poly(4)) == "4x^5(24x^2-29x+8)"

    def test_delta_factored_form(self):
        assert delta_latex(delta_factors(4)) == "(1-4x)(1-3x)(1-2x)^2(1-x)^2"
        assert delta_latex(delta_factors(1)) == "(1-x)"
        # a power from 10 up is braced, as _power_text braces every other power
        assert delta_latex(delta_factors(20)) == (
            "(1-20x)(1-19x)(1-18x)^2(1-17x)^2(1-16x)^3(1-15x)^3(1-14x)^4(1-13x)^4(1-12x)^5(1-11x)^5"
            "(1-10x)^6(1-9x)^6(1-8x)^7(1-7x)^7(1-6x)^8(1-5x)^8(1-4x)^9(1-3x)^9(1-2x)^{10}(1-x)^{10}"
        )

    def test_phi_rows_of_other_polynomials(self):
        assert phi_row_latex(Polynomial("x", [1, 0, -1])) == "1(-x^2+1)"
        assert phi_row_latex(Polynomial("z", [])) == "0"
        assert phi_row_latex(Polynomial("z", [Fraction(3, 2)])) == "3/2"
        assert phi_row_latex(Polynomial("x", [0, Fraction(1, 2), 1])) == "1x(2x+1)/2"
        assert phi_row_latex(Polynomial("x", [0, 0, Fraction(4, 3), Fraction(-2, 3)])) == "2x^2(-x+2)/3"

    def test_series_with_order_marker(self):
        text = series_to_latex(u_s_series(1, 4))
        assert text == "2x^2+2x^3+2x^4+O(x^5)"


class TestCountsPastTheDigitLimit:
    # 5001 digits: past the interpreter's default int/str limit of 4300
    HUGE = RunCountTriangle(3, ((2,), (10**5000, 4)))
    DIGITS = "1" + "0" * 5000
    # a value of each kind with a 5001-digit coefficient, and its json parameters
    DOCUMENTS = {
        "triangle": (HUGE, {"method": "recurrence"}),
        "phi": (RationalGF(Polynomial("x", [0, 10**5000, 3]), ((2, 1),)), {"s": 2}),
        "psi": ([PsiPolynomial(1, BivariatePolynomial(("n", "s"), {(0, 0): 3, (1, 0): 10**5000}))], {}),
        "series": (TruncatedSeries("x", 2, [0, 10**5000, 3]), {"s": 2}),
    }
    # per kind: the json decoders applied to a document, and the values they give back
    DECODED = {
        "phi": (lambda doc: doc_to_polynomial(doc["numerator"]), lambda gf: gf.numerator),
        "psi": (lambda doc: [doc_to_bivariate(row["part"]) for row in doc["rows"]], lambda family: [psi.part for psi in family]),
        "series": (doc_to_series, lambda ts: ts),
    }

    def limit(self):
        return getattr(sys, "get_int_max_str_digits", lambda: None)()

    @pytest.mark.parametrize(
        "fmt, params, last_line",
        [
            ("json", {"method": "recurrence"}, None),
            ("tsv", {}, f"3\t{DIGITS}\t4"),
            ("latex", {}, f"3 & {DIGITS} & 4 \\\\"),
        ],
    )
    def test_encoders_write_every_digit(self, fmt, params, last_line):
        before = self.limit()
        text = "".join(encode("triangle", fmt, self.HUGE, **params))
        if fmt == "json":
            assert json.loads(text)["rows"][1]["counts"] == [self.DIGITS, "4"]
        else:
            assert text.splitlines()[-1] == last_line
        assert self.limit() == before

    def test_json_round_trip(self):
        before = self.limit()
        text = "".join(encode("triangle", "json", self.HUGE, method="recurrence"))
        assert doc_to_triangle(json.loads(text)) == self.HUGE
        assert self.limit() == before

    @pytest.mark.parametrize("fmt", ["json", "tsv", "latex"])
    @pytest.mark.parametrize("kind", ["phi", "psi", "series"])
    def test_every_document_writes_every_digit(self, kind, fmt):
        value, params = self.DOCUMENTS[kind]
        before = self.limit()
        assert self.DIGITS in "".join(encode(kind, fmt, value, **params))
        assert self.limit() == before

    @pytest.mark.parametrize("kind", DECODED)
    def test_every_json_round_trips(self, kind):
        (value, params), (decode, decoded) = self.DOCUMENTS[kind], self.DECODED[kind]
        before = self.limit()
        text = "".join(encode(kind, "json", value, **params))
        assert decode(json.loads(text)) == decoded(value)
        assert self.limit() == before

    def test_nested_uses_restore_the_limit_in_order(self):
        # one instance serves every call of a decorated function, so its saved limits are a stack
        lift, before = _any_int_digits(), self.limit()
        lifted = None if before is None else 0
        with lift:
            with lift:
                assert self.limit() == lifted
            assert self.limit() == lifted
        assert self.limit() == before

    def test_the_cli_prints_a_series_past_the_limit(self, capsys):
        # P(14300, 2) = 2^14300 - 4 has 4305 digits
        with _any_int_digits():
            last_line = f"14300\t{2**14300 - 4}"
        code = main(["series", "--s", "2", "--order", "14300", "--format", "tsv"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == last_line
        assert self.limit() == DEFAULT_DIGIT_LIMIT

    def test_repr_leaves_out_the_counts(self):
        # Hypothesis prints the explicit examples of the streaming property with repr()
        assert repr(self.HUGE) == "RunCountTriangle(n_max=3, 2 rows)"

    @pytest.mark.parametrize("fmt", ["json", "tsv", "latex"])
    def test_an_interpreter_without_the_limit_writes_the_same_text(self, monkeypatch, fmt):
        # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits, so the limit is left alone
        def refuse(limit):
            raise AssertionError("set a digit limit the interpreter does not have")

        params = {"method": "recurrence"} if fmt == "json" else {}
        tri = build_triangle(12)
        want = "".join(encode("triangle", fmt, tri, **params))
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        text = "".join(encode("triangle", fmt, tri, **params))
        assert text == want
        if fmt == "json":
            assert doc_to_triangle(json.loads(text)) == tri

    @pytest.mark.parametrize(
        "kind, fmt",
        [pytest.param("triangle", fmt, id=fmt) for fmt in ("json", "tsv", "latex")]
        + [(kind, fmt) for kind in ("phi", "psi", "series") for fmt in ("json", "tsv", "latex")],
    )
    def test_limit_is_not_held_across_a_chunk(self, kind, fmt):
        value, params = self.DOCUMENTS[kind]
        chunks = encode(kind, fmt, value, **params)
        for chunk in chunks:  # suspended after each chunk, up to the huge row
            assert self.limit() == DEFAULT_DIGIT_LIMIT
            if self.DIGITS in chunk:
                break
        chunks.close()  # abandoned partway, as when the reader goes away
        assert self.limit() == DEFAULT_DIGIT_LIMIT


def reference_text(tri: RunCountTriangle, fmt: str, method: str) -> str:
    """The document built without the encoders: the dict through json.dumps, or joined lines."""
    with _any_int_digits():
        rows = [(n, [str(c) for c in row]) for n, row in enumerate(tri.rows, start=2)]
    if fmt == "json":
        doc = {
            "kind": "triangle",
            "n_max": tri.n_max,
            "rows": [{"n": n, "counts": counts} for n, counts in rows],
            "method": method,
        }
        return json.dumps(doc, indent=2)
    sep, end = ("\t", "") if fmt == "tsv" else (" & ", " \\\\")
    return "\n".join(sep.join([str(n), *counts]) + end for n, counts in rows)


def at_chunk_boundaries(test):
    """The test with an example per format at each n_max whose last row holds 64, 65, 128 or 129 counts."""
    for n_max in (65, 66, 129, 130):
        for fmt in ("json", "tsv", "latex"):
            test = example(tri=build_triangle(n_max), fmt=fmt, method="recurrence")(test)
    return test


@given(
    tri=st.integers(2, 140).map(build_triangle),
    fmt=st.sampled_from(["json", "tsv", "latex"]),
    method=st.sampled_from(["recurrence", "closed", "series", "brute"]),
)
@example(tri=TestCountsPastTheDigitLimit.HUGE, fmt="json", method="closed")
@example(tri=TestCountsPastTheDigitLimit.HUGE, fmt="tsv", method="recurrence")
@example(tri=TestCountsPastTheDigitLimit.HUGE, fmt="latex", method="recurrence")
@at_chunk_boundaries
def test_streamed_triangle_is_byte_identical_to_the_reference(tri, fmt, method):
    params = {"method": method} if fmt == "json" else {}
    assert "".join(encode("triangle", fmt, tri, **params)) == reference_text(tri, fmt, method)


@pytest.mark.parametrize("fmt", ["json", "tsv", "latex"])
def test_no_triangle_chunk_holds_more_than_64_counts(fmt):
    # every count is MARK, whose digits no label, n_max or layout text holds, so a chunk's counts are its MARKs
    mark = "987654321987654321"
    tri = RunCountTriangle(200, tuple((int(mark),) * (n - 1) for n in range(2, 201)))
    params = {"method": "recurrence"} if fmt == "json" else {}
    per_chunk = [chunk.count(mark) for chunk in encode("triangle", fmt, tri, **params)]
    assert max(per_chunk) <= 64
    assert sum(per_chunk) == sum(n - 1 for n in range(2, 201))
