import contextlib
import decimal
import errno
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import runpoly
from runpoly import bruteforce, cli, closedform, genfun, recurrences, triangle, verification
from runpoly.closedform import PsiPolynomial
from runpoly.genfun import RationalGF
from runpoly.poly import BivariatePolynomial, Polynomial
from runpoly.triangle import RunCountTriangle, build_triangle
from test_serialize import reference_text


# a child interpreter that imports this checkout's runpoly
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(runpoly.__file__).parents[1])}
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(out):
    payload = json.loads(out)
    return [[int(c) for c in row["counts"]] for row in payload["rows"]]


class TestTable:
    def test_brute_small(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "4", "--method", "brute")
        assert code == 0
        assert table_rows(out) == [[2], [2, 4], [2, 12, 10]]

    def test_methods_agree(self, capsys):
        reference = None
        for method in cli.METHODS:
            code, out, _ = run_cli(capsys, "table", "--n-max", "8", "--method", method)
            assert code == 0
            rows = table_rows(out)
            if reference is None:
                reference = rows
            assert rows == reference, method

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_below_domain_is_usage_error(self, capsys, method):
        code, out, err = run_cli(capsys, "table", "--n-max", "1", "--method", method)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_brute_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n-max", "12", "--method", "brute")
        assert code == 2
        assert "error" in err

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n-max", "3", "--format", "tsv"
        )
        assert code == 0
        assert out.splitlines() == ["2\t2", "3\t2\t4"]


class TestPsi:
    def test_first_three_rows(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--i-max", "2")
        assert code == 0
        payload = json.loads(out)
        rows = {row["i"]: row for row in payload["rows"]}
        assert rows[0]["prefactor"] == "K(s)"
        assert rows[0]["part"]["terms"] == [[0, 0, "1"]]
        assert rows[1]["part"]["terms"] == [[0, 0, "-2"]]
        assert rows[2]["prefactor"] == "K(s-2)"
        assert sorted(rows[2]["part"]["terms"]) == [
            [0, 0, "2"],
            [0, 1, "1/4"],
            [1, 0, "-1/2"],
        ]

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--i-max", "0")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 1

    def test_latex_row_three(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--i-max", "3", "--format", "latex")
        assert code == 0
        assert "K(s-3)(2n-s-3)/2" in out

    def test_negative_bound_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "psi", "--i-max", "-1")
        assert code == 2


class TestPhi:
    def test_row_one(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["numerator"]["coefficients"] == ["0", "0", "2"]
        assert payload["denominator_factors"] == [
            {"parameter": "1", "multiplicity": 1}
        ]

    def test_row_four_latex(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--s", "4", "--format", "latex")
        assert code == 0
        assert "4x^5(24x^2-29x+8)" in out
        assert "(1-4x)(1-3x)(1-2x)^2(1-x)^2" in out

    def test_below_domain_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "phi", "--s", "0")
        assert code == 2


class TestSeries:
    def test_two_run_counts(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--s", "2", "--order", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "series"
        coeffs = [int(c) for c in payload["coefficients"]]
        assert coeffs == [0, 0, 0] + [2**n - 4 for n in range(3, 9)]

    def test_bad_order_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "series", "--s", "2", "--order", "1")
        assert code == 2


# Past sys.maxsize a length cannot be a machine index, so these fail before any allocation.
@pytest.mark.parametrize("argv", [
    ["series", "--s", "3", "--order", str(10**20)],
    ["table", "--method", "series", "--n-max", str(10**20)],
])
def test_argument_past_maxsize_is_usage_error(capsys, argv):
    assert 10**20 > sys.maxsize
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: cannot fit 'int' into an index-sized integer\n"


def clear_family_caches(caches=(genfun.phi_s_poly, genfun.phi_tilde_poly, genfun.atilde_taylor_coeffs)):
    """Drop the cached Phi_s, PhiTilde_k and atilde_k(p), which hold whatever a mutant built.

    They are bound at import, as a mutant may wrap them.
    """
    for cached in caches:
        cached.cache_clear()


def flip_odd_selector_signs(monkeypatch):
    real = closedform.selector

    def flipped(i):
        return tuple((j, -g) for j, g in real(i)) if i % 2 else real(i)

    for module in (closedform, genfun):
        monkeypatch.setattr(module, "selector", flipped)


def bump_a_value(monkeypatch):
    real = closedform.a_value
    monkeypatch.setattr(closedform, "a_value", lambda k, n: real(k, n) + int((k, n) == (1, 5)))


def bump_phi_tilde_numerator(monkeypatch):
    real = genfun.phi_tilde_poly

    def bumped(k):  # one more 1/den at z^3 of PhiTilde_1
        p = real(k)
        return p + Polynomial.monomial("z", 3, Fraction(1, p.den)) if k == 1 else p

    monkeypatch.setattr(genfun, "phi_tilde_poly", bumped)


def bump_phi_part(monkeypatch):
    real = closedform.phi_polys

    def bumped(i_max):  # one more 1/den in the constant term of phi_2
        parts = real(i_max)
        parts[2] = parts[2] + BivariatePolynomial.constant(("n", "t"), Fraction(1, parts[2].den))
        return parts

    monkeypatch.setattr(closedform, "phi_polys", bumped)


def bump_triangle_entry(monkeypatch):
    real = triangle.build_triangle

    def bumped(n_max):  # P(5, 2): 28 -> 29
        tri = real(n_max)
        rows = list(tri.rows)
        rows[3] = (rows[3][0], rows[3][1] + 1) + rows[3][2:]
        return RunCountTriangle(tri.n_max, tuple(rows))

    monkeypatch.setattr(triangle, "build_triangle", bumped)


def scale_phi(monkeypatch, by):
    real = genfun.phi_s_poly
    monkeypatch.setattr(genfun, "phi_s_poly", lambda s: real(s) * by)


def bump_phi_4(monkeypatch):
    real = genfun.phi_s_poly
    monkeypatch.setattr(genfun, "phi_s_poly", lambda s: real(s) + Polynomial.monomial("x", 10) * int(s == 4))


def bump_block(monkeypatch):
    # one more x^2 in B_{2,1}(x, 2), at the pole 1-2x of u_4, whose order e is 2
    real = genfun._blocks

    def bumped(s):
        rows, den = real(s)
        if s == 4:
            rows[2][1][1][2] += den  # row i = 2 is the pole 1-2x, and its block k = 1
        return rows, den

    monkeypatch.setattr(genfun, "_blocks", bumped)


def bump_atilde(monkeypatch):
    real = genfun.atilde_poly  # ATilde_1 + 1, which (1+z)^2 no longer divides
    monkeypatch.setattr(genfun, "atilde_poly", lambda k: real(k) + int(k == 1))


def raise_pole_order(monkeypatch, by=1):
    real = genfun.delta_factors  # (1-x)^e becomes (1-x)^(e+by)
    monkeypatch.setattr(genfun, "delta_factors", lambda s: tuple((c, e + by * (c == 1)) for c, e in real(s)))


def bump_q3(monkeypatch):
    real = closedform.psi_polys  # Q_3 + n^2, of n-degree 2 where the paper says 1

    def bumped(i_max):
        family = real(i_max)
        n_squared = BivariatePolynomial(("n", "s"), {(2, 0): 1})
        family[3] = PsiPolynomial(3, family[3].part + n_squared)
        return family

    monkeypatch.setattr(closedform, "psi_polys", bumped)


def drop_last_delta_factor(monkeypatch):
    # Delta_s without its last pole (1-x)^e for s >= 2; PhiTilde_k's one factor (1+z)^(k+1) is kept
    real = genfun._expand_factors
    monkeypatch.setattr(genfun, "_expand_factors", lambda var, factors: real(var, factors[:-1] or factors))


def times_z_phi_tilde_2(monkeypatch):
    real = genfun.phi_tilde_poly  # PhiTilde_2 * z, of degree 5 where the paper says 4
    monkeypatch.setattr(genfun, "phi_tilde_poly", lambda k: real(k) * Polynomial.monomial("z", 1) if k == 2 else real(k))


def bump_atilde_formula(monkeypatch):
    real = genfun._atilde_coeffs_formula  # atilde_1(0) + 1 by the closed formula only
    monkeypatch.setattr(genfun, "_atilde_coeffs_formula", lambda k: real(k) + int(k == 1))


# Each mutant of a family or of the triangle, and every check it fails, with
# the failure detail that names it.
MUTANTS = {
    "selector-sign": (flip_odd_selector_signs, {
        "closed-vs-recurrence": "P(3,2): closed form 12 != 4",
        "phi-series-product": "x^1 at n=2, t=1: product -4 != 4",
        "series-vs-recurrence": "P(2,2): series 8 != 0",
        "u-recurrence": "ArithmeticError: u_2 at x^2, times Delta_2: 8 != 0",
        "phi-recurrence": "phi-recurrence: FAILED at i = 1, 2, 3, 4; lhs - rhs at i = 1 has lowest term -4*n^0*t^0",
        "psi-recurrence": "psi-recurrence: FAILED at i = 1, 2, 3, 4; lhs - rhs at i = 1 has lowest term -4*n^0*s^0",
    }),
    "a-value": (bump_a_value, {
        "a-k-series": "A_1 series at z^5: -1 != 0",
        "phi-series-product": "x^2 at n=5, t=1: product 5/2 != 1/2",
        "closed-vs-recurrence": "P(5,3): closed form 60 != 58",
    }),
    "phi-tilde-numerator": (bump_phi_tilde_numerator, {
        "a-k-series": "A_1 series at z^3: 1/2 != 0",
        "series-vs-recurrence": "P(3,3): series 1 != 0",
        "u-recurrence": "ArithmeticError: u_3 at x^3, times Delta_3: 1 != 0",
    }),
    "phi-part": (bump_phi_part, {
        "phi-series-product": "x^2 at n=2, t=1: product 7/2 != 4",
        "phi-recurrence": "phi-recurrence: FAILED at i = 2, 3, 4; lhs - rhs at i = 2 has lowest term -1/2*n^0*t^0",
        "psi-recurrence": "psi-recurrence: FAILED at i = 2, 3, 4; lhs - rhs at i = 2 has lowest term -1/2*n^0*s^0",
    }),
    "triangle-entry": (bump_triangle_entry, {
        "series-vs-recurrence": "P(5,2): series 28 != 29",
        "row-sums": "row n=5 sums to 121, not 5!",
        "brute-vs-recurrence": "P(5,2): brute force 28 != 29",
        "closed-vs-recurrence": "P(5,2): closed form 28 != 29",
    }),
    "phi-times-two": (lambda monkeypatch: scale_phi(monkeypatch, 2), {
        "u-recurrence": "ArithmeticError: u_1 at x^2, times Delta_1: 4 != 2",
    }),
    "phi-times-x": (lambda monkeypatch: scale_phi(monkeypatch, Polynomial.monomial("x", 1)), {
        "u-recurrence": "ArithmeticError: u_1 at x^2, times Delta_1: 0 != 2",
        "degree-claims": "deg Phi_1 = 3 != 2",
    }),
    "phi-4-plus-x10": (bump_phi_4, {
        "u-recurrence": "ArithmeticError: u_4 at x^10, times Delta_4: 1 != 0",
        "degree-claims": "deg Phi_4 = 10 != 7",
    }),
    "block-at-double-pole": (bump_block, {
        "series-vs-recurrence": "P(2,4): series 1 != 0",
        "u-recurrence": "ArithmeticError: u_4 at x^2, times Delta_4: 1 != 0",
    }),
    "pole-order": (raise_pole_order, {
        "series-vs-recurrence": "ValueError: k must be in 0..0 for i=0, got 1",
        "u-recurrence": "ValueError: k must be in 0..0 for i=0, got 1",
        "degree-claims": "ValueError: k must be in 0..0 for i=0, got 1",
    }),
    "pole-order-by-two": (lambda monkeypatch: raise_pole_order(monkeypatch, 2), {
        "series-vs-recurrence": "ValueError: k must be in 0..0 for i=0, got 2",
        "u-recurrence": "ValueError: k must be in 0..0 for i=0, got 2",
        "degree-claims": "ValueError: k must be in 0..0 for i=0, got 2",
    }),
    "atilde-not-divisible": (bump_atilde, {
        name: "NonzeroRemainderError: remainder has 1 at (1+z)^0"
        for name in ("series-vs-recurrence", "atilde-divisibility", "atilde-dual-path",
                     "a-k-series", "u-recurrence", "degree-claims")
    }),
    "q3-plus-n-squared": (bump_q3, {
        "psi-recurrence": "psi-recurrence: FAILED at i = 3, 4; lhs - rhs at i = 3 has lowest term -1*n^0*s^1",
        "degree-claims": "deg_n Q_3 = 2 != 1",
    }),
    "delta-without-last-factor": (drop_last_delta_factor, {
        "degree-claims": "deg Delta_2 = 1 != 2",
    }),
    "phi-tilde-2-times-z": (times_z_phi_tilde_2, {
        "a-k-series": "A_2 series at z^2: 0 != 3/8",
        "degree-claims": "deg PhiTilde_2 = 5 != 4",
    }),
    "atilde-formula-plus-one": (bump_atilde_formula, {
        name: "DualPathMismatchError: atilde_1(0): closed formula 5/2 != Taylor shift 3/2"
        for name in ("series-vs-recurrence", "atilde-dual-path", "a-k-series", "u-recurrence", "degree-claims")
    }),
}


class TestVerify:
    def test_small_battery_passes(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--n-max", "8", "--s-max", "4", "--i-max", "4", "--k-max", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "verification-report"
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert err == ""

    def test_bad_bounds_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-max", "0")
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--s-max", "0", "s_max must be >= 1, got 0"),
        ("--i-max", "0", "i_max must be >= 1, got 0"),
        ("--k-max", "-1", "k_max must be >= 0, got -1"),
    ])
    def test_bad_bound_is_named(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_fails_named_checks(self, capsys, monkeypatch, mutant):
        mutate, expected = MUTANTS[mutant]
        mutate(monkeypatch)
        clear_family_caches()
        try:
            code, out, _ = run_cli(
                capsys,
                "verify", "--n-max", "8", "--s-max", "4", "--i-max", "4", "--k-max", "3",
            )
        finally:
            clear_family_caches()
        assert code == 1
        failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert failed == expected

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_corrupted_psi_family_fails_named_check(self, capsys, monkeypatch, fmt):
        real = closedform.psi_polys

        def broken(i_max):
            family = real(i_max)
            bump = family[3].part + BivariatePolynomial.constant(("n", "s"), 1)
            family[3] = PsiPolynomial(3, bump)
            return family

        monkeypatch.setattr(closedform, "psi_polys", broken)
        code, out, err = run_cli(
            capsys,
            "verify", "--n-max", "6", "--s-max", "4", "--i-max", "5", "--k-max", "3",
            "--format", fmt,
        )
        assert code == 1
        failed_row = {
            "json": '"name": "psi-recurrence",\n      "passed": false',
            "tsv": "psi-recurrence\tFAILED\t",
            "latex": "psi-recurrence & FAILED \\\\",
        }
        assert failed_row[fmt] in out
        assert err.startswith("verification failed (") and "psi-recurrence" in err

    def test_corrupted_phi_numerator_fails_named_check(self, capsys, monkeypatch):
        real = genfun.phi_s_poly

        def broken(s):
            p = real(s)
            if s == 4:
                p = p + Polynomial.monomial("x", 6)
            return p

        monkeypatch.setattr(genfun, "phi_s_poly", broken)
        code, out, _ = run_cli(
            capsys,
            "verify", "--n-max", "8", "--s-max", "4", "--i-max", "4", "--k-max", "3",
        )
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert "u-recurrence" in failed

    def test_non_integer_series_table_is_a_verification_failure(self, capsys, monkeypatch):
        # the series reads the blocks; a third of those of u_1 is not integral
        real = genfun._blocks

        def third_of_u_1(s):
            rows, den = real(s)
            return rows, (3 * den if s == 1 else den)

        monkeypatch.setattr(genfun, "_blocks", third_of_u_1)
        code, out, err = run_cli(capsys, "table", "--method", "series", "--n-max", "4")
        assert (code, out) == (1, "")
        assert err.startswith("verification failure:")

    def test_brute_mismatch_names_first_entry(self, monkeypatch):
        real = bruteforce.brute_triangle

        def broken(n_max):
            tri = real(n_max)
            rows = list(tri.rows)
            rows[3] = (rows[3][0], rows[3][1] + 1) + rows[3][2:]  # P(5, 2): 28 -> 29
            return RunCountTriangle(tri.n_max, tuple(rows))

        monkeypatch.setattr(bruteforce, "brute_triangle", broken)
        results = {r.name: r for r in verification.run_verification(6, 2, 1, 0)}
        check = results["brute-vs-recurrence"]
        assert not check.passed
        assert check.detail == "P(5,2): brute force 29 != 28"

    def test_a_k_series_mismatch_names_both_values(self, monkeypatch):
        real = genfun.A_k_gf

        def broken(k):
            gf = real(k)
            if k == 1:  # one more z^3 over (1-z)^2 adds 1 at z^3
                gf = RationalGF(gf.numerator + Polynomial.monomial("z", 3), gf.denominator_factors)
            return gf

        monkeypatch.setattr(genfun, "A_k_gf", broken)
        results = {r.name: r for r in verification.run_verification(6, 2, 1, 1)}
        check = results["a-k-series"]
        assert not check.passed
        assert check.detail == "A_1 series at z^3: 1 != 0"

    def test_u_recurrence_mismatch_names_coefficient(self, monkeypatch):
        real = genfun.phi_s_poly
        monkeypatch.setattr(
            genfun, "phi_s_poly", lambda s: real(s) + Polynomial.monomial("x", 2, int(s == 2))
        )
        results = {r.name: r for r in verification.run_verification(6, 2, 1, 1)}
        check = results["u-recurrence"]
        assert not check.passed
        assert check.detail == "ArithmeticError: u_2 at x^2, times Delta_2: 1 != 0"

    def test_recurrence_failure_names_lowest_term(self, monkeypatch):
        real = closedform.psi_polys

        def broken(i_max):
            # Q_3 + n*s/2 leaves (s^2 - 3ns)/2 as lhs - rhs of the psi recurrence at i = 3
            family = real(i_max)
            bump = family[3].part + BivariatePolynomial(("n", "s"), {(1, 1): Fraction(1, 2)})
            family[3] = PsiPolynomial(3, bump)
            return family

        monkeypatch.setattr(closedform, "psi_polys", broken)
        results = {r.name: r for r in verification.run_verification(6, 4, 5, 3)}
        check = results["psi-recurrence"]
        assert not check.passed
        assert check.detail == (
            "psi-recurrence: FAILED at i = 3, 4, 5; lhs - rhs at i = 3 has lowest term 1/2*n^0*s^2"
        )


VERIFY_ARGS = ["verify", "--n-max", "3", "--s-max", "1", "--i-max", "1", "--k-max", "0"]
VERIFY_CHECKS = [
    ("row-sums", "sum_s P(n,s) = n! for 2 <= n <= 3"),
    ("brute-vs-recurrence", "exhaustive enumeration matches the recurrence for n <= 3"),
    ("closed-vs-recurrence", "explicit formula matches the recurrence for n <= 3, s <= 1"),
    ("series-vs-recurrence", "u_s coefficients match the recurrence for s <= 1, n <= 3"),
    ("phi-recurrence", "phi-recurrence: all identities hold for 1 <= i <= 1"),
    ("psi-recurrence", "psi-recurrence: all identities hold for 1 <= i <= 1"),
    ("atilde-divisibility", "(1+z)^(k+1) divides ATilde_k for k <= 0"),
    ("wz-normalization", "normalization sums equal 4^k for k <= 0"),
    ("atilde-dual-path", "closed formula and Taylor shift agree for k <= 0"),
    ("a-k-series", "A_k series matches the a_k polynomials for k <= 0, n <= 40"),
    ("phi-series-product", "product form reproduces every phi part for i <= 1"),
    ("u-recurrence", "u-recurrence: all identities hold for 1 <= s <= 1"),
    ("degree-claims", "n-degrees, Phi/Delta degrees, and PhiTilde degrees all as claimed"),
]


def as_json(doc):
    return json.dumps(doc, indent=2)


# Every (subcommand, format) pair with its exact stdout, minus the final newline.
PINNED = {
    ("table", "json"): as_json({
        "kind": "triangle",
        "n_max": 3,
        "rows": [{"n": 2, "counts": ["2"]}, {"n": 3, "counts": ["2", "4"]}],
        "method": "closed",
    }),
    ("table", "tsv"): "2\t2\n3\t2\t4",
    ("table", "latex"): "2 & 2 \\\\\n3 & 2 & 4 \\\\",
    ("psi", "json"): as_json({
        "kind": "polynomial",
        "family": "psi",
        "rows": [
            {"i": 0, "prefactor": "K(s)", "part": {
                "kind": "polynomial", "variables": ["n", "s"], "terms": [[0, 0, "1"]]}},
            {"i": 1, "prefactor": "K(s-1)", "part": {
                "kind": "polynomial", "variables": ["n", "s"], "terms": [[0, 0, "-2"]]}},
            {"i": 2, "prefactor": "K(s-2)", "part": {
                "kind": "polynomial",
                "variables": ["n", "s"],
                "terms": [[0, 0, "2"], [0, 1, "1/4"], [1, 0, "-1/2"]],
            }},
        ],
    }),
    ("psi", "tsv"): "0\t0\t0\t1\n1\t0\t0\t-2\n2\t0\t0\t2\n2\t0\t1\t1/4\n2\t1\t0\t-1/2",
    ("psi", "latex"): "0 & K(s) \\\\\n1 & K(s-1)(-2) \\\\\n2 & K(s-2)(-2n+s+8)/4 \\\\",
    ("phi", "json"): as_json({
        "kind": "polynomial",
        "family": "phi",
        "s": 2,
        "numerator": {"kind": "polynomial", "variable": "x", "coefficients": ["0", "0", "0", "4"]},
        "denominator_factors": [
            {"parameter": "2", "multiplicity": 1},
            {"parameter": "1", "multiplicity": 1},
        ],
    }),
    ("phi", "tsv"): "coefficient\t0\t0\ncoefficient\t1\t0\ncoefficient\t2\t0\n"
                    "coefficient\t3\t4\nfactor\t2\t1\nfactor\t1\t1",
    ("phi", "latex"): "\\frac{4x^3}{(1-2x)(1-x)}",
    ("series", "json"): as_json({
        "kind": "series", "variable": "x", "order": 3, "coefficients": ["0", "0", "2", "2"], "s": 1,
    }),
    ("series", "tsv"): "0\t0\n1\t0\n2\t2\n3\t2",
    ("series", "latex"): "2x^2+2x^3+O(x^4)",
    ("verify", "json"): as_json({
        "kind": "verification-report",
        "passed": True,
        "checks": [{"name": n, "passed": True, "detail": d} for n, d in VERIFY_CHECKS],
    }),
    ("verify", "tsv"): "\n".join(f"{n}\tok\t{d}" for n, d in VERIFY_CHECKS),
    ("verify", "latex"): "\n".join(f"{n} & ok \\\\" for n, _ in VERIFY_CHECKS),
}
PINNED_ARGS = {
    "table": ["table", "--n-max", "3", "--method", "closed"],
    "psi": ["psi", "--i-max", "2"],
    "phi": ["phi", "--s", "2"],
    "series": ["series", "--s", "1", "--order", "3"],
    "verify": VERIFY_ARGS,
}


@pytest.mark.parametrize("command, fmt", sorted(PINNED), ids="-".join)
def test_pinned_output(capsys, command, fmt):
    code, out, err = run_cli(capsys, *PINNED_ARGS[command], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == PINNED[command, fmt] + "\n"


# The sha256 of stdout of the benchmark's `families` commands at seed 0, copied
# from perfbench/baseline.json: any changed byte of Phi_s, Q_i or a series shows here.
FAMILIES_SHA256 = {
    ("phi", "--s", "20", "--format", "json"):
        "793937e4a988bb0c4becdf0cf674d97c54db02061bb18ecb4aadd11d50eca26e",
    ("psi", "--i-max", "40"):
        "42d57743a489f9ad81e9142123e3960d54ce0a918cbbf8a6dab1d8a01e0c00a9",
    ("series", "--s", "20", "--order", "60", "--format", "json"):
        "82bcf651e1437f98a426c838ee2e3b5b63ce9bd8d1a28d18ca675451db479c78",
    ("table", "--method", "series", "--n-max", "20", "--format", "json"):
        "0ac9c0013e1f863fc5ad00b1c164d05e1f703db7d126c1065237675f4009a05e",
}


@pytest.mark.parametrize("argv", sorted(FAMILIES_SHA256), ids=" ".join)
def test_families_output_matches_benchmark_sha256(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILIES_SHA256[argv]


# The same for the seed-0 `verify` and `tables` commands: the verify report pins
# every check's detail, and each table every count.
VERIFY_AND_TABLES_SHA256 = {
    ("verify", "--n-max", "20", "--s-max", "10", "--i-max", "10", "--k-max", "20", "--format", "json"):
        "83b4725c8c0dde4b8aa8b62ed6a7a301dcefb27d8a9fbb120faecf97912e5520",
    ("table", "--method", "closed", "--n-max", "40", "--format", "json"):
        "1e1371131b2f25a92f3f995a26ecb00dabd955cececdebd3285badbee00b51b9",
    ("table", "--n-max", "400", "--format", "tsv"):
        "bfa64f9b8b17f7c17d80f5df33ff6033b44056244e9589316eac88117abb38c0",
    ("table", "--n-max", "400"):
        "510d966ed54b637928fcce4ea660b16288772805d8ee636b1f4d479b64bde394",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_AND_TABLES_SHA256), ids=" ".join)
def test_verify_and_tables_output_match_benchmark_sha256(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_AND_TABLES_SHA256[argv]


@functools.lru_cache(maxsize=1)
def int_rows_400() -> tuple[tuple[int, ...], ...]:
    return build_triangle(400).rows


def int_table_text(n_max: int, fmt: str) -> str:
    """What `table --n-max n_max` prints (n_max <= 400), from str() of build_triangle's ints."""
    tri = RunCountTriangle(n_max, int_rows_400()[: n_max - 1])
    return reference_text(tri, fmt, "recurrence") + "\n"


def print_table(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["table", *argv])
    return code, out.getvalue(), err.getvalue()


class TestExactDecimalTable:
    """`table --method recurrence` prints exact Decimals made a row at a time."""

    @given(n_max=st.integers(2, 400), fmt=st.sampled_from(cli.FORMATS))
    @example(n_max=400, fmt="latex")
    @settings(max_examples=15, deadline=None)
    def test_text_equals_the_int_triangle(self, n_max, fmt):
        code, out, err = print_table("--n-max", str(n_max), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == int_table_text(n_max, fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_ambient_context_is_not_used(self, fmt):
        # a context that rounds to 5 digits and traps nothing
        with decimal.localcontext(decimal.Context(prec=5, traps=[])):
            code, out, err = print_table("--n-max", "60", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == int_table_text(60, fmt)

    def test_a_step_that_would_round_raises(self, monkeypatch):
        monkeypatch.setattr(cli.EXACT, "prec", 10)  # P(14, s) has 11 digits
        code, out, err = print_table("--n-max", "30", "--format", "tsv")
        assert code == 1
        assert "Inexact" in err or "Rounded" in err
        # only whole rows of exact counts were printed before the failure
        lines = out.splitlines()
        assert 0 < len(lines) < 29
        assert lines == int_table_text(30, "tsv").splitlines()[: len(lines)]

    def test_memory_stays_at_two_rows(self):
        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        tracemalloc.start()
        try:
            tri = build_triangle(300)
            triangle_size, _ = tracemalloc.get_traced_memory()
            del tri
            tracemalloc.reset_peak()
            baseline, _ = tracemalloc.get_traced_memory()
            with contextlib.redirect_stdout(Sink()):
                code = cli.main(["table", "--n-max", "300"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - baseline < triangle_size / 4


def test_closed_pipe_is_not_an_error():
    # about 8.5 MB of output, far more than even the 1 MiB pipe `_write` asks for
    proc = subprocess.Popen(
        [sys.executable, "-m", "runpoly.cli", "table", "--n-max", "250", "--format", "tsv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CLI_ENV,
    )
    assert proc.stdout.read(10) == b"2\t2\n3\t2\t4\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, a large share of every command's start-up;
    # -S leaves out the site hooks, so only runpoly's own imports count
    code = "import sys, runpoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


TABLE = ("table", "--n-max", "5")
VERIFY = ("verify", "--n-max", "8", "--s-max", "4", "--i-max", "4", "--k-max", "3", "--format", "tsv")


@pytest.mark.parametrize("exc, message, argv", [
    (KeyboardInterrupt, "interrupted", TABLE),
    (MemoryError, "error: out of memory; try smaller arguments", TABLE),
    (KeyboardInterrupt, "interrupted", VERIFY),
    (MemoryError, "error: out of memory; try smaller arguments", VERIFY),
], ids=["KeyboardInterrupt", "MemoryError", "verify-KeyboardInterrupt", "verify-MemoryError"])
def test_ctrl_c_exits_two(capsys, monkeypatch, exc, message, argv):
    # inside a verify check too, where any other exception is a failed check
    def interrupted(*args):
        raise exc

    monkeypatch.setitem(cli.METHODS, "recurrence", interrupted)
    monkeypatch.setattr(recurrences, "verify_u_recurrence", interrupted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"{message}\n")


def test_closed_pipe_mid_json_is_not_an_error():
    # the json triangle is written a row at a time; the reader leaves after the first bytes
    # of about 8.8 MB, far more than even the 1 MiB pipe `_write` asks for
    proc = subprocess.Popen(
        [sys.executable, "-m", "runpoly.cli", "table", "--n-max", "250"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CLI_ENV,
    )
    assert proc.stdout.read(10) == b'{\n  "kind"'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""


@pytest.mark.skipif(not hasattr(cli.fcntl, "F_GETPIPE_SZ"), reason="pipe sizes are Linux only")
def test_stdout_pipe_is_grown_to_one_mib():
    fcntl = cli.fcntl
    probe = os.pipe()
    try:
        fcntl.fcntl(probe[1], fcntl.F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pytest.skip("this process cannot grow a pipe to 1 MiB")
    finally:
        for fd in probe:
            os.close(fd)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        try:
            assert fcntl.fcntl(read_end, fcntl.F_GETPIPE_SZ) < 1 << 20
            proc = subprocess.run(
                [sys.executable, "-m", "runpoly.cli", "table", "--n-max", "2", "--format", "tsv"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
                env=CLI_ENV,
            )
        finally:
            os.close(write_end)
        assert fcntl.fcntl(read_end, fcntl.F_GETPIPE_SZ) == 1 << 20
        assert (proc.returncode, reader.read(), proc.stderr) == (0, b"2\t2\n", b"")


class StdoutWithDescriptor(io.StringIO):
    def fileno(self):
        return 1  # seen only by the fake fcntl below


def refuse(fd, cmd, arg):
    raise OSError(errno.EPERM, "refused", (fd, cmd, arg))


@pytest.mark.parametrize("fcntl, stdout", [
    (types.SimpleNamespace(fcntl=refuse, F_SETPIPE_SZ=1031), StdoutWithDescriptor),
    (types.SimpleNamespace(fcntl=refuse), StdoutWithDescriptor),
    (None, StdoutWithDescriptor),
    (cli.fcntl, io.StringIO),
], ids=["refused", "no F_SETPIPE_SZ", "no fcntl", "StringIO stdout"])
def test_pipe_that_cannot_grow_prints_the_same_text(monkeypatch, fcntl, stdout):
    monkeypatch.setattr(cli, "fcntl", fcntl)
    out = stdout()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--n-max", "30", "--format", "tsv"])
    assert (code, out.getvalue()) == (0, int_table_text(30, "tsv"))


def console_script_entry() -> list[str]:
    """A command that runs the `runpoly` console script's target, as the installed script does."""
    section = PYPROJECT.read_text().split("[project.scripts]")[1].split("\n[")[0]
    module, function = re.search(r'^runpoly = "([\w.]+):(\w+)"$', section, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


ENTRIES = {
    "python -m runpoly.cli": [sys.executable, "-m", "runpoly.cli"],
    "console script": console_script_entry(),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv", [
    ["table", "--n-max", "60", "--format", "tsv"],
    ["verify", "--format", "tsv"],
    ["phi", "--s", "20", "--format", "latex"],
    ["table", "--n-max", "x"],
], ids=["table", "verify", "phi", "usage error"])
def test_hard_exit_loses_no_byte(capsys, tmp_path, entry, argv):
    # a regular file and a buffered stdout: the last block is still buffered when main returns
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "out", "wb") as out:
        proc = subprocess.run(ENTRIES[entry] + argv, stdout=out, stderr=subprocess.PIPE, timeout=60, env=env)
    code, want_out, want_err = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr.decode()) == (code, want_err)
    assert (tmp_path / "out").read_text() == want_out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "PYTHONUNBUFFERED"])
@pytest.mark.parametrize("argv", [
    ["table", "--n-max", "5", "--format", "tsv"],
    ["table", "--n-max", "250"],  # fails mid-stream, far past any buffer
    ["verify"],
    ["--help"],  # argparse drops a failed write of its help text
    ["table", "--help"],
], ids=["small table", "large table", "verify", "help", "subcommand help"])
def test_write_error_exits_two(entry, unbuffered, argv):
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(ENTRIES[entry] + argv, stdout=full, stderr=subprocess.PIPE, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"error: cannot write output: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"


def test_pointing_a_stream_at_devnull_leaves_no_descriptor_open(tmp_path):
    with open(tmp_path / "out", "w") as stream:
        free = os.open(os.devnull, os.O_RDONLY)
        os.close(free)
        cli._to_devnull(stream)
        after = os.open(os.devnull, os.O_RDONLY)
        os.close(after)
        stream.write("dropped")
    assert after == free
    assert (tmp_path / "out").read_text() == ""


# a library caller that makes the closed method fail an identity, then runs the process entry
FAILING_IDENTITY = [sys.executable, "-c", (
    "from runpoly import cli, closedform\n"
    "def broken(n_max): raise closedform.NonIntegerResultError('P(5,2) evaluated to 1/2')\n"
    "cli.METHODS['closed'] = broken\n"
    "cli.run()"
)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "PYTHONUNBUFFERED"])
@pytest.mark.parametrize("command, code", [
    (ENTRIES["python -m runpoly.cli"] + ["table", "--n-max", "1"], 2),
    (ENTRIES["console script"] + ["table", "--n-max", "1"], 2),
    (ENTRIES["python -m runpoly.cli"] + ["table", "--bogus"], 2),
    (FAILING_IDENTITY + ["table", "--n-max", "5", "--method", "closed"], 1),
    (ENTRIES["python -m runpoly.cli"] + ["table", "--n-max", "2"], 0),
], ids=["usage error", "usage error, console script", "argparse usage error", "failed identity", "success"])
def test_failing_stderr_keeps_the_exit_code(unbuffered, command, code):
    # a diagnostic that cannot be written is dropped
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=full, timeout=60, env=env)
    assert proc.returncode == code


def test_profiler_still_reports():
    # cProfile prints its table during the interpreter's teardown, which `run` skips when nothing watches
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "runpoly.cli", "table", "--n-max", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(int_table_text(2, "json"))
    assert "function calls" in proc.stdout and "ncalls" in proc.stdout


def test_ctrl_c_mid_stream_exits_two(capsys, monkeypatch):
    written = []

    def interrupt_second_chunk(text):
        if len(written) == 1:
            raise KeyboardInterrupt
        written.append(text)
        return len(text)

    with monkeypatch.context() as m:
        m.setattr(sys.stdout, "write", interrupt_second_chunk)
        code = cli.main(["table", "--n-max", "30"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "interrupted\n")
    assert written[0].startswith('{\n  "kind": "triangle"')


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_arithmetic_error_leaves_stdout_empty(capsys, monkeypatch, fmt):
    def broken(n_max):
        raise closedform.NonIntegerResultError(f"P({n_max},2) evaluated to 1/2")

    monkeypatch.setitem(cli.METHODS, "closed", broken)
    code, out, err = run_cli(capsys, "table", "--n-max", "30", "--method", "closed", "--format", fmt)
    assert (code, out, err) == (1, "", "verification failure: P(30,2) evaluated to 1/2\n")


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["table", "--bogus"]) == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert cli.main([]) == 2


# the integer options of each subcommand; every one is drawn from -5..3 below
BOUNDS = {
    "table": ("--n-max",),
    "psi": ("--i-max",),
    "phi": ("--s",),
    "series": ("--s", "--order"),
    "verify": ("--n-max", "--s-max", "--i-max", "--k-max"),
}


@st.composite
def small_invocations(draw):
    command = draw(st.sampled_from(sorted(BOUNDS)))
    argv = [command]
    for flag in BOUNDS[command]:
        argv += [flag, str(draw(st.integers(-5, 3)))]
    if command == "table":
        argv += ["--method", draw(st.sampled_from(sorted(cli.METHODS)))]
    return argv + ["--format", draw(st.sampled_from(cli.FORMATS + ("yaml",)))]


@given(small_invocations())
@settings(max_examples=300, deadline=None)
def test_small_invocations_keep_the_exit_and_stream_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "", argv
    else:
        assert err.getvalue() == "", argv
