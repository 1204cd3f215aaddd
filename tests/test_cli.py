import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import runpoly
from runpoly import bruteforce, cli, closedform, genfun, verification
from runpoly.poly import BivariatePolynomial, Polynomial


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

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_corrupted_psi_family_fails_named_check(self, capsys, monkeypatch, fmt):
        real = closedform.psi_polys

        def broken(i_max):
            family = real(i_max)
            bump = family[3].part + BivariatePolynomial.constant(("n", "s"), 1)
            family[3] = dataclasses.replace(family[3], part=bump)
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
        assert "series-vs-recurrence" in failed or "partial-fractions" in failed

    def test_brute_mismatch_names_first_entry(self, monkeypatch):
        real = bruteforce.brute_triangle

        def broken(n_max):
            tri = real(n_max)
            rows = list(tri.rows)
            rows[3] = (rows[3][0], rows[3][1] + 1) + rows[3][2:]  # P(5, 2): 28 -> 29
            return dataclasses.replace(tri, rows=tuple(rows))

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
                gf = dataclasses.replace(gf, numerator=gf.numerator + Polynomial.monomial("z", 3))
            return gf

        monkeypatch.setattr(genfun, "A_k_gf", broken)
        results = {r.name: r for r in verification.run_verification(6, 2, 1, 1)}
        check = results["a-k-series"]
        assert not check.passed
        assert check.detail == "A_1 series at z^3: 1 != 0"

    def test_partial_fraction_mismatch_names_coefficient(self, monkeypatch):
        real = genfun.phi_s_poly
        monkeypatch.setattr(
            genfun, "phi_s_poly", lambda s: real(s) + Polynomial.monomial("x", 2, int(s == 2))
        )
        results = {r.name: r for r in verification.run_verification(6, 2, 1, 1)}
        check = results["partial-fractions"]
        assert not check.passed
        assert check.detail == "DualPathMismatchError: Phi_2 at x^2: cleared blocks give 0 != 1"

    def test_recurrence_failure_names_lowest_term(self, monkeypatch):
        real = closedform.psi_polys

        def broken(i_max):
            # Q_3 + n*s/2 leaves (s^2 - 3ns)/2 as lhs - rhs of the psi recurrence at i = 3
            family = real(i_max)
            bump = family[3].part + BivariatePolynomial(("n", "s"), {(1, 1): Fraction(1, 2)})
            family[3] = dataclasses.replace(family[3], part=bump)
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
    ("partial-fractions", "partial fractions clear back to Phi_s for s <= 1"),
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


# The same for the seed-0 `verify` command and the closed-form `tables` command:
# the verify report pins every check's detail, and the closed table every count.
VERIFY_AND_TABLES_SHA256 = {
    ("verify", "--n-max", "20", "--s-max", "10", "--i-max", "10", "--k-max", "20", "--format", "json"):
        "7fd54fa0255a18679bd3d252ce599916999fc3e52a4398be0c4f3f2c67f72f30",
    ("table", "--method", "closed", "--n-max", "40", "--format", "json"):
        "1e1371131b2f25a92f3f995a26ecb00dabd955cececdebd3285badbee00b51b9",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_AND_TABLES_SHA256), ids=" ".join)
def test_verify_and_tables_output_match_benchmark_sha256(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_AND_TABLES_SHA256[argv]


def test_closed_pipe_is_not_an_error():
    # about 1 MB of output, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "runpoly.cli", "table", "--n-max", "150", "--format", "tsv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(runpoly.__file__).parents[1])},
    )
    assert proc.stdout.read(10) == b"2\t2\n3\t2\t4\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""


def test_ctrl_c_exits_two(capsys, monkeypatch):
    def interrupted(n_max):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.METHODS, "recurrence", interrupted)
    code, out, err = run_cli(capsys, "table", "--n-max", "5")
    assert (code, out, err) == (2, "", "interrupted\n")


def test_closed_pipe_mid_json_is_not_an_error():
    # the json triangle is written a row at a time; the reader leaves after the first bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "runpoly.cli", "table", "--n-max", "150"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(runpoly.__file__).parents[1])},
    )
    assert proc.stdout.read(10) == b'{\n  "kind"'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""


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
