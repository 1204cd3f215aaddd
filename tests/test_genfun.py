from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_tables import PHI_ROWS, phi_row_poly
from runpoly import genfun, verification
from runpoly.closedform import K, a_value, b_value, p_closed_form, selector
from runpoly.genfun import (
    A_k_gf,
    DegreeMismatchError,
    DualPathMismatchError,
    NonzeroRemainderError,
    RationalGF,
    atilde_poly,
    atilde_shift_coeffs,
    atilde_taylor_coeffs,
    delta_degree,
    delta_factors,
    phi_degree,
    phi_s_poly,
    phi_tilde_poly,
    series_triangle,
    u_s_gf,
    u_s_series,
    verify_wz_sum,
)
from runpoly.poly import Polynomial, binom_rational
from runpoly.triangle import build_triangle


def atilde_by_fractions(k):
    """ATilde_k summed in Fractions, term by term as its docstring writes it."""
    coeffs = [Fraction(0)] * (2 * k + 2)
    coeffs[2 * k + 1] = Fraction(1)
    for m in range(k + 1):
        coeffs[2 * k - 2 * m] += binom_rational(Fraction(-3, 2), k) * comb(k, m) * Fraction((-1) ** (k + m), 2 * m + 1)
    return Polynomial("z", coeffs)


def atilde_coeffs_by_fractions(k):
    """atilde_k(0..k) from the closed formula, summed in Fractions."""
    out = []
    for p in range(k + 1):
        correction = sum(
            (comb(k, m) * comb(2 * k - 2 * m, k + p + 1) * Fraction((-1) ** (k + m), 2 * m + 1)
             for m in range((k - p - 1) // 2 + 1)),
            Fraction(0),
        )
        out.append((-1) ** p * (comb(2 * k + 1, k + p + 1) - binom_rational(Fraction(-3, 2), k) * correction))
    return out


def wz_sum_by_fractions(k):
    return sum(
        (comb(k, m) * comb(2 * k - 2 * m, k - 2 * m) * Fraction((-1) ** m * (k + 1), 2 * m + 1)
         for m in range(k // 2 + 1)),
        Fraction(0),
    )


class TestAtilde:
    def test_integer_sums_match_fraction_definitions(self):
        for k in range(26):
            assert atilde_poly(k) == atilde_by_fractions(k), k
            assert verify_wz_sum(k) == (wz_sum_by_fractions(k) == 4**k), k
            formula = genfun._atilde_coeffs_formula(k)
            assert [formula.coefficient(p) for p in range(k + 1)] == atilde_coeffs_by_fractions(k), k
            assert list(atilde_taylor_coeffs(k)) == atilde_coeffs_by_fractions(k), k

    def test_first_two(self):
        assert atilde_poly(0) == Polynomial("z", [1, 1])
        assert atilde_poly(1) == Polynomial("z", [Fraction(-1, 2), 0, Fraction(3, 2), 1])

    def test_degree_and_divisibility(self):
        for k in range(31):
            assert atilde_poly(k).degree == 2 * k + 1
            # (1+z)^(k+1) must divide; a nonzero remainder raises
            assert atilde_shift_coeffs(k).degree == k, k

    def test_divisibility_is_sharp(self):
        # one more factor of (1+z) does not divide: the (1+z)^(k+1) coefficient is nonzero
        for k in range(31):
            assert atilde_poly(k).shift(-1).coefficient(k + 1) != 0, k

    def test_remainder_is_named(self, monkeypatch):
        real = genfun.atilde_poly
        monkeypatch.setattr(genfun, "atilde_poly", lambda k: real(k) + Polynomial("z", [1, 2, 1]) * int(k == 3))
        with pytest.raises(NonzeroRemainderError, match=r"^remainder has 1 at \(1\+z\)\^2$"):
            atilde_shift_coeffs(3)

    def test_wz_normalization_sum(self):
        for k in range(31):
            assert verify_wz_sum(k), f"k={k}"

    def test_taylor_coeffs_hand_values(self):
        assert atilde_taylor_coeffs(0) == (1,)
        assert atilde_taylor_coeffs(1) == (Fraction(3, 2), -1)

    def test_taylor_coeffs_dual_paths_agree(self):
        # the constructor itself raises DualPathMismatchError on disagreement
        for k in range(13):
            coeffs = atilde_taylor_coeffs(k)
            assert len(coeffs) == k + 1

    def test_bundle_invariants(self):
        for k in range(13):
            phi_tilde = phi_tilde_poly(k)
            assert phi_tilde.degree == k + 2
            assert phi_tilde.coefficient(0) == 0
            assert phi_tilde.coefficient(1) == 0

    def test_phi_tilde_small(self):
        assert phi_tilde_poly(0) == Polynomial("z", [0, 0, 1])
        assert phi_tilde_poly(1) == Polynomial("z", [0, 0, Fraction(1, 2), -1])

    def test_phi_tilde_is_reduced_atilde(self):
        one_plus_z = Polynomial("z", [1, 1])
        for k in range(31):
            want = Polynomial.monomial("z", 2) * atilde_poly(k) * (-1) ** k
            assert phi_tilde_poly(k) * prod([one_plus_z] * (k + 1)) == want, f"k={k}"

    def test_bad_taylor_coefficient_fails_reconstruction(self, monkeypatch):
        real = genfun.atilde_taylor_coeffs

        def bumped(k):
            coeffs = real(k)
            return (coeffs[0] + 1,) + coeffs[1:]

        monkeypatch.setattr(genfun, "atilde_taylor_coeffs", bumped)
        phi_tilde_poly.cache_clear()
        try:
            with pytest.raises(DualPathMismatchError) as info:
                phi_tilde_poly(3)
        finally:
            phi_tilde_poly.cache_clear()
        assert str(info.value) == "ATilde_3 reconstruction from taylor coefficients failed"


class TestAkSeries:
    def test_a0_series_is_all_ones(self):
        series = A_k_gf(0).series(12)
        assert [series.coefficient(n) for n in range(2, 13)] == [1] * 11

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=2, max_value=40))
    @settings(max_examples=200)
    def test_series_matches_closed_values(self, k, n):
        assert A_k_gf(k).series(n).coefficient(n) == a_value(k, n)


class TestDelta:
    def test_small_products(self):
        assert u_s_gf(1).denominator() == Polynomial("x", [1, -1])
        assert u_s_gf(2).denominator() == Polynomial("x", [1, -3, 2])

    def test_factors_carry_multiplicities(self):
        assert delta_factors(4) == ((4, 1), (3, 1), (2, 2), (1, 2))
        assert all(type(c) is int for c, _ in delta_factors(4))

    def test_degree_formula(self):
        for s in range(1, 13):
            delta = u_s_gf(s).denominator()
            assert delta.degree == delta_degree(s) == -(-s * (s + 2) // 4)
            assert delta.coefficient(0) == 1

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            delta_factors(0)


class TestPartialFractionBlocks:
    def test_hand_values(self):
        # B_{0,0}(x, 1) = 2x^2 is row 0 of u_1's blocks, B_{1,0}(x, 2) = -8x^2 row 1 of u_3's
        for s, i, want in ((1, 0, [0, 0, 2]), (3, 1, [0, 0, -8])):
            rows, den = genfun._blocks(s)
            assert [Fraction(c, den) for c in rows[i][1][0]] == want

    @given(st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_every_block_is_its_weighted_phi_tilde(self, s):
        # B_{i,k}(x,t) = K(t) sum_{j>=k} g_{i,j} b_{j-k}(t) PhiTilde_k(t x), summed in Fractions
        rows, den = genfun._blocks(s)
        assert [(t, len(row)) for t, row in rows] == list(delta_factors(s))
        want_den = 1
        for i, (t, row) in enumerate(rows):
            for k, nums in enumerate(row):
                weight = K(t) * sum(g * b_value(j - k, t) for j, g in selector(i) if j >= k)
                want = [weight * c * t**j for j, c in enumerate(phi_tilde_poly(k).coeffs)]
                assert [Fraction(c, den) for c in nums] == want, (s, i, k)
                want_den = lcm(want_den, *(c.denominator for c in want))
        assert den == want_den  # every block reduced before the common denominator


class TestPhiS:
    def test_small_rows(self):
        assert phi_s_poly(1) == Polynomial("x", [0, 0, 2])
        assert phi_s_poly(2) == Polynomial("x", [0, 0, 0, 4])
        assert phi_s_poly(3) == Polynomial("x", [0, 0, 0, 0, 10, -12])

    def test_matches_golden_rows(self):
        for s in sorted(PHI_ROWS):
            assert phi_s_poly(s) == phi_row_poly(s), f"row s={s}"

    def test_degree_formula(self):
        for s in range(1, 11):
            assert phi_s_poly(s).degree == phi_degree(s) == 1 + delta_degree(s)

    def test_matches_recurrence_through_s_20(self):
        # Phi_s = Delta_s * u_s, so [x^j] Phi_s = sum_m Delta_s[m] P(j-m, s)
        triangle = build_triangle(phi_degree(20))
        for s in range(1, 21):
            delta = u_s_gf(s).denominator()
            expected = Polynomial(
                "x",
                [
                    sum(delta.coefficient(m) * triangle.value(j - m, s) for m in range(j - 1))
                    for j in range(phi_degree(s) + 1)
                ],
            )
            assert phi_s_poly(s) == expected, f"s={s}"


@lru_cache(maxsize=None)
def _triangle_200():
    return build_triangle(200)


class TestUsSeries:
    def test_single_run_column(self):
        series = u_s_series(1, 20)
        assert series.coefficient(0) == 0
        assert series.coefficient(1) == 0
        assert all(series.coefficient(n) == 2 for n in range(2, 21))

    def test_two_run_column(self):
        series = u_s_series(2, 20)
        assert all(series.coefficient(n) == 2**n - 4 for n in range(3, 21))

    def test_matches_recurrence_triangle(self):
        triangle = build_triangle(25)
        for s in range(1, 9):
            series = u_s_series(s, 25)
            for n in range(2, 26):
                assert series.coefficient(n) == triangle.value(n, s), (n, s)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_n_s_agree_with_recurrence(self, data):
        # reaches n = 200, far past the fixed tables; the s bounds keep one
        # example under about 0.1 s
        n = data.draw(st.integers(2, 200), label="n")
        s = data.draw(st.integers(1, min(n - 1, 60)), label="s")
        expected = _triangle_200().value(n, s)
        assert p_closed_form(n, s) == expected
        if s <= 12:
            assert u_s_series(s, n).coefficient(n) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            u_s_series(0, 10)
        with pytest.raises(ValueError):
            u_s_series(3, 1)

    def test_series_triangle_names_a_non_integer_coefficient(self, monkeypatch):
        # every P(n, s) is even, so halving the blocks of u_1 would stay integral; a third does not.
        # The series reads the blocks, so their common denominator is tripled.
        real = genfun._blocks

        def third_of_u_1(s):
            rows, den = real(s)
            return rows, (3 * den if s == 1 else den)

        monkeypatch.setattr(genfun, "_blocks", third_of_u_1)
        with pytest.raises(ArithmeticError, match="^series coefficient 2/3 is not an integer$"):
            series_triangle(4)


class TestCutPass:
    """The pole sum the series reads, cut at x^order."""

    @given(st.integers(1, 25), st.data())
    @settings(max_examples=40, deadline=None)
    def test_series_is_the_quotient_of_the_whole_pair(self, s, data):
        d = phi_degree(s)
        order = data.draw(st.integers(2, 80) | st.sampled_from([max(d - 1, 2), d, d + 1]), label="order")
        assert u_s_series(s, order) == u_s_gf(s).series(order)

    def test_series_builds_no_phi_and_no_delta(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the series built Phi_s or Delta_s")

        monkeypatch.setattr(genfun, "phi_s_poly", refuse)
        monkeypatch.setattr(genfun, "_expand_factors", refuse)
        series, triangle = u_s_series(20, 60), build_triangle(60)
        assert [series.coefficient(n) for n in range(2, 61)] == [triangle.value(n, 20) for n in range(2, 61)]

    def test_block_mutant_fails_series_through_the_cut_pass(self, monkeypatch):
        # one more x^2 in B_{0,0}(x, 5) adds x^2/(1-5x) to u_5, so P(2, 5) reads 1
        real = genfun._blocks

        def bumped(s):
            rows, den = real(s)
            if s == 5:
                rows[0][1][0][2] += den  # B_{0,0}(x, 5) is the first block of u_5
            return rows, den

        monkeypatch.setattr(genfun, "_blocks", bumped)
        genfun.phi_s_poly.cache_clear()
        try:
            results = {r.name: r for r in verification.run_verification(8, 5, 1, 0)}
        finally:
            genfun.phi_s_poly.cache_clear()  # drop what the mutant built
        assert results["series-vs-recurrence"].detail == "P(2,5): series 1 != 0"
        assert not results["series-vs-recurrence"].passed


class TestRationalGF:
    def test_denominator_expansion(self):
        for s in range(1, 13):
            want = Polynomial("x", [1])
            for i in range(s):
                want = want * prod([Polynomial("x", [1, -(s - i)])] * (i // 2 + 1))
            assert u_s_gf(s).denominator() == want, f"s={s}"

    def test_factors_given_as_lists_expand_like_tuples(self):
        # the expansion is cached by its factors, so they must be bound hashable
        gf = RationalGF(phi_s_poly(2), [[Fraction(2), 1], [Fraction(1), 1]])
        assert gf.denominator_factors == ((2, 1), (1, 1))
        assert gf.denominator() == u_s_gf(2).denominator()

    def test_validation(self):
        x2 = Polynomial("x", [0, 0, 1])
        with pytest.raises(ValueError):
            RationalGF(x2, ((Fraction(1), 1), (Fraction(1), 2)))
        with pytest.raises(ValueError):
            RationalGF(x2, ((Fraction(2), 0),))
        with pytest.raises(ValueError, match="must be integers"):
            RationalGF(x2, ((Fraction(1, 2), 1),))

    def test_negative_order_is_refused(self):
        for order in (-1, -3):
            with pytest.raises(ValueError, match="truncation order must be >= 0"):
                u_s_gf(3).series(order)

    def test_degree_mismatch_error_is_arithmetic(self):
        assert issubclass(DegreeMismatchError, ArithmeticError)
