from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_tables import PSI_ROWS, psi_row_terms
from runpoly import cli, closedform
from runpoly.closedform import (
    NonIntegerResultError,
    K,
    a_poly,
    a_value,
    b_poly,
    b_value,
    closed_row,
    closed_triangle,
    p_closed_form,
    phi_generating_series,
    phi_polys,
    psi_polys,
    selector,
)
from runpoly.poly import BivariatePolynomial, Polynomial, TruncatedSeries, binom_rational
from runpoly.triangle import build_triangle


def defining_sum(j, n, t):
    """p_j(n, t) = sum_{k<=j} a_k(n) b_{j-k}(t), written out term by term."""
    return sum((a_value(k, n) * b_value(j - k, t) for k in range(j + 1)), Fraction(0))


class TestPrefactor:
    def test_known_values(self):
        assert K(2) == 1
        assert K(1) == 2
        assert K(5) == Fraction(1, 8)
        assert K(0) == 4
        assert K(-3) == 32

    @given(st.integers(min_value=-30, max_value=30))
    def test_halving_step(self, s):
        assert K(s + 1) * 2 == K(s)


class TestBuildingBlocks:
    def test_a_small(self):
        assert a_poly(0) == Polynomial.constant("n", 1)
        assert a_poly(1) == Polynomial("n", [Fraction(3, 2), Fraction(-1, 2)])
        assert a_value(2, 7) == 1  # binom(2, 2) with even sign

    def test_a_degree_zero_polynomial(self):
        assert a_poly(0) == Polynomial.constant("n", 1)

    def test_a_single_factor(self):
        # -(n-3)/2
        assert a_poly(1) == Polynomial("n", [Fraction(3, 2), Fraction(-1, 2)])

    def test_a_two_factors(self):
        # (n-3)(n-5)/8
        assert a_poly(2) == Polynomial("n", [Fraction(15, 8), -1, Fraction(1, 8)])

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=40))
    def test_a_poly_matches_values(self, k, n):
        assert a_poly(k).evaluate(n) == a_value(k, n)

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=8))
    @settings(max_examples=100)
    def test_a_poly_matches_binom_at_rational_points(self, n0):
        for k in range(6):
            assert a_poly(k).evaluate(n0) == binom_rational((n0 - 3) / 2, k) * (-1) ** k

    def test_b_small(self):
        assert b_value(0, 1) == 1
        assert b_value(0, 7) == 1
        assert b_value(1, 2) == Fraction(1, 2)
        assert b_value(2, 1) == Fraction(1, 8)

    def test_b_poly_small(self):
        assert b_poly(0) == Polynomial.constant("t", 1)
        assert b_poly(1) == Polynomial("t", [0, Fraction(1, 4)])
        assert b_poly(2).evaluate(1) == Fraction(1, 8)

    def test_b_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            b_value(-1, 3)
        with pytest.raises(ValueError):
            b_value(2, 0)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=20))
    @settings(max_examples=200)
    def test_b_poly_extends_b_value(self, m, t):
        # the degree-m polynomial must agree with the factorial form wherever
        # the latter is defined
        assert b_poly(m).evaluate(t) == b_value(m, t)

    def test_phi_small(self):
        # phi_0 = p_0 = 1 and phi_3 = -2 p_1, with p_1(n, t) = 3/2 - n/2 + t/4
        parts = phi_polys(3)
        assert parts[0] == BivariatePolynomial.constant(("n", "t"), 1)
        p1 = {(0, 0): Fraction(3, 2), (1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 4)}
        assert parts[3].terms == {e: -2 * c for e, c in p1.items()}
        assert defining_sum(1, 3, 2) == Fraction(1, 2)

    @given(
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=2, max_value=15),
        st.integers(min_value=1, max_value=10),
    )
    def test_phi_parts_match_defining_sums(self, i, n, t):
        want = sum(g * defining_sum(j, n, t) for j, g in selector(i))
        assert phi_polys(i)[i].evaluate(n, t) == want


def selector_by_expansion(i):
    """The x^i coefficients g_{i,j} of (1 - 2x + x^2) x^(2j), collected term by term."""
    g = {}
    for j in range(i + 1):
        for power, c in enumerate((1, -2, 1), start=2 * j):
            if power == i:
                g[j] = g.get(j, 0) + c
    return {j: c for j, c in g.items() if c}


class TestSelector:
    def test_even_rows_pick_two_terms(self):
        assert selector(0) == ((0, 1),)
        assert selector(2) == ((1, 1), (0, 1))
        assert selector(4) == ((2, 1), (1, 1))

    def test_odd_rows_pick_one_term(self):
        assert selector(1) == ((0, -2),)
        assert selector(3) == ((1, -2),)
        assert selector(5) == ((2, -2),)

    def test_matches_expansion_of_one_minus_x_squared(self):
        for i in range(41):
            pairs = selector(i)
            assert len({j for j, _ in pairs}) == len(pairs), f"i={i}"
            assert dict(pairs) == selector_by_expansion(i), f"i={i}"


class TestPhiParts:
    def test_first_parts(self):
        parts = phi_polys(3)
        assert parts[0] == BivariatePolynomial.constant(("n", "t"), 1)
        assert parts[1] == BivariatePolynomial.constant(("n", "t"), -2)
        # phi_2 = p_1 + p_0 = 5/2 - n/2 + t/4 and phi_3 = -2 p_1
        assert parts[2].terms == {(0, 0): Fraction(5, 2), (1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 4)}
        assert parts[3].terms == {(0, 0): -3, (1, 0): 1, (0, 1): Fraction(-1, 2)}

    def test_generating_series_reproduces_parts(self):
        # the product form (1-x)^2 * A(x^2) * B(x^2) must hand back every part
        parts = phi_polys(12)
        for n, t in [(2, 1), (5, 3), (10, 6), (7, 2)]:
            series = phi_generating_series(n, t, 12)
            for i, part in enumerate(parts):
                assert series.coefficient(i) == K(t) * part.evaluate(n, t), (n, t, i)


    @given(st.integers(0, 30), st.integers(1, 8), st.integers(0, 16))
    @settings(max_examples=100, deadline=None)
    def test_generating_series_is_the_polynomial_product(self, n, t, order):
        a, b = [Fraction(0)] * (order + 1), [Fraction(0)] * (order + 1)
        for k in range(order // 2 + 1):
            a[2 * k], b[2 * k] = a_value(k, n), b_value(k, t)
        product = Polynomial("x", a) * Polynomial("x", b) * Polynomial("x", [1, -2, 1]) * K(t)  # times (1-x)^2
        assert phi_generating_series(n, t, order) == TruncatedSeries("x", order, product.coeffs)


class TestPsiWeights:
    def test_q2_q3_explicitly(self):
        family = psi_polys(3)
        q2 = {(0, 0): 2, (1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 4)}
        q3 = {(0, 0): Fraction(-3, 2), (1, 0): 1, (0, 1): Fraction(-1, 2)}
        assert family[2].part.terms == {k: Fraction(v) for k, v in q2.items()}
        assert family[3].part.terms == {k: Fraction(v) for k, v in q3.items()}

    def test_matches_golden_rows(self):
        family = psi_polys(10)
        for i in sorted(PSI_ROWS):
            assert family[i].part.terms == psi_row_terms(i), f"row i={i}"

    def test_degree_in_n(self):
        for i, psi in enumerate(psi_polys(12)):
            assert psi.part.degree_in(0) == i // 2, f"i={i}"

    @given(st.integers(0, 30))
    @settings(max_examples=31, deadline=None)
    def test_parts_are_phi_parts_at_t_equal_s_minus_i(self, i_max):
        # the old derivation as the oracle: each phi part, reparametrized by t -> s - i
        parts = phi_polys(i_max)
        for i, psi in enumerate(psi_polys(i_max)):
            assert psi.index == i
            assert psi.part == parts[i].substitute_linear(1, -i, new_name="s"), i

    def test_evaluate_attaches_prefactor(self):
        psi2 = psi_polys(2)[2]
        # K(s-2) * (-2n+s+8)/4 at n=5, s=4: K(2) = 1, (-10+4+8)/4 = 1/2
        assert psi2.evaluate(5, 4) == Fraction(1, 2)


class TestClosedFormCounts:
    def test_small_rows(self):
        assert p_closed_form(2, 1) == 2
        assert p_closed_form(3, 1) == 2
        assert p_closed_form(3, 2) == 4
        assert p_closed_form(4, 2) == 12
        assert p_closed_form(4, 3) == 10

    def test_out_of_range_s_is_zero(self):
        assert p_closed_form(5, 0) == 0
        assert p_closed_form(5, 5) == 0
        assert p_closed_form(5, -2) == 0
        assert p_closed_form(5, 11) == 0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            p_closed_form(1, 1)

    def test_agrees_with_recurrence_triangle(self):
        triangle = build_triangle(25)
        for n in range(2, 26):
            for s in range(1, min(n, 13)):
                assert p_closed_form(n, s) == triangle.value(n, s), (n, s)

    def test_returns_plain_int(self):
        assert isinstance(p_closed_form(9, 4), int)


@lru_cache(maxsize=None)
def full_row(n):
    return closed_row(n, n - 1)


class TestClosedRow:
    def test_triangle_matches_recurrence(self):
        assert closed_triangle(60) == build_triangle(60)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_row_agrees_with_full_row(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60), label="n")
        s = data.draw(st.integers(min_value=1, max_value=n - 1), label="s")
        assert p_closed_form(n, s) == full_row(n)[s - 1]

    @pytest.mark.parametrize("n, s_max", [(1, 1), (5, 0), (5, 5), (-3, 1)])
    def test_rejects_s_max_outside_row(self, n, s_max):
        with pytest.raises(ValueError):
            closed_row(n, s_max)


@pytest.fixture
def cold_b_cache():
    """Empty the b_m(t) cache around a test, so no cached value outlives a patch."""
    b_value.cache_clear()  # the cached function imported above, even while patched
    yield
    b_value.cache_clear()


@pytest.mark.parametrize("name, args", [("a_value", (1, 7)), ("b_value", (1, 2))])
def test_perturbed_building_block_is_caught(capsys, monkeypatch, cold_b_cache, name, args):
    real = getattr(closedform, name)
    monkeypatch.setattr(
        closedform, name, lambda *a: real(*a) + Fraction(1, 3) * (a == args)
    )
    with pytest.raises(NonIntegerResultError):
        closed_triangle(9)
    assert cli.main(["table", "--method", "closed", "--n-max", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: P(")
