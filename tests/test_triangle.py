"""Recurrence triangle vs the brute-force oracle, and three diagonals vs classical closed forms."""

import decimal
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runpoly.bruteforce import ENUMERATION_CAP, brute_triangle, count_runs
from runpoly.closedform import closed_row
from runpoly.genfun import u_s_series
from runpoly.cli import EXACT
from runpoly.triangle import build_triangle, recurrence_rows


class TestCountRuns:
    def test_monotone_has_one_run(self):
        assert count_runs((1, 2, 3, 4)) == 1
        assert count_runs((4, 3, 2, 1)) == 1

    def test_single_peak(self):
        assert count_runs((1, 3, 2)) == 2

    def test_alternating(self):
        assert count_runs((2, 1, 4, 3)) == 3

    def test_two_elements(self):
        assert count_runs((2, 1)) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            count_runs((1,))

    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=200)
    def test_reversal_and_complement_symmetry(self, perm):
        n = len(perm)
        base = count_runs(perm)
        assert 1 <= base <= n - 1
        assert count_runs(perm[::-1]) == base
        assert count_runs([n + 1 - v for v in perm]) == base


class TestBruteTriangle:
    def test_n2(self):
        assert brute_triangle(2).row(2) == (2,)

    def test_n3(self):
        assert brute_triangle(3).row(3) == (2, 4)

    def test_n4(self):
        t = brute_triangle(4)
        assert t.row(4) == (2, 12, 10)
        assert sum(t.row(4)) == 24

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            brute_triangle(1)
        with pytest.raises(ValueError):
            brute_triangle(12)

    def test_row_sums(self):
        t = brute_triangle(7)
        for n in range(2, 8):
            assert sum(t.row(n)) == factorial(n)

    def test_cap_row_matches_recurrence(self):
        assert brute_triangle(ENUMERATION_CAP).rows == build_triangle(ENUMERATION_CAP).rows

    def test_matches_literal_enumeration(self):
        t = brute_triangle(8)
        for n in range(2, 9):
            tally = Counter(count_runs(p) for p in permutations(range(n)))
            assert t.row(n) == tuple(tally[s] for s in range(1, n))


class TestBuildTriangle:
    def test_base_row(self):
        t = build_triangle(2)
        assert t.row(2) == (2,)
        assert t.value(2, 1) == 2
        assert t.value(2, 2) == 0

    def test_small_rows(self):
        t = build_triangle(4)
        assert t.row(3) == (2, 4)
        assert t.row(4) == (2, 12, 10)

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            build_triangle(1)

    @pytest.mark.parametrize("kind", [int, Fraction, decimal.Decimal])
    def test_recurrence_rows_come_in_the_kind_given(self, kind):
        with decimal.localcontext(EXACT):
            rows = tuple(recurrence_rows(kind, 60))
        assert rows == build_triangle(60).rows
        assert {type(c) for row in rows for c in row} == {kind}

    def test_two_runs_column(self):
        # known closed form for the two-run column: P(n, 2) = 2^n - 4
        t = build_triangle(10)
        for n in range(3, 11):
            assert t.value(n, 2) == 2**n - 4

    def test_one_run_column_and_positivity(self):
        t = build_triangle(30)
        for n in range(2, 31):
            assert t.value(n, 1) == 2
            assert all(v > 0 for v in t.row(n))

    def test_row_sums_are_factorials(self):
        t = build_triangle(30)
        for n in range(2, 31):
            assert sum(t.row(n)) == factorial(n)

    def test_agrees_with_brute_force(self):
        # overlap range n <= 8 here; the acceptance suite pushes to 10
        assert build_triangle(8).rows == brute_triangle(8).rows


@lru_cache(maxsize=None)
def zigzag_numbers(n_max):
    """The Euler zigzag numbers E_0..E_n_max (OEIS A000111) by the Seidel-Entringer boustrophedon.

    Each row is the running sums of the previous one read backwards, and E_n
    ends row n: additions only, sharing nothing with the run recurrence.
    """
    out, row = [1], [1]
    for _ in range(n_max):
        sums = [0]
        for v in reversed(row):
            sums.append(sums[-1] + v)
        row = sums
        out.append(row[-1])
    return tuple(out)


@lru_cache(maxsize=None)
def _triangle_400():
    return build_triangle(400)


class TestClassicalDiagonals:
    """Three diagonals with closed forms from outside the paper, against the recurrence to n = 400."""

    def test_zigzag_numbers_start_as_published(self):
        assert zigzag_numbers(10) == (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521)

    def test_one_run_is_the_two_monotone_permutations(self):
        assert all(_triangle_400().value(n, 1) == 2 for n in range(2, 401))

    def test_two_runs_rise_then_fall_or_fall_then_rise(self):
        # each kind is 2^(n-1) - 2 permutations
        assert all(_triangle_400().value(n, 2) == 2**n - 4 for n in range(3, 401))

    def test_n_minus_one_runs_are_the_alternating_permutations(self):
        # D. Andre (1879): P(n, n-1) = 2E_n, OEIS A001250
        e = zigzag_numbers(400)
        assert all(_triangle_400().value(n, n - 1) == 2 * e[n] for n in range(2, 401))

    @given(st.integers(2, 150))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_longest_sum_is_twice_the_zigzag_number(self, n):
        assert closed_row(n, n - 1)[-1] == 2 * zigzag_numbers(150)[n]

    @given(st.integers(3, 60))
    @settings(max_examples=20, deadline=None)
    def test_series_with_the_most_poles_is_twice_the_zigzag_number(self, n):
        # s = n-1 is the largest s whose x^n coefficient is nonzero
        assert u_s_series(n - 1, n).coefficient(n) == 2 * zigzag_numbers(60)[n]
