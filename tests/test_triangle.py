"""Recurrence triangle vs the brute-force oracle."""

from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runpoly.bruteforce import ENUMERATION_CAP, brute_triangle, count_runs
from runpoly.triangle import build_triangle


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
