"""Ground-truth run counting over every permutation.

A run is a maximal interval of consecutive increasing or decreasing entries;
a monotone permutation has exactly one run, and every permutation of n >= 2
elements has between 1 and n-1 runs.  The oracle counts all n! permutations
by a dynamic programme over prefixes: the run count of a prefix depends only
on the set of values used, the last value, and whether the last step rose, so
prefixes sharing those three are tallied together.  It never uses the
three-term recurrence.  It is capped at n = 11.
"""

from __future__ import annotations

from typing import Sequence

from .triangle import RunCountTriangle

ENUMERATION_CAP = 11

# A tally packs the number of prefixes with k+1 runs into bits
# [k*_LANE, (k+1)*_LANE) of one int.  No lane exceeds 11! < 2**64, so adding
# tallies never carries from one lane into the next, and appending a step that
# flips direction (one more run) is a shift by one lane.
_LANE = 64
_LANE_MASK = (1 << _LANE) - 1


def count_runs(values: Sequence[int]) -> int:
    """Number of maximal monotone intervals of a permutation.

    Counted as one plus the number of interior positions where the comparison
    direction flips; a single pass, and trivially 1 for n = 2.
    """
    if len(values) < 2:
        raise ValueError("run counting needs at least 2 elements")
    runs = 1
    rising = values[1] > values[0]
    prev = values[1]
    for cur in values[2:]:
        r = cur > prev
        if r != rising:
            runs += 1
            rising = r
        prev = cur
    return runs


def _run_count_row(n: int) -> tuple[int, ...]:
    """P(n, s) for s = 1..n-1, tallied over all n! permutations of range(n).

    A state is a set of used values, the last value and whether the last step
    rose, keyed as the int ((mask*n + last)*2 + rising); its value is the
    packed tally of the prefixes in that state by run count.
    """
    states: dict[int, int] = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                states[(((1 << a | 1 << b) * n + b) << 1) | (b > a)] = 1
    for _ in range(n - 2):
        grown: dict[int, int] = {}
        for key, tally in states.items():
            mask, last = divmod(key >> 1, n)
            flipped = tally << _LANE
            down, up = (flipped, tally) if key & 1 else (tally, flipped)
            for v in range(n):
                if not mask >> v & 1:
                    rising = v > last
                    nxt = (((mask | 1 << v) * n + v) << 1) | rising
                    grown[nxt] = grown.get(nxt, 0) + (up if rising else down)
        states = grown
    total = sum(states.values())
    return tuple((total >> (_LANE * k)) & _LANE_MASK for k in range(n - 1))


def brute_triangle(n_max: int) -> RunCountTriangle:
    """Tally run counts over all n! permutations for every n up to n_max.

    Each row is one prefix-state dynamic programme (see `_run_count_row`).
    """
    if not 2 <= n_max <= ENUMERATION_CAP:
        raise ValueError(f"n_max must be in 2..{ENUMERATION_CAP}, got {n_max}")
    rows = tuple(_run_count_row(n) for n in range(2, n_max + 1))
    return RunCountTriangle(n_max=n_max, rows=rows)
