"""Ground-truth run counting over every permutation.

A run is a maximal interval of consecutive increasing or decreasing entries;
every permutation of n >= 2 elements has between 1 and n-1 runs.  The oracle
counts all n! permutations by a dynamic programme over prefixes, never using
the three-term recurrence.  A prefix is standardised to the state (b, rising):
b unused values lie below its last value, and rising says whether its last
step rose; the runs its completions add depend on the state alone.  Appending
the j-th smallest unused value below the last gives (j, fell), one more run
after a rise; appending the j-th smallest above gives (b + j, rose), one more
run after a fall.  Each layer has O(n) states, filled by two running sums.

A tally packs the number of prefixes with k+1 runs into lane k of one int,
`factorial(n).bit_length()` bits wide: no lane exceeds n!, so sums never carry
between lanes, and adding a run is a shift by one lane.  `ENUMERATION_CAP`
stays at 11 although the oracle runs far past it: the traced benchmark counts
brute-force work as the sum of n! over the rows built, and that counter must
be replaced before the cap can rise.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from typing import Sequence

from .triangle import RunCountTriangle

ENUMERATION_CAP = 11


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

    `rose[b]` and `fell[b]` are the packed tallies of the states (b, rose)
    and (b, fell).  After two values there are b + 1 rising prefixes and
    n - 1 - b falling ones in state b, each with one run.
    """
    lane = factorial(n).bit_length()
    rose, fell = list(range(1, n)), list(range(n - 1, 0, -1))
    for _ in range(n - 2):
        up = [r + (f << lane) for r, f in zip(rose, fell)]
        down = [f + (r << lane) for r, f in zip(rose, fell)]
        rose = list(accumulate(up))[:-1]  # (k, rose) from every b <= k
        fell = list(accumulate(reversed(down)))[-2::-1]  # (j, fell) from every b > j
    total = rose[0] + fell[0]
    mask = (1 << lane) - 1
    return tuple(total >> (lane * k) & mask for k in range(n - 1))


def brute_triangle(n_max: int) -> RunCountTriangle:
    """Tally run counts over all n! permutations for every n up to n_max.

    Each row is one prefix-state dynamic programme (see `_run_count_row`).
    """
    if not 2 <= n_max <= ENUMERATION_CAP:
        raise ValueError(f"n_max must be in 2..{ENUMERATION_CAP}, got {n_max}")
    rows = tuple(_run_count_row(n) for n in range(2, n_max + 1))
    return RunCountTriangle(n_max=n_max, rows=rows)
