"""A fixed reference computation that tracks how fast the machine runs right now.

Usage: python3 -S calibrate.py

On a shared machine the speed of the CPU drifts by tens of percent over
minutes, and every command's time drifts with it.  The benchmark times this
computation before and after each pass and reports pass times as multiples
of it, which cancels most of the drift.  It uses only the standard library
and never changes, so a change to runpoly cannot change its time.  Its mix
follows the three workloads: exact rational polynomial products (families),
permutation scans with comparisons (verify) and big-integer arithmetic
(tables).  It prints a checksum so the work cannot be skipped.
"""

from fractions import Fraction
from itertools import permutations


def rational_products() -> Fraction:
    p = [Fraction(1)]
    for k in range(1, 100):
        factor = [Fraction(1), Fraction(-k, k + 2)]
        out = [Fraction(0)] * (len(p) + 1)
        for i, a in enumerate(p):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        p = out
    return sum(p)


def permutation_scan() -> int:
    tally = [0] * 8
    for perm in [*permutations(range(8))] * 3:
        runs = 1
        rising = perm[1] > perm[0]
        prev = perm[1]
        for cur in perm[2:]:
            r = cur > prev
            if r != rising:
                runs += 1
                rising = r
            prev = cur
        tally[runs] += 1
    return tally[3]


def big_integers() -> int:
    row = [1]
    for n in range(1, 600):
        row = [a * n + 2 * b for a, b in zip(row + [0], [0] + row)]
    return sum(row) % 1000003


def main() -> None:
    total = rational_products()
    print(total.numerator % 1000003, permutation_scan(), big_integers())


if __name__ == "__main__":
    main()
