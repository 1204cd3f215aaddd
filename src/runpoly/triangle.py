"""The triangle of counts P(n, s): permutations of n elements with s runs.

Built from the classical recurrence

    P(n, s) = s*P(n-1, s) + 2*P(n-1, s-1) + (n-s)*P(n-1, s-2)

with base row P(2, s) = 2*delta_{s,1}.  The recurrence is applied only for
n >= 3 (it would need an undefined P(1, .) at n = 2) and out-of-range values
(s < 1 or s > n-1) are taken as 0.  `recurrence_rows` is the one copy of
the recurrence; it works in any number type `kind` that can be made from an
int.  `build_triangle` runs it on Python integers, and `cli.DecimalTriangle`
on Decimals in a context that cannot round.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterator

from .poly import Immutable


class RunCountTriangle(Immutable):
    """Rows of P(n, s) for 2 <= n <= n_max; row for n holds s = 1..n-1."""

    __slots__ = ("n_max", "rows")

    def __init__(self, n_max: int, rows: tuple[tuple[int, ...], ...]):
        if n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {n_max}")
        if len(rows) != n_max - 1:
            raise ValueError(f"expected {n_max - 1} rows for n_max={n_max}")
        for n, row in enumerate(rows, start=2):
            if len(row) != n - 1 or not all(type(c) is int and c >= 0 for c in row):
                raise ValueError(f"row n={n} must hold {n - 1} non-negative integers")
        super().__init__(n_max, rows)

    def __repr__(self) -> str:
        # never the counts: str() of a count past 4300 digits raises ValueError
        return f"RunCountTriangle(n_max={self.n_max}, {len(self.rows)} rows)"

    def value(self, n: int, s: int) -> int:
        """P(n, s), with 0 for s outside 1..n-1."""
        if not 2 <= n <= self.n_max:
            raise ValueError(f"n must be in 2..{self.n_max}, got {n}")
        if s < 1 or s > n - 1:
            return 0
        return self.rows[n - 2][s - 1]

    def row(self, n: int) -> tuple[int, ...]:
        if not 2 <= n <= self.n_max:
            raise ValueError(f"n must be in 2..{self.n_max}, got {n}")
        return self.rows[n - 2]


def recurrence_rows(kind, n_max: int) -> Iterator[tuple]:
    """Yield the rows of P(n, s) for n = 2..n_max, each computed from the last.

    The rows come in the number type `kind`: every entry is built from kind(2)
    by sums and by products with the multipliers kind(1), kind(2), ..., each
    made once, so no int is converted per entry.  A row is made by C-level
    maps over `operator.add` and `operator.mul`.  The generator holds two rows
    and the n_max multipliers.
    """
    zero = kind(0)
    k = [zero, kind(1)]  # k[m] = kind(m); one more a row, so nothing is made ahead for a huge n_max
    row = (kind(2),)
    yield row
    for n in range(3, n_max + 1):
        k.append(kind(n - 1))
        prev = (zero, zero, *row, zero)  # prev[s + 1] = P(n-1, s), 0 outside 1..n-2
        mid = prev[1:]
        # s*P(n-1, s) + (2*P(n-1, s-1) + (n-s)*P(n-1, s-2)) for s = 1..n-1
        row = tuple(
            map(add, map(mul, k[1:n], prev[2:]), map(add, map(add, mid, mid), map(mul, k[n - 1 : 0 : -1], prev)))
        )
        yield row


def build_triangle(n_max: int) -> RunCountTriangle:
    """Compute P(n, s) for all 2 <= n <= n_max by the run-count recurrence."""
    return RunCountTriangle(n_max=n_max, rows=tuple(recurrence_rows(int, n_max)))
