"""Closed forms for the run-count weights: the polynomial families behind

    P(n, s) = sum_{i=0}^{s-1} psi_i(n, s) * (s - i)^n.

Everything is assembled from three building blocks:

    a_k(n)   half-integer binomial polynomial, degree k in n
    b_m(t)   Catalan-like rational sequence, extended to a degree-m polynomial
    p_j(n,t) their convolution sum_{k<=j} a_k(n) * b_{j-k}(t)

The selector g_{i,j} is the x^i coefficient of (1-x)^2 sum_j p_j x^(2j):
p_{i/2} + p_{i/2-1} for even i and -2 p_{(i-1)/2} for odd i.  selector(i)
lists its nonzero entries, and phi_i = sum_j g_{i,j} p_j.

The weight psi_i(n, s) factors as K(s-i) * Q_i(n, s) with K(s) = 2^(2-s);
the non-polynomial prefactor K is kept out of every stored object and only
reattached at evaluation time, which is also how the polynomials are usually
displayed.  Q_i has degree exactly floor(i/2) in n.

One integer kernel, _part, builds both families from the cached a_k and b_m:
phi_i(n, t) with b_m(t), and Q_i(n, s) = phi_i(n, s - i) with each b_m
shifted to b_m(s - i).  No p_j is stored, and no family is made from another.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .poly import BivariatePolynomial, Immutable, Polynomial, TruncatedSeries, binom_rational
from .poly import _linear_product, _over_lcm, _product, _times_linear
from .triangle import RunCountTriangle


class NonIntegerResultError(ArithmeticError):
    """The closed-form sum failed to collapse to a nonnegative integer."""


def K(s: int) -> Fraction:
    """The prefactor 2^(2-s), exact for any integer s."""
    if s >= 2:
        return Fraction(1, 2 ** (s - 2))
    return Fraction(2 ** (2 - s))


@lru_cache(maxsize=None)
def a_poly(k: int) -> Polynomial:
    """a_k(n) = (-1)^k binom((n-3)/2, k) = prod_{j<k} (3+2j-n) / (2^k k!), degree k in n."""
    return Polynomial._over("n", _linear_product((3 + 2 * j, -1) for j in range(k)), 2**k * factorial(k))


def a_value(k: int, n: int) -> Fraction:
    """a_k(n) = (-1)^k binom((n-3)/2, k) = binom((2k+1-n)/2, k) by upper negation, exact."""
    return binom_rational(Fraction(2 * k + 1 - n, 2), k)


@lru_cache(maxsize=None)
def b_value(m: int, t: int) -> Fraction:
    """b_m(t) = t*(2m+t-1)! / (m!*(m+t)!*4^m) for integer t >= 1 (no n: cached)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if t < 1:
        raise ValueError("t must be >= 1")
    return Fraction(
        t * factorial(2 * m + t - 1), factorial(m) * factorial(m + t) * 4**m
    )


@lru_cache(maxsize=None)
def b_poly(m: int) -> Polynomial:
    """The unique degree-m polynomial in t agreeing with b_value at t >= 1.

    For m >= 1 the factorial quotient collapses to a rising product:
    b_m(t) = t * (t+m+1)(t+m+2)***(t+2m-1) / (m! * 4^m).  For m = 0 the
    quotient is 1/t and the polynomial is the constant 1, the empty product.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    factors = [(0, 1), *((j, 1) for j in range(m + 1, 2 * m))] if m else []  # t, then t + j
    return Polynomial._over("t", _linear_product(factors), factorial(m) * 4**m)


NT_VARS = ("n", "t")


def selector(i: int) -> tuple[tuple[int, int], ...]:
    """The nonzero pairs (j, g_{i,j}) of the selector picking p_j terms for index i."""
    if i % 2:
        return ((i // 2, -2),)
    return ((i // 2, 1), (i // 2 - 1, 1)) if i else ((0, 1),)


def _part(i: int, vars: tuple[str, str], shift: int) -> BivariatePolynomial:
    """sum_{(j, g) in selector(i)} g * p_j(n, v + shift), in the variables vars = (n, v).

    Every a_k(n) * b_{j-k}(v + shift) is added into dense integer rows over
    one common denominator; each b_m is shifted once, and not at all when
    shift is 0.  selector, a_poly and b_poly are read when called.
    """
    pairs = selector(i)
    b = [b_poly(m) for m in range(max(j for j, _ in pairs) + 1)]
    if shift:
        b = [bm.shift(shift) for bm in b]
    terms = [(g, a_poly(k), b[j - k]) for j, g in pairs for k in range(j + 1)]
    d = lcm(*(a.den * bm.den for _, a, bm in terms))
    rows = [[0] * len(b) for _ in b]  # rows[e1][e2] is the numerator of n^e1 v^e2
    for g, a, bm in terms:
        f = g * (d // (a.den * bm.den))
        for row, x in zip(rows, a.nums):
            for e2, y in enumerate(bm.nums):
                row[e2] += f * x * y
    return BivariatePolynomial._over(vars, {(e1, e2): c for e1, row in enumerate(rows) for e2, c in enumerate(row)}, d)


def _indices(i_max: int) -> range:
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    return range(i_max + 1)


def phi_polys(i_max: int) -> list[BivariatePolynomial]:
    """Polynomial parts of phi_i(n, t) = sum_j g_{i,j} p_j(n, t), the common K(t) factor omitted, each by _part."""
    return [_part(i, NT_VARS, 0) for i in _indices(i_max)]


class PsiPolynomial(Immutable):
    """psi_i(n, s) = K(s - i) * part(n, s); only the polynomial part is stored."""

    __slots__ = ("index", "part")  # part has the variables (n, s)

    def evaluate(self, n: int, s: int) -> Fraction:
        return K(s - self.index) * self.part.evaluate(n, s)


def psi_polys(i_max: int) -> list[PsiPolynomial]:
    """The weights Q_i(n, s) = phi_i(n, s - i), each made directly with b_m(t) at t = s - i."""
    return [PsiPolynomial(index=i, part=_part(i, ("n", "s"), -i)) for i in _indices(i_max)]


def _a_numerators(n: int, k_max: int) -> tuple[list[int], int]:
    """a_k(n) for k <= k_max, as integer numerators over their least common denominator."""
    return _over_lcm([a_value(k, n) for k in range(k_max + 1)])


def _p_numerators(a_row: tuple[list[int], int], t: int, j_max: int) -> tuple[list[int], int]:
    """p_j(n, t) = sum_{k<=j} a_k(n) b_{j-k}(t) for j <= j_max, as integer numerators over one denominator.

    a_row is _a_numerators(n, k_max) for some k_max >= j_max.  This is the
    a_k(n) * b_m(t) convolution that closed_row and phi_generating_series
    share; it reads a_value and b_value only.
    """
    a, da = a_row
    b, db = _over_lcm([b_value(m, t) for m in range(j_max + 1)])
    return _product(a, b, j_max + 1), da * db


def closed_row(n: int, s_max: int) -> tuple[int, ...]:
    """P(n, 1..s_max) by the explicit formula, each shared term formed once.

    Terms are summed as integer numerators over one denominator per row.
    Raises NonIntegerResultError if an entry is not a nonnegative integer.
    """
    if not 1 <= s_max <= n - 1:
        raise ValueError(f"need 1 <= s_max <= n-1, got n={n}, s_max={s_max}")
    a = _a_numerators(n, (s_max - 1) // 2)
    p, den = {}, {}  # numerators of K(t) t^n p_j(n, t), and their denominator
    for t in range(1, s_max + 1):
        pt, dt = _p_numerators(a, t, (s_max - t) // 2)
        w = K(t) * t**n
        p[t] = [w.numerator * c for c in pt]
        den[t] = w.denominator * dt
    d = lcm(*den.values())
    for t in p:  # bring every p_j over the row's one denominator d
        p[t] = [d // den[t] * c for c in p[t]]
    pairs = [selector(i) for i in range(s_max)]
    row = []
    for s in range(1, s_max + 1):
        total = 0
        for t in range(1, s + 1):
            pt = p[t]
            for j, g in pairs[s - t]:
                total += g * pt[j]
        q, r = divmod(total, d)
        if r or q < 0:
            raise NonIntegerResultError(f"P({n},{s}) evaluated to {Fraction(total, d)}")
        row.append(q)
    return tuple(row)


def p_closed_form(n: int, s: int) -> int:
    """P(n, s) by the explicit formula, exactly.

    P(n, s) = sum_{i=0}^{s-1} K(s-i) (s-i)^n sum_{j=0}^{floor(i/2)} g_{i,j} p_j(n, s-i)
    for n-1 >= s >= 1; outside that range the count is 0 by convention.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if s < 1 or s > n - 1:
        return 0
    return closed_row(n, s)[s - 1]


def closed_triangle(n_max: int) -> RunCountTriangle:
    """The P(n, s) triangle with every row from the explicit formula."""
    rows = tuple(closed_row(n, n - 1) for n in range(2, n_max + 1))
    return RunCountTriangle(n_max=n_max, rows=rows)


def phi_generating_series(n: int, t: int, order: int) -> TruncatedSeries:
    """The series sum_i phi_i(n, t) x^i, assembled from its closed form.

    Equals K(t) * (1-x)^2 * [sum_k a_k(n) x^(2k)] * [sum_m b_m(t) x^(2m)],
    multiplied out in integers over one denominator and truncated at x^order;
    the x^i coefficient must reproduce K(t) * part(phi_i)(n, t).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    p, dp = _p_numerators(_a_numerators(n, order // 2), t, order // 2)
    even = [0] * (order + 1)  # sum_j p_j x^(2j)
    even[::2] = p
    w = K(t)
    # times (1-x)^2 as two linear passes, not read from selector; _over cuts at x^order
    nums = _times_linear(_times_linear(even, w.numerator, -w.numerator), 1, -1)
    return TruncatedSeries._over("x", order, nums, dp * w.denominator)
