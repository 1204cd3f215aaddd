"""Rational generating functions for the run counts.

Two families live here, both with structured denominators of the form
prod (1 - c*x)^e:

    A_k(z) = PhiTilde_k(z) / (1-z)^(k+1)   = sum_{n>=2} a_k(n) z^n
    u_s(x) = Phi_s(x) / Delta_s(x)         = sum_{n>=2} P(n,s) x^n

A_k is obtained from the degree-(2k+1) polynomial ATilde_k(z), which carries
a (1+z)^(k+1) factor; one Taylor shift to z = -1 shows the factor and gives
the coefficients atilde_k(p) of the reduced numerator PhiTilde_k, of degree
k+2.  The atilde coefficients are computed by two independent routes
(closed formula and that Taylor shift) which must agree.

u_s is the sum of the partial-fraction blocks B_{i,k}(x, s-i)/(1-(s-i)x)^(k+1).
phi_s_poly clears them over Delta_s by products, and u_s_series sums them
as series; neither is checked against the other.  Every Phi_s is held
instead to the run recurrence, as an identity in x, by
recurrences.verify_u_recurrence.  Every denominator here is a product of
linear factors 1 - c*x with integer c, and nothing is divided by anything
else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .closedform import K, b_value, selector
from .poly import Immutable, Polynomial, TruncatedSeries, binom_rational
from .poly import _linear_product, _over_lcm, _over_linear, _plus, _product, _times_linear
from .triangle import RunCountTriangle


class DegreeMismatchError(ArithmeticError):
    """A constructed polynomial missed its predicted degree."""


class DualPathMismatchError(ArithmeticError):
    """Two independent computations of the same quantity disagree."""


class NonzeroRemainderError(ArithmeticError):
    """A factor the paper proves divides a polynomial left a nonzero remainder."""


@lru_cache(maxsize=None)
def _expand_factors(var: str, factors: tuple[tuple[int, int], ...]) -> Polynomial:
    """prod (1 - c*var)^e over the integer (c, e) pairs, once per distinct product: e linear passes a factor."""
    return Polynomial._over(var, _linear_product((1, -c) for c, e in factors for _ in range(e)), 1)


def _integer(c) -> int:
    """c as an int when it is an int or an integral Fraction, else ValueError."""
    if type(c) is int or isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    raise ValueError(f"denominator parameters must be integers, got {c!r}")


class RationalGF(Immutable):
    """A rational generating function numerator / prod (1 - c*x)^e.

    The denominator is kept factored as a tuple of (parameter c, multiplicity e)
    pairs with distinct integer parameters, an integral Fraction bound as its
    int; denominator() expands each distinct product once.
    """

    __slots__ = ("numerator", "denominator_factors")

    def __init__(self, numerator: Polynomial, denominator_factors: tuple[tuple[int, int], ...]):
        factors = tuple((_integer(c), e) for c, e in denominator_factors)
        params = [c for c, _ in factors]
        if len(set(params)) != len(params):
            raise ValueError("denominator parameters must be distinct")
        if any(e < 1 for _, e in factors):
            raise ValueError("denominator multiplicities must be >= 1")
        super().__init__(numerator, factors)

    def denominator(self) -> Polynomial:
        return _expand_factors(self.numerator.var, self.denominator_factors)

    def series(self, order: int) -> TruncatedSeries:
        """The series up to x^order: the numerator's numerators, e passes of _over_linear a factor (c, e)."""
        nums = list(self.numerator.nums[: order + 1])
        nums += [0] * (order + 1 - len(nums))
        for c, e in self.denominator_factors:
            for _ in range(e):
                nums = _over_linear(nums, c)
        return TruncatedSeries._over(self.numerator.var, order, nums, self.numerator.den)


# ---------------------------------------------------------------------------
# The auxiliary family A_k(z)


def _odd_lcm(k: int) -> int:
    """lcm(1, 3, ..., 2k+1), a common denominator of every 1/(2m+1) with m <= k."""
    return lcm(*range(1, 2 * k + 2, 2))


@lru_cache(maxsize=None)
def atilde_poly(k: int) -> Polynomial:
    """The degree-(2k+1) auxiliary polynomial carrying a (1+z)^(k+1) factor.

    ATilde_k(z) = z^(2k+1)
                + binom(-3/2, k) * sum_{m=0}^{k} binom(k,m) (-1)^(k+m)/(2m+1) z^(2k-2m)

    Dividing out (1+z)^(k+1) and multiplying by (-1)^k z^2 yields PhiTilde_k,
    the reduced numerator of A_k(z) = PhiTilde_k(z)/(1-z)^(k+1).  The sum is
    taken as integer numerators over q * lcm(1, 3, ..., 2k+1), where
    binom(-3/2, k) = p/q.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    front = binom_rational(Fraction(-3, 2), k)
    odd = _odd_lcm(k)
    den = front.denominator * odd
    nums = [0] * (2 * k + 2)
    nums[2 * k + 1] = den
    for m in range(k + 1):
        nums[2 * k - 2 * m] = front.numerator * comb(k, m) * (-1) ** (k + m) * (odd // (2 * m + 1))
    return Polynomial._over("z", nums, den)


def verify_wz_sum(k: int) -> bool:
    """Exactly sum the certified identity and compare with 4^k.

    sum_m binom(k,m) binom(2k-2m, k-2m) (-1)^m (k+1)/(2m+1) = 4^k, the
    summand vanishing for m > floor(k/2); summed as integer numerators over
    lcm(1, 3, ..., 2k+1).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    odd = _odd_lcm(k)
    total = sum(
        comb(k, m) * comb(2 * k - 2 * m, k - 2 * m) * (-1) ** m * (k + 1) * (odd // (2 * m + 1))
        for m in range(k // 2 + 1)
    )
    return total == 4**k * odd


def _atilde_coeffs_formula(k: int) -> Polynomial:
    """sum_p atilde_k(p) z^p for p = 0..k from the closed formula.

    Summed as integer numerators over q * lcm(1, 3, ..., 2k+1), where
    binom(-3/2, k) = p/q.
    """
    front = binom_rational(Fraction(-3, 2), k)
    odd = _odd_lcm(k)
    den = front.denominator * odd
    nums = []
    for p in range(k + 1):
        correction = sum(
            comb(k, m) * comb(2 * k - 2 * m, k + p + 1) * (-1) ** (k + m) * (odd // (2 * m + 1))
            for m in range((k - p - 1) // 2 + 1)
        )
        nums.append((-1) ** p * (comb(2 * k + 1, k + p + 1) * den - front.numerator * correction))
    return Polynomial._over("z", nums, den)


def atilde_shift_coeffs(k: int) -> Polynomial:
    """sum_p atilde_k(p) z^p from one Taylor shift of ATilde_k to z = -1, with no division.

    ATilde_k(z) = (-1)^k (1+z)^(k+1) sum_p atilde_k(p) (1+z)^p, so in powers
    of (1+z) its terms below (1+z)^(k+1) are the remainder of dividing by
    (1+z)^(k+1): NonzeroRemainderError names the first nonzero one.  (-1)^k
    times the rest are the atilde_k(p).
    """
    shifted = atilde_poly(k).shift(-1)  # coefficients in powers of (1+z)
    j = next((j for j, c in enumerate(shifted.nums[: k + 1]) if c), None)
    if j is not None:
        raise NonzeroRemainderError(f"remainder has {shifted.coefficient(j)} at (1+z)^{j}")
    return Polynomial._over("z", [(-1) ** k * c for c in shifted.nums[k + 1 :]], shifted.den)


@lru_cache(maxsize=None)
def atilde_taylor_coeffs(k: int) -> tuple[Fraction, ...]:
    """The coefficients atilde_k(0..k), computed by both routes and compared.

    Raises DualPathMismatchError, naming the first p where the closed formula
    and the Taylor-shift route disagree.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    formula = _atilde_coeffs_formula(k)
    shifted = atilde_shift_coeffs(k)
    if formula != shifted:
        top = max(formula.degree, shifted.degree)
        p = next(p for p in range(top + 1) if formula.coefficient(p) != shifted.coefficient(p))
        raise DualPathMismatchError(
            f"atilde_{k}({p}): closed formula {formula.coefficient(p)} != Taylor shift {shifted.coefficient(p)}"
        )
    return tuple(formula.coefficient(j) for j in range(k + 1))


@lru_cache(maxsize=None)
def phi_tilde_poly(k: int) -> Polynomial:
    """PhiTilde_k(z) = z^2 sum_p atilde_k(p) (1+z)^p, the reduced numerator of A_k.

    The sum over powers of (1+z) is one Taylor shift: the polynomial with
    coefficients atilde_k(p), taken at 1+z.  Checks on construction: ATilde_k
    has degree exactly 2k+1; (-1)^k (1+z)^(k+1) times that shifted sum
    reproduces it; and PhiTilde_k has degree exactly k+2.
    """
    atilde = atilde_poly(k)
    if atilde.degree != 2 * k + 1:
        raise DegreeMismatchError(f"deg ATilde_{k} = {atilde.degree}, expected {2 * k + 1}")

    reduced = Polynomial("z", atilde_taylor_coeffs(k)).shift(1)
    if reduced * _expand_factors("z", ((-1, k + 1),)) * (-1) ** k != atilde:  # (1+z)^(k+1)
        raise DualPathMismatchError(f"ATilde_{k} reconstruction from taylor coefficients failed")

    phi_tilde = Polynomial.monomial("z", 2) * reduced
    if phi_tilde.degree != k + 2:
        raise DegreeMismatchError(f"deg PhiTilde_{k} = {phi_tilde.degree}, expected {k + 2}")
    return phi_tilde


def A_k_gf(k: int) -> RationalGF:
    """A_k(z) = PhiTilde_k(z)/(1-z)^(k+1); its z^n coefficient is a_k(n) for n >= 2."""
    return RationalGF(
        numerator=phi_tilde_poly(k),
        denominator_factors=((1, k + 1),),
    )


# ---------------------------------------------------------------------------
# The fixed-s generating functions u_s(x)


def delta_factors(s: int) -> tuple[tuple[int, int], ...]:
    """Factors (c, e) of Delta_s(x) = prod_{i=0}^{s-1} (1-(s-i)x)^(floor(i/2)+1)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return tuple((s - i, i // 2 + 1) for i in range(s))


def delta_degree(s: int) -> int:
    return -(-s * (s + 2) // 4)  # ceil(s(s+2)/4)


def phi_degree(s: int) -> int:
    return 1 + delta_degree(s)


def _blocks(s: int) -> tuple[list[tuple[int, list[list[int]]]], int]:
    """Every block B_{i,k}(x, s-i) of u_s as integer numerators over one denominator den.

    B_{i,k}(x,t) = K(t) * PhiTilde_k(t*x) * sum_{j>=k} g_{i,j} b_{j-k}(t), the sum
    running over closedform.selector(i).  Per pole the b_m(t) share one
    denominator and K(t) enters as its numerator and denominator, so each
    weight is an integer; each block is reduced by its gcd, then all are
    brought over their lcm.  rows[i] = (t, [B_{i,k} for k in range(e)]) for
    the i-th factor (t, e) of delta_factors(s), the one place the order e of
    the pole 1-tx is read.
    """
    blocks = []
    for i, (t, e) in enumerate(delta_factors(s)):
        if e > i // 2 + 1:
            raise ValueError(f"k must be in 0..{i // 2} for i={i}, got {e - 1}")
        w = K(t)
        b, b_den = _over_lcm([b_value(m, t) for m in range(i // 2 + 1)])
        row = []
        for k in range(e):
            pt = phi_tilde_poly(k)
            weight = w.numerator * sum(g * b[j - k] for j, g in selector(i) if j >= k)
            nums = [c * t**j * weight for j, c in enumerate(pt.nums)]
            block_den = pt.den * b_den * w.denominator
            r = gcd(block_den, *nums)
            row.append(([c // r for c in nums], block_den // r))
        blocks.append((t, row))
    den = lcm(*(d for _, row in blocks for _, d in row))
    return [(t, [[c * (den // d) for c in nums] for nums, d in row]) for t, row in blocks], den


@lru_cache(maxsize=None)
def phi_s_poly(s: int) -> Polynomial:
    """The numerator Phi_s(x) of u_s: the blocks cleared over Delta_s by products, in integers.

    Each pole 1-tx of order e gives inner = sum_k B_{i,k} (1-tx)^(e-1-k) by
    Horner's rule, and the poles are summed as a/b + c/d = (ad + cb)/bd, b
    running through the prefix products of Delta_s.  Raises
    DegreeMismatchError unless deg Phi_s = 1 + ceil(s(s+2)/4).
    """
    rows, den = _blocks(s)
    total, prefix = [], [1]
    for t, row in rows:
        inner = []
        for nums in row:  # Horner's rule in powers of 1 - t*x
            inner = _plus(_times_linear(inner, 1, -t), nums)
        part = _product(inner, prefix)
        for _ in row:  # times (1 - t*x)^e, e = len(row)
            total, prefix = _times_linear(total, 1, -t), _times_linear(prefix, 1, -t)
        total = _plus(total, part)
    phi = Polynomial._over("x", total, den)
    if phi.degree != phi_degree(s):
        raise DegreeMismatchError(f"deg Phi_{s} = {phi.degree}, expected {phi_degree(s)}")
    return phi


def u_s_gf(s: int) -> RationalGF:
    """u_s(x) = Phi_s(x)/Delta_s(x), with Delta_s kept factored."""
    return RationalGF(phi_s_poly(s), delta_factors(s))


def u_s_series(s: int, order: int) -> TruncatedSeries:
    """Series of u_s(x); the x^n coefficient is P(n, s) for 2 <= n <= order.

    Each pole 1-tx is summed from its top k as pole = (pole + B_{i,k})/(1-tx),
    cut at x^order: no Phi_s, Delta_s or convolution is built.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if order < 2:
        raise ValueError("order must be >= 2")
    rows, den = _blocks(s)
    total = [0] * (order + 1)
    for t, row in rows:
        pole = [0] * (order + 1)
        for nums in reversed(row):
            pole = _over_linear(_plus(pole, nums[: order + 1]), t)
        total = _plus(total, pole)
    return TruncatedSeries._over("x", order, total, den)


def series_triangle(n_max: int) -> RunCountTriangle:
    """The P(n, s) triangle read off the u_s series, one column per s.

    Raises ArithmeticError, naming the first non-integer coefficient, if a
    column's series is not over den 1, which would mean a broken identity.
    """
    columns = [u_s_series(s, n_max) for s in range(1, n_max)]  # columns[s - 1].nums[n] = P(n, s)
    bad = next((c for col in columns if col.den != 1 for c in col.coeffs if c.denominator != 1), None)
    if bad is not None:
        raise ArithmeticError(f"series coefficient {bad} is not an integer")
    rows = tuple(tuple(c.nums[n] for c in columns[: n - 1]) for n in range(2, n_max + 1))
    return RunCountTriangle(n_max, rows)
