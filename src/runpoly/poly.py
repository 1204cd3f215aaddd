"""Exact polynomial arithmetic and series division over the rationals.

Coefficients are `fractions.Fraction` throughout; no floating point enters any
computation.  Sums, products, exact division, series division and linear
substitution run on integer numerators over one common denominator, and
build one Fraction per output coefficient.  Three representations are
provided:

  Polynomial           dense, one variable, ascending coefficient tuple
  BivariatePolynomial  sparse, two variables, {(e1, e2): coefficient} terms
  TruncatedSeries      dense, one variable, fixed truncation order; a value
                       with no arithmetic, made by series_quotient

Every polynomial carries a variable tag ("x", "z", "n", "t", ...) which is
checked whenever two polynomials are combined; mixing tags raises ValueError.
The zero polynomial has an empty coefficient tuple and degree -1.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Mapping


class NonzeroRemainderError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _over_lcm(coeffs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over their least common denominator."""
    coeffs = list(coeffs)
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


@dataclasses.dataclass(frozen=True, init=False)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[j] is the coefficient of var**j; trailing zeros are stripped, so
    Polynomial("x", []) is the zero polynomial (degree -1).
    """

    var: str
    coeffs: tuple[Fraction, ...]

    def __init__(self, var: str, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, var: str, value) -> Polynomial:
        return cls(var, [value])

    @classmethod
    def monomial(cls, var: str, degree: int, coeff=1) -> Polynomial:
        return cls(var, [0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def _check_var(self, other: Polynomial) -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.var, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        nums, d = _over_lcm(self.coeffs + other.coeffs)
        a, b = nums[: len(self.coeffs)], nums[len(self.coeffs) :]
        if len(a) < len(b):
            a, b = b, a
        for j, c in enumerate(b):
            a[j] += c
        return Polynomial(self.var, [Fraction(c, d) for c in a])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, d = _over_lcm(self.coeffs)
            d *= other.denominator
            return Polynomial(self.var, [Fraction(c * other.numerator, d) for c in a])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        a, da = _over_lcm(self.coeffs)
        b, db = _over_lcm(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        d = da * db
        return Polynomial(self.var, [Fraction(c, d) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.var, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, a) -> Fraction:
        """Exact Horner evaluation at the point a."""
        a = _as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def scale_argument(self, c, new_var: str | None = None) -> Polynomial:
        """Return q with q(X) = p(c*X); coefficient j picks up a factor c**j.

        The result is tagged new_var when given (substituting c*x for z turns
        a polynomial in z into one in x).
        """
        p, q = _as_fraction(c).as_integer_ratio()
        a, d = _over_lcm(self.coeffs)
        top = max(len(a) - 1, 0)
        d *= q**top
        out = [x * p**j * q ** (top - j) for j, x in enumerate(a)]
        return Polynomial(new_var or self.var, [Fraction(x, d) for x in out])

    def compose_affine(self, scale, shift, new_var: str | None = None) -> Polynomial:
        """Return p(scale*X + shift) as a polynomial in X."""
        var = new_var or self.var
        arg = Polynomial(var, [shift, scale])
        acc = Polynomial(var)
        for c in reversed(self.coeffs):
            acc = acc * arg + c
        return acc

    def div_exact(self, d: Polynomial) -> Polynomial:
        """Return q with self = q*d exactly.

        Raises NonzeroRemainderError if d does not divide self; a nonzero
        remainder here signals a broken identity, not a recoverable state.
        """
        self._check_var(d)
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        # self = rem/da and d = div/dd; rem and quot share the scale `den`,
        # which grows only when a quotient step does not divide evenly.
        rem, da = _over_lcm(self.coeffs)
        div, dd = _over_lcm(d.coeffs)
        dn, lead = d.degree, div[-1]
        quot = [0] * max(len(rem) - dn, 0)
        den = 1
        for i in range(len(rem) - 1, dn - 1, -1):
            f = abs(lead) // gcd(rem[i], lead)
            if f != 1:
                rem = [c * f for c in rem]
                quot = [c * f for c in quot]
                den *= f
            c = quot[i - dn] = rem[i] // lead
            if c:
                for j, y in enumerate(div, i - dn):
                    rem[j] -= c * y
        for j, c in enumerate(rem):
            if c:
                c = Fraction(c, den * da)
                raise NonzeroRemainderError(f"remainder has {c} at {self.var}^{j}")
        return Polynomial(self.var, [Fraction(c * dd, den * da) for c in quot])


class BivariatePolynomial:
    """Sparse exact polynomial in two tagged variables.

    Terms map exponent pairs (e1, e2) to nonzero Fraction coefficients, e.g.
    {(1, 0): 2, (0, 1): -1} with vars ("n", "s") is 2n - s.  Treat instances
    as immutable: every operation returns a new polynomial.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, str], terms: Mapping | None = None):
        v = (str(vars[0]), str(vars[1]))
        clean: dict[tuple[int, int], Fraction] = {}
        for (e1, e2), c in (terms or {}).items():
            c = _as_fraction(c)
            if c != 0:
                clean[(int(e1), int(e2))] = c
        self.vars = v
        self.terms = clean

    @classmethod
    def _over(cls, vars: tuple[str, str], nums: Mapping, d: int) -> BivariatePolynomial:
        """The polynomial with terms nums[e] / d for integer nums, zeros dropped."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = {e: Fraction(c, d) for e, c in nums.items() if c}
        return p

    @classmethod
    def constant(cls, vars: tuple[str, str], value) -> BivariatePolynomial:
        return cls(vars, {(0, 0): value})

    @classmethod
    def from_univariate(cls, p: Polynomial, position: int, vars: tuple[str, str]) -> BivariatePolynomial:
        """Embed a univariate polynomial as variable 0 or 1 of a bivariate one."""
        if p.var != vars[position]:
            raise ValueError(f"variable mismatch: {p.var!r} is not {vars[position]!r}")
        if position == 0:
            return cls(vars, {(j, 0): c for j, c in enumerate(p.coeffs)})
        return cls(vars, {(0, j): c for j, c in enumerate(p.coeffs)})

    def degree_in(self, position: int) -> int:
        """Degree in the first (0) or second (1) variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[position] for e in self.terms)

    def _check_vars(self, other: BivariatePolynomial) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial.constant(self.vars, other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return BivariatePolynomial.sum(self.vars, (self, other))

    __radd__ = __add__

    @classmethod
    def sum(cls, vars: tuple[str, str], polys: Iterable[BivariatePolynomial]) -> BivariatePolynomial:
        """The sum of polynomials in vars, added as integers over one common denominator."""
        polys = list(polys)
        for p in polys:
            if p.vars != vars:
                raise ValueError(f"variable mismatch: {vars} vs {p.vars}")
        nums, d = _over_lcm(c for p in polys for c in p.terms.values())
        out: dict[tuple[int, int], int] = {}
        for e, c in zip((e for p in polys for e in p.terms), nums):
            out[e] = out.get(e, 0) + c
        return cls._over(vars, out, d)

    def __neg__(self):
        return BivariatePolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, d = _over_lcm(self.terms.values())
            out = {e: c * other.numerator for e, c in zip(self.terms, a)}
            return BivariatePolynomial._over(self.vars, out, d * other.denominator)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_vars(other)
        a, da = _over_lcm(self.terms.values())
        b, db = _over_lcm(other.terms.values())
        out: dict[tuple[int, int], int] = {}
        for (a1, a2), x in zip(self.terms, a):
            for (b1, b2), y in zip(other.terms, b):
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + x * y
        return BivariatePolynomial._over(self.vars, out, da * db)

    __rmul__ = __mul__

    def evaluate(self, a, b) -> Fraction:
        """Evaluate at the point (a, b); agrees with iterated univariate evaluation."""
        a, b = _as_fraction(a), _as_fraction(b)
        total = Fraction(0)
        for (e1, e2), c in self.terms.items():
            total += c * a**e1 * b**e2
        return total

    def substitute_linear(self, position: int, scale, shift, new_name: str | None = None) -> BivariatePolynomial:
        """Replace variable `position` by scale*V + shift (V optionally renamed).

        Used both for the reparametrization t -> s - i and for argument shifts
        like n -> n - 1 inside recurrence checks.
        """
        (scale, shift), den = _over_lcm([_as_fraction(scale), _as_fraction(shift)])
        names = list(self.vars)
        if new_name is not None:
            names[position] = new_name
        vars = (names[0], names[1])
        # (scale*V + shift)**e = rows[e](V) / den**e with integer rows[e];
        # every term is brought over den**top.
        top = max((e[position] for e in self.terms), default=0)
        rows = [[1]]
        for _ in range(top):
            prev = rows[-1]
            rows.append([shift * lo + scale * hi for lo, hi in zip(prev + [0], [0] + prev)])
        nums, d = _over_lcm(self.terms.values())
        out: dict[tuple[int, int], int] = {}
        for (e1, e2), c in zip(self.terms, nums):
            e, keep = (e1, e2) if position == 0 else (e2, e1)
            c *= den ** (top - e)
            for j, w in enumerate(rows[e]):
                key = (j, keep) if position == 0 else (keep, j)
                out[key] = out.get(key, 0) + c * w
        return BivariatePolynomial._over(vars, out, d * den**top)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.vars}, {self.terms})"


@dataclasses.dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Power series known exactly up to and including order `order`.

    coeffs holds exactly order + 1 coefficients: shorter input is padded with
    zeros, longer input is truncated.
    """

    var: str
    order: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, var: str, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def coefficient(self, j: int) -> Fraction:
        if j > self.order:
            raise IndexError(f"coefficient {j} beyond truncation order {self.order}")
        if j < 0:
            return Fraction(0)
        return self.coeffs[j]


def series_quotient(num: Polynomial, den: Polynomial, order: int) -> TruncatedSeries:
    """Expand num/den as a truncated series; requires den to have constant term exactly 1.

    Recurrence: c_m = num_m - sum_{k=1..m} den_k c_{m-k}.
    """
    num._check_var(den)
    if den.coefficient(0) != 1:
        raise ValueError("series_quotient requires a denominator with constant term 1")
    # With D the lcm of den's denominators, den(D*y) has integer coefficients
    # and constant term 1; e_m = dn * D**m * c_m then satisfies the same
    # recurrence in integers, where dn is num's common denominator.
    D = lcm(*(c.denominator for c in den.coeffs))
    rev = [(c * D**k).numerator for k, c in enumerate(den.coeffs)][:0:-1]
    a, dn = _over_lcm(num.coeffs[: order + 1])
    e = [c * D**m for m, c in enumerate(a)] + [0] * (order + 1 - len(a))
    for m in range(1, order + 1):
        k = min(m, len(rev))  # e_m -= sum_{k} den_k D^k e_{m-k}
        e[m] -= sum(map(mul, rev[len(rev) - k :], e[m - k : m]))
    return TruncatedSeries(den.var, order, [Fraction(c, dn * D**m) for m, c in enumerate(e)])


def binom_rational(top, k: int) -> Fraction:
    """Generalized binomial coefficient top*(top-1)***(top-k+1)/k!, exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    top = _as_fraction(top)
    num = Fraction(1)
    for j in range(k):
        num *= top - j
    return num / factorial(k)


def binom_poly_in_n(shift, scale, k: int) -> Polynomial:
    """The degree-k polynomial prod_{j=0..k-1}(scale*n + shift - j) / k! in n.

    Evaluating at n0 gives binom_rational(scale*n0 + shift, k); this is the
    polynomial extension of the half-integer binomial coefficient.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = Polynomial.constant("n", 1)
    for j in range(k):
        acc = acc * Polynomial("n", [_as_fraction(shift) - j, scale])
    return acc * Fraction(1, factorial(k))
