"""Exact polynomial arithmetic over the rationals.

No floating point enters any computation.  A polynomial is stored as integer
numerators over one denominator, kept reduced: den > 0, gcd(den, *nums) == 1,
no trailing or zero terms; the zero polynomial has no numerators, den 1 and
degree -1.  Operations work on these integers; `coeffs`, `coefficient` and
`terms` are exact Fraction views made on demand.  Three representations:

  Polynomial           dense, one variable: nums[j] / den is the coefficient of var**j
  BivariatePolynomial  sparse, two variables: {(e1, e2): numerator} over den
  TruncatedSeries      dense, one variable, fixed truncation order: nums[j] / den
                       for j <= order; a value with no arithmetic

Every polynomial carries a variable tag ("x", "z", "n", "t", ...) which is
checked whenever two polynomials are combined; mixing tags raises ValueError.

The loops over integer coefficient lists live in five kernels: _product
(convolution), _times_linear (times c0 + c1*x), _linear_product (a product
of factors c0 + c1*x, one _times_linear pass a factor), _over_linear (series
over 1 - t*x) and _plus (sum); Polynomial and the genfun families run on
them.  Polynomial.shift sweeps its one list in place, and _shift_powers
lists every power (V + shift)**e for substitute_linear.

Only the substitutions the families and their checks need are offered:
integer argument shifts (shift, substitute_linear).  No polynomial is
divided by another: every denominator in the families is a product of
linear factors 1 - t*x, and _over_linear is the one division.
binom_rational takes its falling product on the integer numerator and
denominator of the top argument and makes one Fraction, at the end.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from typing import Iterable, Mapping


def _ratio(value) -> tuple[int, int]:
    """An exact rational as (numerator, denominator > 0)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _over_lcm(values: Iterable) -> tuple[list[int], int]:
    """Integer numerators of exact rationals over their least common denominator."""
    pairs = [_ratio(v) for v in values]
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


def _product(a, b, size: int | None = None) -> list[int]:
    """The integer coefficients of a(x) * b(x), cut to the first size (all of them when size is None)."""
    if len(a) > len(b):
        a, b = b, a  # the short factor outside
    n = len(a) + len(b) - 1 if size is None else min(len(a) + len(b) - 1, size)
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                out[j] += x * y
    return out


def _times_linear(p, c0: int, c1: int) -> list[int]:
    """The integer coefficients of p(x) * (c0 + c1*x)."""
    pairs = zip([*p, 0], [0, *p])
    if c0 == 1:  # each (1 - c*x) of a factored denominator: one multiply a term
        return [lo + c1 * hi for lo, hi in pairs]
    return [c0 * lo + c1 * hi for lo, hi in pairs]


def _over_linear(p, t: int) -> list[int]:
    """The first len(p) integer coefficients of the series p(x) / (1 - t*x): out_m = p_m + t*out_(m-1)."""
    return list(accumulate(p, lambda acc, c: c + t * acc))


def _plus(a: list[int], b: list[int]) -> list[int]:
    """The integer coefficients of a(x) + b(x)."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _linear_product(factors: Iterable[tuple[int, int]]) -> list[int]:
    """The integer coefficients of prod (c0 + c1*x) over the (c0, c1) pairs: one _times_linear pass a factor."""
    nums = [1]
    for c0, c1 in factors:
        nums = _times_linear(nums, c0, c1)
    return nums


def _shift_powers(shift: int, top: int) -> list[list[int]]:
    """Integer rows with (V + shift)**e = sum_j rows[e][j] V**j for e <= top."""
    rows = [[1]]
    for _ in range(top):
        rows.append(_times_linear(rows[-1], shift, 1))
    return rows


class Immutable:
    """Base of the value types: each field is bound once, at construction, and never again.

    __init__ binds the fields named in __slots__ from positional values in slot
    order or from keywords, and raises TypeError on a missing, repeated or
    unknown field.  A subclass that checks its fields calls super().__init__
    after.  Only the three number types (Polynomial, BivariatePolynomial and
    TruncatedSeries) define _set, which reduces and binds their fields; _over
    builds one of them through _set alone, skipping __init__.  Two values are
    equal when they have the same type and equal fields, in slot order; only
    the two polynomials define a hash.  Assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        fields, bound = self.__slots__, dict(zip(self.__slots__, values))
        if len(values) > len(fields) or bound.keys() & named or bound.keys() | named != set(fields):
            got = f"{len(values)} positional values and the keywords {sorted(named)}"
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)}), got {got}")
        for name, value in (bound | named).items():
            object.__setattr__(self, name, value)

    @classmethod
    def _over(cls, *fields):
        """The value that cls._set makes of these fields, without __init__'s checks."""
        return object.__new__(cls)._set(*fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Polynomial(Immutable):
    """Dense univariate polynomial with exact rational coefficients.

    The coefficient of var**j is nums[j] / den, in the reduced form above;
    Polynomial("x", []) is the zero polynomial (degree -1).  Polynomials
    compare and hash by value.
    """

    __slots__ = ("var", "nums", "den")

    def __init__(self, var: str, coeffs: Iterable = ()):
        self._set(var, *_over_lcm(coeffs))

    def _set(self, var: str, nums: list[int], den: int) -> Polynomial:
        """Bind the coefficients nums[j] / den, reduced; den > 0, and nums is consumed."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def constant(cls, var: str, value) -> Polynomial:
        return cls(var, [value])

    @classmethod
    def monomial(cls, var: str, degree: int, coeff=1) -> Polynomial:
        return cls(var, [0] * degree + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, j: int) -> Fraction:
        if 0 <= j < len(self.nums):
            return Fraction(self.nums[j], self.den)
        return Fraction(0)

    def __hash__(self) -> int:
        return hash((self.var, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Polynomial({self.var!r}, {list(self.coeffs)})"

    def _check_var(self, other: Polynomial) -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.var, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        g = gcd(self.den, other.den)
        a, b = [c * (other.den // g) for c in self.nums], [c * (self.den // g) for c in other.nums]
        return Polynomial._over(self.var, _plus(a, b), self.den * (other.den // g))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return Polynomial._over(self.var, [c * p for c in self.nums], self.den * q)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        return Polynomial._over(self.var, _product(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def evaluate(self, a) -> Fraction:
        """Exact Horner evaluation at the point a = p/q, in integers."""
        p, q = _ratio(a)
        acc = 0
        for j, c in enumerate(reversed(self.nums)):
            acc = acc * p + c * q**j
        return Fraction(acc, self.den * q ** max(self.degree, 0))

    def shift(self, by: int) -> Polynomial:
        """Return p(X + by) for an integer by, in the same variable, in integers and in place.

        Pass k is one Horner sweep of synthetic division by X - by, from the
        top down to out[k], which it leaves as the X**k coefficient of p(X + by).
        """
        out, top = list(self.nums), len(self.nums) - 1
        for k in range(top):
            acc = out[top]
            for j in range(top - 1, k - 1, -1):
                acc = out[j] = out[j] + by * acc
        return Polynomial._over(self.var, out, self.den)


class BivariatePolynomial(Immutable):
    """Sparse exact polynomial in two tagged variables.

    nums maps exponent pairs (e1, e2) to nonzero integer numerators over den,
    in the reduced form above; BivariatePolynomial(("n", "s"), {(1, 0): 2,
    (0, 1): -1}) is 2n - s.  An exponent other than a non-negative int, or
    two equal variable names, raises ValueError.  Polynomials compare and
    hash by value.
    """

    __slots__ = ("vars", "nums", "den")

    def __init__(self, vars: tuple[str, str], terms: Mapping | None = None):
        terms = terms or {}
        bad = next((e for e in terms if len(e) != 2 or not all(type(j) is int and j >= 0 for j in e)), None)
        if bad is not None:
            raise ValueError(f"exponents must be pairs of non-negative ints, got {bad!r}")
        names = (str(vars[0]), str(vars[1]))
        if names[0] == names[1]:
            raise ValueError(f"the two variables must have different names, got {names!r}")
        nums, den = _over_lcm(terms.values())
        self._set(names, dict(zip(terms, nums)), den)

    def _set(self, vars: tuple[str, str], nums: Mapping, den: int) -> BivariatePolynomial:
        """Bind the terms nums[e] / den for integer nums and den > 0, reduced."""
        nums = {e: c for e, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def constant(cls, vars: tuple[str, str], value) -> BivariatePolynomial:
        return cls(vars, {(0, 0): value})

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def degree_in(self, position: int) -> int:
        """Degree in the first (0) or second (1) variable; -1 for the zero polynomial."""
        return max((e[position] for e in self.nums), default=-1)

    def _check_vars(self, other: BivariatePolynomial) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __hash__(self) -> int:
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial.constant(self.vars, other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_vars(other)
        d = lcm(self.den, other.den)
        f, g = d // self.den, d // other.den
        out = {e: c * f for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * g
        return BivariatePolynomial._over(self.vars, out, d)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial._over(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            out = {e: c * p for e, c in self.nums.items()}
            return BivariatePolynomial._over(self.vars, out, self.den * q)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_vars(other)
        out: dict[tuple[int, int], int] = {}
        for (a1, a2), x in self.nums.items():
            for (b1, b2), y in other.nums.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + x * y
        return BivariatePolynomial._over(self.vars, out, self.den * other.den)

    __rmul__ = __mul__

    def evaluate(self, a, b) -> Fraction:
        """Evaluate at the point (a, b); agrees with iterated univariate evaluation."""
        total = sum(c * a**e1 * b**e2 for (e1, e2), c in self.nums.items())
        return Fraction(total, self.den)

    def substitute_linear(self, position: int, shift: int, new_name: str | None = None) -> BivariatePolynomial:
        """Replace variable `position` by V + shift for an integer shift (V optionally renamed).

        Used for argument shifts like n -> n - 1 inside the recurrence checks.
        """
        names = list(self.vars)
        if new_name is not None:
            names[position] = new_name
        rows = _shift_powers(shift, self.degree_in(position))
        out: dict[tuple[int, int], int] = {}
        for (e1, e2), c in self.nums.items():
            e, keep = (e1, e2) if position == 0 else (e2, e1)
            for j, w in enumerate(rows[e]):
                key = (j, keep) if position == 0 else (keep, j)
                out[key] = out.get(key, 0) + c * w
        return BivariatePolynomial._over((names[0], names[1]), out, self.den)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.vars}, {self.terms})"


class TruncatedSeries(Immutable):
    """Power series known exactly up to and including order `order`.

    nums holds exactly order + 1 integer numerators over den > 0, gcd(den, *nums) == 1
    (shorter input is padded with zeros, longer input truncated); coeffs and
    coefficient() are exact Fraction views.
    """

    __slots__ = ("var", "order", "nums", "den")

    def __init__(self, var: str, order: int, coeffs: Iterable = ()):
        self._set(var, order, *_over_lcm(coeffs))

    def _set(self, var: str, order: int, nums: list[int], den: int) -> TruncatedSeries:
        """Bind the coefficients nums[j] / den for j <= order, reduced; den > 0, and order >= 0."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        nums = nums[: order + 1] + [0] * (order + 1 - len(nums))
        g = gcd(den, *nums)
        super().__init__(var, order, tuple(c // g for c in nums), den // g)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.var!r}, {self.order}, {list(self.coeffs)})"

    def coefficient(self, j: int) -> Fraction:
        if j > self.order:
            raise IndexError(f"coefficient {j} beyond truncation order {self.order}")
        if j < 0:
            return Fraction(0)
        return Fraction(self.nums[j], self.den)


def binom_rational(top, k: int) -> Fraction:
    """Generalized binomial coefficient top*(top-1)***(top-k+1)/k!, exact.

    With top = p/q the falling product is prod_{j<k} (p - j*q) / q^k, so it
    is taken on integers and one Fraction is made, over q^k * k!.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    p, q = _ratio(top)
    num = 1
    for j in range(k):
        num *= p - j * q
    return Fraction(num, q**k * factorial(k))
