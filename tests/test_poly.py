"""Exact-core tests: polynomial ring arithmetic, series, binomials, and immutable values."""

import ast
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import runpoly
from runpoly.cli import METHODS, DecimalTriangle, OutputDocument, cmd_phi, cmd_psi, cmd_series, cmd_table, cmd_verify
from runpoly.closedform import PsiPolynomial, a_poly, psi_polys
from runpoly.genfun import RationalGF, u_s_gf
from runpoly.poly import (
    BivariatePolynomial,
    Polynomial,
    TruncatedSeries,
    _linear_product,
    _plus,
    _product,
    _over_linear,
    _times_linear,
    binom_rational,
)
from runpoly.triangle import build_triangle
from runpoly.verification import CheckResult

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
small_ints = st.integers(-6, 6)
# coefficients: rational, negative and zero alike (an empty list is the zero polynomial)
coefficients = st.one_of(st.just(Fraction(0)), small_fractions)


def polys(var="x", max_deg=5):
    return st.lists(coefficients, max_size=max_deg + 1).map(lambda cs: Polynomial(var, cs))


def linear_factors(max_factors=3):
    """Factors (c, e) of a RationalGF denominator prod (1 - c*x)^e: integer c, distinct, and e >= 1."""
    return st.lists(st.tuples(small_ints, st.integers(1, 3)), max_size=max_factors, unique_by=lambda f: f[0])


def bipolys(vars=("n", "s"), max_deg=3):
    term = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(term, coefficients, max_size=6).map(
        lambda d: BivariatePolynomial(vars, d)
    )


def assert_reduced(p):
    """den > 0, gcd(den, *nums) == 1, and no trailing (dense) or zero (sparse) numerator."""
    nums = list(p.nums.values()) if isinstance(p, BivariatePolynomial) else list(p.nums)
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *nums) == 1
    if isinstance(p, BivariatePolynomial):
        assert all(type(c) is int and c for c in nums)
    else:
        assert all(type(c) is int for c in nums) and nums[-1:] != [0]


def stripped(cs):
    """The reduced Fractions of a coefficient list, trailing zeros dropped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def nonzero(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


class TestPolynomialBasics:
    def test_difference_of_squares(self):
        p = Polynomial("x", [1, 1]) * Polynomial("x", [1, -1])
        assert p == Polynomial("x", [1, 0, -1])

    def test_multiplication_by_zero_annihilates(self):
        p = Polynomial("x", [3, 0, 5])
        assert (p * Polynomial("x")).is_zero

    def test_zero_polynomial_degree(self):
        assert Polynomial("x").degree == -1
        assert Polynomial("x", [0, 0]).degree == -1

    def test_degree_of_product(self):
        p = Polynomial("x", [1, 2, 1])
        q = Polynomial("x", [0, 0, 3])
        assert (p * q).degree == p.degree + q.degree

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polynomial("x", [1]) + Polynomial("z", [1])
        with pytest.raises(ValueError):
            Polynomial("x", [1]) * Polynomial("n", [1])

    def test_eval_root(self):
        assert Polynomial("x", [1, -1]).evaluate(1) == 0

    def test_eval_zero_polynomial(self):
        assert Polynomial("x").evaluate(Fraction(7, 3)) == 0

    def test_eval_phi1_at_half(self):
        # Phi_1(x) = 2x^2 evaluated at 1/2
        assert Polynomial("x", [0, 0, 2]).evaluate(Fraction(1, 2)) == Fraction(1, 2)


class TestAgainstEvaluation:
    """The integer loops checked pointwise: evaluation is Horner's rule on Fractions."""

    @given(polys(), polys(), small_fractions)
    @settings(max_examples=200)
    def test_univariate_product_and_sum(self, p, q, a):
        assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
        assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)

    @given(bipolys(), bipolys(), small_fractions, small_fractions)
    @settings(max_examples=200)
    def test_bivariate_product_and_sum(self, p, q, a, b):
        assert (p * q).evaluate(a, b) == p.evaluate(a, b) * q.evaluate(a, b)
        assert (p + q).evaluate(a, b) == p.evaluate(a, b) + q.evaluate(a, b)

    @given(polys(), small_fractions, small_ints, small_fractions)
    @settings(max_examples=100)
    def test_scalar_multiples(self, p, c, k, a):
        assert (p * c).evaluate(a) == c * p.evaluate(a)
        assert p.shift(k).evaluate(a) == p.evaluate(a + k)
        assert p.shift(k).shift(-k) == p

    @pytest.mark.parametrize("by", [Fraction(1, 2), Fraction(2)])
    def test_non_integer_shift_or_scale_rejected(self, by):
        p = Polynomial("x", [1, 1])
        b = BivariatePolynomial(("n", "s"), {(1, 1): 1})
        for substitute in (p.shift, lambda by: b.substitute_linear(0, by), lambda by: b.substitute_linear(1, by)):
            with pytest.raises(TypeError):
                substitute(by)


class TestNormalForm:
    def test_a_poly_is_reduced(self):
        # a_k(n)'s linear factors (3+2j-n) keep its den 2^k k! positive
        for k in range(21):
            assert_reduced(a_poly(k))

    def test_cancelling_sum_of_products_is_zero(self):
        p = Polynomial("x", [1, 1]) * Polynomial("x", [-1, 1]) + Polynomial("x", [1, 0, -1])
        assert p == Polynomial("x")
        assert p.coeffs == ()

    def test_cancelling_leading_terms_are_stripped(self):
        p = Polynomial("x", [Fraction(1, 2), 0, Fraction(1, 3)])
        p = p + Polynomial("x", [0, 1, Fraction(-1, 3)])
        assert p.coeffs == (Fraction(1, 2), 1)

    def test_bivariate_sum_with_negation_is_empty(self):
        terms = {(0, 0): Fraction(1, 2), (2, 1): -3, (1, 3): Fraction(5, 7)}
        p = BivariatePolynomial(("n", "s"), terms)
        assert (p + (-p)).terms == {}
        assert (p * 0).terms == {}

    def test_bivariate_product_drops_cancelled_terms(self):
        # (n + s)(n - s) = n^2 - s^2: the two ns terms cancel
        plus = BivariatePolynomial(("n", "s"), {(1, 0): 1, (0, 1): 1})
        minus = BivariatePolynomial(("n", "s"), {(1, 0): 1, (0, 1): -1})
        assert (plus * minus).terms == {(2, 0): 1, (0, 2): -1}

    def test_coefficients_stay_reduced_fractions(self):
        p = Polynomial("x", [Fraction(1, 6), Fraction(1, 4)]) * Polynomial("x", [Fraction(2, 3), 6])
        assert p.coeffs == (Fraction(1, 9), Fraction(7, 6), Fraction(3, 2))
        assert all(type(c) is Fraction for c in p.coeffs)

    @given(st.lists(coefficients, max_size=6))
    @settings(max_examples=100)
    def test_construction_is_reduced(self, cs):
        p = Polynomial("x", cs)
        assert_reduced(p)
        assert p.coeffs == stripped(cs)
        assert all(type(c) is Fraction for c in p.coeffs)
        padded = [0, *p.coeffs] + [0] * (len(cs) + 1 - len(p.coeffs))
        assert [p.coefficient(j) for j in range(-1, len(cs) + 1)] == padded

    @given(polys(), polys(), small_fractions)
    @settings(max_examples=100)
    def test_results_are_reduced(self, p, q, c):
        total, product = p + q, p * q
        for r in (total, product, p * c, p + c):
            assert_reduced(r)
        assert total.coeffs == stripped(a + b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0))
        want = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(q.coeffs):
                want[i + j] += a * b
        assert product.coeffs == stripped(want)

    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6))
    @settings(max_examples=100)
    def test_bivariate_construction_is_reduced(self, terms):
        p = BivariatePolynomial(("n", "s"), terms)
        assert_reduced(p)
        assert p.terms == nonzero(terms)
        assert all(type(c) is Fraction for c in p.terms.values())

    @given(bipolys(), bipolys(), small_fractions, small_ints)
    @settings(max_examples=100)
    def test_bivariate_results_are_reduced(self, p, q, scale, shift):
        total, product = p + q, p * q
        for r in (total, product, -p, p - q, p * scale, p.substitute_linear(0, shift),
                  p.substitute_linear(1, shift, new_name="t")):
            assert_reduced(r)
        want = dict(p.terms)
        for e, c in q.terms.items():
            want[e] = want.get(e, 0) + c
        assert total.terms == nonzero(want)
        want = {}
        for (a1, a2), a in p.terms.items():
            for (b1, b2), b in q.terms.items():
                want[a1 + b1, a2 + b2] = want.get((a1 + b1, a2 + b2), 0) + a * b
        assert product.terms == nonzero(want)

    def test_routes_to_one_value_compare_and_hash_equal(self):
        p, q = Polynomial("x", [Fraction(2, 4), Fraction(3, 3)]), Polynomial("x", [Fraction(1, 2), 1])
        assert (p.nums, p.den) == ((1, 2), 2)
        assert p == q and hash(p) == hash(q)
        b = BivariatePolynomial(("n", "s"), {(0, 0): Fraction(2, 4), (1, 0): Fraction(3, 3)})
        c = BivariatePolynomial(("n", "s"), {(j, 0): v for j, v in enumerate(q.coeffs)})
        assert (b.nums, b.den) == ({(0, 0): 1, (1, 0): 2}, 2)
        assert b == c and hash(b) == hash(c)

    @given(st.lists(coefficients, max_size=6), st.integers(-40, 40).filter(bool))
    @settings(max_examples=100)
    def test_scaled_routes_compare_and_hash_equal(self, cs, k):
        p = Polynomial("x", cs)
        q = Polynomial("x", [c * k for c in cs]) * Fraction(1, k)
        assert p == q and hash(p) == hash(q)
        b = BivariatePolynomial(("n", "x"), {(0, j): v for j, v in enumerate(p.coeffs)})
        c = BivariatePolynomial(("n", "x"), {(0, j): c * k for j, c in enumerate(cs)}) * Fraction(1, k)
        assert b == c and hash(b) == hash(c)


class TestDivExact:
    """The one exact division left is _over_linear, the series over 1 - t*x: a product divided by its factors has no tail."""

    @given(polys(), linear_factors())
    @settings(max_examples=100)
    def test_mul_then_div_roundtrip(self, q, factors):
        nums = list(q.nums)
        for c, e in factors:
            for _ in range(e):
                nums = _times_linear(nums, 1, -c)
        for c, e in reversed(factors):
            for _ in range(e):
                nums = _over_linear(nums, c)
        assert nums == [*q.nums] + [0] * (len(nums) - len(q.nums))


class TestRingAxioms:
    @given(polys(), polys())
    @settings(max_examples=100)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys(), polys())
    @settings(max_examples=100)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys(), polys(), polys())
    @settings(max_examples=100)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys(), polys(), polys())
    @settings(max_examples=100)
    def test_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(bipolys(), bipolys(), bipolys())
    @settings(max_examples=100)
    def test_bivariate_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


class TestBivariate:
    def test_no_zero_terms_stored(self):
        p = BivariatePolynomial(("n", "s"), {(1, 0): 1}) - BivariatePolynomial(
            ("n", "s"), {(1, 0): 1}
        )
        assert p.terms == {}

    @given(bipolys(), small_fractions, small_fractions)
    @settings(max_examples=100)
    def test_eval_matches_iterated_univariate(self, p, a, b):
        # collapse onto the first variable by substituting the point b for s
        by_row = Fraction(0)
        for (e1, e2), c in p.terms.items():
            by_row += c * a**e1 * b**e2
        assert p.evaluate(a, b) == by_row

    @given(bipolys(), small_ints, small_fractions, small_fractions)
    @settings(max_examples=100)
    def test_substitute_linear_agrees_with_eval(self, p, shift, a, b):
        q = p.substitute_linear(1, shift)
        assert q.evaluate(a, b) == p.evaluate(a, b + shift)
        q = p.substitute_linear(0, shift)
        assert q.evaluate(a, b) == p.evaluate(a + shift, b)

    def test_substitute_renames(self):
        p = BivariatePolynomial(("n", "t"), {(0, 1): 1})
        q = p.substitute_linear(1, -2, new_name="s")
        assert q.vars == ("n", "s")
        assert q == BivariatePolynomial(("n", "s"), {(0, 1): 1, (0, 0): -2})

    # (1.0, 0) == (1, 0), and a dict keeps the first of two equal keys: the
    # third case reaches the constructor as {(1.0, 0): 2}.  In the other order
    # it would be {(1, 0): 2}, a valid polynomial.
    @pytest.mark.parametrize(
        "terms",
        [{(1.5, 0): 1}, {(-1, 0): 1}, {(1.0, 0): 1, (1, 0): 2}, {(0, True): 1}],
        ids=["float", "negative", "float-and-int-alike", "bool"],
    )
    def test_rejects_exponents_that_are_not_nonnegative_ints(self, terms):
        with pytest.raises(ValueError, match="non-negative ints"):
            BivariatePolynomial(("n", "s"), terms)


int_lists = st.lists(small_ints, max_size=6)
sizes = st.one_of(st.none(), st.integers(0, 8))


def same_terms(got, want):
    return all(a == b for a, b in zip_longest(got, want, fillvalue=0))


class TestListKernels:
    @given(int_lists, small_ints, small_ints)
    @settings(max_examples=200)
    def test_times_linear_is_the_cut_product_by_a_linear_factor(self, p, c0, c1):
        got = _times_linear(p, c0, c1)
        want = (Polynomial("x", p) * Polynomial("x", [c0, c1])).coeffs
        assert len(got) == len(p) + 1
        assert same_terms(got, want)

    @given(int_lists, small_ints)
    @settings(max_examples=200)
    def test_over_linear_times_the_linear_factor_gives_p_back(self, p, t):
        got = _over_linear(p, t)
        assert len(got) == len(p)
        assert _times_linear(got, 1, -t)[: len(p)] == p

    @given(st.lists(st.tuples(small_ints, small_ints), max_size=6))
    @settings(max_examples=200)
    def test_linear_product_is_the_product_of_its_factors(self, factors):
        want = Polynomial("x", [1])
        for c0, c1 in factors:  # expanded by Polynomial products
            want = want * Polynomial("x", [c0, c1])
        got = _linear_product(factors)
        assert len(got) == len(factors) + 1
        assert Polynomial("x", got) == want

    @given(int_lists, int_lists)
    @settings(max_examples=200)
    def test_plus_is_polynomial_addition(self, a, b):
        assert _plus(a, b) == [x + y for x, y in zip_longest(a, b, fillvalue=0)]

    @given(int_lists, int_lists, sizes)
    @settings(max_examples=200)
    def test_product_cut_is_the_whole_product_cut(self, a, b, size):
        whole = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):  # the schoolbook double loop
            for j, y in enumerate(b):
                whole[i + j] += x * y
        assert _product(a, b) == whole
        assert _product(a, b, size) == whole[:size]


VALUES = {
    "Polynomial": lambda: Polynomial("x", [1, 2]),
    "BivariatePolynomial": lambda: BivariatePolynomial(("n", "s"), {(1, 0): 2}),
    "TruncatedSeries": lambda: TruncatedSeries("x", 2, [1]),
    "RunCountTriangle": lambda: build_triangle(3),
    "OutputDocument": lambda: OutputDocument("triangle", "tsv", build_triangle(3), {}, ()),
    "PsiPolynomial": lambda: psi_polys(1)[1],
    "RationalGF": lambda: u_s_gf(1),
    "CheckResult": lambda: CheckResult("row-sums", True, "ok"),
    "DecimalTriangle": lambda: DecimalTriangle(3),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_value_types_are_immutable(make):
    value = make()
    name = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert not hasattr(value, "__dict__")  # slotted


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_only_the_polynomials_hash(make):
    value = make()
    if isinstance(value, (Polynomial, BivariatePolynomial)):
        assert hash(value) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(value)


# The five records: a value for each field, and a different value for each field.
RECORDS = {
    CheckResult: (("row-sums", True, "ok"), ("wz-normalization", False, "FAILED")),
    PsiPolynomial: ((1, BivariatePolynomial(("n", "s"), {(0, 0): 1})), (2, BivariatePolynomial(("n", "s"), {}))),
    OutputDocument: (
        ("triangle", "json", build_triangle(3), {"method": "closed"}, ("row-sums",)),
        ("psi", "tsv", psi_polys(1), {}, ()),
    ),
    RationalGF: ((Polynomial("x", [1]), ((1, 1),)), (Polynomial("x", [2]), ((2, 1),))),
    DecimalTriangle: ((5,), (6,)),
}
RECORD_IDS = [c.__name__ for c in RECORDS]


@pytest.mark.parametrize("cls, values", [(c, v) for c, (v, _) in RECORDS.items()], ids=RECORD_IDS)
def test_records_bind_exactly_their_fields(cls, values):
    named = dict(zip(cls.__slots__, values))
    for record in (cls(*values), cls(**named), cls(*values[:1], **dict(list(named.items())[1:]))):
        assert tuple(getattr(record, name) for name in cls.__slots__) == values
    for name in cls.__slots__:  # a missing field
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in named.items() if k != name})
    with pytest.raises(TypeError):  # an extra positional value
        cls(*values, None)
    with pytest.raises(TypeError):  # an unknown field
        cls(*values, extra=None)
    with pytest.raises(TypeError):  # a field given twice
        cls(*values, **{cls.__slots__[0]: values[0]})


@pytest.mark.parametrize("cls, values, others", [(c, *vo) for c, vo in RECORDS.items()], ids=RECORD_IDS)
def test_records_compare_by_their_fields(cls, values, others):
    record = cls(*values)
    assert record == cls(*values)  # two objects with equal fields
    for j, other in enumerate(others):  # one field changed
        assert record != cls(*values[:j], other, *values[j + 1 :])
    assert record != values


# Each command, twice with the same arguments: the two documents, and the text they print, are equal.
COMMANDS = {
    **{f"table-{method}": lambda method=method: cmd_table(5, method, "tsv") for method in METHODS},
    "psi": lambda: cmd_psi(3, "json"),
    "phi": lambda: cmd_phi(3, "latex"),
    "series": lambda: cmd_series(3, 10, "json"),
    "verify": lambda: cmd_verify(6, 4, 4, 4, "tsv"),
}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_equal_commands_give_equal_documents(command):
    doc = command()
    assert doc == command()
    assert "".join(doc.payload) == "".join(doc.payload) == "".join(command().payload)


def test_only_the_text_boundaries_lift_the_digit_limit():
    # the int/str digit limit is lifted where text is made (serialize.encode, and verification._run
    # for a failed check's detail) or parsed (text_to_fraction, doc_to_triangle), never inside an encoder
    users = set()
    for path in sorted(Path(runpoly.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if "_any_int_digits" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    users.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert sorted(users) == [
        "serialize.py:doc_to_triangle", "serialize.py:encode", "serialize.py:text_to_fraction", "verification.py:_run",
    ]


def test_only_immutable_defines_eq_and_over():
    # one equality rule and one constructor that skips __init__, both in poly.Immutable;
    # _over reaches only the three number types' _set
    found = []
    for path in sorted(Path(runpoly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                defined += [t.id for a in node.body if isinstance(a, ast.Assign) for t in a.targets if isinstance(t, ast.Name)]
                found += [f"{path.name}:{node.name}.{name}" for name in defined if name in ("__eq__", "_over", "_set")]
    assert found == [
        "poly.py:Immutable._over",
        "poly.py:Immutable.__eq__",
        "poly.py:Polynomial._set",
        "poly.py:BivariatePolynomial._set",
        "poly.py:TruncatedSeries._set",
    ]


def test_only_poly_binds_fields_with_object_setattr():
    package = Path(runpoly.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "object.__setattr__" in p.read_text())
    assert users == ["poly.py"]


def test_every_imported_name_is_read():
    # a name a module imports and never reads is left over from a deletion; __all__ counts as a read
    unread = []
    for path in sorted(Path(runpoly.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unread += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unread == []


def series(num, factors, order):
    """num / prod (1 - c*x)^e over the (c, e) factors, to x^order."""
    return RationalGF(Polynomial("x", num), factors).series(order)


class TestTruncatedSeries:
    def test_geometric_series(self):
        assert series([1], [(1, 1)], 4).coeffs == (1, 1, 1, 1, 1)

    def test_geometric_series_ratio_two(self):
        assert series([1], [(2, 1)], 3).coeffs == (1, 2, 4, 8)

    def test_reciprocal_of_delta2(self):
        # 1/((1-2x)(1-x)): convolution of the two geometric series by hand
        # gives partial sums 1, 1+2, 1+2+4, 1+2+4+8.
        assert series([1], [(2, 1), (1, 1)], 3).coeffs == (1, 3, 7, 15)

    def test_rational_numerator_and_denominator(self):
        # (1/3)/((1 - 2x)(1 + 3x)) = (1/3) sum_m x^m sum_{k<=m} 2^k (-3)^(m-k)
        s = series([Fraction(1, 3)], [(2, 1), (-3, 1)], 6)
        want = [sum(Fraction(1, 3) * 2**k * (-3) ** (m - k) for k in range(m + 1)) for m in range(7)]
        assert s.coeffs == tuple(want)

    def test_coefficient_outside_known_range(self):
        s = series([1], [(2, 1)], 3)
        assert s.coefficient(-1) == 0
        with pytest.raises(IndexError):
            s.coefficient(4)

    @given(polys(), linear_factors(), st.integers(0, 12))
    @settings(max_examples=100)
    def test_quotient_roundtrip(self, q, factors, order):
        d = Polynomial("x", [1])
        for c, e in factors:  # the denominator expanded by Polynomial products, not by RationalGF
            d = d * prod([Polynomial("x", [1, -c])] * e)
        assert RationalGF(q * d, factors).series(order) == TruncatedSeries("x", order, q.coeffs)

    @given(polys(), st.integers(-9, 9).filter(bool), st.integers(0, 12))
    @settings(max_examples=100)
    def test_one_minus_t_x_divisor(self, num, t, order):
        # num/(1 - t*x) has x^m coefficient sum_{j<=m} num_j t^(m-j)
        want = [sum(num.coefficient(j) * t ** (m - j) for j in range(m + 1)) for m in range(order + 1)]
        assert RationalGF(num, [(t, 1)]).series(order).coeffs == tuple(want)

    @given(st.lists(coefficients, max_size=12), st.integers(0, 10))
    @settings(max_examples=100)
    def test_normal_form(self, cs, order):
        ts = TruncatedSeries("x", order, cs)
        assert ts.coeffs == tuple(cs[: order + 1]) + (0,) * (order + 1 - len(cs))
        assert len(ts.nums) == order + 1
        assert ts.den > 0 and gcd(ts.den, *ts.nums) == 1
        # a series with no factors truncates integers over the polynomial's den, then reduces
        assert series(cs, [], order) == ts

    def test_negative_order_is_refused_by_every_constructor(self):
        for build in (lambda: TruncatedSeries("x", -1, [1]), lambda: TruncatedSeries._over("x", -1, [1], 1)):
            with pytest.raises(ValueError, match="truncation order must be >= 0"):
                build()

    def test_common_scale_compares_equal(self):
        half = TruncatedSeries("x", 1, [Fraction(1, 2), 1])
        assert half == TruncatedSeries("x", 1, [Fraction(2, 4), Fraction(2, 2)])
        assert (half.nums, half.den) == ((1, 2), 2)
        assert half != TruncatedSeries("x", 2, [Fraction(1, 2), 1])


class TestBinomials:
    def test_empty_product(self):
        assert binom_rational(Fraction(-3, 2), 0) == 1

    def test_negative_half_integer(self):
        assert binom_rational(Fraction(-3, 2), 1) == Fraction(-3, 2)

    def test_five_halves_choose_two(self):
        assert binom_rational(Fraction(5, 2), 2) == Fraction(15, 8)

    @given(small_fractions, st.integers(0, 30))
    @settings(max_examples=200)
    def test_matches_fraction_falling_product(self, top, k):
        product = Fraction(1)
        for j in range(k):
            product *= top - j
        assert binom_rational(top, k) == product / factorial(k)

    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=100)
    def test_matches_integer_binomial(self, m, k):
        from math import comb

        if m < k:
            return
        assert binom_rational(m, k) == comb(m, k)
