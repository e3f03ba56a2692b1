"""Unit and property tests for the exact arithmetic core."""

import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confchern import classes, laurent, limits, series
from confchern.laurent import (EXP_LIMIT, ExponentOverflowError, LaurentPoly,
                               RatFunc, UniverseMismatchError, VarUniverse,
                               ZeroDenominatorError, _exact_div,
                               _normalize_den)
from oracles import (DictPoly, normalized_den_by_tuples, over_common_den_pair,
                     parse_laurent_poly, ratfunc_storage)

U = VarUniverse(("a1", "a2", "y"))


def lp(name, power=1):
    return LaurentPoly.var(U, name, power)


def rf(name, power=1):
    return RatFunc.var(U, name, power)


# -- universe ----------------------------------------------------------------

def test_universe_rejects_duplicates():
    with pytest.raises(ValueError):
        VarUniverse(("a", "a"))


def test_universe_lookup():
    assert U.index("a2") == 1
    assert "y" in U
    with pytest.raises(KeyError):
        U.index("nope")


def test_universe_mismatch_raises():
    other = VarUniverse(("a1",))
    with pytest.raises(UniverseMismatchError):
        lp("a1") + LaurentPoly.var(other, "a1")


# -- Laurent polynomial examples --------------------------------------------

def test_telescoping_product():
    one = LaurentPoly.const(U, 1)
    assert (one - lp("a1", -1)) * lp("a1") == lp("a1") - 1


def test_additive_identity():
    p = lp("a1") + 2 * lp("y")
    assert p + LaurentPoly.zero(U) == p


def test_hand_expansion():
    one = LaurentPoly.const(U, 1)
    left = (one + lp("y") * lp("a1", -1)) * (one - lp("a1", -1))
    want = (one - lp("a1", -1) + lp("y") * lp("a1", -1)
            - lp("y") * lp("a1", -2))
    assert left == want


def test_zero_terms_dropped():
    p = LaurentPoly(U, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert list(p.terms) == [(1, 0, 0)]


def test_pow_and_mul_agree():
    p = lp("a1") + 1
    assert p ** 3 == p * p * p
    assert p ** 0 == LaurentPoly.const(U, 1)


def test_coeff_of_and_degrees():
    p = lp("a1", 2) * lp("y") + lp("a1", 2) + lp("a1", -1)
    assert p.coeff_of("a1", 2) == lp("y") + 1


# -- rational function examples ---------------------------------------------

def test_rf_self_division():
    f = rf("a1", -1)
    assert f / f == 1


def test_rf_telescoping_sum():
    f = RatFunc(lp("a1") - 1, lp("a1"))
    assert f + rf("a1", -1) == 1


def test_rf_inverse_product():
    y1 = RatFunc(LaurentPoly.const(U, 1) + lp("y"), lp("a1"))
    assert y1 * y1.inverse() == 1
    assert y1 * (1 / y1) == RatFunc.const(U, 1)


def test_rf_eq_factoring():
    left = RatFunc(lp("a1", 2) - 1, lp("a1") - 1)
    assert left == rf("a1") + 1


def test_rf_eq_distinct_vars():
    assert rf("a1", -1) != rf("a2", -1)


def test_rf_additivity_of_line_classes():
    # (1+y)/a = (1 + y/a) - (1 - 1/a)
    punctured = RatFunc(LaurentPoly.const(U, 1) + lp("y"), lp("a1"))
    line = 1 + rf("y") / rf("a1")
    origin = 1 - rf("a1", -1)
    assert punctured == line - origin


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        RatFunc(lp("a1"), LaurentPoly.zero(U))
    with pytest.raises(ZeroDenominatorError):
        rf("a1") / RatFunc.const(U, 0)


def test_canonical_denominator_shift():
    f = RatFunc(lp("y"), lp("a1", -2) + lp("a2", -1))
    for name in U:
        assert f.den.min_exp(name) == 0


def _counting_products(monkeypatch):
    products = []
    real_mul = LaurentPoly.__mul__

    def counted(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    return products


def test_den_of_one_factor_runs_no_product(monkeypatch):
    f = RatFunc(lp("y"), lp("a1") - 1)
    want = lp("a1") - 1
    products = _counting_products(monkeypatch)
    assert f.den == want
    assert str(f) == "(1 * y) / (1 * a1 + -1)"
    assert products == []


def test_den_is_product_of_factor_powers():
    f1 = lp("a1") - 1
    f2 = lp("a2") * lp("y") + 1
    f3 = lp("a1") + lp("a2")
    # a product of inverses keeps three factors; dividing by the expanded
    # product would make it a single factor
    g = rf("y") * RatFunc(f1).inverse() ** 2 * RatFunc(f2).inverse() \
        * RatFunc(f3).inverse() ** 3
    assert g._factors == {f1: 2, f2: 1, f3: 3}
    assert g.den == f1 * f1 * f2 * f3 * f3 * f3
    assert RatFunc(g.num, g.den) == g


def test_rf_not_hashable():
    with pytest.raises(TypeError):
        hash(rf("a1"))


def test_negative_power():
    f = (1 + rf("a1")) ** -2
    assert f * (1 + rf("a1")) ** 2 == 1


def test_first_power_runs_no_product(monkeypatch):
    p = lp("a1") * lp("y", -1) + 2
    f = RatFunc(lp("y") + 1, lp("a1") - 1)
    products = _counting_products(monkeypatch)
    assert p ** 1 == p
    assert f ** 1 == f
    assert products == []


_UNREDUCED_NUM = (lp("y") + 1) * (lp("a1") - 1)
# a1 - 1 divides the numerator, and the constructor does not cancel it
_UNREDUCED = RatFunc(_UNREDUCED_NUM, lp("a1") - 1)


_scaled_ratfuncs = pytest.mark.parametrize("f", [
    RatFunc(lp("y") + 1, lp("a1") - 1) * RatFunc(lp("a2"), lp("a2") + 2),
    _UNREDUCED,
    RatFunc(_UNREDUCED_NUM * lp("a2", -1),
            (lp("a2") * lp("y") + 1) * (lp("a1") - 1)),
    RatFunc(lp("a2", -2) * 3),
], ids=["reduced", "unreduced-polynomial", "unreduced-with-factor",
        "monomial"])


@_scaled_ratfuncs
@pytest.mark.parametrize("c", [0, 1, 3, -2, Fraction(-5, 2)])
def test_scalar_product_storage_is_the_constant_product(f, c):
    # a nonzero constant is a unit, so the constant product keeps even an
    # unreduced f's factors, as -f does
    want = f * RatFunc.const(U, c)
    for got in (f * c, c * f):
        assert got == want
        assert _storage(got) == _storage(want)


@_scaled_ratfuncs
def test_negation_is_the_product_by_minus_one(f):
    assert _storage(f * -1) == _storage(-1 * f) == _storage(-f)


@_scaled_ratfuncs
@pytest.mark.parametrize("c", [1, 3, -2, Fraction(-5, 2), Fraction(2, 7)])
def test_scalar_quotient_storage_is_the_inverse_product(f, c, monkeypatch):
    want = f * RatFunc.const(U, c).inverse()
    storage = _storage(want)
    inverses = []
    real = RatFunc.inverse
    monkeypatch.setattr(RatFunc, "inverse",
                        lambda self: inverses.append(self) or real(self))
    got = f / c
    assert inverses == []
    assert got == want
    assert _storage(got) == storage


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_scalar_quotient_by_zero_raises(zero):
    with pytest.raises(ZeroDenominatorError):
        rf("a1") / zero
    with pytest.raises(ZeroDenominatorError):
        RatFunc.const(U, 0) / zero


# -- units: the one-term values without factors --------------------------------

def _random_units(seed, count=60):
    """Seeded one-term values c X^e: c a nonzero int or Fraction of either
    sign, e with negative entries, a constant one time in five."""
    rng = random.Random("units:%d" % seed)
    for _ in range(count):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                     rng.choice([1, 1, 2, 3, 10]))
        if c.denominator == 1 and rng.random() < 0.5:
            c = int(c)
        e = ((0,) * len(U) if rng.random() < 0.2
             else tuple(rng.randint(-4, 4) for _ in U))
        yield RatFunc(LaurentPoly(U, {e: c}))


def _random_poly(rng, terms):
    return LaurentPoly(U, {tuple(rng.randint(-2, 2) for _ in U):
                           Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(terms)})


def _random_factored(seed, count=8):
    """Seeded values with denominator factors, the unreduced one too."""
    rng = random.Random("factored:%d" % seed)
    values = [_UNREDUCED]
    while len(values) < count:
        num, den = _random_poly(rng, 3), _random_poly(rng, 2)
        if len(den._coeffs) == 2:
            value = RatFunc(num, den) * RatFunc(1 + lp("y"),
                                                lp("a1") - lp("a2"))
            if value._factors:
                values.append(value)
    return values


@pytest.mark.parametrize("seed", range(3))
def test_unreduced_product_is_the_product(seed):
    # the value whatever the operands, cancelling factors included; a
    # factor's power is the sum of the operands' powers
    xs = _random_factored(seed) + list(_random_units(seed, count=3))
    for x, y, z in zip(xs, xs[1:] + xs[:1], xs[2:] + xs[:2]):
        got = x.unreduced_product([y, z])
        assert got == x * y * z
        for f in set(x._factors) | set(y._factors) | set(z._factors):
            assert got._factors[f] == sum(v._factors.get(f, 0)
                                          for v in (x, y, z))
    assert x.unreduced_product([]) == x


@pytest.mark.parametrize("seed", range(3))
def test_unit_inverse_stores_what_the_constructor_builds(seed):
    for m in _random_units(seed):
        [(exps, c)] = m.num.terms.items()
        # X^-e / c through the general LaurentPoly constructor
        want = RatFunc(LaurentPoly(U, {tuple(-e for e in exps): 1 / c}))
        got = m.inverse()
        assert ratfunc_storage(got) \
            == ratfunc_storage(RatFunc(LaurentPoly.const(U, 1), m.num)) \
            == ratfunc_storage(want)
        assert got * m == 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("terms", (2, 3))
def test_denominator_normalized_from_its_exponent_tuples(seed, terms):
    # binomials (the exponent box from their two tuples) and trinomials
    # with negative exponents and Fraction coefficients: RatFunc(1, f)
    # stores the monomial and the factor built from f's tuples
    rng = random.Random("normalize:%d:%d" % (seed, terms))
    one = LaurentPoly.const(U, 1)
    for _ in range(60):
        f = LaurentPoly(U, {
            tuple(rng.randint(-4, 4) for _ in U):
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                     rng.choice([1, 1, 2, 3, 10]))
            for _ in range(terms)})
        if len(f.terms) < 2:
            continue
        num, factor = normalized_den_by_tuples(f)
        assert ratfunc_storage(RatFunc(one, f)) \
            == ratfunc_storage(RatFunc._make(num, {factor: 1}))


def test_character_stores_the_product_of_its_powers():
    for exps in ({"a1": 1, "a2": -1}, {"a2": 1, "y": 1}, {"a1": 3},
                 {"a1": -2, "a2": 0, "y": 5}, {}):
        want = RatFunc.const(U, 1)
        for name, e in exps.items():
            want = want * rf(name, e)
        assert ratfunc_storage(RatFunc(LaurentPoly.character(U, exps))) \
            == ratfunc_storage(want)
    with pytest.raises(ExponentOverflowError):
        LaurentPoly.character(U, {"a1": EXP_LIMIT, "a2": 1})


@pytest.mark.parametrize("seed", range(3))
def test_unit_product_keeps_the_other_factors(seed):
    xs = _random_factored(seed)
    for m in _random_units(seed, count=20):
        for x in xs:
            for got in (x * m, m * x):
                # cross-multiplied against x's and m's own storage
                assert got.num * x.den == x.num * m.num * got.den
                assert list(got._factors.items()) == list(x._factors.items())
    # zero is no unit, and a zero product has no factors
    zero = RatFunc.const(U, 0)
    for x in xs:
        for got in (x * zero, zero * x):
            assert got.is_zero() and got._factors == {}


def test_unit_paths_box_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("general path")

    xs = _random_factored(0)
    units = list(_random_units(0, count=20))
    monkeypatch.setattr(VarUniverse, "_box", refuse)
    monkeypatch.setattr(laurent, "_exact_div", refuse)
    for m in units:
        m.inverse()
        RatFunc(lp("a1") + 1, m.num)
        for x in xs:
            x * m
            m * x


@pytest.mark.parametrize("n", [0, 1, -1, 3, -12, 2 ** 70, -(2 ** 70)])
def test_int_constant_stores_what_the_fraction_constant_stores(n):
    got, want = LaurentPoly.const(U, n), LaurentPoly.const(U, Fraction(n))
    assert (list(got._coeffs.items()), got._denom, got._bound) \
        == (list(want._coeffs.items()), want._denom, want._bound)
    assert all(type(c) is int for c in got._coeffs.values())
    assert type(got._denom) is int


# -- substitution ------------------------------------------------------------

def test_substitute_numeric():
    f = rf("a1", -1)
    assert f.substitute({"a1": 2}) == RatFunc.const(U, Fraction(1, 2))


def test_substitute_trivial_character():
    ub = VarUniverse(("a1", "b1", "y"))
    f = RatFunc(LaurentPoly.const(ub, 1) + LaurentPoly.var(ub, "y"),
                LaurentPoly.var(ub, "b1") * LaurentPoly.var(ub, "a1"))
    got = f.substitute({"b1": 1})
    want = RatFunc(LaurentPoly.const(ub, 1) + LaurentPoly.var(ub, "y"),
                   LaurentPoly.var(ub, "a1"))
    assert got == want


def test_substitute_inverse_weight():
    uu = VarUniverse(("a1", "a2", "y", "u"))
    f = 1 - RatFunc.var(uu, "a2") / RatFunc.var(uu, "a1")
    got = f.substitute({"a1": RatFunc.var(uu, "u", -1)})
    assert got == 1 - RatFunc.var(uu, "u") * RatFunc.var(uu, "a2")


def test_substitute_rejects_binding_from_another_universe():
    uu = VarUniverse(("a1", "a2", "y", "u"))
    with pytest.raises(UniverseMismatchError):
        rf("a1").substitute({"a1": RatFunc.var(uu, "u", -1)})
    with pytest.raises(UniverseMismatchError):
        lp("a1").substitute({"a1": LaurentPoly.var(uu, "u")})


def test_substitute_zero_into_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        rf("a1", -1).substitute({"a1": 0})


def test_zero_ratfunc_has_no_pole():
    zero = RatFunc(LaurentPoly.zero(U), lp("a2") - LaurentPoly.const(U, 1))
    assert str(zero) == "0"
    assert zero.substitute({"a2": 1}).is_zero()


# -- serialization -----------------------------------------------------------

def test_text_round_trip():
    p = lp("a1", 2) * lp("y") - 3 * lp("a2", -1) + LaurentPoly.const(U, Fraction(1, 2))
    text = str(p)
    assert parse_laurent_poly(U, text) == p
    assert str(parse_laurent_poly(U, text)) == text


def test_json_round_trip():
    f = RatFunc(lp("a1") + lp("y"), lp("a2") + 1)
    blob = json.dumps(f.to_json(), sort_keys=True)
    assert json.loads(blob) == f.to_json()
    # canonical: the same function built another way prints the same bytes
    g = (rf("y") + rf("a1")) * 3 / (3 * rf("a2") + 3)
    assert json.dumps(g.to_json(), sort_keys=True) == blob


# -- property tests ----------------------------------------------------------

_exp = st.integers(min_value=-2, max_value=2)
_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, min_terms=0):
    n_terms = draw(st.integers(min_value=min_terms, max_value=4))
    terms = {}
    for _ in range(n_terms):
        e = (draw(_exp), draw(_exp), draw(st.integers(min_value=0, max_value=2)))
        terms[e] = terms.get(e, 0) + draw(_coeff)
    return LaurentPoly(U, terms)


nonzero_polys = polys(min_terms=1).filter(lambda p: not p.is_zero())


@st.composite
def ratfuncs(draw):
    return RatFunc(draw(polys()), draw(nonzero_polys))


nonzero_ratfuncs = ratfuncs().filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == LaurentPoly.zero(U)


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_rf_field_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == 0


@settings(max_examples=40, deadline=None)
@given(nonzero_ratfuncs)
def test_rf_multiplicative_inverse(f):
    assert f * f.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), nonzero_ratfuncs)
def test_rf_eq_cancellation(f, g, c):
    # a*c == b*c iff a == b for c != 0
    assert (f * c == g * c) == (f == g)


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_substitute_commutes_with_arithmetic(f, g):
    bindings = {"a1": 2, "a2": Fraction(1, 3)}
    try:
        fs, gs = f.substitute(bindings), g.substitute(bindings)
    except ZeroDenominatorError:
        # a pole at the point: no value to compare (the raise itself is
        # test_substitute_zero_into_denominator_rejected)
        assume(False)
    assert (f + g).substitute(bindings) == fs + gs
    assert (f - g).substitute(bindings) == fs - gs
    assert (f * g).substitute(bindings) == fs * gs
    if not g.substitute(bindings).is_zero() and not g.is_zero():
        assert (f / g).substitute(bindings) == fs / gs


def _value(p, point):
    """p at a point (name -> nonzero Fraction), summed term by term."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        for name, e in zip(p.universe.names, exps):
            c *= point[name] ** e
        total += c
    return total


_nonzero = st.fractions(min_value=-3, max_value=3,
                        max_denominator=4).filter(bool)


@st.composite
def monomial_bindings(draw):
    """Bindings for a subset of U: nonzero constants and c * monomials with
    exponents in -2..2."""
    bindings = {}
    for name in draw(st.sets(st.sampled_from(U.names))):
        c = draw(_nonzero)
        if draw(st.booleans()):
            bindings[name] = c
        else:
            mono = LaurentPoly.monomial(U, {v: draw(_exp) for v in U.names}, c)
            bindings[name] = mono if draw(st.booleans()) else RatFunc(mono)
    return bindings


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), monomial_bindings(),
       st.fixed_dictionaries({v: _nonzero for v in U.names}))
def test_substitute_is_composition_with_monomial_map(f, bindings, point):
    # f.substitute(b) at P equals f at P o b, where (P o b)(v) is b(v) at P
    def image(v):
        if v not in bindings:
            return point[v]
        b = bindings[v]
        if isinstance(b, RatFunc):
            b = b.num
        return _value(b, point) if isinstance(b, LaurentPoly) else b

    moved = {v: image(v) for v in U.names}
    den = _value(f.den, moved)
    assume(den != 0)
    got = f.substitute(bindings)
    assert _value(got.num, point) / _value(got.den, point) \
        == _value(f.num, moved) / den


def test_substitute_rejects_non_monomial_bindings():
    one_plus_y = 1 + lp("y")
    for value in (one_plus_y, RatFunc(LaurentPoly.const(U, 1), one_plus_y)):
        with pytest.raises(ValueError, match="a1"):
            rf("a2").substitute({"a1": value})


def test_substitute_zero_into_positive_powers():
    p = 3 * lp("a1", 2) * lp("y") + lp("a1") * lp("a2", -1) + lp("a2") - 2
    assert p.substitute({"a1": 0}) == lp("a2") - 2


@settings(max_examples=40, deadline=None)
@given(polys())
def test_poly_serialization_round_trip(p):
    assert parse_laurent_poly(U, str(p)) == p


# -- exact division ----------------------------------------------------------

def _shifted(p):
    """Exponent dict of p times the monomial that makes every minimum 0."""
    low = [min(e[i] for e in p.terms) for i in range(len(p.universe))]
    return {tuple(x - m for x, m in zip(e, low)): c for e, c in p.terms.items()}


def _factor(f):
    """f as RatFunc stores it in a denominator, which is the only divisor
    _exact_div takes; a monomial is never a factor, so it is skipped."""
    factor = _normalize_den(f)[1]
    assume(factor is not None)
    return factor


def _dividend(p, q, f, multiple):
    """q * f or p, the nonzero dividend _exact_div takes."""
    p = q * f if multiple else p
    assume(not p.is_zero())
    return p


def _divides_by_chains(f):
    """Whether _exact_div divides by the factor f at all: f is a binomial
    with an entry +-1 in the difference of its two exponents.  (The chain
    keys of the small exponents drawn here stay in the digit range.)"""
    if len(f.terms) != 2:
        return False
    u, v = f.terms
    return any(abs(a - b) == 1 for a, b in zip(u, v))


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_exact_div_recovers_quotient(q, f):
    # a true quotient by a binomial with a +-1 entry, and None by any other
    # factor, which stays in the denominator
    f = _factor(f)
    assert _exact_div(q * f, f) == (q if _divides_by_chains(f) else None)


@settings(max_examples=60, deadline=None)
@given(polys(), nonzero_polys, nonzero_polys, st.booleans())
def test_exact_div_result_is_quotient(p, q, f, multiple):
    f = _factor(f)
    p = _dividend(p, q, f, multiple)
    r = _exact_div(p, f)
    if r is not None:
        assert r * f == p


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys, st.booleans())
def test_exact_div_none_iff_sympy_remainder(p, q, f, multiple):
    # f divides p in the Laurent ring exactly when the polynomial division
    # of the shifted p by the shifted f leaves no remainder
    sympy = pytest.importorskip("sympy")
    f = _factor(f)
    p = _dividend(p, q, f, multiple)
    gens = sympy.symbols(U.names)

    def to_sympy(terms):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in terms.items()}, *gens, domain=sympy.QQ)

    _, rem = sympy.div(to_sympy(_shifted(p)), to_sympy(_shifted(f)))
    assert (_exact_div(p, f) is None) \
        == (not rem.is_zero or not _divides_by_chains(f))


# the factors of the local classes, which vanish at the point of ones
W = VarUniverse(("a1", "a2", "a3", "b1", "y"))


def _w(name, power=1):
    return LaurentPoly.var(W, name, power)


_VANISHING_AT_ONES = {
    "a1-a2": _w("a1") - _w("a2"),
    "a3-a1": _w("a3") - _w("a1"),
    "a2-1": _w("a2") - 1,
    "b1*a1-1": _w("b1") * _w("a1") - 1,
    "b1*a3-1": _w("b1") * _w("a3") - 1,
    "a1^2-a2^2": _w("a1", 2) - _w("a2", 2),
}


@st.composite
def weight_polys(draw):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(_exp) for _ in W.names[:-1]) \
            + (draw(st.integers(min_value=0, max_value=2)),)
        terms[e] = terms.get(e, 0) + draw(_coeff)
    p = LaurentPoly(W, terms)
    assume(not p.is_zero())
    return p


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_VANISHING_AT_ONES)), weight_polys())
def test_point_of_ones_never_refutes_a_true_quotient(name, q):
    # a1^2 - a2^2 has no +-1 entry, so it is never divided
    f = _normalize_den(_VANISHING_AT_ONES[name])[1]
    assert _exact_div(q * f, f) == (None if name == "a1^2-a2^2" else q)


@pytest.mark.parametrize("name", sorted(_VANISHING_AT_ONES))
def test_point_of_ones_refutes_before_any_division(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("divided")

    f = _normalize_den(_VANISHING_AT_ONES[name])[1]
    q = _w("a1") * _w("a2", -1) + 5 * _w("y", 2) * _w("b1") - 1
    monkeypatch.setattr(laurent, "_chain_div", refuse)
    # each p(1..1) is not 0 while f(1..1) is
    for p in (q * f + 1, q * f - Fraction(2, 3) * _w("a3", -2), q):
        assert _exact_div(p, f) is None


# -- integer storage against the definition ----------------------------------

def _nonneg_in(name):
    """p -> p shifted so that `name` has no negative power."""
    def shift(p):
        return p * LaurentPoly.var(U, name, max(0, -p.min_exp(name)))
    return shift


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), _coeff)
def test_ring_operations_match_oracle(p, q, c):
    dp, dq = DictPoly.of(p), DictPoly.of(q)
    assert DictPoly.of(p + q) == dp + dq
    assert DictPoly.of(p - q) == dp - dq
    assert DictPoly.of(-p) == -dp
    assert DictPoly.of(p * q) == dp * dq
    assert DictPoly.of(p * c) == dp * DictPoly(U, {(0, 0, 0): c})
    assert DictPoly.of(p + c) == dp + DictPoly(U, {(0, 0, 0): c})


@st.composite
def one_term_polys(draw):
    """A nonzero constant, or a monomial with negative exponents allowed,
    each with a Fraction coefficient."""
    c = draw(_coeff.filter(bool))
    if draw(st.booleans()):
        return LaurentPoly.const(U, c)
    e = (draw(_exp), draw(_exp), draw(st.integers(min_value=0, max_value=2)))
    return LaurentPoly(U, {e: c})


@settings(max_examples=80, deadline=None)
@given(polys(), one_term_polys())
def test_one_term_product_matches_oracle(p, m):
    want = DictPoly.of(p) * DictPoly.of(m)
    [k0] = m._coeffs
    for got in (p * m, m * p):
        assert DictPoly.of(got) == want
        if len(p._coeffs) > 1:
            # the multi-term operand's term order, shifted
            assert list(got._coeffs) == [k + k0 for k in p._coeffs]


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from([0, 1, 3, -2, Fraction(-5, 2)]))
def test_scalar_product_matches_oracle(p, c):
    want = p * LaurentPoly.const(U, c)
    assert DictPoly.of(want) == DictPoly.of(p) * DictPoly(U, {(0, 0, 0): c})
    for got in (p * c, c * p):
        assert list(got._coeffs.items()) == list(want._coeffs.items())
        assert (got._denom, got._bound) == (want._denom, want._bound)


@settings(max_examples=80, deadline=None)
@given(one_term_polys() | polys(), st.integers(min_value=0, max_value=5))
def test_pow_matches_oracle(p, k):
    assert DictPoly.of(p ** k) == DictPoly.of(p) ** k


@settings(max_examples=60, deadline=None)
@given(polys(), st.fixed_dictionaries({v: _exp for v in U.names}),
       st.sampled_from(range(len(U))), _exp)
def test_structure_queries_match_oracle(p, vec, i, power):
    dp, name = DictPoly.of(p), U.names[i]
    assert DictPoly.of(p * LaurentPoly.monomial(U, vec)) \
        == dp.shift([vec[v] for v in U.names])
    assert p.min_exp(name) == dp.min_exp(i)
    assert DictPoly.of(p.coeff_of(name, power)) == dp.coeff_of(i, power)


def test_translate_rejects_negative_powers():
    p = lp("a1", -1) + lp("y")
    for c in (1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="'a1'"):
            p.translate("a1", c)
    # a zero shift, or a variable with no negative power, is fine
    assert p.translate("a1", 0) == p
    assert p.translate("y", 1) == p + 1


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from(range(len(U))), _coeff)
def test_translate_matches_oracle(p, i, c):
    p = _nonneg_in(U.names[i])(p)
    assert DictPoly.of(p.translate(U.names[i], c)) \
        == DictPoly.of(p).translate(i, c)


@settings(max_examples=60, deadline=None)
@given(polys(), monomial_bindings())
def test_substitute_matches_oracle(p, bindings):
    images = {}
    for name, value in bindings.items():
        if isinstance(value, RatFunc):
            value = value.num
        if isinstance(value, LaurentPoly):
            [(exps, c)] = value.terms.items()
            images[U.index(name)] = (c, exps)
        else:
            images[U.index(name)] = (value, (0,) * len(U))
    assert DictPoly.of(p.substitute(bindings)) \
        == DictPoly.of(p).substitute(images)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_rendering_matches_oracle(p):
    dp = DictPoly.of(p)
    assert p.sorted_terms() == dp.sorted_terms()
    assert str(p) == str(dp)


@st.composite
def monic_divisors(draw):
    """Divisors of two or more terms with leading coefficient 1 and,
    mostly, non-integer other coefficients: the quotient by their integer
    numerators then needs Gauss's lemma to stay integral."""
    f = draw(polys(min_terms=2).filter(lambda f: len(f.terms) >= 2))
    lead = DictPoly.of(f).sorted_terms()[0][1]
    return f * (1 / lead)


@settings(max_examples=80, deadline=None)
@given(polys(), nonzero_polys | monic_divisors(), nonzero_polys,
       st.booleans())
def test_exact_div_matches_oracle(p, f, q, multiple):
    f = _factor(f)
    _assert_exact_div_matches_oracle(_dividend(p, q, f, multiple), f)


def _assert_exact_div_matches_oracle(p, f):
    # the oracle's quotient by a binomial with a +-1 entry, else None
    got = _exact_div(p, f)
    want = DictPoly.of(p).exact_div(DictPoly.of(f)) \
        if _divides_by_chains(f) else None
    assert (got is None) == (want is None)
    if got is not None:
        assert DictPoly.of(got) == want


_no_unit_exp = st.sampled_from((-3, -2, 0, 2, 3))


@st.composite
def binomial_divisors(draw, unit_entry=st.booleans()):
    """c1 X^u + c2 X^v, half of them with an entry +-1 in w = u - v
    (divided by chains), half with none (never divided)."""
    v = tuple(draw(_exp) for _ in U.names)
    if draw(unit_entry):
        w = [draw(_exp) for _ in U.names]
        w[draw(st.sampled_from(range(len(U))))] = draw(st.sampled_from((1, -1)))
    else:
        w = [draw(_no_unit_exp) for _ in U.names]
        assume(any(w))
    u = tuple(a + b for a, b in zip(v, w))
    c1, c2 = draw(_coeff), draw(_coeff)
    assume(c1 and c2)
    return LaurentPoly(U, {u: c1, v: c2})


@settings(max_examples=150, deadline=None)
@given(polys(), binomial_divisors(), nonzero_polys, st.booleans())
def test_exact_div_by_binomial_matches_oracle(p, f, q, multiple):
    f = _factor(f)
    _assert_exact_div_matches_oracle(_dividend(p, q, f, multiple), f)


@settings(max_examples=150, deadline=None)
@given(polys(), binomial_divisors(unit_entry=st.just(True)), nonzero_polys,
       st.booleans())
def test_chain_division_stores_what_long_division_does(p, f, q, multiple):
    # the same quotient storage as the oracle's long division, built by the
    # LaurentPoly constructor (keys in order, denominator and bound), or
    # the same miss
    f = _factor(f)
    p = _dividend(p, q, f, multiple)
    got = _exact_div(p, f)
    want = DictPoly.of(p).exact_div(DictPoly.of(f))
    assert (got is None) == (want is None)
    if got is not None:
        assert ratfunc_storage(RatFunc(got)) \
            == ratfunc_storage(RatFunc(want.to_laurent()))


@pytest.mark.parametrize("f,divided", [
    (2 * lp("a1") - 3 * lp("y"), True),
    (lp("a1", -1) * lp("a2") + Fraction(1, 2), True),
    (lp("a1", 2) - lp("y", 2), False),
    (lp("a1", 2) * lp("y", 2) - 4, False),
], ids=["unit-entry", "unit-entry-laurent", "difference-of-squares",
        "no-unit-entry-constant"])
def test_exact_div_by_fixed_binomials(f, divided):
    # a binomial with no +-1 entry is never divided, not even its multiples
    f = _normalize_den(f)[1]
    q = lp("a1") * lp("a2", -1) + 5 * lp("y", 2) - 1
    assert _exact_div(q * f, f) == (q if divided else None)
    assert _exact_div(q * f + 1, f) is None
    _assert_exact_div_matches_oracle(q * f + 1, f)


def test_exact_div_by_binomial_beyond_the_digit_range():
    # substituting a2 = a1^(EXP_LIMIT//2) into a2^3 takes a1's exponent
    # past EXP_LIMIT, and y = a2^(EXP_LIMIT//2) into y^8 carries a2's
    # digit into a1's, where it meets a1 a2^-8: chain keys that could
    # leave the digit range, so f is not divided, though it divides p * f
    half = EXP_LIMIT // 2
    pairs = [(lp("a2", 3) - 1, lp("a2") - lp("a1", half)),
             (lp("y", 8) - lp("a1") * lp("a2", -8), lp("y") - lp("a2", half))]
    for p, f in pairs:
        f = _normalize_den(f)[1]
        assert _divides_by_chains(f)
        assert _exact_div(p, f) is None
        assert _exact_div(p * f, f) is None
        assert DictPoly.of(p * f).exact_div(DictPoly.of(f)) == DictPoly.of(p)


# -- the denominator-factor invariant ----------------------------------------

def _assert_factor_shape(f):
    """f has the shape _normalize_den gives a factor: at least two terms,
    leading coefficient 1 and minimum exponent 0 in every variable."""
    assert len(f._coeffs) >= 2
    assert f._coeffs[max(f._coeffs)] == f._denom
    assert all(f.min_exp(name) == 0 for name in f.universe)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), st.sampled_from([3, Fraction(-5, 2)]),
       st.integers(min_value=1, max_value=3), monomial_bindings())
def test_every_factor_is_normalized(f, g, c, k, bindings):
    results = [f + g, f - g, f * g, f * c, c * f, f / c, -f, f ** k]
    if g:
        results += [f / g, g.inverse(), g ** -k]
    try:
        results.append(f.substitute(bindings))
    except ZeroDenominatorError:
        pass
    for r in results:
        for factor in r._factors:
            _assert_factor_shape(factor)


def test_trial_divisions_meet_their_precondition(monkeypatch):
    # every divisor RatFunc._reduced passes is a factor and every dividend
    # is nonzero, on a class computation and on limit property cases
    calls = []
    real = laurent._exact_div

    def checked(p, f):
        assert not p.is_zero()
        _assert_factor_shape(f)
        calls.append(len(f._coeffs))
        return real(p, f)

    monkeypatch.setattr(laurent, "_exact_div", checked)
    classes.mc_orbit_full(classes.TorusData.standard(2, k=3), 3)
    assert limits.run_limit_property_suite(count=20) == (0, 20)
    assert calls and 2 in calls and max(calls) > 2


def test_local_class_factors_are_divided_by_chains(monkeypatch):
    # the classes at torus-fixed points and the series checks trial-divide
    # only by binomials with a +-1 entry, which _exact_div divides; a factor
    # of another shape would stay in a denominator.  The residue check
    # builds unreduced products and divides nothing today.
    factors = []
    real = laurent._exact_div

    def recorded(p, f):
        factors.append(f)
        return real(p, f)

    monkeypatch.setattr(laurent, "_exact_div", recorded)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            t = classes.TorusData.standard(n, k=k)
            classes.mc_conf_affine(t, k)
            classes.mc_orbit_conf(t, k)
            classes.mc_orbit_full(t, k)
            for iota in itertools.product(range(1, n + 1), repeat=k):
                classes.mc_conf_proj_at(t, classes.ProjFixedPoint(iota))
        assert series.check_orbit_series(n, 3)
        assert series.check_orbit_full_series(n, 3)
    assert series.check_residue_form([Fraction(2), Fraction(-1, 3)], 3)
    assert len(factors) > 100
    assert all(_divides_by_chains(f) for f in factors)


def _storage(f):
    """Everything a RatFunc holds, in order, copied."""
    return (list(f.num._coeffs.items()), f.num._denom,
            [(list(g._coeffs.items()), g._denom, power)
             for g, power in f._factors.items()])


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), st.sampled_from([0, 3, Fraction(-5, 2)]))
def test_operations_leave_operands_unchanged(f, g, c):
    # values may share an operand's factor dict (-f, f * c, f ** 1 do),
    # so operations on those must not reach into f either
    before = _storage(f), _storage(g)
    for a in (f, -f, f * c, c * f, f ** 1):
        for b in (g, c):
            a + b, a - b, b - a, a * b, b * a, a == b, b == a
            if b:
                a / b
            if a:
                b / a
        -a, a ** 0, a ** 2
        if a:
            a.inverse(), a ** -1
    assert (_storage(f), _storage(g)) == before


# -- the common denominator of several values ---------------------------------

@st.composite
def ratfunc_lists(draw):
    """1-4 values whose factors overlap: each is a drawn fraction times
    powers of a shared pool of fractions."""
    pool = draw(st.lists(ratfuncs(), max_size=3))
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        value = draw(ratfuncs())
        for f in pool:
            power = draw(st.integers(min_value=0, max_value=2))
            if power and f:
                value = value * f ** power
        values.append(value)
    return values


@settings(max_examples=60, deadline=None)
@given(ratfunc_lists())
def test_over_common_den_lifts_each_value(values):
    nums, recip = RatFunc.over_common_den(values)
    assert recip.num == LaurentPoly.const(U, 1)
    assert len(nums) == len(values)
    for num, v in zip(nums, values):
        assert num * recip == v
    # each factor's power is the largest over the values
    want = {}
    for v in values:
        for f, power in v._factors.items():
            want[f] = max(want.get(f, 0), power)
    assert recip._factors == want


def test_over_common_den_keeps_the_pairwise_storage():
    # +, - and == on the operands of the limit property cases store what
    # the two-operand lift gave
    rng = random.Random(1)
    for _ in range(60):
        f, g = limits.random_admissible(rng), limits.random_admissible(rng)
        mult = limits._random_poly(rng, require_s0=True)
        rescaled = RatFunc(f.num * mult, f.den * mult)
        for a, b in ((f, g), (f, rescaled), (f + g, f * g), (g, f * g)):
            left, right, merged = over_common_den_pair(a, b)
            (lifted_a, lifted_b), recip = RatFunc.over_common_den((a, b))
            assert ratfunc_storage(RatFunc(lifted_a)) \
                == ratfunc_storage(RatFunc(left))
            assert ratfunc_storage(RatFunc(lifted_b)) \
                == ratfunc_storage(RatFunc(right))
            assert list(recip._factors.items()) == list(merged.items())
            for op in (operator.add, operator.sub):
                want = RatFunc._make(op(left, right), merged)._reduced()
                assert ratfunc_storage(op(a, b)) == ratfunc_storage(want)
            assert (a == b) == (left == right)


# -- exactness and overflow guards -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_terms_are_fractions(p, q):
    for r in (p, p * q, p + q, p * 2, lp("a1") * 3):
        assert all(type(c) is Fraction for c in r.terms.values())
        assert all(type(c) is Fraction for _, c in r.sorted_terms())


def test_terms_view_reads_tuples():
    p = 3 * lp("a1", -2) * lp("y") + Fraction(1, 2)
    assert len(p.terms) == 2
    assert p.terms[(-2, 0, 1)] == 3
    assert (0, 0, 0) in p.terms and (1, 0, 0) not in p.terms
    assert p.terms == {(-2, 0, 1): Fraction(3), (0, 0, 0): Fraction(1, 2)}


def test_exponent_overflow_raises():
    big = 2 ** 70
    assert issubclass(ExponentOverflowError, ValueError)
    with pytest.raises(ExponentOverflowError):
        LaurentPoly(U, {(big, 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        lp("a1") ** big
    p = lp("a1") * lp("y", -1)
    with pytest.raises(ExponentOverflowError):
        for _ in range(80):
            p = p ** 2
    with pytest.raises(ExponentOverflowError):
        lp("a1", EXP_LIMIT) * lp("a1")
    # a one-term operand, on either side of a longer one
    many = lp("a1") + lp("y") + 1
    for mono in (lp("a1", EXP_LIMIT), lp("y", -EXP_LIMIT) * 3):
        for a, b in ((mono, many), (many, mono)):
            with pytest.raises(ExponentOverflowError):
                a * b
    assert lp("a1", EXP_LIMIT).terms == {(EXP_LIMIT, 0, 0): 1}
