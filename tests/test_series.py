"""Tests for truncated series, the generating-series checks, and residues."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confchern import classes, laurent, series
from confchern.classes import TorusData, lambda_ratio, mc_line_classes
from confchern.laurent import LaurentPoly, RatFunc, VarUniverse
from confchern.partitions import coefficient_a, enumerate_partitions
from confchern.series import (PoleOrderError, TruncSeries, _partition_series,
                              check_orbit_full_series, check_orbit_series,
                              check_partition_exp_identity, check_point_series,
                              check_point_series_ambient, check_residue_form,
                              orbit_full_series, orbit_series,
                              orbit_series_sides, residue_at,
                              residue_form_factor)
from oracles import (exp_by_powers, log1p_by_powers, orbit_coefficient_expanded,
                     ratfunc_storage, residue_form_factor_by_division,
                     residue_weights_by_division, weight_pole_c,
                     weight_pole_exponent, weight_pole_lambda)

U = VarUniverse(("c", "y"))


def c_rf(x):
    return RatFunc.const(U, x)


def test_series_product_example():
    t = TruncSeries.t(U, 2)
    assert (1 + t) * (1 + t * -1) == TruncSeries(U, 2, [c_rf(1), c_rf(0),
                                                      c_rf(-1)])


def test_series_additive_identity():
    a = TruncSeries(U, 3, [c_rf(2), RatFunc.var(U, "c")])
    assert a + TruncSeries.const(U, 3, 0) == a


def test_exp_product_inverse():
    t = TruncSeries.t(U, 4)
    assert t.exp() * (t * -1).exp() == 1


def test_exp_values():
    t = TruncSeries.t(U, 3)
    e = t.exp()
    assert e.coeffs[0] == 1
    assert e.coeffs[2] == Fraction(1, 2)
    assert e.coeffs[3] == Fraction(1, 6)
    ct = TruncSeries.const(U, 3, RatFunc.var(U, "c")) * t
    assert ct.exp().coeffs[2] == RatFunc.var(U, "c") ** 2 * Fraction(1, 2)


def test_log_values():
    t = TruncSeries.t(U, 3)
    lg = t.log1p()
    assert lg.coeffs[1] == 1
    assert lg.coeffs[2] == Fraction(-1, 2)
    assert lg.coeffs[3] == Fraction(1, 3)
    assert lg.exp() == 1 + t


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncSeries.const(U, 2, 1).exp()
    with pytest.raises(ValueError):
        TruncSeries.const(U, 2, 1).log1p()


def test_order_mismatch():
    with pytest.raises(ValueError):
        TruncSeries.t(U, 2) + TruncSeries.t(U, 3)


def _poly_storage(p):
    return list(p._coeffs.items()), p._denom


def _dense_series(order):
    """A series with zero constant term whose coefficients have binomial
    denominator factors, shared and not, and whose t^1 coefficient is 0."""
    cv, y = LaurentPoly.var(U, "c"), LaurentPoly.var(U, "y")
    pool = [RatFunc(y + 2, cv - 1), RatFunc(cv * y - 3, (cv - 1) * (y + 1)),
            RatFunc(LaurentPoly.const(U, Fraction(-1, 2)), cv + y),
            RatFunc(cv ** 2 + y, (cv + 2) * (cv - 1)), RatFunc(3 * cv - y)]
    return TruncSeries(U, order, [c_rf(0), c_rf(0)] + [
        pool[k % len(pool)] for k in range(2, order + 1)])


_EXP_LOG_CASES = {
    "t": lambda N: TruncSeries.t(U, N),
    "c*t": lambda N: RatFunc.var(U, "c") * TruncSeries.t(U, N),
    "factor*t": lambda N: RatFunc(LaurentPoly.var(U, "y") + 1,
                                  LaurentPoly.var(U, "c") - 1)
    * TruncSeries.t(U, N),
    "dense": _dense_series,
    "dense+t": lambda N: _dense_series(N) + TruncSeries.t(U, N),
}


@pytest.mark.parametrize("case", sorted(_EXP_LOG_CASES))
@pytest.mark.parametrize("N", range(1, 8))
def test_exp_and_log1p_match_the_power_sums(case, N):
    # the O(N^2) recurrences against the sums of series powers
    f = _EXP_LOG_CASES[case](N)
    assert f.exp() == exp_by_powers(f)
    assert f.log1p() == log1p_by_powers(f)


# a rational function scales each coefficient too
_FACTOR = RatFunc(LaurentPoly.var(U, "y") - 3 * LaurentPoly.var(U, "c"),
                  (LaurentPoly.var(U, "c") + 2) * (LaurentPoly.var(U, "y") - 1))


@pytest.mark.parametrize("c", [0, 1, 3, -2, Fraction(-5, 2), _FACTOR])
def test_scalar_product_storage_is_the_constant_series_product(c):
    cv, y = LaurentPoly.var(U, "c"), LaurentPoly.var(U, "y")
    s = TruncSeries(U, 3, [
        RatFunc(LaurentPoly.const(U, 1), 1 - cv ** 3),
        RatFunc((cv - 1) * (y + 1), (cv - 1) * (cv + 2)),
        c_rf(0),
        RatFunc(cv * y - 2)])
    want = s * TruncSeries.const(U, 3, c)
    for got in (s * c, c * s):
        for a, b in zip(got.coeffs, want.coeffs):
            assert _poly_storage(a.num) == _poly_storage(b.num)
            assert [(_poly_storage(f), f._bound, k)
                    for f, k in a._factors.items()] \
                == [(_poly_storage(f), f._bound, k)
                    for f, k in b._factors.items()]
            # the product by a constant series adds each term to a zero
            # coefficient, and that sum's bound also covers the factor
            # powers; a direct scale keeps the numerator's own bound
            assert a.num._bound <= b.num._bound


_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def zero_const_series(draw, order=4):
    coeffs = [c_rf(0)]
    for _ in range(order):
        val = c_rf(draw(_small))
        if draw(st.booleans()):
            val = val * RatFunc.var(U, "c")
        coeffs.append(val)
    return TruncSeries(U, order, coeffs)


@settings(max_examples=25, deadline=None)
@given(zero_const_series())
def test_exp_log_inverse_laws(a):
    assert a.log1p().exp() == 1 + a
    assert (a.exp() + -1).log1p() == a


@settings(max_examples=25, deadline=None)
@given(zero_const_series(), zero_const_series())
def test_exp_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


# -- generating-series checks ------------------------------------------------

@pytest.mark.parametrize("n_order", (1, 2, 3, 4))
def test_partition_exp_identity_small(n_order):
    assert check_partition_exp_identity(n_order)


@pytest.mark.parametrize("n_order", (1, 2, 3, 4))
def test_point_series_small(n_order):
    assert check_point_series(n_order)
    assert check_point_series_ambient(n_order)


@pytest.mark.parametrize("check", [check_partition_exp_identity,
                                   check_point_series,
                                   check_point_series_ambient])
def test_partition_series_order_cap(check):
    # order 0 would compare 1 with 1; the upper bound is the CLI's
    with pytest.raises(ValueError, match="order must be at least 1"):
        check(0)


def _bell_definition(universe, k, x):
    """sum over the set partitions P of [k] of a(P) prod_{B in P} x(|B|),
    one partition at a time."""
    total = RatFunc.const(universe, 0)
    for p in enumerate_partitions(k):
        term = RatFunc.const(universe, coefficient_a(p))
        for block in p.blocks:
            term = term * x(len(block))
        total = total + term
    return total


FREE = VarUniverse(tuple("x%d" % u for u in range(1, 8)))
POINT = VarUniverse(("m", "e"))
# the block-size weights of `szeregi`, `s1` and `s3-point`
SIZE_WEIGHTS = {
    "free": (FREE, lambda u: RatFunc.var(FREE, "x%d" % u)),
    "m": (POINT, lambda u: RatFunc.var(POINT, "m")),
    "m_e": (POINT, lambda u: RatFunc.var(POINT, "m")
            * RatFunc.var(POINT, "e") ** (u - 1)),
}


@pytest.mark.parametrize("weight", sorted(SIZE_WEIGHTS))
def test_partition_series_matches_the_bell_definition(weight):
    universe, x = SIZE_WEIGHTS[weight]
    series = _partition_series(universe, 7, x)
    assert series.coeffs[0] == 1
    for k in range(1, 8):
        assert series.coeffs[k] == Fraction(1, math.factorial(k)) \
            * _bell_definition(universe, k, x), k


def test_point_series_t2_coefficient():
    # direct hand value of the t^2 coefficient: (m^2 - m e)/2
    universe = VarUniverse(("m", "e"))
    m = RatFunc.var(universe, "m")
    e = RatFunc.var(universe, "e")
    coeff = RatFunc.const(universe, 0)
    for p in enumerate_partitions(2):
        coeff = coeff + coefficient_a(p) * m ** len(p) * e ** (2 - len(p))
    assert Fraction(1, 2) * coeff == Fraction(1, 2) * (m ** 2 - m * e)


def test_orbit_series_t1_n1():
    lhs, rhs = orbit_series_sides(1, 1)
    u = lhs.universe
    want = (1 + RatFunc.var(u, "y")) / (RatFunc.var(u, "a1") - 1)
    assert lhs.coeffs[1] == want
    assert rhs.coeffs[1] == want


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2)])
def test_orbit_series_small(n, N):
    assert check_orbit_series(n, N)


@pytest.mark.parametrize("n,N", [(1, 3), (2, 3), (3, 3)])
def test_orbit_series_matches_the_expanded_euler_class(n, N):
    # the same value and the same expanded denominator as dividing each
    # class by the expanded euler_point
    got = orbit_series(n, N)
    t = TorusData.standard(n)
    for k in range(1, N + 1):
        want = orbit_coefficient_expanded(t, k) * Fraction(1, math.factorial(k))
        assert got.coeffs[k] == want
        assert got.coeffs[k].den == want.den


def test_orbit_series_caps():
    # the library keeps only the lower bounds; the CLI holds n <= 3 and
    # N <= cli.S2_N_MAX[n]
    with pytest.raises(ValueError, match="order must be at least 1"):
        check_orbit_series(2, 0)
    with pytest.raises(ValueError, match="n must be at least 1"):
        check_orbit_series(0, 2)


@pytest.mark.parametrize("n,N", [(0, 2), (2, 0)])
def test_orbit_full_series_caps(n, N):
    # the same lower bounds as check_orbit_series
    with pytest.raises(ValueError, match="must be at least 1"):
        check_orbit_full_series(n, N)


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2)])
def test_orbit_full_series_small(n, N):
    assert check_orbit_full_series(n, N)


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (2, 3)])
def test_orbit_full_series_fails_on_a_negated_orbit_class(n, N, monkeypatch):
    # the vanishing-allowed classes are built from the orbit classes S_k
    # and S_(k-1) of one block-size recursion, so a check that compared
    # them with the series of those same sums would pass a wrong one; the
    # closed form does not read them
    def negated(xs, one, _real=classes.block_size_sums):
        sums = _real(xs, one)
        return sums[:1] + [s * -1 for s in sums[1:]]

    monkeypatch.setattr(classes, "block_size_sums", negated)
    assert check_orbit_full_series(n, N) is False


# two faults of the block-size recursion over T^n, each written as the
# true recursion at changed weights: a(B) without its sign (-1)^(|B|-1),
# and x_j read at the power Psi^(j-1) of the next smaller block
_RECURSION_MUTANTS = {
    "unsigned": lambda real: lambda xs, one: real(
        [x * (-1) ** i for i, x in enumerate(xs)], one),
    "power": lambda real: lambda xs, one: real(xs[:1] + xs[:-1], one),
}


@pytest.mark.parametrize("n,N", [(1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("check", (check_orbit_series,
                                   check_orbit_full_series))
@pytest.mark.parametrize("mutant", sorted(_RECURSION_MUTANTS))
def test_orbit_series_checks_fail_on_a_faulty_recursion(mutant, check, n, N,
                                                        monkeypatch):
    # the orbit classes over T^n no longer run the partition sum, so the
    # series checks are what catch a fault of the recursion that replaced it
    monkeypatch.setattr(classes, "block_size_sums",
                        _RECURSION_MUTANTS[mutant](classes.block_size_sums))
    assert check(n, N) is False


def test_orbit_full_literal_derivative_form_is_false():
    # the f + t*f' reading of the vanishing-allowed series does not hold;
    # the decomposition forces (1+t)*f instead (see check_orbit_full_series)
    f = orbit_series(1, 2)
    lhs = orbit_full_series(1, 2)
    derivative_form = TruncSeries(f.universe, 2,
                                  [(1 + u) * c for u, c in enumerate(f.coeffs)])
    assert lhs != derivative_form


# -- residues ----------------------------------------------------------------

ZU = VarUniverse(("y", "z"))


def _z():
    return RatFunc.var(ZU, "z")


def test_residue_simple_pole():
    f = 1 / (_z() - 2)
    assert residue_at(f, "z", Fraction(2)) == 1


def test_residue_double_pole():
    f = 1 / (_z() - 2) ** 2
    assert residue_at(f, "z", Fraction(2)) == 0


def test_residue_theorem_two_poles():
    f = 1 / (_z() * (_z() - 1))
    assert residue_at(f, "z", Fraction(0)) == -1
    assert residue_at(f, "z", Fraction(1)) == 1


def test_residue_no_pole():
    f = _z() + 3
    assert residue_at(f, "z", Fraction(1)).is_zero()


def test_residue_order_cap():
    assert residue_at(1 / (_z() - 2) ** 8, "z", Fraction(2)) == 0
    with pytest.raises(PoleOrderError):
        residue_at(1 / (_z() - 2) ** 9, "z", Fraction(2))


def _zp(c0, c1=0):
    """c0 + c1*z as a polynomial, so that quotients built from it keep their
    common factors instead of cancelling them on construction."""
    return (LaurentPoly.const(ZU, c0)
            + LaurentPoly.var(ZU, "z") * Fraction(c1))


def test_residue_numerator_zero_at_pole():
    assert residue_at(RatFunc(_zp(-2, 1), _zp(-2, 1) ** 2),
                      "z", Fraction(2)) == 1
    assert residue_at(RatFunc(_zp(-2, 1) ** 3, _zp(-2, 1) ** 2),
                      "z", Fraction(2)) == 0


def test_residue_double_pole_at_origin():
    f = RatFunc(_zp(1, 1), _zp(0, 1) ** 2)
    assert residue_at(f, "z", Fraction(0)) == 1
    with pytest.raises(PoleOrderError):
        residue_at(RatFunc(_zp(1, 1), _zp(0, 1) ** 9), "z", Fraction(0))


def test_residue_double_pole_examples():
    f = RatFunc(_zp(1), _zp(-1, 1) ** 2 * _zp(1, 1))
    assert residue_at(f, "z", Fraction(1)) == Fraction(-1, 4)
    y = LaurentPoly.var(ZU, "y")
    f = RatFunc(1 + y * LaurentPoly.var(ZU, "z"), _zp(-1, 1) ** 2 * (1 + y))
    yr = RatFunc(y)
    assert residue_at(f, "z", Fraction(1)) == yr / (1 + yr)


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def residue_cases(draw):
    """(f, points): f = c * prod(linear factors) * prod(z - zero) * z^e
    / prod(((z - r)(1 + y))^k), with numerator zeros drawn among the poles;
    the points are the poles, 0 and one more."""
    poles = draw(st.lists(_coef, min_size=1, max_size=2))
    orders = draw(st.lists(st.integers(1, 3), min_size=len(poles),
                           max_size=len(poles)))
    zeros = draw(st.lists(st.sampled_from(poles), max_size=2))
    linear = draw(st.lists(st.tuples(_coef, _coef, _coef), max_size=2))
    e = draw(st.integers(-2, 2))
    points = sorted(set(poles) | {Fraction(0), draw(_coef)})
    return poles, orders, zeros, linear, draw(_coef), e, points


Y_AT = Fraction(7, 3)


def _sympy_residue(sp, expr, z, p):
    """Residue of a rational function of z at p: cancel, divide out (z - p)
    to find the pole order m, then the derivative formula at p."""
    num, den = sp.fraction(sp.cancel(expr))
    m = 0
    while True:
        quo, rem = sp.div(den, z - p, z)
        if rem != 0:
            break
        den, m = quo, m + 1
    if m == 0:
        return sp.Integer(0)
    return sp.diff(num / den, z, m - 1).subs(z, p) / sp.factorial(m - 1)


@settings(max_examples=30, deadline=None)
@given(residue_cases())
def test_residue_matches_sympy(case):
    sp = pytest.importorskip("sympy")
    poles, orders, zeros, linear, scale, e, points = case
    sy, sz = sp.symbols("y z")
    y, z = RatFunc.var(ZU, "y"), RatFunc.var(ZU, "z")

    def q(x):
        return sp.Rational(x.numerator, x.denominator)

    f, expr = scale * z ** e, q(scale) * sz ** e
    for a, b, c in linear:
        f = f * (a + b * z + c * y)
        expr = expr * (q(a) + q(b) * sz + q(c) * sy)
    for r in zeros:
        f, expr = f * (z - r), expr * (sz - q(r))
    for r, k in zip(poles, orders):
        f = f / ((z - r) * (1 + y)) ** k
        expr = expr / ((sz - q(r)) * (1 + sy)) ** k
    expr = expr.subs(sy, q(Y_AT))
    for p in points:
        want = _sympy_residue(sp, expr, sz, q(p))
        ours = residue_at(f, "z", p).substitute({"y": Y_AT})
        assert ours == Fraction(int(sp.numer(want)), int(sp.denom(want)))


def test_residue_form_factor_t1():
    # u=1: residue at z=0 is -1, matching the stated closed form
    f = residue_form_factor(ZU, [Fraction(2)], 1)
    assert residue_at(f, "z", Fraction(0)) == -1


@pytest.mark.parametrize("alphas,N", [([Fraction(2)], 2),
                                      ([Fraction(2), Fraction(3)], 2),
                                      ([], 3)])
def test_residue_form(alphas, N):
    assert check_residue_form(alphas, N)


def test_residue_form_fails_without_a_weight_pole(monkeypatch):
    real = series._residue_weights
    monkeypatch.setattr(series, "_residue_weights",
                        lambda universe, alphas: real(universe, alphas[:-1]))
    assert not check_residue_form([Fraction(2), Fraction(3)], 3)


def test_residue_form_fails_at_one_power_too_few(monkeypatch):
    # an exponent whose t^u coefficient takes c_a^(u-1) in place of c_a^u
    alphas = [Fraction(2), Fraction(3)]

    def early(universe, weights, n_order):
        return TruncSeries(universe, n_order, [RatFunc.const(universe, 0)] + [
            sum((Fraction((-1) ** (u - 1), u)
                 * weight_pole_c(universe, a) ** (u - 1)
                 * weight_pole_lambda(universe, alphas, a) for a in alphas),
                RatFunc.const(universe, 0))
            for u in range(1, n_order + 1)])

    monkeypatch.setattr(series, "_orbit_exponent", early)
    assert not check_residue_form(alphas, 3)


def test_orbit_checks_fail_without_the_last_exponent_term(monkeypatch):
    # s2, s2-full and the residue check share one exponent, so each fails
    # when it loses the term L_n log(1 + c_n t) of its last weight
    real = series._orbit_exponent

    def without_last(universe, weights, n_order):
        w = weights[-1]
        origin, _, punctured = mc_line_classes(w)
        ratio = lambda_ratio(universe, [v * w.inverse() for v in weights[:-1]])
        last = ratio * ((punctured / origin)
                        * TruncSeries.t(universe, n_order)).log1p()
        return real(universe, weights, n_order) + last * -1

    monkeypatch.setattr(series, "_orbit_exponent", without_last)
    assert not check_orbit_series(2, 3)
    assert not check_orbit_full_series(2, 3)
    assert not check_residue_form([Fraction(2), Fraction(3)], 3)


def test_residue_form_builds_its_weights_once(monkeypatch):
    calls = []
    real = series._residue_weights

    def recording(universe, alphas):
        calls.append(alphas)
        return real(universe, alphas)

    monkeypatch.setattr(series, "_residue_weights", recording)
    assert check_residue_form([Fraction(2), Fraction(3)], 3)
    assert calls == [[Fraction(2), Fraction(3)]]


RESIDUE_POLE_SETS = [[Fraction(a) for a in poles] for poles in (
    (2,), (2, 3), (-2, Fraction(1, 2), 3), (2, 3, 5, 7), (-1, 2))]


@pytest.mark.parametrize("alphas", RESIDUE_POLE_SETS)
def test_residue_integrand_stores_what_division_stores(alphas):
    # the lambda ratio over the weights a/z, and the core times it with no
    # trial division, store what the chains of RatFunc divisions store:
    # numerator terms in key order, denominators, bounds and factors in
    # order
    assert ratfunc_storage(series._residue_weights(ZU, alphas)) \
        == ratfunc_storage(residue_weights_by_division(ZU, alphas))
    for u in range(1, 6):
        assert ratfunc_storage(residue_form_factor(ZU, alphas, u)) \
            == ratfunc_storage(residue_form_factor_by_division(ZU, alphas, u))


def test_residue_integrand_tries_no_division(monkeypatch):
    calls = []
    real = laurent._exact_div

    def recording(p, f):
        calls.append(f)
        return real(p, f)

    monkeypatch.setattr(laurent, "_exact_div", recording)
    for alphas in RESIDUE_POLE_SETS:
        for u in range(1, 6):
            residue_form_factor(ZU, alphas, u)
    assert calls == []


@pytest.mark.parametrize("alphas", RESIDUE_POLE_SETS)
def test_orbit_exponent_at_constant_weights(alphas):
    # sum_a (-1)^(u-1)/u c_a^u lam_a at each degree u <= 6
    exponent = series._orbit_exponent(
        ZU, [RatFunc.const(ZU, a) for a in alphas], 6)
    assert exponent.coeffs[0] == 0
    for u in range(1, 7):
        assert exponent.coeffs[u] == weight_pole_exponent(ZU, alphas, u)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_orbit_exponent_at_a_rational_point(n):
    # the symbolic exponent over a_1..a_n, evaluated at a point, is the
    # exponent at the point's constant weights
    t = TorusData.standard(n)
    point = [Fraction(2), Fraction(-1, 3), Fraction(5, 2)][:n]
    symbolic = series._orbit_exponent(
        t.universe, [t.a(i) for i in range(1, n + 1)], 4)
    at_point = series._orbit_exponent(
        t.universe, [RatFunc.const(t.universe, a) for a in point], 4)
    bindings = dict(zip(t.alpha, point))
    assert [c.substitute(bindings) for c in symbolic.coeffs] \
        == at_point.coeffs


def test_residue_form_rejects_bad_alphas():
    with pytest.raises(ValueError):
        check_residue_form([Fraction(1), Fraction(2)], 1)
    with pytest.raises(ValueError):
        check_residue_form([Fraction(2), Fraction(2)], 1)
    with pytest.raises(ValueError):
        check_residue_form([Fraction(2)], 0)
