"""Tests for the limit map, the lambda-quotient limit law, and limit
stability."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confchern import laurent, limits
from confchern.laurent import LaurentPoly, RatFunc, VarUniverse
from confchern.limits import (LimitSpec, LimitUndefinedError,
                              WeightedBundleSummand, check_bb_stability,
                              lambda_quotient, lambda_quotient_sweep,
                              limit_lambda_quotient, limit_map,
                              random_admissible, run_limit_property_suite)
from oracles import lambda_quotient_fold

U = VarUniverse(("a1", "a2", "y", "s"))
SPEC = LimitSpec("s", "to_zero")


def v(name, power=1):
    return RatFunc.var(U, name, power)


def test_limit_basic():
    f = (1 + v("s") * v("a1")) / (2 - v("s"))
    assert limit_map(f, SPEC) == RatFunc.const(U, 1) / 2


def test_limit_common_factor_cancels():
    f = (v("s") + v("s") ** 2) / (v("s") * (1 - v("s")))
    assert limit_map(f, SPEC) == 1


def test_limit_undefined_pole():
    with pytest.raises(LimitUndefinedError):
        limit_map(v("s", -1), SPEC)


def test_limit_inverse_direction():
    f = (v("s") + 1) / v("s")
    assert limit_map(f, LimitSpec("s", "inverse_to_zero")) == 1
    with pytest.raises(LimitUndefinedError):
        limit_map(v("s"), LimitSpec("s", "inverse_to_zero"))


def _value_at_s0(p, a1, y):
    """Value at (a1, y) of the s^0 terms of a polynomial over (a1, y, s)."""
    return sum((c * a1 ** e_a * y ** e_y
                for (e_a, e_y, e_s), c in p.terms.items() if e_s == 0),
               Fraction(0))


_nonzero = st.fractions(min_value=-3, max_value=3,
                        max_denominator=4).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-2, 3),
       _nonzero, _nonzero)
def test_limit_map_is_value_at_zero(rng, j, a1, y):
    # an admissible fraction times s^j: j > 0 sends the limit to 0, and
    # j < 0 leaves a pole at s = 0 unless every numerator term has s^-j
    f = random_admissible(rng)
    f = RatFunc(f.num * LaurentPoly.var(f.universe, "s", j), f.den)
    den0 = _value_at_s0(f.den, a1, y)
    assume(den0 != 0)
    if f.num.min_exp("s") < 0:
        with pytest.raises(LimitUndefinedError):
            limit_map(f, SPEC)
    else:
        got = limit_map(f, SPEC)
        assert got.num == got.num.coeff_of("s", 0)
        assert got.den == got.den.coeff_of("s", 0)
        assert _value_at_s0(got.num, a1, y) / _value_at_s0(got.den, a1, y) \
            == _value_at_s0(f.num, a1, y) / den0
    # the inverse direction is the to-zero limit after s := 1/s
    flipped = f.substitute({"s": RatFunc.var(f.universe, "s", -1)})
    inverse = LimitSpec("s", "inverse_to_zero")
    try:
        want = limit_map(flipped, SPEC)
    except LimitUndefinedError:
        with pytest.raises(LimitUndefinedError):
            limit_map(f, inverse)
    else:
        assert limit_map(f, inverse) == want


def test_limit_fixes_s_free_input():
    f = (1 + v("y")) / v("a1")
    assert limit_map(f, SPEC) == f


def test_limit_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec("s", "sideways")


def test_summand_validation():
    with pytest.raises(ValueError):
        WeightedBundleSummand(0, v("a1"))
    with pytest.raises(ValueError):
        WeightedBundleSummand(1, v("a1"), 0)
    with pytest.raises(ValueError):
        lambda_quotient([])


def test_lambda_quotient_single_positive():
    sm = WeightedBundleSummand(1, RatFunc.const(U, 1))
    assert limit_lambda_quotient([sm]) == 1


def test_lambda_quotient_single_negative():
    sm = WeightedBundleSummand(-1, RatFunc.const(U, 1))
    assert limit_lambda_quotient([sm]) == -v("y")


def test_lambda_quotient_mixed():
    summands = [WeightedBundleSummand(2, v("a1"), 1),
                WeightedBundleSummand(-1, v("a2"), 2)]
    assert limit_lambda_quotient(summands) == v("y") ** 2


def test_lambda_quotient_sweep_short_lists():
    for _, lim, want in lambda_quotient_sweep(max_len=2):
        assert lim == want


def _storage(f):
    """Everything a RatFunc holds, in order: keys, denominators, bounds
    and the factor order."""
    def poly(p):
        return list(p._coeffs.items()), p._denom, p._bound
    return poly(f.num), [(poly(g), power) for g, power in f._factors.items()]


def test_lambda_quotient_matches_the_fold():
    for summands, _, _ in lambda_quotient_sweep(max_len=3):
        got, want = lambda_quotient(summands), lambda_quotient_fold(summands)
        assert got == want
        assert _storage(got) == _storage(want)


def test_lambda_quotient_of_non_monomial_bases():
    # bases with denominator factors: only the values need to agree
    bases = [(v("a1") + 2 * v("a2")) / (1 - v("a1") * v("a2")),
             v("a2") * v("y") / (v("a1") + 3) ** 2]
    for omegas in ((2, -1), (-1, 1), (1, 1)):
        summands = [WeightedBundleSummand(w, b, m)
                    for w, b, m in zip(omegas, bases, (1, 2))]
        assert lambda_quotient(summands) == lambda_quotient_fold(summands)


def test_lambda_quotient_runs_no_trial_division(monkeypatch):
    summands = [WeightedBundleSummand(2, v("a1"), 1),
                WeightedBundleSummand(-1, v("a2", -1), 2),
                WeightedBundleSummand(1, 3 * v("a1") * v("a2"), 1)]
    real = laurent._exact_div
    divisors = []
    monkeypatch.setattr(laurent, "_exact_div",
                        lambda p, f: divisors.append(f) or real(p, f))
    lambda_quotient(summands)
    assert divisors == []
    # the counter sees the trial divisions of the fold
    lambda_quotient_fold(summands)
    assert divisors


def test_property_suite_sample():
    failures, count = run_limit_property_suite(seed=7, count=50)
    assert count == 50
    assert failures == 0


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1)])
def test_bb_stability_small(n, k):
    assert check_bb_stability(n, k)


def test_bb_stability_needs_the_limit(monkeypatch):
    # without the limit the n-weight class keeps a_n, so it cannot equal
    # the (n-1)-weight class
    monkeypatch.setattr(limits, "limit_map", lambda f, spec: f)
    assert check_bb_stability(3, 2) is not True


def test_bb_stability_caps():
    # the lower bounds, below which no fixed point is compared; the CLI
    # holds n <= 4, k <= 3
    with pytest.raises(ValueError):
        check_bb_stability(1, 1)
    with pytest.raises(ValueError):
        check_bb_stability(2, 0)


def test_limit_of_first_coincident_class():
    # substituting a2 := 1/u into the two-weight one-point class and taking
    # the limit leaves the one-weight class 1
    uu = VarUniverse(("a1", "y", "u"))
    a1 = RatFunc.var(uu, "a1")
    y = RatFunc.var(uu, "y")
    inv_u = RatFunc.var(uu, "u", -1)
    f = (1 + y * a1 / inv_u)
    assert limit_map(f, LimitSpec("u", "to_zero")) == 1
