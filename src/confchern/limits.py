"""Limit map along a distinguished one-parameter character: discard the
positive powers of the character in numerator and denominator of an
admissible fraction.  Includes the attracting-cell stability check for
projective configuration classes."""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .laurent import LaurentPoly, RatFunc, VarUniverse
from .classes import ProjFixedPoint, TorusData, mc_conf_proj_at


class LimitUndefinedError(ValueError):
    pass


class LimitSpec:
    """The limit variable, and whether it goes to zero or its inverse
    does."""

    __slots__ = ("variable", "direction")

    def __init__(self, variable: str = "s", direction: str = "to_zero"):
        if direction not in ("to_zero", "inverse_to_zero"):
            raise ValueError("unknown direction %r" % direction)
        self.variable, self.direction = variable, direction


def limit_map(f: RatFunc, spec: LimitSpec) -> RatFunc:
    """Zeroth-order part of an admissible fraction in the limit variable.

    The lowest power s^d of the variable in the denominator sets the
    scale: the fraction is admissible when the numerator has no power of s
    below d, and its limit is the quotient of the two s^d coefficients.
    """
    s = spec.variable
    num, den = f.num, f.den
    if spec.direction == "inverse_to_zero":
        flip = {s: LaurentPoly.var(f.universe, s, -1)}
        num, den = num.substitute(flip), den.substitute(flip)
    d = den.min_exp(s)
    if num.min_exp(s) < d:
        raise LimitUndefinedError(
            "numerator has a lower power of %s than the denominator" % s)
    return RatFunc(num.coeff_of(s, d), den.coeff_of(s, d))


class WeightedBundleSummand:
    """Rank-`multiplicity` piece of a normal bundle: character `base` times
    the `omega`-th power of the distinguished character on the dual."""

    __slots__ = ("omega", "base", "multiplicity")

    def __init__(self, omega: int, base: RatFunc, multiplicity: int = 1):
        if omega == 0:
            raise ValueError("normal directions carry nonzero weights")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        self.omega, self.base, self.multiplicity = omega, base, multiplicity


def lambda_quotient(summands: Sequence[WeightedBundleSummand]) -> RatFunc:
    """The lambda_y / lambda_{-1} quotient of the dual bundle described by
    the summands, with the distinguished character named s.

    With base = P/Q and w = P s^omega, a summand contributes
    (1 + y w/Q) / (1 - w/Q) = (y w + Q) / (Q - w).  Both products are
    expanded as polynomials and divided once, with no inverse and no
    trial division.  For monomial bases the quotient is in lowest terms:
    at y = 0 the numerator is a monomial, which no factor carrying s
    divides."""
    if not summands:
        raise ValueError("need at least one summand")
    universe = summands[0].base.universe
    y = LaurentPoly.var(universe, "y")
    num = den = LaurentPoly.const(universe, 1)
    for sm in summands:
        q = sm.base.den
        w = sm.base.num * LaurentPoly.var(universe, "s", sm.omega)
        num = num * (y * w + q) ** sm.multiplicity
        den = den * (q - w) ** sm.multiplicity
    return RatFunc(num, den)


def limit_lambda_quotient(summands: Sequence[WeightedBundleSummand]) -> RatFunc:
    """Limit of the lambda quotient; equals (-y)^(number of negative-weight
    dual directions, with multiplicity)."""
    return limit_map(lambda_quotient(summands), LimitSpec("s", "to_zero"))


def positive_weight_count(summands: Sequence[WeightedBundleSummand]) -> int:
    # negative weight on the dual = positive weight on the bundle itself
    return sum(sm.multiplicity for sm in summands if sm.omega < 0)


def check_bb_stability(n: int, k: int) -> bool:
    """Dropping the last weight direction: sending a_n to infinity (the
    `inverse_to_zero` limit in a_n) in the n-weight projective
    configuration class must reproduce the (n-1)-weight class, at every
    fixed point avoiding the last axis."""
    # below n = 2 or k = 1 there is no fixed point to compare
    if n < 2 or k < 1:
        raise ValueError("needs n >= 2 and k >= 1, got n=%d, k=%d" % (n, k))
    t_full = TorusData.standard(n)
    t_small = TorusData(t_full.universe, t_full.alpha[:-1])
    spec = LimitSpec(t_full.alpha[-1], "inverse_to_zero")
    for iota in product(range(1, n), repeat=k):
        e = ProjFixedPoint(iota)
        if limit_map(mc_conf_proj_at(t_full, e), spec) \
                != mc_conf_proj_at(t_small, e):
            return False
    return True


# ---------------------------------------------------------------------------
# Randomized property suite (shared by the CLI and the tests)
# ---------------------------------------------------------------------------

_PROP_UNIVERSE = VarUniverse(("a1", "y", "s"))


def _random_poly(rng, require_s0: bool = False) -> LaurentPoly:
    from fractions import Fraction
    while True:
        p = LaurentPoly.zero(_PROP_UNIVERSE)
        for _ in range(rng.randint(1, 4)):
            e_a = rng.randint(-2, 2)
            e_y = rng.randint(0, 2)
            e_s = rng.randint(0, 3)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = p + LaurentPoly.monomial(_PROP_UNIVERSE,
                                         {"a1": e_a, "y": e_y, "s": e_s}, c)
        if p.is_zero():
            continue
        if require_s0 and p.coeff_of("s", 0).is_zero():
            continue
        return p


def random_admissible(rng) -> RatFunc:
    """Random fraction on which the to-zero limit is defined."""
    num = _random_poly(rng)
    den = _random_poly(rng, require_s0=True)
    return RatFunc(num, den)


def run_limit_property_suite(seed: int = 0, count: int = 200):
    """Representation independence, additivity, multiplicativity of the
    limit map on random admissible inputs.  Returns (failures, count)."""
    import random

    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    rng = random.Random(seed)
    spec = LimitSpec("s", "to_zero")
    failures = 0
    for _ in range(count):
        f = random_admissible(rng)
        g = random_admissible(rng)
        mult = _random_poly(rng, require_s0=True)
        ok = True
        # same value from a rescaled representation of the same fraction
        rescaled = RatFunc(f.num * mult, f.den * mult)
        ok &= limit_map(f, spec) == limit_map(rescaled, spec)
        ok &= limit_map(f + g, spec) == limit_map(f, spec) + limit_map(g, spec)
        ok &= limit_map(f * g, spec) == limit_map(f, spec) * limit_map(g, spec)
        if not ok:
            failures += 1
    return failures, count


def lambda_quotient_sweep(max_len: int = 4):
    """Exhaustive small sweep of summand lists; yields (summands, limit,
    expected) triples."""
    universe = _PROP_UNIVERSE
    base = RatFunc.var(universe, "a1")
    omegas = (-2, -1, 1, 2)
    y = RatFunc.var(universe, "y")
    for length in range(1, max_len + 1):
        for combo in product(product(omegas, (1, 2)), repeat=length):
            summands = [WeightedBundleSummand(w, base, m) for w, m in combo]
            lim = limit_lambda_quotient(summands)
            expected = (-y) ** positive_weight_count(summands)
            yield summands, lim, expected
