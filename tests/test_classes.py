"""Tests for the localized class formulas."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from confchern import classes, cli, laurent
from confchern.classes import (ProjFixedPoint, TorusData, euler_reciprocal,
                               fixed_point_factor, lambda_classes,
                               lambda_ratio, mc_conf_affine, mc_conf_generic,
                               mc_conf_proj_at, mc_conf_proj_recursion,
                               mc_conf_proj_refinement_sum, mc_line_classes,
                               mc_orbit_conf, mc_orbit_full,
                               proj_tangent_weights, standard_universe)
from confchern.laurent import LaurentPoly, RatFunc, VarUniverse
from confchern.partitions import SetPartition, partition_sum
from oracles import (euler_point_beta, euler_reciprocal_by_division,
                     fixed_point_factor_by_division,
                     lambda_classes_by_products, line_classes_by_arithmetic,
                     mc_orbit_conf_pairwise, mc_orbit_full_composed,
                     mc_orbit_full_expanded, proj_tangent_weights_by_division,
                     ratfunc_image, ratfunc_storage)


def _one_block(k):
    return SetPartition(k, [range(1, k + 1)])


def _generic_definition(mcB, euTM, k):
    """sum over set partitions P of [k] of a(P) mcB^|P| euTM^(k-|P|)."""
    one = RatFunc.const(mcB.universe, 1)
    return partition_sum(_one_block(k),
                         lambda b: mcB * euTM ** (len(b) - 1), one)


def _proj_lambdas(t, i):
    """lambda_y and lambda_{-1} of projective space at the i-th fixed
    point."""
    return lambda_classes(t, proj_tangent_weights(t, i))


def test_line_classes():
    u = VarUniverse(("a1", "y"))
    a = RatFunc.var(u, "a1")
    origin, line, punctured = mc_line_classes(a)
    y = RatFunc.var(u, "y")
    assert origin == 1 - 1 / a
    assert line == 1 + y / a
    assert punctured == (1 + y) / a
    assert punctured == line - origin


@pytest.mark.parametrize("weight", [
    lambda t: t.a(1), lambda t: t.b(1) * t.a(1), lambda t: t.a(2) / t.a(1)],
    ids=["a1", "b1*a1", "a2/a1"])
def test_line_classes_at_a_weight(weight):
    t = TorusData.standard(2, k=1)
    w = weight(t)
    origin, line, punctured = mc_line_classes(w)
    assert origin == 1 - 1 / w
    assert line == 1 + t.y / w
    assert punctured == (1 + t.y) / w
    assert punctured == line - origin


def _random_weights(seed, count=80):
    """Seeded units c X^e over (a1, a2, b1, y): c an int or Fraction of
    either sign, e with entries of both signs, y among them; a constant
    one time in five, and the weights where 1 - 1/w or 1 + y/w has its two
    keys coincide (constants, multiples of y) first."""
    u = standard_universe(2, 1)
    y = RatFunc.var(u, "y")
    yield from (RatFunc.const(u, c) for c in (1, -1, 2, Fraction(-3, 2)))
    yield from (c * y for c in (1, -1, 3, Fraction(2, 5)))
    rng = random.Random("weights:%d" % seed)
    for _ in range(count):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                     rng.choice([1, 1, 2, 3, 10]))
        if c.denominator == 1 and rng.random() < 0.5:
            c = int(c)
        e = ((0,) * len(u) if rng.random() < 0.2
             else tuple(rng.randint(-3, 3) for _ in u))
        yield RatFunc(LaurentPoly(u, {e: c}))


@pytest.mark.parametrize("seed", range(3))
def test_line_classes_store_what_arithmetic_stores(seed):
    # read from the one key and coefficient of 1/w, the three classes store
    # what 1 - 1/w, 1 + y/w and line - origin store by Laurent arithmetic:
    # keys in order, merged where they coincide, denominators and bounds
    for w in _random_weights(seed):
        got = mc_line_classes(w)
        assert [ratfunc_storage(c) for c in got] \
            == [ratfunc_storage(c) for c in line_classes_by_arithmetic(w)]
        origin, line, punctured = got
        assert punctured == line - origin
        assert origin * w == w - 1


def test_line_classes_at_orbit_weights():
    u = standard_universe(1, 1)
    a1 = RatFunc.var(u, "a1")
    b1 = RatFunc.var(u, "b1")
    y = RatFunc.var(u, "y")
    assert mc_line_classes(a1)[2] == (1 + y) / a1
    u2 = standard_universe(2)
    a2 = RatFunc.var(u2, "a2")
    assert mc_line_classes(a2)[0] == 1 - 1 / a2
    assert mc_line_classes(b1 * a1)[2] == (1 + y) / (b1 * a1)
    with pytest.raises(ValueError):
        mc_line_classes(RatFunc.const(u, 0))


@pytest.mark.parametrize("weight", [
    lambda t: t.a(1) + t.a(2), lambda t: 1 / (t.a(1) - 1),
    lambda t: t.a(1) / (t.a(2) - 1), lambda t: RatFunc.const(t.universe, 0)],
    ids=["binomial", "factor", "monomial-over-factor", "zero"])
def test_line_classes_need_a_monomial_weight(weight):
    t = TorusData.standard(2)
    with pytest.raises(ValueError, match="needs a monomial weight"):
        mc_line_classes(weight(t))


def test_lambda_classes_of_the_origin():
    t1 = TorusData.standard(1)
    assert lambda_classes(t1, [t1.a(1)])[1] == 1 - 1 / t1.a(1)
    t2 = TorusData.standard(2)
    base = (1 - 1 / t2.a(1)) * (1 - 1 / t2.a(2))
    weights = [t2.a(1), t2.a(2)]
    assert lambda_classes(t2, weights)[1] == base
    # the origin of (C^2)^3
    assert lambda_classes(t2, weights * 3)[1] == base ** 3


def test_lambda_classes_at_proj_fixed_points():
    t1 = TorusData.standard(1)
    assert _proj_lambdas(t1, 1) == (t1.one(), t1.one())

    t2 = TorusData.standard(2)
    assert _proj_lambdas(t2, 1) == (1 + t2.y * t2.a(1) / t2.a(2),
                                    1 - t2.a(1) / t2.a(2))

    t3 = TorusData.standard(3)
    num, den = _proj_lambdas(t3, 2)
    assert num == (1 + t3.y * t3.a(2) / t3.a(1)) * (1 + t3.y * t3.a(2) / t3.a(3))
    assert den == (1 - t3.a(2) / t3.a(1)) * (1 - t3.a(2) / t3.a(3))

    with pytest.raises(ValueError):
        proj_tangent_weights(t2, 3)


def _free_point_data():
    """The symbols (m, e) as point data (mcB, euTM)."""
    u = VarUniverse(("m", "e"))
    return RatFunc.var(u, "m"), RatFunc.var(u, "e")


def test_mc_conf_generic_small_k():
    m, e = _free_point_data()
    assert mc_conf_generic(m, e, 1) == m
    assert mc_conf_generic(m, e, 2) == m ** 2 - m * e
    assert mc_conf_generic(m, e, 3) == m ** 3 - 3 * m ** 2 * e + 2 * m * e ** 2


@pytest.mark.parametrize("k", range(1, 8))
def test_mc_conf_generic_matches_partition_sum(k):
    m, e = _free_point_data()
    assert mc_conf_generic(m, e, k) == _generic_definition(m, e, k)


def test_local_class_data_rejects_zero_euler():
    u = VarUniverse(("m",))
    with pytest.raises(ValueError, match="ambient Euler class"):
        mc_conf_generic(RatFunc.var(u, "m"), RatFunc.const(u, 0), 1)


def test_mc_conf_affine_examples():
    t1 = TorusData.standard(1)
    line = 1 + t1.y / t1.a(1)
    origin = 1 - 1 / t1.a(1)
    assert mc_conf_affine(t1, 1) == line
    assert mc_conf_affine(t1, 2) == line ** 2 - line * origin


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in (1, 2, 3, 4, 5)])
def test_affine_equals_generic(n, k):
    # the product formula against its partition-sum definition
    t = TorusData.standard(n)
    mcB = t.one()
    eu = t.one()
    for j in range(1, n + 1):
        mcB = mcB * (1 + t.y / t.a(j))
        eu = eu * (1 - 1 / t.a(j))
    assert mc_conf_affine(t, k) == _generic_definition(mcB, eu, k)


def test_mc_conf_proj_single_point():
    t3 = TorusData.standard(3)
    lam, _ = _proj_lambdas(t3, 2)
    assert mc_conf_proj_at(t3, ProjFixedPoint((2,))) == lam


def test_mc_conf_proj_distinct_pair():
    t2 = TorusData.standard(2)
    got = mc_conf_proj_at(t2, ProjFixedPoint((1, 2)))
    lam1, _ = _proj_lambdas(t2, 1)
    lam2, _ = _proj_lambdas(t2, 2)
    assert got == lam1 * lam2


def test_mc_conf_proj_coincident_pair():
    t2 = TorusData.standard(2)
    lam = 1 + t2.y * t2.a(1) / t2.a(2)
    mu = 1 - t2.a(1) / t2.a(2)
    assert mc_conf_proj_at(t2, ProjFixedPoint((1, 1))) == lam ** 2 - lam * mu


@pytest.mark.parametrize("n", (2, 3))
def test_mc_conf_proj_matches_refinement_sum(n):
    # the product formula against the definition
    t = TorusData.standard(n)
    for k in (1, 2, 3, 4):
        for iota in product(range(1, n + 1), repeat=k):
            e = ProjFixedPoint(iota)
            want = mc_conf_proj_refinement_sum(t, e)
            assert mc_conf_proj_at(t, e) == want, iota


@pytest.mark.parametrize("n", (2, 3))
def test_mc_conf_proj_permutation_symmetry(n):
    t = TorusData.standard(n)
    for iota in product(range(1, n + 1), repeat=3):
        base = mc_conf_proj_at(t, ProjFixedPoint(iota))
        for perm in permutations(iota):
            assert mc_conf_proj_at(t, ProjFixedPoint(perm)) == base


def test_proj_fixed_point_validation():
    with pytest.raises(ValueError):
        ProjFixedPoint((0, 1))
    t2 = TorusData.standard(2)
    with pytest.raises(ValueError):
        mc_conf_proj_at(t2, ProjFixedPoint((3,)))


def test_mc_orbit_conf_n1_k1():
    t = TorusData.standard(1, k=1)
    assert mc_orbit_conf(t, 1) == (1 + t.y) / (t.b(1) * t.a(1))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_mc_orbit_conf_k1_additivity(n):
    # with the scaling weight trivial, k=1 must give lambda_y - eu at 0
    t = TorusData.standard(n, k=1)
    got = mc_orbit_conf(t, 1).substitute({"b1": 1})
    lam = t.one()
    eu = t.one()
    for j in range(1, n + 1):
        lam = lam * (1 + t.y / t.a(j))
        eu = eu * (1 - 1 / t.a(j))
    assert got == lam - eu


@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
def test_orbit_classes_refuse_a_partial_beta_list(build):
    # a scaled torus names the weight of every point; one name for two
    # points is neither that nor T^n alone
    u = standard_universe(2, 2)
    with pytest.raises(ValueError, match="no beta names or at least k"):
        build(TorusData(u, ("a1", "a2"), ("b1",)), 2)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
def test_orbit_classes_over_the_torus_alone(build, n, k):
    # with no beta names every b_a is 1: the class is the scaled one at
    # b = 1, built with no b in any weight
    scaled = TorusData.standard(n, k=k)
    torus = TorusData(scaled.universe, scaled.alpha)
    assert torus.b(1) == 1
    ones = {name: 1 for name in scaled.beta}
    assert build(torus, k) == build(scaled, k).substitute(ones)


def _torus(n, k):
    """The torus T^n alone, over the universe of n weights and k points."""
    scaled = TorusData.standard(n, k=k)
    return TorusData(scaled.universe, scaled.alpha)


def _torus_block_weight(t):
    """The orbit block weight over T^n alone by its definition, w(B) =
    sum_i L_i Psi_i^|B|, with L_i the `fixed_point_factor` at i and Psi_i
    the `_psi` of the line classes of a_1..a_n; the L_i are lifted over
    their common denominator, so the sum over i is one lift and one
    reduction, as the class builds it."""
    lifted, recip = RatFunc.over_common_den(
        [fixed_point_factor(t, i) for i in range(1, t.n + 1)])
    lines = [mc_line_classes(t.a(j)) for j in range(1, t.n + 1)]
    psis = [classes._psi(lines, i) for i in range(1, t.n + 1)]

    def weight(block):
        acc = RatFunc.const(t.universe, 0)
        for num, psi in zip(lifted, psis):
            acc = acc + RatFunc(num) * psi ** len(block)
        return acc * recip

    return weight


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in range(1, 7)])
def test_torus_orbit_classes_match_the_partition_sum(n, k):
    # over T^n alone both classes are summed by block size; their
    # definition is the sum over all set partitions of [k] at the block
    # weights of every block, over the reciprocal Euler classes of the k n
    # weights a_j, and the two store the same numerator terms and factors
    # (in another order: the terms of a sum are added in another order)
    t = _torus(n, k)
    weight = _torus_block_weight(t)
    conf = partition_sum(_one_block(k), weight, t.one())
    weights = [t.a(j) for _ in range(k) for j in range(1, n + 1)]
    prev = t.one() if k == 1 else partition_sum(
        _one_block(k - 1), weight, t.one()) * euler_reciprocal(t, weights[:-n])
    full = conf * euler_reciprocal(t, weights) + k * prev
    for got, want in ((mc_orbit_conf(t, k), conf), (mc_orbit_full(t, k), full)):
        assert got == want
        assert got.num == want.num and got._factors == want._factors


@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
def test_torus_orbit_classes_run_no_partition_sum(build, monkeypatch):
    # over T^n alone one weight per block size is built, from the line
    # classes of a_1..a_n alone: 2 per L_i (n = 2) and 2 for the one row of
    # the k points, whose origin classes give the reciprocal Euler class
    lines = []
    real_lines = classes.mc_line_classes

    def no_sum(*args):
        raise AssertionError("partition_sum called over T^n alone")

    def recording_lines(w):
        lines.append(w)
        return real_lines(w)

    monkeypatch.setattr(classes, "partition_sum", no_sum)
    monkeypatch.setattr(classes, "mc_line_classes", recording_lines)
    build(_torus(2, 5), 5)
    assert len(lines) == 4


def test_orbit_points_share_one_row_over_the_torus_alone():
    # over T^n alone the k points hold one row of line classes, at a_1..a_n;
    # a scaled torus holds one row per point, at b_a a_1..b_a a_n
    t = _torus(2, 3)
    torus = classes._orbit_points(t, 3)
    assert len(torus) == 3 and all(row is torus[0] for row in torus)
    assert [origin for origin, _, _ in torus[0]] \
        == [1 - 1 / t.a(j) for j in (1, 2)]
    t = TorusData.standard(2, k=3)
    scaled = classes._orbit_points(t, 3)
    assert len({id(row) for row in scaled}) == 3
    assert [[line for _, line, _ in row] for row in scaled] == [
        [1 + t.y / (t.b(a) * t.a(j)) for j in (1, 2)] for a in (1, 2, 3)]


def test_euler_point_beta():
    t = TorusData.standard(1, k=2)
    want = (1 - 1 / (t.b(1) * t.a(1))) * (1 - 1 / (t.b(2) * t.a(1)))
    assert euler_point_beta(t, 2) == want


def test_euler_reciprocal():
    t = TorusData.standard(2, k=2)
    weights = [t.b(a) * t.a(j) for a in (1, 2) for j in (1, 2)]
    got = euler_reciprocal(t, weights)
    assert got * euler_point_beta(t, 2) == 1
    # one binomial factor b_a a_j - 1 per weight
    assert sorted(len(f._coeffs) for f in got._factors) == [2] * 4
    t1 = TorusData.standard(1)
    cube = euler_reciprocal(t1, [t1.a(1)] * 3)
    assert cube == 1 / (1 - 1 / t1.a(1)) ** 3
    # a repeated weight is one factor at its multiplicity
    assert list(cube._factors.values()) == [3]


def _local_weight_lists(n):
    """Weight lists of the local classes at n weights: the a_j, the scaled
    b_a a_j of two points, a_1 three times over, and the tangent weights
    a_j/a_i at each projective fixed point."""
    t = TorusData.standard(n, k=2)
    return t, ([[t.a(j) for j in range(1, n + 1)],
                [t.b(a) * t.a(j) for a in (1, 2) for j in range(1, n + 1)],
                [t.a(1)] * 3]
               + [proj_tangent_weights(t, i) for i in range(1, n + 1)])


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_local_classes_store_what_division_stores(n):
    # products of line classes and origin reciprocals, with no inverse and
    # no trial division, store what the chains of RatFunc products and
    # divisions store: numerator keys in order, denominators, bounds, and
    # the factors in order with their powers
    t, weight_lists = _local_weight_lists(n)
    for i in range(1, n + 1):
        assert [ratfunc_storage(w) for w in proj_tangent_weights(t, i)] \
            == [ratfunc_storage(w)
                for w in proj_tangent_weights_by_division(t, i)]
        assert ratfunc_storage(fixed_point_factor(t, i)) \
            == ratfunc_storage(fixed_point_factor_by_division(t, i))
    for weights in weight_lists:
        assert ratfunc_storage(euler_reciprocal(t, weights)) \
            == ratfunc_storage(euler_reciprocal_by_division(t, weights))
        assert [ratfunc_storage(c) for c in lambda_classes(t, weights)] \
            == [ratfunc_storage(c)
                for c in lambda_classes_by_products(t, weights)]
    # each row of the scaled table, its three classes at every weight, and
    # its R_a of mc_orbit_full
    for a, row in enumerate(classes._orbit_points(t, 2), start=1):
        weights = [t.b(a) * t.a(j) for j in range(1, n + 1)]
        assert [[ratfunc_storage(c) for c in lines] for lines in row] \
            == [[ratfunc_storage(c) for c in line_classes_by_arithmetic(w)]
                for w in weights]
        assert ratfunc_storage(classes._euler_reciprocal(
            t, [origin for origin, _, _ in row])) \
            == ratfunc_storage(euler_reciprocal_by_division(t, weights))


def test_local_classes_try_no_division(monkeypatch):
    calls = []
    real_div, real_reduced = laurent._exact_div, RatFunc._reduced

    def recording_div(p, f):
        calls.append("_exact_div")
        return real_div(p, f)

    def recording_reduced(self):
        calls.append("_reduced")
        return real_reduced(self)

    monkeypatch.setattr(laurent, "_exact_div", recording_div)
    monkeypatch.setattr(RatFunc, "_reduced", recording_reduced)
    for n in (1, 2, 3, 4):
        t, weight_lists = _local_weight_lists(n)
        for i in range(1, n + 1):
            proj_tangent_weights(t, i)
            fixed_point_factor(t, i)
        for weights in weight_lists:
            euler_reciprocal(t, weights)
            lambda_classes(t, weights)
        for row in classes._orbit_points(t, 2):
            classes._euler_reciprocal(t, [origin for origin, _, _ in row])
    assert calls == []


def test_lambda_ratio_of_no_weights_is_one():
    u = standard_universe(2)
    assert ratfunc_storage(lambda_ratio(u, [])) \
        == ratfunc_storage(RatFunc.const(u, 1))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_fixed_point_factor(n):
    t = TorusData.standard(n)
    for i in range(1, n + 1):
        lam_y, lam_m1 = _proj_lambdas(t, i)
        got = fixed_point_factor(t, i)
        assert got == lam_y / lam_m1
        # the binomials 1 - a_i/a_j stay apart
        assert sorted(len(f._coeffs) for f in got._factors) == [2] * (n - 1)
    with pytest.raises(ValueError):
        fixed_point_factor(t, n + 1)


@pytest.mark.parametrize("k", (0, -1))
@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
def test_orbit_classes_need_positive_k(build, k):
    with pytest.raises(ValueError, match="k must be at least 1, got %d" % k):
        build(TorusData.standard(2, k=2), k)


@pytest.mark.parametrize("k", (0, -1))
@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
def test_torus_orbit_classes_need_positive_k(build, k):
    with pytest.raises(ValueError, match="k must be at least 1, got %d" % k):
        build(_torus(2, 2), k)


@pytest.mark.parametrize("alpha,beta,message", [
    (("a1", "a1"), (), "must be distinct"),
    (("a1", "a2"), ("b1", "b1"), "must be distinct"),
    (("a1", "a2"), ("a2", "b1"), "must be distinct"),
    (("a1", "a2"), ("y",), "'y' cannot be a weight name"),
    (("a1", "y"), (), "'y' cannot be a weight name"),
])
def test_torus_data_rejects_clashing_names(alpha, beta, message):
    with pytest.raises(ValueError, match=message):
        TorusData(standard_universe(2, 2), alpha, beta)


# the orbit sizes compared with the parent's forms in tests/oracles.py
_ORBIT_SIZES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)] + [(2, 4), (4, 2)]


@pytest.mark.parametrize("n,k", _ORBIT_SIZES)
def test_orbit_conf_matches_the_pairwise_sum(n, k):
    # the same value as summing each block weight pairwise over the fixed
    # points, stored alike: numerator terms, denominators and factors.  The
    # key order and bounds may differ, because blocks of fewer than n
    # points are summed over the poles 1/b_a instead
    t = TorusData.standard(n, k=k)
    got, want = mc_orbit_conf(t, k), mc_orbit_conf_pairwise(t, k)
    assert got == want
    assert ratfunc_image(got) == ratfunc_image(want)


@pytest.mark.parametrize("n,k", _ORBIT_SIZES)
def test_orbit_full_matches_the_expanded_euler_class(n, k):
    # the denominator is the expanded Euler class's numerator as the
    # RatFunc constructor normalizes it, with no division.  On a line no two
    # points are independent: from k = 2 only k * mc_orbit_conf(t, k - 1)
    # is left, over the Euler class of one point, and it is 0 from k = 3.
    t = TorusData.standard(n, k=k)
    got = mc_orbit_full(t, k)
    assert got == mc_orbit_full_expanded(t, k)
    points = {(1, 2): 1, (1, 3): 0}.get((n, k), k)
    one = LaurentPoly.const(t.universe, 1)
    assert got.den == RatFunc(one, euler_point_beta(t, points).num).den


@pytest.mark.parametrize("n,k", _ORBIT_SIZES)
def test_orbit_full_stores_what_its_parts_compose(n, k):
    # one weight table and one reciprocal build the same storage as the
    # two orbit classes and the two reciprocals built on their own
    t = TorusData.standard(n, k=k)
    assert ratfunc_storage(mc_orbit_full(t, k)) \
        == ratfunc_storage(mc_orbit_full_composed(t, k))


def test_orbit_full_builds_each_block_weight_once(monkeypatch):
    # the sums over [3] and over [2] read one table: each of the 7 blocks
    # of [3] gets one weight object, and the L_i are built once.  The line
    # classes are built once per weight: 6 for the L_i and 9 for the rows of
    # the 9 weights b_a a_j, which give both the Psi rows and the reciprocal
    # Euler classes
    weights = {}
    factors = []
    lines = []
    real_sum, real_factor = classes.partition_sum, classes.fixed_point_factor
    real_lines = classes.mc_line_classes

    def recording_sum(p0, block_weight, one):
        def weight(block):
            w = block_weight(block)
            weights.setdefault(block, set()).add(id(w))
            return w
        return real_sum(p0, weight, one)

    def recording_factor(t, i):
        factors.append(i)
        return real_factor(t, i)

    def recording_lines(w):
        lines.append(w)
        return real_lines(w)

    monkeypatch.setattr(classes, "partition_sum", recording_sum)
    monkeypatch.setattr(classes, "fixed_point_factor", recording_factor)
    monkeypatch.setattr(classes, "mc_line_classes", recording_lines)
    mc_orbit_full(TorusData.standard(3, k=3), 3)
    assert len(weights) == 7
    assert all(len(ids) == 1 for ids in weights.values())
    assert sorted(factors) == [1, 2, 3]
    assert len(lines) == 15
    lines.clear()
    mc_orbit_conf(TorusData.standard(3, k=3), 3)
    assert len(lines) == 15


def test_block_weight_divisions_all_hit(monkeypatch):
    # each side of a block weight is formed over one common denominator,
    # and the weight is a Laurent polynomial, so each factor divides it; a
    # singleton has no denominator
    results = {}
    inside = []
    real_div, real_sum = laurent._exact_div, classes.partition_sum

    def recording_div(p, f):
        q = real_div(p, f)
        if inside:
            results.setdefault(inside[-1], []).append(q is not None)
        return q

    def recording_sum(p0, block_weight, one):
        def weight(block):
            inside.append(block)
            try:
                return block_weight(block)
            finally:
                inside.pop()
        return real_sum(p0, weight, one)

    monkeypatch.setattr(laurent, "_exact_div", recording_div)
    monkeypatch.setattr(classes, "partition_sum", recording_sum)
    pairs, triple = [(1, 2), (1, 3), (2, 3)], (1, 2, 3)
    mc_orbit_conf(TorusData.standard(3, k=3), 3)
    # the pairs over the pole side, each over its factor b_a' - b_a; the
    # triple over the fixed points, over the 3 factors a_i - a_j
    assert results == {**{b: [True] for b in pairs}, triple: [True] * 3}
    results.clear()
    mc_orbit_conf(TorusData.standard(2, k=3), 3)
    # at n = 2 every block of 2 or 3 points is over the fixed points, over
    # the one factor a_1 - a_2
    assert results == {b: [True] for b in pairs + [triple]}


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_block_weight_residue_identity(n):
    # the sum over the poles 1/b_a equals the sum over the fixed points for
    # every block of [4], whichever side the class takes for it
    t = TorusData.standard(n, k=4)
    lines = classes._orbit_points(t, 4)
    residue = classes._residue_weights(t, lines)
    fixed = classes._fixed_point_weights(t, lines)
    for size in range(1, 5):
        for block in combinations(range(1, 5), size):
            assert residue(block) == fixed(block)


@pytest.mark.parametrize("build", (mc_orbit_conf, mc_orbit_full))
@pytest.mark.parametrize("n,k,calls", [(3, 2, 0), (4, 3, 0), (2, 1, 0),
                                       (3, 3, 3), (2, 3, 2), (1, 1, 1)])
def test_orbit_classes_build_the_fixed_point_factors_from_n_points(
        monkeypatch, build, n, k, calls):
    # below n points every block is summed over the poles 1/b_a, so no L_i
    # is built; from n points on the n of them are built once
    factors = []
    real_factor = classes.fixed_point_factor

    def recording_factor(t, i):
        factors.append(i)
        return real_factor(t, i)

    monkeypatch.setattr(classes, "fixed_point_factor", recording_factor)
    build(TorusData.standard(n, k=k), k)
    assert sorted(factors) == list(range(1, calls + 1))


def test_mc_orbit_full_k1():
    t = TorusData.standard(1, k=1)
    got = mc_orbit_full(t, 1).substitute({"b1": 1})
    a = t.a(1)
    assert got == (1 + t.y) / (a - 1) + 1


def test_mc_orbit_full_structure():
    t = TorusData.standard(1, k=2)
    want = mc_orbit_conf(t, 2) / euler_point_beta(t, 2) \
        + 2 * (mc_orbit_conf(t, 1) / euler_point_beta(t, 1))
    assert mc_orbit_full(t, 2) == want
    with pytest.raises(ValueError):
        mc_orbit_full(t, 0)


# at n = 1 and k >= 3 both classes vanish: no two nonzero vectors of C^1
# are independent, and at most one vector vanishes
_SYMMETRY_SIZES = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]


def _orbit_value(rf, t, bs):
    """rf at fixed rational a_j and y, and at the scaling weights bs."""
    point = dict(zip(t.alpha, (Fraction(2), Fraction(5), Fraction(-3))))
    point.update(zip(t.beta, bs), y=Fraction(5, 3))
    return rf.substitute(point)


@pytest.mark.parametrize("build,n,k", [
    (mc_orbit_conf, n, k) for n, k in _SYMMETRY_SIZES] + [
    pytest.param(mc_orbit_full, n, k, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: mc_orbit_full takes every "
        "stratum where a vector vanishes at the weights b_1..b_(k-1)"))
    for n, k in _SYMMETRY_SIZES],
    ids=["%s-%d-%d" % (b.__name__, n, k)
         for b in (mc_orbit_conf, mc_orbit_full) for n, k in _SYMMETRY_SIZES])
def test_orbit_classes_are_symmetric_in_the_scaling_weights(build, n, k):
    # S_k permutes the points together with their weights b_a, so the class
    # takes the same value under every transposition of (b_1..b_k); one
    # transposition alone can happen to be a symmetry of a wrong class
    t = TorusData.standard(n, k=k)
    rf = build(t, k)
    bs = (Fraction(3, 7), Fraction(-2, 5), Fraction(7, 4))[:k]
    want = _orbit_value(rf, t, bs)
    for p, q in combinations(range(k), 2):
        swapped = list(bs)
        swapped[p], swapped[q] = bs[q], bs[p]
        assert _orbit_value(rf, t, swapped) == want


def test_recursion_base_case():
    t2 = TorusData.standard(2)
    lam, _ = _proj_lambdas(t2, 1)
    assert mc_conf_proj_recursion(t2, ProjFixedPoint((1,))) == lam


def test_recursion_coincident_pair():
    t2 = TorusData.standard(2)
    lam = 1 + t2.y * t2.a(1) / t2.a(2)
    mu = 1 - t2.a(1) / t2.a(2)
    got = mc_conf_proj_recursion(t2, ProjFixedPoint((1, 1)))
    assert got == lam * (lam - mu)


@pytest.mark.parametrize("n", (2, 3))
def test_recursion_matches_direct(n):
    # the one-point recursion against the definition, not against
    # mc_conf_proj_at, on which the recursion is built
    t = TorusData.standard(n)
    for k in (1, 2, 3, 4):
        for iota in product(range(1, n + 1), repeat=k):
            e = ProjFixedPoint(iota)
            want = mc_conf_proj_refinement_sum(t, e)
            assert mc_conf_proj_recursion(t, e) == want, iota


def test_caps():
    # the library refuses only sizes outside its domain; the CLI holds the
    # upper bounds on cost (tests/test_cli.py).  k = 0 is rejected, not
    # read as the empty product
    t = TorusData.standard(1)
    with pytest.raises(ValueError):
        mc_conf_affine(t, 0)
    with pytest.raises(ValueError):
        mc_conf_generic(*_free_point_data(), 0)
    with pytest.raises(ValueError):
        mc_orbit_conf(TorusData.standard(1, k=1), 0)
    with pytest.raises(ValueError):
        mc_conf_proj_at(t, ProjFixedPoint(()))
    with pytest.raises(ValueError):
        TorusData.standard(0)


# ---------------------------------------------------------------------------
# The printed classes against their definitions, built in sympy
# ---------------------------------------------------------------------------

def _sympy_partition_sum(sp, k, weight, inside=lambda block: True):
    """sum over the set partitions P of [k] whose blocks all satisfy
    `inside` of a(P) prod_{B in P} weight(B), a(P) = prod (-1)^(|B|-1)
    (|B|-1)!, with sympy's own enumeration of set partitions."""
    from sympy.utilities.iterables import multiset_partitions
    total = 0
    for p in multiset_partitions(list(range(1, k + 1))):
        if all(inside(b) for b in p):
            total += sp.Mul(*[(-1) ** (len(b) - 1) * sp.factorial(len(b) - 1)
                              * weight(b) for b in p])
    return total


def _sympy_lambdas(sp, a, y, i):
    """lambda_y and lambda_{-1} of the cotangent space of projective space
    at the i-th (0-based) fixed point."""
    others = [x for j, x in enumerate(a) if j != i]
    return (sp.Mul(*[1 + y * a[i] / x for x in others]),
            sp.Mul(*[1 - a[i] / x for x in others]))


def _sympy_affine(sp, a, y, k):
    mcB = sp.Mul(*[1 + y / x for x in a])
    euTM = sp.Mul(*[1 - 1 / x for x in a])
    return _sympy_partition_sum(sp, k, lambda b: mcB * euTM ** (len(b) - 1))


def _sympy_proj(sp, a, y, iota):
    def weight(block):
        lam_y, lam_m1 = _sympy_lambdas(sp, a, y, iota[block[0] - 1] - 1)
        return lam_y * lam_m1 ** (len(block) - 1)

    # the refinements of the coincidence partition of iota
    return _sympy_partition_sum(sp, len(iota), weight, lambda block: len(
        {iota[i - 1] for i in block}) == 1)


def _sympy_orbit(sp, a, y, k):
    b = sp.symbols("b1:%d" % (k + 1))

    def psi(i, j, theta):
        return (1 + y) / theta if i == j else 1 - 1 / theta

    def weight(block):
        total = 0
        for i in range(len(a)):
            lam_y, lam_m1 = _sympy_lambdas(sp, a, y, i)
            total += lam_y / lam_m1 * sp.Mul(*[
                psi(i, j, b[c - 1] * x) for c in block
                for j, x in enumerate(a)])
        return total

    return _sympy_partition_sum(sp, k, weight)


SYMPY_DEFINITIONS = {"conf-affine": _sympy_affine, "conf-proj": _sympy_proj,
                     "orbit": _sympy_orbit}


@pytest.mark.parametrize("command,n,size", [
    ("conf-affine", 1, 3), ("conf-affine", 2, 3), ("conf-affine", 3, 2),
    ("conf-proj", 2, "1,1,2"), ("conf-proj", 3, "1,2,1"),
    ("orbit", 1, 3), ("orbit", 2, 2), ("orbit", 3, 1),
], ids=str)
def test_printed_class_matches_sympy_definition(command, n, size, capsys):
    # independent of laurent.py and of the package's partition code: the
    # JSON that the CLI prints, read into sympy, against the partition sum
    # that defines the class
    sp = pytest.importorskip("sympy")
    if command == "conf-proj":
        argv = [command, "--n", str(n), "--point", size]
        size = tuple(int(i) for i in size.split(","))
    else:
        argv = [command, "--n", str(n), "--k", str(size)]
    assert cli.main(argv + ["--output", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    names = {name: sp.Symbol(name) for name in blob["universe"]}

    def poly(terms):
        return sum(sp.Rational(t["coeff"]) * sp.Mul(*[
            names[v] ** e for v, e in t["exps"].items()]) for t in terms)

    a = sp.symbols("a1:%d" % (n + 1))
    want = sp.cancel(SYMPY_DEFINITIONS[command](sp, a, sp.Symbol("y"), size))
    assert sp.cancel(want - poly(blob["num"]) / poly(blob["den"])) == 0
