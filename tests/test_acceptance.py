"""Acceptance gate: the twelve exactness criteria, each with a single
pass/fail line and, where stated, a wall-clock budget.

Every comparison is an exact rational-function equality; there are no
numeric tolerances anywhere.
"""

import time
from fractions import Fraction
from itertools import product

from confchern.classes import (ProjFixedPoint, TorusData,
                               mc_conf_proj_recursion,
                               mc_conf_proj_refinement_sum, mc_line_classes,
                               mc_orbit_conf)
from confchern.laurent import VarUniverse
from confchern.limits import (check_bb_stability, lambda_quotient_sweep,
                              run_limit_property_suite)
from confchern.partitions import (coefficient_a, coefficient_a_graph_oracle,
                                  enumerate_partitions)
from confchern.series import (TruncSeries, check_orbit_full_series,
                              check_orbit_series, check_partition_exp_identity,
                              check_point_series, check_point_series_ambient,
                              check_residue_form, orbit_full_series,
                              orbit_series_sides)
from oracles import enumerate_ordered_partitions


def report(name, ok, elapsed=None, budget=None):
    stamp = "" if elapsed is None else " (%.2fs, budget %ds)" % (elapsed, budget)
    print("%s: %s%s" % (name, "PASS" if ok else "FAIL", stamp))
    assert ok, name
    if budget is not None:
        assert elapsed < budget, "%s exceeded %ds budget" % (name, budget)


def test_01_partition_coefficient_vs_graph_oracle():
    start = time.monotonic()
    ok = all(coefficient_a(p) == coefficient_a_graph_oracle(p)
             for k in range(1, 6) for p in enumerate_partitions(k))
    report("01 closed-form a(P) equals graph-sum oracle, k <= 5",
           ok, time.monotonic() - start, 5)


def test_02_three_point_inclusion_exclusion_coefficients():
    values = sorted(coefficient_a(p) for p in enumerate_partitions(3))
    ok = values == [-1, -1, -1, 1, 2]
    report("02 three-point coefficients are +1, -1 x3, +2", ok)


def test_03_ordered_partition_counts():
    ok = [len(enumerate_ordered_partitions(k)) for k in (1, 2, 3)] == [1, 3, 13]
    report("03 ordered-partition counts 1, 3, 13", ok)


def test_04_line_class_triple_additivity():
    u = VarUniverse(("a1", "y"))
    from confchern.laurent import RatFunc
    a = RatFunc.var(u, "a1")
    origin, line, punctured = mc_line_classes(a)
    y = RatFunc.var(u, "y")
    ok = (origin == 1 - 1 / a and line == 1 + y / a
          and punctured == (1 + y) / a
          and line - origin == punctured)
    report("04 line/origin/punctured classes with additivity", ok)


def test_05_free_variable_exp_identity():
    start = time.monotonic()
    ok = check_partition_exp_identity(6)
    report("05 free-variable partition-exp identity to order 6",
           ok, time.monotonic() - start, 30)


def test_06_point_series_identities():
    start = time.monotonic()
    ok = check_point_series(5) and check_point_series_ambient(5)
    report("06 point-data series (one and two free symbols) to order 5",
           ok, time.monotonic() - start, 10)


def test_07_orbit_series_identity():
    start = time.monotonic()
    ok = check_orbit_series(2, 3) and check_orbit_series(3, 2)
    report("07 orbit-space series for n=2 order 3 and n=3 order 2",
           ok, time.monotonic() - start, 60)


def test_08_residue_suite():
    ok = check_residue_form([Fraction(2), Fraction(3)], 3)
    report("08 residue bookkeeping at alpha=(2,3), orders <= 3", ok)


def test_09_recursion_vs_direct():
    ok = True
    for n in (1, 2, 3):
        t = TorusData.standard(n)
        for k1 in (1, 2, 3):
            for iota in product(range(1, n + 1), repeat=k1):
                e = ProjFixedPoint(iota)
                ok &= (mc_conf_proj_recursion(t, e)
                       == mc_conf_proj_refinement_sum(t, e))
    report("09 one-point recursion equals the refinement-sum definition, "
           "n <= 3, k <= 3", ok)


def test_10_limit_stability():
    ok = all(check_bb_stability(n, k)
             for n in (2, 3, 4) for k in (1, 2, 3))
    report("10 attracting-limit stability, n in 2..4, k <= 3", ok)


def test_11_limit_map_properties():
    failures, count = run_limit_property_suite(seed=0, count=200)
    sweep_ok = all(lim == want for _, lim, want in lambda_quotient_sweep())
    ok = failures == 0 and count >= 200 and sweep_ok
    report("11 limit-map property suite (200 seeded) and weight-sign sweep",
           ok)


def test_12_orbit_space_consistency():
    ok = True
    # k=1 additivity at trivial scaling weights
    for n in (1, 2, 3):
        t = TorusData.standard(n, k=1)
        got = mc_orbit_conf(t, 1).substitute({"b1": 1})
        lam = t.one()
        eu = t.one()
        for j in range(1, n + 1):
            lam = lam * (1 + t.y / t.a(j))
            eu = eu * (1 - 1 / t.a(j))
        ok &= got == lam - eu
    # vanishing-allowed series consistency, k <= 2 and n <= 2: the series
    # equals (1+t)*f; the t*f' reading is provably off by k*(m_k - m_{k-1})
    # and is pinned as false below
    for n in (1, 2):
        ok &= check_orbit_full_series(n, 2)
    f, _ = orbit_series_sides(1, 2)
    derivative_form = TruncSeries(f.universe, 2,
                                  [(1 + u) * c for u, c in enumerate(f.coeffs)])
    ok &= orbit_full_series(1, 2) != derivative_form
    report("12 orbit-space consistency oracles (additivity and series)", ok)
