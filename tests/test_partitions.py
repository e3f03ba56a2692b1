"""Tests for set-partition enumeration and inclusion-exclusion coefficients."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from confchern.partitions import (SetPartition, block_size_sums,
                                  coefficient_a, coefficient_a_graph_oracle,
                                  enumerate_partitions, enumerate_refinements,
                                  partition_sum)
from oracles import (OrderedPartition, bell_number_oracle, connected_sum_b,
                     enumerate_ordered_partitions, parse_set_partition)


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])  # misses 3
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        SetPartition(2, [[1, 2], []])


def test_partition_canonical_order_and_parse():
    p = SetPartition(3, [[3], [2, 1]])
    assert str(p) == "1,2|3"
    assert parse_set_partition(3, "1,2|3") == p


def test_enumerate_k1():
    assert enumerate_partitions(1) == [SetPartition(1, [[1]])]


@pytest.mark.parametrize("k", range(1, 8))
def test_enumerate_counts_match_bell_oracle(k):
    parts = enumerate_partitions(k)
    assert len(parts) == bell_number_oracle(k)
    assert len(set(parts)) == len(parts)


@pytest.mark.parametrize("k", range(1, 8))
def test_enumerate_in_restricted_growth_string_order(k):
    # strings s over [k] with s[0] = 0 and s[i] <= max(s[:i]) + 1, read
    # from all k-tuples in lexicographic order; block j holds the positions
    # of value j
    strings = [s for s in product(range(k), repeat=k)
               if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(k))]
    want = [SetPartition(k, [[i + 1 for i in range(k) if s[i] == j]
                             for j in range(max(s) + 1)]) for s in strings]
    assert enumerate_partitions(k) == want


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(13)
    with pytest.raises(ValueError):
        enumerate_partitions(0)


def test_ordered_counts():
    assert len(enumerate_ordered_partitions(1)) == 1
    assert len(enumerate_ordered_partitions(2)) == 3
    assert len(enumerate_ordered_partitions(3)) == 13


def test_ordered_k2_contents():
    got = set(enumerate_ordered_partitions(2))
    want = {OrderedPartition(2, [(1, 2)]),
            OrderedPartition(2, [(1,), (2,)]),
            OrderedPartition(2, [(2,), (1,)])}
    assert got == want


@pytest.mark.parametrize("k", range(1, 7))
def test_ordered_count_equals_partition_factorial_sum(k):
    want = sum(math.factorial(len(p)) for p in enumerate_partitions(k))
    assert len(enumerate_ordered_partitions(k)) == want


def test_coefficient_a_examples():
    assert coefficient_a(parse_set_partition(3, "1|2|3")) == 1
    assert coefficient_a(parse_set_partition(3, "1,2|3")) == -1
    assert coefficient_a(parse_set_partition(3, "1,2,3")) == 2


def test_graph_oracle_examples():
    assert coefficient_a_graph_oracle(parse_set_partition(2, "1|2")) == 1
    assert coefficient_a_graph_oracle(parse_set_partition(2, "1,2")) == -1
    # 3 spanning trees (+1 each) and the triangle (-1)
    assert coefficient_a_graph_oracle(parse_set_partition(3, "1,2,3")) == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_coefficient_matches_graph_oracle_exhaustive(k):
    for p in enumerate_partitions(k):
        assert coefficient_a(p) == coefficient_a_graph_oracle(p)


@pytest.mark.parametrize("k", range(1, 9))
def test_enumerated_partitions_are_canonical(k):
    # enumerate_partitions builds its partitions without validation; each
    # must be the partition that validation builds from its own blocks
    for p in enumerate_partitions(k):
        want = SetPartition(k, p.blocks)
        assert p == want and hash(p) == hash(want)
        assert type(p.blocks) is tuple
        assert all(type(b) is tuple for b in p.blocks)


def test_graph_oracle_cap():
    with pytest.raises(ValueError):
        coefficient_a_graph_oracle(SetPartition(7, [[i] for i in range(1, 8)]))


def test_connected_sum_values():
    assert connected_sum_b(1) == 1
    assert connected_sum_b(2) == -1
    assert connected_sum_b(4) == -6


@pytest.mark.parametrize("k", range(1, 9))
def test_connected_sum_closed_form(k):
    assert connected_sum_b(k) == Fraction((-1) ** (k - 1) * math.factorial(k - 1))


def test_partition_sum_weighs_each_block_once():
    # the 15 partitions of [4] hold 37 blocks, of 15 distinct ones
    calls = []

    def weight(block):
        calls.append(block)
        return Fraction(len(block))

    p0 = SetPartition(4, [range(1, 5)])
    want = sum(coefficient_a(p) * math.prod(len(b) for b in p.blocks)
               for p in enumerate_partitions(4))
    assert partition_sum(p0, weight, Fraction(1)) == want
    assert len(calls) == len(set(calls)) == 15


def test_block_size_sums_match_the_partition_sum():
    # distinct primes as the block-size weights, so that no two products of
    # weights coincide by accident: S_m is the sum over the partitions of [m]
    xs = [Fraction(p) for p in (2, 3, 5, 7, 11, 13, 17)]
    sums = block_size_sums(xs, Fraction(1))
    assert sums[0] == 1 and len(sums) == len(xs) + 1
    for m in range(1, len(xs) + 1):
        want = partition_sum(SetPartition(m, [range(1, m + 1)]),
                             lambda block: xs[len(block) - 1], Fraction(1))
        assert sums[m] == want
    assert block_size_sums([], Fraction(1)) == [1]


def test_refinements_examples():
    singletons = parse_set_partition(3, "1|2|3")
    assert enumerate_refinements(singletons) == [singletons]

    full = parse_set_partition(3, "1,2,3")
    assert enumerate_refinements(full) == enumerate_partitions(3)

    p0 = parse_set_partition(3, "1,2|3")
    got = set(enumerate_refinements(p0))
    assert got == {p0, singletons}


@pytest.mark.parametrize("k", range(1, 6))
def test_refinements_are_the_refining_partitions(k):
    # every p0 with k <= 5: the refinements are exactly the partitions of
    # [k] whose blocks each lie in a block of p0, in no repeated order
    partitions = enumerate_partitions(k)
    for p0 in partitions:
        inside = {i: set(b) for b in p0.blocks for i in b}
        want = [p for p in partitions
                if all(set(b) <= inside[b[0]] for b in p.blocks)]
        got = enumerate_refinements(p0)
        assert len(got) == len(set(got))
        assert set(got) == set(want)


@pytest.mark.parametrize("k", range(1, 7))
def test_block_size_profile_counts(k):
    # number of partitions with block sizes λ is k! / prod_i (i!)^n_i n_i!
    profiles = Counter(tuple(sorted(len(b) for b in p.blocks))
                       for p in enumerate_partitions(k))
    for profile, count in profiles.items():
        mult = Counter(profile)
        want = math.factorial(k)
        for size, n_i in mult.items():
            want //= math.factorial(size) ** n_i * math.factorial(n_i)
        assert count == want
