"""Set partitions of {1..k}: enumeration, inclusion-exclusion coefficients,
refinements and the partition-sum kernel."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import List

PARTITION_CAP = 12
GRAPH_ORACLE_CAP = 6


class SetPartition:
    """Partition of {1..k} into blocks, stored sorted by least element."""

    __slots__ = ("k", "blocks")

    def __init__(self, k: int, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            seen.update(b)
        total = sum(len(b) for b in blocks)
        if total != len(seen) or seen != set(range(1, k + 1)):
            raise ValueError("blocks must partition {1..%d}" % k)
        self.k = k
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))

    @classmethod
    def _make(cls, k: int, blocks: tuple) -> "SetPartition":
        """Trusted constructor for blocks that are already canonical: a
        tuple of sorted tuples, ordered by least element."""
        self = object.__new__(cls)
        self.k = k
        self.blocks = blocks
        return self

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.k == other.k and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.k, self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __str__(self):
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)

    __repr__ = __str__


def enumerate_partitions(k: int) -> List[SetPartition]:
    """All set partitions of [k] in restricted-growth-string order.  Those
    of [x] come from those of [x-1]: x joins each block in turn, then opens
    a new one, which appends 0, 1, ... to each string, keeping the order."""
    if not 1 <= k <= PARTITION_CAP:
        raise ValueError("k must be in 1..%d, got %d" % (PARTITION_CAP, k))
    out = [((1,),)]
    for x in range(2, k + 1):
        out = [blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:]
               if i < len(blocks) else blocks + ((x,),)
               for blocks in out for i in range(len(blocks) + 1)]
    # the blocks are canonical as built: x only ever joins a block after
    # its smaller elements, and a new block opens last
    make = SetPartition._make
    for i, blocks in enumerate(out):
        out[i] = make(k, blocks)
    return out


def coefficient_a(p: SetPartition) -> Fraction:
    """Inclusion-exclusion coefficient: product over blocks of
    (-1)^(size-1) * (size-1)!."""
    val = 1
    for b in p.blocks:
        s = len(b)
        val *= (-1) ** (s - 1) * math.factorial(s - 1)
    return Fraction(val)


def _component_partition(k: int, edges) -> SetPartition:
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps = {}
    for i in range(1, k + 1):
        comps.setdefault(find(i), []).append(i)
    return SetPartition(k, comps.values())


def coefficient_a_graph_oracle(p: SetPartition) -> Fraction:
    """Signed sum over all graphs on [k] whose connected components induce
    exactly the given partition.  Exponential in k; test oracle only."""
    k = p.k
    if k > GRAPH_ORACLE_CAP:
        raise ValueError("graph oracle capped at k <= %d" % GRAPH_ORACLE_CAP)
    # a graph with an edge between two blocks of p joins them into one
    # component, so only graphs on the pairs inside the blocks can count;
    # the component test still drops those that leave a block split
    all_edges = [e for b in p.blocks for e in combinations(b, 2)]
    total = 0
    for r in range(len(all_edges) + 1):
        for edges in combinations(all_edges, r):
            if _component_partition(k, edges) == p:
                total += (-1) ** r
    return Fraction(total)


def enumerate_refinements(p0: SetPartition) -> List[SetPartition]:
    """All partitions of [k] each of whose blocks lies inside a block of p0."""
    if len(p0) == 1:
        return enumerate_partitions(p0.k)
    # each block's partitions, relabelled onto the block's own elements
    per_block = [[[tuple(b[i - 1] for i in qb) for qb in q.blocks]
                  for q in enumerate_partitions(len(b))]
                 for b in p0.blocks]
    return [SetPartition(p0.k, [blk for sub in choice for blk in sub])
            for choice in product(*per_block)]


def block_size_sums(xs, one) -> list:
    """S_0..S_N with S_m = sum_P a(P) prod_{B in P} x_|B|, P running over
    the set partitions of [m], for the block-size weights xs = x_1..x_N in
    the ring with unit `one`: `partition_sum` over [m] at a block weight
    that depends only on the block size, in O(N^2) products.

    S_m is summed by the block that holds the point m (the exponential
    formula's proof, Stanley EC2 5.1): C(m-1, j-1) blocks of size j hold
    it, each with a(B) = (-1)^(j-1) (j-1)!, and a is multiplicative over
    blocks, so S_m = sum_j (-1)^(j-1) (m-1)!/(m-j)! x_j S_{m-j}, S_0 = 1."""
    sums = [one]
    for m in range(1, len(xs) + 1):
        total = 0 * one
        for j in range(1, m + 1):
            a_sum = (-1) ** (j - 1) * math.perm(m - 1, j - 1)
            total = total + xs[j - 1] * sums[m - j] * a_sum
        sums.append(total)
    return sums


def partition_sum(p0: SetPartition, block_weight, one):
    """Sum over the refinements P of p0 of a(P) * prod_{B in P} w(B), where
    w = `block_weight` maps a block (a sorted tuple) into the ring with unit
    `one`.  For the one-block p0 this runs over all set partitions of [k].
    Each distinct block's weight is computed once."""
    total = 0 * one
    weights = {}
    for p in enumerate_refinements(p0):
        term = one * coefficient_a(p)
        for block in p.blocks:
            if block not in weights:
                weights[block] = block_weight(block)
            term = term * weights[block]
        total = total + term
    return total

