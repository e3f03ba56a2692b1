"""Independent oracles and parsers that only the tests use.

The package ships what its CLI, its benchmark and its public API call; the
slower or test-only counterparts the tests check it against live here.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import List

from confchern.laurent import LaurentPoly, VarUniverse
from confchern.partitions import SetPartition

ORDERED_CAP = 9


def parse_set_partition(k: int, text: str) -> SetPartition:
    """Parse the text form of a set partition, such as "1,2|3"."""
    blocks = [[int(x) for x in chunk.split(",")] for chunk in text.split("|")]
    return SetPartition(k, blocks)


def parse_laurent_poly(universe: VarUniverse, text: str) -> LaurentPoly:
    """Parse the canonical text form produced by LaurentPoly.__str__."""
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(universe)
    acc = LaurentPoly.zero(universe)
    for chunk in text.split(" + "):
        factors = [f.strip() for f in chunk.split("*")]
        coeff = Fraction(factors[0])
        exps = {}
        for f in factors[1:]:
            if "^" in f:
                name, e = f.split("^")
                exps[name.strip()] = int(e)
            else:
                exps[f] = 1
        acc = acc + LaurentPoly.monomial(universe, exps, coeff)
    return acc


class OrderedPartition:
    """Sequence of nonempty disjoint blocks covering {1..k}; order matters."""

    __slots__ = ("k", "blocks")

    def __init__(self, k: int, blocks):
        SetPartition(k, blocks)  # validates coverage/disjointness
        self.k = k
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)

    def __eq__(self, other):
        return (isinstance(other, OrderedPartition)
                and self.k == other.k and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.k, self.blocks))

    def __str__(self):
        return ";".join(",".join(str(i) for i in b) for b in self.blocks)

    __repr__ = __str__


def enumerate_ordered_partitions(k: int) -> List[OrderedPartition]:
    """All ordered partitions of [k]; count is the ordered Bell number."""
    if not 1 <= k <= ORDERED_CAP:
        raise ValueError("k must be in 1..%d, got %d" % (ORDERED_CAP, k))
    out = []

    def grow(remaining, prefix):
        if not remaining:
            out.append(OrderedPartition(k, prefix))
            return
        rest = sorted(remaining)
        for r in range(1, len(rest) + 1):
            for block in combinations(rest, r):
                grow(remaining - set(block), prefix + [block])

    grow(set(range(1, k + 1)), [])
    return out


def connected_sum_b(k: int) -> Fraction:
    """Signed graph count over connected graphs on [k], computed by the
    split-at-one-edge recursion (choose which of the k-2 remaining vertices
    stay with vertex 1).  Equals (-1)^(k-1)(k-1)!."""
    if k < 1:
        raise ValueError("k must be positive")
    b = [None, Fraction(1)]
    for m in range(2, k + 1):
        total = Fraction(0)
        for i in range(1, m):
            total += math.comb(m - 2, i - 1) * b[i] * b[m - i]
        b.append(-total)
    return b[k]


def bell_number_oracle(n: int) -> int:
    """Bell numbers via the recurrence B(n+1) = sum C(n,i) B(i)."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, i) * b[i] for i in range(m + 1)))
    return b[n]
