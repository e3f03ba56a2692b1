"""Independent oracles and parsers that only the tests use.

The package ships what its CLI, its benchmark and its public API call; the
slower or test-only counterparts the tests check it against live here.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import List

from confchern.classes import euler_reciprocal, mc_orbit_conf
from confchern.laurent import LaurentPoly, RatFunc, VarUniverse
from confchern.partitions import SetPartition, partition_sum
from confchern.series import TruncSeries

ORDERED_CAP = 9


def exp_by_powers(f):
    """exp of a truncated series f with zero constant term as the sum of
    its powers, sum_m f^m / m!: O(N^3) coefficient products, against
    which `TruncSeries.exp` and its recurrence are checked."""
    result = TruncSeries.const(f.universe, f.order, 1)
    power = TruncSeries.const(f.universe, f.order, 1)
    for m in range(1, f.order + 1):
        power = power * f
        result = result + Fraction(1, math.factorial(m)) * power
    return result


def log1p_by_powers(f):
    """log(1 + f) of a truncated series f with zero constant term as the
    sum of its powers, sum_m (-1)^(m-1) f^m / m."""
    result = TruncSeries.const(f.universe, f.order, 0)
    power = TruncSeries.const(f.universe, f.order, 1)
    for m in range(1, f.order + 1):
        power = power * f
        result = result + Fraction((-1) ** (m - 1), m) * power
    return result


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


class DictPoly:
    """Laurent polynomial by its definition: a dict from exponent tuples to
    nonzero Fractions, with schoolbook arithmetic.  It is the reference for
    LaurentPoly's integer numerators on packed keys."""

    def __init__(self, universe: VarUniverse, terms):
        self.universe = universe
        self.terms = {tuple(e): Fraction(c) for e, c in dict(terms).items()
                      if c}

    @classmethod
    def of(cls, p: LaurentPoly) -> "DictPoly":
        return cls(p.universe, p.terms)

    def _collect(self, pairs) -> "DictPoly":
        acc = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return DictPoly(self.universe, acc)

    def __eq__(self, other) -> bool:
        return self.universe == other.universe and self.terms == other.terms

    def __add__(self, other):
        return self._collect(list(self.terms.items())
                             + list(other.terms.items()))

    def __neg__(self):
        return DictPoly(self.universe, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self._collect((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                             for e1, c1 in self.terms.items()
                             for e2, c2 in other.terms.items())

    def __pow__(self, k: int):
        result = DictPoly(self.universe, {(0,) * len(self.universe): 1})
        for _ in range(k):
            result = result * self
        return result

    def shift(self, vec):
        return DictPoly(self.universe, {
            tuple(x + y for x, y in zip(e, vec)): c
            for e, c in self.terms.items()})

    def min_exp(self, i: int) -> int:
        return min((e[i] for e in self.terms), default=0)

    def coeff_of(self, i: int, power: int):
        return DictPoly(self.universe, {e[:i] + (0,) + e[i + 1:]: c
                                        for e, c in self.terms.items()
                                        if e[i] == power})

    def translate(self, i: int, c: Fraction):
        """x_i -> x_i + c, term by term by the binomial theorem."""
        return self._collect((e[:i] + (j,) + e[i + 1:],
                              coeff * math.comb(e[i], j) * c ** (e[i] - j))
                             for e, coeff in self.terms.items()
                             for j in range(e[i] + 1))

    def substitute(self, images):
        """images: variable index -> (c, exponent tuple), x_i -> c x^exps."""
        pairs = []
        for e, coeff in self.terms.items():
            vec = list(e)
            for i, (c, mono) in images.items():
                vec[i] -= e[i]
                coeff *= Fraction(c) ** e[i]
                vec = [v + m * e[i] for v, m in zip(vec, mono)]
            pairs.append((tuple(vec), coeff))
        return self._collect(pairs)

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def to_laurent(self) -> LaurentPoly:
        """The LaurentPoly constructor's storage of these terms in
        descending order: keys in order, the least common denominator and
        bound max |exponent|."""
        return LaurentPoly(self.universe, dict(self.sorted_terms()))

    def __str__(self) -> str:
        parts = []
        for e, c in self.sorted_terms():
            parts.append(" * ".join(
                [str(c)] + [name if x == 1 else "%s^%d" % (name, x)
                            for name, x in zip(self.universe.names, e) if x]))
        return " + ".join(parts) or "0"

    def exact_div(self, f: "DictPoly"):
        """Quotient by f in the Laurent ring, or None: both operands shifted
        to minimum exponents 0 and divided over Q by lex-leading terms, a
        miss once a quotient exponent goes negative."""
        if not self.terms:
            return self
        n = len(self.universe)
        p_low = [min(e[i] for e in self.terms) for i in range(n)]
        f_low = [min(e[i] for e in f.terms) for i in range(n)]
        rem = self.shift([-x for x in p_low]).terms
        f0 = f.shift([-x for x in f_low]).terms
        lead = max(f0)
        quot = {}
        while rem:
            top = max(rem)
            q = tuple(a - b for a, b in zip(top, lead))
            if min(q, default=0) < 0:
                return None
            quot[q] = rem[top] / f0[lead]
            step = DictPoly(self.universe, {q: quot[q]}) * f
            rem = (DictPoly(self.universe, rem)
                   - step.shift([-x for x in f_low])).terms
        return DictPoly(self.universe, quot).shift(
            [a - b for a, b in zip(p_low, f_low)])


def lambda_quotient_fold(summands) -> RatFunc:
    """The lambda_y / lambda_{-1} quotient of `limits.lambda_quotient` by
    its definition: a RatFunc product of (1 + y w) / (1 - w) with
    w = base * s^omega, each factor inverted and trial-divided."""
    universe = summands[0].base.universe
    y = RatFunc.var(universe, "y")
    num = RatFunc.const(universe, 1)
    den = RatFunc.const(universe, 1)
    for sm in summands:
        w = sm.base * RatFunc.var(universe, "s", sm.omega)
        num = num * (1 + y * w) ** sm.multiplicity
        den = den * (1 - w) ** sm.multiplicity
    return num / den


def ratfunc_storage(f: RatFunc):
    """Everything a RatFunc holds, in order: numerator keys, denominators,
    bounds, and each factor's storage in factor order with its power."""
    def poly(p):
        return list(p._coeffs.items()), p._denom, p._bound
    return poly(f.num), [(poly(g), power) for g, power in f._factors.items()]


def ratfunc_image(f: RatFunc):
    """The value a RatFunc stores, apart from key order and bounds: the
    numerator terms as a set over its denominator, and the multiset of
    factors, each as its term set and denominator.  This is the image
    `Case.fingerprint` of the benchmark takes."""
    def poly(p):
        return frozenset(p._coeffs.items()), p._denom
    return poly(f.num), frozenset((poly(g), power)
                                  for g, power in f._factors.items())


def line_classes_by_arithmetic(w: RatFunc):
    """`classes.mc_line_classes` by Laurent arithmetic on the one inverse
    m of the unit w: 1 - m, y m + 1 and their difference (1 + y) m, each a
    RatFunc without factors."""
    inv = w.inverse().num
    origin = LaurentPoly.const(w.universe, 1) - inv
    line = LaurentPoly.var(w.universe, "y") * inv + 1
    return RatFunc(origin), RatFunc(line), RatFunc(line - origin)


def normalized_den_by_tuples(den: LaurentPoly):
    """What `RatFunc(1, den)` stores, built from den's exponent tuples:
    the numerator X^-low / c and the factor den X^-low / c, with low the
    least exponent of each variable and c the coefficient of the
    lex-leading tuple, through the general LaurentPoly constructor."""
    terms = den.terms
    low = [min(e[i] for e in terms) for i in range(len(den.universe))]
    c = terms[max(terms)]
    num = LaurentPoly(den.universe, {tuple(-x for x in low): 1 / c})
    factor = LaurentPoly(den.universe, {
        tuple(x - m for x, m in zip(e, low)): a / c
        for e, a in terms.items()})
    return num, factor


def proj_tangent_weights_by_division(t, i: int) -> list:
    """`classes.proj_tangent_weights` by RatFunc division: a_j / a_i."""
    return [t.a(j) / t.a(i) for j in range(1, t.n + 1) if j != i]


def lambda_classes_by_products(t, weights):
    """`classes.lambda_classes` as two chains of RatFunc products, each
    reduced after every step."""
    lam_y = lam_m1 = t.one()
    for w in weights:
        origin, line, _ = line_classes_by_arithmetic(w)
        lam_y = lam_y * line
        lam_m1 = lam_m1 * origin
    return lam_y, lam_m1


def euler_reciprocal_by_division(t, weights) -> RatFunc:
    """`classes.euler_reciprocal` by RatFunc division, one origin class
    inverted and trial-divided at a time."""
    acc = t.one()
    for w in weights:
        acc = acc / line_classes_by_arithmetic(w)[0]
    return acc


def fixed_point_factor_by_division(t, i: int) -> RatFunc:
    """`classes.fixed_point_factor` as the chain acc * line / origin over
    the weights a_j/a_i, each step inverted and trial-divided."""
    acc = t.one()
    for w in proj_tangent_weights_by_division(t, i):
        origin, line, _ = line_classes_by_arithmetic(w)
        acc = acc * line / origin
    return acc


def residue_weights_by_division(universe, alphas) -> RatFunc:
    """`series._residue_weights` by RatFunc division: the product over the
    poles a of (1 + y z/a)/(1 - z/a), each factor inverted and
    trial-divided."""
    y = RatFunc.var(universe, "y")
    z = RatFunc.var(universe, "z")
    weights = RatFunc.const(universe, 1)
    for a in alphas:
        weights = weights * (1 + y * z / a) / (1 - z / a)
    return weights


def residue_form_factor_by_division(universe, alphas, u: int) -> RatFunc:
    """`series.residue_form_factor` by RatFunc division:
    (-1)^(u-1)/u (1+y)^(u-1) / (z (z-1)^u) times
    `residue_weights_by_division`."""
    y = RatFunc.var(universe, "y")
    z = RatFunc.var(universe, "z")
    core = Fraction((-1) ** (u - 1), u) * (1 + y) ** (u - 1) \
        / (z * (z - 1) ** u)
    return core * residue_weights_by_division(universe, alphas)


def weight_pole_lambda(universe, alphas, a) -> RatFunc:
    """lam_a = prod_{b != a} (1 + (a/b) y)/(1 - a/b), lambda_y over
    lambda_{-1} at the weight pole a of the residue form."""
    y = RatFunc.var(universe, "y")
    lam = RatFunc.const(universe, 1)
    for b in alphas:
        if b != a:
            lam = lam * (1 + (a / b) * y) / (1 - a / b)
    return lam


def weight_pole_c(universe, a) -> RatFunc:
    """c_a = (1+y)/(a-1), the punctured line class over the origin class at
    the constant weight a."""
    return (1 + RatFunc.var(universe, "y")) / (a - 1)


def weight_pole_exponent(universe, alphas, u: int) -> RatFunc:
    """The t^u coefficient of the orbit series exponent at the constant
    weights alphas, sum_a (-1)^(u-1)/u c_a^u lam_a."""
    return sum((Fraction((-1) ** (u - 1), u) * weight_pole_c(universe, a) ** u
                * weight_pole_lambda(universe, alphas, a) for a in alphas),
               RatFunc.const(universe, 0))


def euler_point_beta(t, k: int) -> RatFunc:
    """Euler class of the origin in (C^n)^k with weights b_a * a_j,
    expanded: prod_{a, j} (1 - 1/(b_a a_j))."""
    acc = t.one()
    for a in range(1, k + 1):
        for j in range(1, t.n + 1):
            acc = acc * (1 - 1 / (t.b(a) * t.a(j)))
    return acc


def mc_orbit_conf_pairwise(t, k: int) -> RatFunc:
    """`classes.mc_orbit_conf` with each block weight summed pairwise over
    the fixed points: every partial sum L_1 Psi_1(B) + ... + L_i Psi_i(B)
    carries the factors of L_1..L_i and is trial-divided by them."""
    lead = []
    psis = []
    for i in range(1, t.n + 1):
        prod = t.one()
        for j in range(1, t.n + 1):
            if j != i:
                prod = prod * (1 + t.y * t.a(i) / t.a(j)) \
                            / (1 - t.a(i) / t.a(j))
        lead.append(prod)
        row = {}
        for a in range(1, k + 1):
            acc = t.one()
            for j in range(1, t.n + 1):
                # psi_ij(theta): (1+y)/theta at j = i, else 1 - 1/theta
                theta = t.b(a) * t.a(j)
                acc = acc * ((1 + t.y) / theta if j == i else 1 - 1 / theta)
            row[a] = acc
        psis.append(row)

    def weight(block):
        acc = RatFunc.const(t.universe, 0)
        for prod, row in zip(lead, psis):
            for a in block:
                prod = prod * row[a]
            acc = acc + prod
        return acc

    return partition_sum(SetPartition(k, [range(1, k + 1)]), weight, t.one())


def mc_orbit_full_expanded(t, k: int) -> RatFunc:
    """`classes.mc_orbit_full` over the expanded Euler classes: each part
    is divided by one factor, the product `euler_point_beta`."""
    main = mc_orbit_conf_pairwise(t, k) / euler_point_beta(t, k)
    if k == 1:
        prev = t.one()
    else:
        prev = mc_orbit_conf_pairwise(t, k - 1) / euler_point_beta(t, k - 1)
    return main + k * prev


def mc_orbit_full_composed(t, k: int) -> RatFunc:
    """`classes.mc_orbit_full` composed from its parts, each built on its
    own: mc_orbit_conf at k and at k - 1, times the reciprocal Euler
    classes over the weights W = (b_a a_j) of k points and of the first
    k - 1."""
    weights = [t.b(a) * t.a(j) for a in range(1, k + 1)
               for j in range(1, t.n + 1)]
    main = mc_orbit_conf(t, k) * euler_reciprocal(t, weights)
    if k == 1:
        prev = t.one()
    else:
        prev = mc_orbit_conf(t, k - 1) * euler_reciprocal(t, weights[:-t.n])
    return main + k * prev


def orbit_coefficient_expanded(t, k: int) -> RatFunc:
    """The k-th coefficient of `series.orbit_series` (up to 1/k!) over the
    expanded Euler class: mc_orbit_conf at unit scaling weights divided by
    prod_j (1 - 1/a_j)^k."""
    ones = {name: 1 for name in t.beta}
    euler = t.one()
    for j in range(1, t.n + 1):
        euler = euler * (1 - 1 / t.a(j))
    return mc_orbit_conf_pairwise(t, k).substitute(ones) / euler ** k


def over_common_den_pair(f: RatFunc, g: RatFunc):
    """Both numerators over the least common multiset of the two operands'
    factors, and that multiset: the two-operand form that `+`, `-` and `==`
    once used."""
    merged = dict(f._factors)
    for h, power in g._factors.items():
        if merged.get(h, 0) < power:
            merged[h] = power
    left, right = f.num, g.num
    for h, power in merged.items():
        extra = power - f._factors.get(h, 0)
        if extra:
            left = left * h ** extra
        extra = power - g._factors.get(h, 0)
        if extra:
            right = right * h ** extra
    return left, right, merged


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
