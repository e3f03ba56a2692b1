"""Localized equivariant class computations for configuration spaces.

Everything is expressed over a shared variable universe holding the torus
weight names (a1..an, optionally b1..bk) and the class parameter y.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Sequence

from .laurent import LaurentPoly, RatFunc, VarUniverse
from .partitions import SetPartition, block_size_sums, partition_sum


def standard_universe(n: int, k: int = 0) -> VarUniverse:
    names = ["a%d" % i for i in range(1, n + 1)]
    names += ["b%d" % a for a in range(1, k + 1)]
    names.append("y")
    return VarUniverse(names)


class TorusData:
    """Weight names of the diagonal torus on C^n, plus optional per-point
    scaling weights.  Without scaling-weight names it is the torus T^n
    alone, acting on every point through the same weights a_j: each b_a
    is 1."""

    __slots__ = ("universe", "alpha", "beta")

    def __init__(self, universe: VarUniverse, alpha: Sequence[str],
                 beta: Sequence[str] = ()):
        names = tuple(alpha) + tuple(beta)
        if len(set(names)) != len(names):
            raise ValueError("alpha and beta names must be distinct, got %r"
                             % (names,))
        # "y" is the class parameter, not a torus weight
        if "y" in names:
            raise ValueError("'y' cannot be a weight name")
        for name in names:
            universe.index(name)
        self.universe, self.alpha, self.beta = universe, alpha, beta

    @classmethod
    def standard(cls, n: int, k: int = 0) -> "TorusData":
        if n < 1:
            raise ValueError("n must be at least 1, got %d" % n)
        u = standard_universe(n, k)
        return cls(u, u.names[:n], u.names[n:n + k])

    @property
    def n(self) -> int:
        return len(self.alpha)

    def a(self, i: int) -> RatFunc:
        return RatFunc.var(self.universe, self.alpha[i - 1])

    def b(self, a: int) -> RatFunc:
        """The scaling weight of the a-th point, 1 over T^n alone."""
        if not self.beta:
            return self.one()
        return RatFunc.var(self.universe, self.beta[a - 1])

    def point_weight(self, a: int, j: int) -> RatFunc:
        """The weight b_a a_j of the j-th coordinate at the a-th point,
        stored as the product `b(a) * a(j)` stores it: a_j alone over T^n,
        where b_a is 1."""
        exps = {self.alpha[j - 1]: 1}
        if self.beta:
            exps[self.beta[a - 1]] = 1
        return RatFunc(LaurentPoly.character(self.universe, exps))

    @property
    def y(self) -> RatFunc:
        return RatFunc.var(self.universe, "y")

    def one(self) -> RatFunc:
        return RatFunc.const(self.universe, 1)


class ProjFixedPoint:
    """Fixed point of projective space to the k-th power: a tuple of
    coordinate-axis indices."""

    __slots__ = ("iota",)

    def __init__(self, iota: Sequence[int]):
        # the class at an empty point would be the empty product, 1
        if not iota or any(i < 1 for i in iota):
            raise ValueError("a fixed point is a nonempty tuple of 1-based "
                             "indices")
        self.iota = iota

    @property
    def k(self) -> int:
        return len(self.iota)

    def induced_partition(self) -> SetPartition:
        groups = {}
        for pos, idx in enumerate(self.iota, start=1):
            groups.setdefault(idx, []).append(pos)
        return SetPartition(self.k, groups.values())


def mc_line_classes(w: RatFunc):
    """Classes of the origin, the line and the punctured line in the
    one-dimensional representation of monomial weight w.

    Returns (origin, line, punctured) = (1 - 1/w, 1 + y/w, (1+y)/w), the
    last as line - origin.  Every local class below is built from these,
    over the weights of a tangent space.  None of the three has a
    denominator factor: each is read from the one key and coefficient of
    the inverse of w (`RatFunc.line_classes`), with no Laurent sum, no lift
    over factors and no trial division."""
    if not w.is_unit():
        raise ValueError("a line class needs a monomial weight, got %s" % w)
    return w.inverse().line_classes("y")


def _origin_reciprocal(origin: RatFunc) -> RatFunc:
    """1/(1 - 1/w) = w/(w - 1), from the numerator of the origin class by
    the RatFunc constructor: one denominator factor, the binomial w - 1
    normalized, with no inverse and no trial division."""
    return RatFunc(LaurentPoly.const(origin.universe, 1), origin.num)


def lambda_classes(t: TorusData, weights):
    """The products over the weights w of the line classes 1 + y/w and of
    the origin classes 1 - 1/w: lambda_y and lambda_{-1} of the cotangent
    space at a fixed point with these tangent weights.  Over the weights
    a_j of C^n they are the class of C^n and the Euler class of its
    origin."""
    return _lambdas(t, [mc_line_classes(w) for w in weights])


def _lambdas(t: TorusData, lines):
    """`lambda_classes` from the line classes (origin, line, punctured) of
    the weights, built already."""
    return (t.one().unreduced_product([line for _, line, _ in lines]),
            t.one().unreduced_product([origin for origin, _, _ in lines]))


def proj_tangent_weights(t: TorusData, i: int) -> list:
    """The weights a_j/a_i (j != i) of the tangent space of projective
    space at the i-th fixed point, each the character a_j a_i^-1 as the
    product of the two monomials stores it."""
    if not 1 <= i <= t.n:
        raise ValueError("fixed point index out of range")
    a_i = t.alpha[i - 1]
    return [RatFunc(LaurentPoly.character(t.universe, {a_j: 1, a_i: -1}))
            for a_j in t.alpha if a_j != a_i]


def _euler_reciprocal(t: TorusData, origins) -> RatFunc:
    """prod w/(w - 1) over origin classes 1 - 1/w, one factor per class."""
    return t.one().unreduced_product([_origin_reciprocal(origin)
                                      for origin in origins])


def euler_reciprocal(t: TorusData, weights) -> RatFunc:
    """The reciprocal of the Euler class prod_w (1 - 1/w) of monomial
    weights w, prod_w w / (w - 1) from the numerators of the origin
    classes.  Each binomial w - 1 stays a denominator factor of its own,
    so the reciprocals over overlapping lists of weights share their
    factors; no two of them can cancel, so none is trial-divided."""
    return _euler_reciprocal(t, [mc_line_classes(w)[0] for w in weights])


def lambda_ratio(universe: VarUniverse, weights) -> RatFunc:
    """lambda_y over lambda_{-1} at a fixed point with these tangent
    weights, prod_w (1 + y/w)/(1 - 1/w), and 1 for no weights: the line
    classes times the origin reciprocals, one monomial weight at a time.
    Each 1 - 1/w stays a denominator factor of its own.  Line and origin
    classes are distinct irreducible binomials, so none is trial-divided."""
    parts = []
    for w in weights:
        origin, line, _ = mc_line_classes(w)
        parts += [line, _origin_reciprocal(origin)]
    return RatFunc.const(universe, 1).unreduced_product(parts)


def fixed_point_factor(t: TorusData, i: int) -> RatFunc:
    """The `lambda_ratio` at the i-th fixed point of projective space,
    prod_{j!=i} (1 + y a_i/a_j)/(1 - a_i/a_j), whose factor 1 - a_i/a_j
    the one at the j-th fixed point shares."""
    return lambda_ratio(t.universe, proj_tangent_weights(t, i))


def mc_conf_generic(mcB: RatFunc, euTM: RatFunc, k: int) -> RatFunc:
    """Configuration-space class from point data, the point restriction
    mcB of the class of an embedded (possibly singular) subvariety and the
    ambient Euler class euTM at that point:
    sum over partitions of a(P) * mcB^|P| * euTM^(k - |P|)
    = prod_{m<k} (mcB - m euTM), by exp(x log(1+t)) = (1+t)^x."""
    if euTM.is_zero():
        raise ValueError("ambient Euler class must be nonzero")
    # k = 0 would be read as the empty product
    if k < 1:
        raise ValueError("k must be at least 1, got %d" % k)
    acc = mcB
    for m in range(1, k):
        acc = acc * (mcB - m * euTM)
    return acc


def mc_conf_affine(t: TorusData, k: int) -> RatFunc:
    """Class of the configuration space of affine n-space at the origin:
    the point-data class at the line and origin classes over the weights
    a_j, mcB = prod_j (1 + y/a_j) and euTM = prod_j (1 - 1/a_j), that is
    prod_{m<k} (mcB - m euTM)."""
    mcB, euTM = lambda_classes(t, [t.a(j) for j in range(1, t.n + 1)])
    return mc_conf_generic(mcB, euTM, k)


def mc_conf_proj_refinement_sum(t: TorusData, e: ProjFixedPoint) -> RatFunc:
    """Class of the configuration space of projective (n-1)-space restricted
    to a fixed point, by its definition: the sum over refinements P of the
    coincidence partition of a(P) prod_{B in P} lambda_y(i_B)
    lambda_{-1}(i_B)^(|B|-1).  Bell-number slow; the checks compare
    `mc_conf_proj_at` and `mc_conf_proj_recursion` against it."""
    lam = {i: lambda_classes(t, proj_tangent_weights(t, i))
           for i in set(e.iota)}

    def weight(block):
        lam_y, lam_m1 = lam[e.iota[block[0] - 1]]
        return lam_y * lam_m1 ** (len(block) - 1)

    return partition_sum(e.induced_partition(), weight, t.one())


def mc_conf_proj_at(t: TorusData, e: ProjFixedPoint) -> RatFunc:
    """Class of the configuration space of projective (n-1)-space restricted
    to a fixed point: `mc_conf_proj_refinement_sum` evaluated as the product
    over the blocks C of the coincidence partition of
    prod_{m<|C|} (lambda_y - m lambda_{-1})(i_C), the point-data class at
    mcB = lambda_y, euTM = lambda_{-1}.
    """
    acc = t.one()
    for block in e.induced_partition().blocks:
        lam_y, lam_m1 = lambda_classes(
            t, proj_tangent_weights(t, e.iota[block[0] - 1]))
        acc = acc * mc_conf_generic(lam_y, lam_m1, len(block))
    return acc


def _psi(lines, i: int) -> RatFunc:
    """Psi_i = prod_j psi_ij of one point, from the line classes of its n
    weights: the punctured line class at j = i and the origin class
    otherwise."""
    return reduce(operator.mul, [punctured if j == i else origin for j, (
        origin, _, punctured) in enumerate(lines, start=1)])


def _orbit_points(t: TorusData, k: int) -> list:
    """The line classes of the n weights b_a a_j of each point a = 1..k,
    built once: row a is `mc_line_classes` at b_a a_1, ..., b_a a_n.  Over
    T^n alone every b_a is 1, so the k points share one row, built from
    a_1..a_n."""
    if k < 1:
        raise ValueError("k must be at least 1, got %d" % k)
    # a scaled torus names the weight b_a of every point
    if 0 < len(t.beta) < k:
        raise ValueError("need no beta names or at least k of them")
    rows = [[mc_line_classes(t.point_weight(a, j)) for j in range(1, t.n + 1)]
            for a in range(1, (k if t.beta else 1) + 1)]
    return rows if t.beta else rows * k


def _lifted_factors(t: TorusData):
    """The `fixed_point_factor`s L_1..L_n lifted to their common
    denominator, as RatFuncs with no factor, and the reciprocal of that
    denominator.  The factors of the L_i cancel only in a whole sum over
    the fixed points, so a sum over the lifted L_i needs no factor until
    its one product with the reciprocal, which cancels them all."""
    lifted, recip = RatFunc.over_common_den(
        [fixed_point_factor(t, i) for i in range(1, t.n + 1)])
    return [RatFunc(num) for num in lifted], recip


def _fixed_point_weights(t: TorusData, lines):
    """block -> w(B) = sum_i L_i prod_{a in B} Psi_{i,a}, summed over the n
    fixed points of projective (n-1)-space: the lifted L_i of
    `_lifted_factors` times the `_psi` of the rows of `lines` in the block,
    then one product with the shared reciprocal."""
    lifted, recip = _lifted_factors(t)
    psis = [[_psi(row, i) for row in lines] for i in range(1, t.n + 1)]

    def weight(block):
        return reduce(operator.add, [
            reduce(operator.mul, [row[a - 1] for a in block], prod)
            for prod, row in zip(lifted, psis)]) * recip

    return weight


def _residue_weights(t: TorusData, lines):
    """block -> the same w(B) summed over the |B| poles z = 1/b_a of the
    residue identity in `_orbit_sums`, with scaling weights:

    w(B) = (1+y)^(|B|-1) [(-1)^|B| prod_{a in B} lambda_{-1}(a)
           + sum_{a in B} lambda_y(a) prod_{a' != a} lambda_{-1}(a')
                          b_a/(b_a' - b_a)],

    lambda_y(a) and lambda_{-1}(a) the products of the line and of the
    origin classes in row a of `lines`.  A singleton is lambda_y(a) -
    lambda_{-1}(a).  A larger block is summed over prod (b_a' - b_a) with
    `RatFunc.over_common_den` and multiplied once by the reciprocal: w(B)
    is a Laurent polynomial, so every factor of it divides."""
    lams = [_lambdas(t, row) for row in lines]
    bs = [LaurentPoly.var(t.universe, name) for name in t.beta]
    one_plus_y = 1 + t.y

    def weight(block):
        if len(block) == 1:
            lam_y, lam_m1 = lams[block[0] - 1]
            return lam_y - lam_m1
        parts = [(-1) ** len(block) * t.one().unreduced_product(
            [lams[a - 1][1] for a in block])]
        for a in block:
            others = [c for c in block if c != a]
            parts.append(lams[a - 1][0].unreduced_product(
                [lams[c - 1][1] for c in others]
                + [RatFunc(bs[a - 1], bs[c - 1] - bs[a - 1]) for c in others]))
        nums, recip = RatFunc.over_common_den(parts)
        return (RatFunc(reduce(operator.add, nums)) * recip
                * one_plus_y ** (len(block) - 1))

    return weight


def _orbit_sums(t: TorusData, lines):
    """The orbit partition sums as a function of m = 0..k, k = len(lines):
    S(m) = sum over set partitions P of [m] of a(P) prod_{B in P} w(B),
    S(0) = 1, at the block weights w(B) = sum_i L_i prod_{a in B} Psi_{i,a},
    L_i the `fixed_point_factor` at i and Psi_{i,a} the `_psi` of row a of
    the `_orbit_points` table `lines`.

    Over T^n alone w(B) = sum_i L_i Psi_i^|B| depends only on |B|: one
    weight per block size, each running product one product on from the
    last over the lifted L_i of `_lifted_factors`, summed by
    `block_size_sums`.

    With scaling weights each block's weight is built once, so the sums
    over [k] and over [k - 1] share it, and S(m) is `partition_sum`, the
    definition.  w(B) is either side of one residue identity, whichever
    has fewer terms: the sum over the n fixed points
    (`_fixed_point_weights`) for |B| >= n, the sum over the |B| poles
    1/b_a (`_residue_weights`) for |B| < n.  So the L_i and the Psi rows
    are built only when k >= n.  The identity: with

        Phi(z) = prod_j (a_j + y z)/(a_j - z),
        g_B(z) = prod_{a in B} (1+y)/(b_a z - 1),

    prod_{a in B} Psi_{i,a} = prod_{a in B} lambda_{-1}(a) g_B(a_i), and
    Phi(z) g_B(z)/z has the residues
    - -(1+y) L_i g_B(a_i) at z = a_i,
    - (-1)^|B| (1+y)^|B| at z = 0,
    - (1+y)^|B| (lambda_y/lambda_{-1})(a) prod_{a' != a} b_a/(b_a' - b_a)
      at z = 1/b_a,
    and none at infinity, where it is O(z^(-|B|-1)).  The residues on the
    projective line sum to 0 (Atiyah-Bott, Topology 23, 1984; Weber,
    Selecta Math. 22, 2016), and times prod_{a in B} lambda_{-1}(a)/(1+y)
    that is the `_residue_weights` formula.  Over T^n every b_a is 1, the
    poles coalesce and the formula does not apply."""
    if not t.beta:
        lifted, recip = _lifted_factors(t)
        psis = [_psi(lines[0], i) for i in range(1, t.n + 1)]
        xs = []
        for _ in lines:
            lifted = [prod * psi for prod, psi in zip(lifted, psis)]
            xs.append(reduce(operator.add, lifted) * recip)
        return block_size_sums(xs, t.one()).__getitem__
    residue = _residue_weights(t, lines)
    fixed = _fixed_point_weights(t, lines) if len(lines) >= t.n else None
    built = {}

    def weight(block):
        if block not in built:
            built[block] = (residue if len(block) < t.n else fixed)(block)
        return built[block]

    def sum_over(m):
        if not m:
            return t.one()
        return partition_sum(SetPartition(m, [range(1, m + 1)]), weight,
                             t.one())

    return sum_over


def mc_orbit_conf(t: TorusData, k: int) -> RatFunc:
    """Class of the space of k pairwise linearly independent nonzero vectors
    in C^n, with per-point scaling weights b_1..b_k (each 1 over T^n
    alone): the partition sum S(k) of `_orbit_sums` over set partitions P
    of [k] of a(P) * prod_{B in P} w(B)."""
    return _orbit_sums(t, _orbit_points(t, k))(k)


def mc_orbit_full(t: TorusData, k: int) -> RatFunc:
    """Localized class of the space of k vectors with pairwise distinct
    spanned lines where vectors are allowed to vanish: the strictly nonzero
    part plus k copies of the one-fewer-vector part, each over the Euler
    class of the origin in (C^n)^k (weights b_a a_j) or in (C^n)^(k-1),
    S(k) R_1...R_k + k S(k - 1) R_1...R_(k-1).  S is `_orbit_sums`, and R_a
    is the reciprocal of the origin classes in row a of the
    `_orbit_points` table, built as `euler_reciprocal` builds it.

    Right only at unit scaling weights b_a = 1: the stratum where the a-th
    vector vanishes belongs at the weights of the other points, and each of
    the k copies takes those of the first k - 1."""
    lines = _orbit_points(t, k)
    sums = _orbit_sums(t, lines)
    # prods[a] = R_1...R_a; the points of T^n share one row and its R_a
    prods = [t.one()]
    for a, row in enumerate(lines):
        if not a or row is not lines[a - 1]:
            recip = _euler_reciprocal(t, [origin for origin, _, _ in row])
        prods.append(prods[-1] * recip)
    return sums(k) * prods[k] + k * (sums(k - 1) * prods[k - 1])


def mc_conf_proj_recursion(t: TorusData, e_extended: ProjFixedPoint) -> RatFunc:
    """Class at a length-(k+1) fixed point from the length-k prefix:
    prefix class times (lambda_y at the new point minus the number of
    coincidences times lambda_{-1})."""
    iota = e_extended.iota
    last = iota[-1]
    prefix = iota[:-1]
    n_coincide = sum(1 for i in prefix if i == last)
    if prefix:
        base = mc_conf_proj_at(t, ProjFixedPoint(prefix))
    else:
        base = t.one()
    lam_y, lam_m1 = lambda_classes(t, proj_tangent_weights(t, last))
    return base * (lam_y - n_coincide * lam_m1)
