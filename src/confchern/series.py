"""Truncated power series in t over rational-function coefficients, the
exponential/logarithm pair, the generating-series verification engines, and
exact residue computation for the residue-form check."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .laurent import (LaurentPoly, RatFunc, UniverseMismatchError,
                      VarUniverse)
from .classes import (TorusData, euler_reciprocal, lambda_ratio,
                      mc_line_classes, mc_orbit_conf, mc_orbit_full)
from .partitions import block_size_sums


class TruncSeries:
    """Power series in t truncated (inclusively) at a fixed order."""

    __slots__ = ("universe", "order", "coeffs")

    def __init__(self, universe: VarUniverse, order: int,
                 coeffs: Sequence[RatFunc] = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("too many coefficients for the truncation order")
        while len(coeffs) < order + 1:
            coeffs.append(RatFunc.const(universe, 0))
        for c in coeffs:
            if c.universe != universe:
                raise UniverseMismatchError("coefficient universe mismatch")
        self.universe = universe
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def const(cls, universe: VarUniverse, order: int, c) -> "TruncSeries":
        if isinstance(c, (int, Fraction)):
            c = RatFunc.const(universe, c)
        return cls(universe, order, [c])

    @classmethod
    def t(cls, universe: VarUniverse, order: int) -> "TruncSeries":
        zero = RatFunc.const(universe, 0)
        one = RatFunc.const(universe, 1)
        return cls(universe, order, [zero, one])

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return TruncSeries.const(self.universe, self.order, other)
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError("truncation order mismatch")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.universe, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)) and other:
            # a nonzero scalar or rational function scales each nonzero
            # coefficient and is never lifted to a constant series, whose
            # product would add each scaled coefficient to a zero; zero
            # takes the general path, whose coefficients are fresh zeros
            return TruncSeries(self.universe, self.order,
                               [a * other if a else a for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TruncSeries(self.universe, self.order, [
            _products_sum(self.universe, zip(a[:m + 1], b[m::-1]))
            for m in range(self.order + 1)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def exp(self) -> "TruncSeries":
        """exp of a series f with zero constant term, by the recurrence
        of g = exp(f) read off t g' = (t f') g (Brent and Kung, J. ACM 25,
        1978): k g_k = sum_{j=1..k} j f_j g_(k-j) with g_0 = 1.  That is
        O(N^2) coefficient products, and the only divisions are by k."""
        f = self.coeffs
        if not f[0].is_zero():
            raise ValueError("exp needs zero constant term")
        df = [c * j for j, c in enumerate(f)]
        g = [RatFunc.const(self.universe, 1)]
        for k in range(1, self.order + 1):
            g.append(_products_sum(self.universe, zip(g, df[k:0:-1]))
                     * Fraction(1, k))
        return TruncSeries(self.universe, self.order, g)

    def log1p(self) -> "TruncSeries":
        """log(1 + f) for a series f with zero constant term, by the
        recurrence of L = log(1 + f) read off (1 + f) t L' = t f':
        k L_k = k f_k - sum_{j=1..k-1} j L_j f_(k-j).  That is O(N^2)
        coefficient products, and the only divisions are by k."""
        f = self.coeffs
        if not f[0].is_zero():
            raise ValueError("log1p needs zero constant term")
        minus_f = [-c for c in f]
        # dl[k] = k L_k
        dl = [f[0]]
        for k in range(1, self.order + 1):
            dl.append(_products_sum(self.universe, [(f[k], k)] + list(
                zip(dl[1:], minus_f[k - 1:0:-1]))))
        return TruncSeries(self.universe, self.order, [
            c * Fraction(1, k) if k else c for k, c in enumerate(dl)])


def _products_sum(universe: VarUniverse, pairs) -> RatFunc:
    """sum a * b over the pairs, leaving out each pair with a zero factor:
    a zero summand would still lift the sum over the factors of the other
    and trial-divide it by them."""
    acc = None
    for a, b in pairs:
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return RatFunc.const(universe, 0) if acc is None else acc


# ---------------------------------------------------------------------------
# Generating-series identity checks
# ---------------------------------------------------------------------------

def _egf(universe: VarUniverse, n_order: int, coeff) -> TruncSeries:
    """The exponential generating series 1 + sum_k coeff(k) t^k/k!, for an
    order of at least 1: at order 0 every series identity reads 1 = 1."""
    if n_order < 1:
        raise ValueError("order must be at least 1, got %d" % n_order)
    return TruncSeries(universe, n_order, [RatFunc.const(universe, 1)] + [
        Fraction(1, math.factorial(k)) * coeff(k)
        for k in range(1, n_order + 1)])


def _partition_series(universe: VarUniverse, n_order: int, x) -> TruncSeries:
    """1 + sum_k (t^k/k!) S_k with S_k = sum_P a(P) prod_{B in P} x(|B|), P
    running over the set partitions of [k], for a weight x of the block size,
    by the last-point recursion of `block_size_sums`."""
    sums = block_size_sums([x(j) for j in range(1, n_order + 1)],
                           RatFunc.const(universe, 1))
    return _egf(universe, n_order, sums.__getitem__)


def _block_size_identity(universe: VarUniverse, n_order: int, x) -> bool:
    """The partition series with block weight x(|B|) against its exp-log
    form exp(sum_u (-1)^(u-1) x(u) t^u / u)."""
    lhs = _partition_series(universe, n_order, x)
    arg = [RatFunc.const(universe, 0)] + [
        Fraction((-1) ** (u - 1), u) * x(u) for u in range(1, n_order + 1)]
    return lhs == TruncSeries(universe, n_order, arg).exp()


def check_partition_exp_identity(n_order: int) -> bool:
    """Master identity: the partition sum with one free symbol per block
    size equals exp of the alternating-harmonic combination.

    With f(u) = x_u t^u, compares
      1 + sum_k (1/k!) sum_P a(P) prod_blocks x_|block|   at t^k
    against exp(sum_u (-1)^(u-1) x_u t^u / u), coefficient-wise.
    Truth here is a polynomial identity in x_1..x_N.
    """
    universe = VarUniverse(tuple("x%d" % u for u in range(1, n_order + 1)))
    return _block_size_identity(
        universe, n_order, lambda u: RatFunc.var(universe, "x%d" % u))


def check_point_series(n_order: int) -> bool:
    """Point-restriction series with one free symbol for the localized
    subvariety class: 1 + sum_k (t^k/k!) sum_P a(P) m^|P| against
    exp(m * log(1+t)): the block-size identity at the weight x(u) = m."""
    universe = VarUniverse(("m", "e"))
    m = RatFunc.var(universe, "m")
    return _block_size_identity(universe, n_order, lambda u: m)


def check_point_series_ambient(n_order: int) -> bool:
    """Two-symbol diagonal form: 1 + sum_k (t^k/k!) sum_P a(P) m^|P|
    e^(k-|P|) against exp(m * log(1 + t e)/e)."""
    universe = VarUniverse(("m", "e"))
    m = RatFunc.var(universe, "m")
    e = RatFunc.var(universe, "e")
    # m log(1 + e t)/e expanded termwise: no division by the symbol e
    return _block_size_identity(universe, n_order,
                                lambda u: m * e ** (u - 1))


def orbit_series(n: int, n_order: int) -> TruncSeries:
    """Exponential series of the orbit-configuration classes over the torus
    T^n alone (unit scaling weights), over (a_1..a_n, y)."""
    t_data = TorusData.standard(n)
    # over the Euler class prod_j (1 - 1/a_j)^k of the origin in (C^n)^k,
    # whose reciprocal is this one's k-th power
    recip = euler_reciprocal(t_data, [t_data.a(j) for j in range(1, n + 1)])
    return _egf(t_data.universe, n_order,
                lambda k: mc_orbit_conf(t_data, k) * recip ** k)


def _orbit_exponent(universe: VarUniverse, weights,
                    n_order: int) -> TruncSeries:
    """The exponent of the orbit series' closed form at monomial weights
    w_i, sum_i L_i log(1 + c_i t): c_i = (1+y)/(w_i - 1), the punctured
    line class over the origin class at w_i, and L_i the `lambda_ratio`
    over the w_j/w_i (j != i).  At the weights a_1..a_n, L_i is the
    `fixed_point_factor` at i."""
    t = TruncSeries.t(universe, n_order)
    log = TruncSeries.const(universe, n_order, 0)
    for i, w in enumerate(weights):
        origin, _, punctured = mc_line_classes(w)
        inv = w.inverse()
        ratio = lambda_ratio(universe, [v * inv for j, v in enumerate(weights)
                                        if j != i])
        log = log + ratio * ((punctured / origin) * t).log1p()
    return log


def _orbit_closed_form(n: int, n_order: int) -> TruncSeries:
    """The closed form of the orbit series, prod_i (1 + c_i t)^(L_i), as
    the exp of its `_orbit_exponent` at a_1..a_n."""
    t_data = TorusData.standard(n)
    return _orbit_exponent(t_data.universe,
                           [t_data.a(i) for i in range(1, n + 1)],
                           n_order).exp()


def orbit_series_sides(n: int, n_order: int):
    """Both sides of the orbit-configuration generating series: the class
    series `orbit_series` and its closed form, as truncated series over
    the weight universe."""
    return orbit_series(n, n_order), _orbit_closed_form(n, n_order)


def check_orbit_series(n: int, n_order: int) -> bool:
    lhs, rhs = orbit_series_sides(n, n_order)
    return lhs == rhs


def orbit_full_series(n: int, n_order: int) -> TruncSeries:
    """Exponential series of the vanishing-allowed orbit classes over T^n
    (unit scaling weights), over (a_1..a_n, y)."""
    t_data = TorusData.standard(n)
    return _egf(t_data.universe, n_order,
                lambda k: mc_orbit_full(t_data, k))


def check_orbit_full_series(n: int, n_order: int) -> bool:
    """Vanishing-allowed variant: its series must equal (1 + t) * f(t)
    where f is the closed form of the orbit series.

    The extra term k * m_{k-1} in the k-th coefficient sums to t*f(t), not
    t*f'(t): t*f'(t) would require k * m_k instead.  (Checked by hand at
    n=1: the k=1 coefficient of the full space is m_1 + 1, which only the
    (1+t)*f form reproduces.)  f is the closed form, not the series of the
    orbit classes that the vanishing-allowed classes are built from, so a
    wrong orbit class fails here.
    """
    lhs = orbit_full_series(n, n_order)
    f = _orbit_closed_form(n, n_order)
    return lhs == (1 + TruncSeries.t(f.universe, n_order)) * f


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

class PoleOrderError(ValueError):
    pass


# highest pole order `residue_at` solves for
MAX_POLE_ORDER = 8


def residue_at(f: RatFunc, var: str, pole: Fraction) -> RatFunc:
    """Coefficient of 1/(var - pole) in the Laurent expansion of f.

    The function must be rational in `var`; remaining variables ride along
    in the coefficient field.  The pole is moved to the origin (var ->
    var + pole), and the residue is read off the quotient of the two
    translated polynomials by solving a triangular system.
    """
    # with x_s = var^s, x_s * f.num and x_s * f.den are genuine
    # polynomials in var
    x_s = LaurentPoly.var(f.universe, var, max(0, -f.num.min_exp(var)))
    num = (f.num * x_s).translate(var, pole)
    den = (f.den * x_s).translate(var, pole)
    zero = RatFunc.const(f.universe, 0)
    if num.is_zero():
        return zero
    a = num.min_exp(var)
    b = den.min_exp(var)
    m = b - a
    if m <= 0:
        return zero
    if m > MAX_POLE_ORDER:
        raise PoleOrderError("pole order %d exceeds %d" % (m, MAX_POLE_ORDER))
    # f = var^-m * (sum_j N_{a+j} var^j) / (sum_j D_{b+j} var^j) with
    # D_b != 0; the quotient's coefficients c_j satisfy
    # sum_{i<=j} c_i D_{b+j-i} = N_{a+j}, and the residue is c_{m-1}
    d = [RatFunc(den.coeff_of(var, b + j)) for j in range(m)]
    c = []
    for j in range(m):
        acc = RatFunc(num.coeff_of(var, a + j))
        for i in range(j):
            acc = acc - c[i] * d[j - i]
        c.append(acc / d[0])
    return c[-1]


def _residue_weights(universe: VarUniverse,
                     alphas: Sequence[Fraction]) -> RatFunc:
    """The integrand weights prod_a (1 + y z/a)/(1 - z/a), the part of the
    residue-form integrand that no t-degree changes: the `lambda_ratio`
    over the weights a/z."""
    z_inv = RatFunc.var(universe, "z", -1)
    return lambda_ratio(universe, [a * z_inv for a in alphas])


def _residue_core(universe: VarUniverse, u: int) -> RatFunc:
    """The t^u part of the residue-form integrand before its weights,
    (-1)^(u-1)/u (1+y)^(u-1) / (z (z-1)^u).  Neither z nor z - 1 divides
    the numerator, so none is trial-divided."""
    y = RatFunc.var(universe, "y")
    z = RatFunc.var(universe, "z")
    return (Fraction((-1) ** (u - 1), u) * (1 + y) ** (u - 1)) \
        .unreduced_product([1 / (z * (z - 1) ** u)])


def residue_form_factor(universe: VarUniverse, alphas: Sequence[Fraction],
                        u: int) -> RatFunc:
    """The t^u coefficient of the residue-form integrand: a univariate
    rational function of z with polynomial-in-y coefficients.  No factor z,
    z - 1 or z - a of one part divides the other's numerator, (1+y)^(u-1)
    or prod_a (1 + y z/a), so the parts are not trial-divided."""
    return _residue_core(universe, u).unreduced_product(
        [_residue_weights(universe, alphas)])


def check_residue_form(alphas: Sequence[Fraction], n_order: int) -> bool:
    """Residue bookkeeping for the orbit series integrand, per t-degree:

    (a) the residue at z=0 reproduces log(1 - t(1+y))/(1+y) termwise,
    (b) residues over all finite poles {0, 1, alpha_i} sum to zero,
    (c) minus the sum of residues at the alpha_i equals the exponent of the
        orbit generating series, `_orbit_exponent` at the weights alpha_i.
    """
    if n_order < 1:
        raise ValueError("order must be at least 1, got %d" % n_order)
    alphas = [Fraction(a) for a in alphas]
    if len(set(alphas)) != len(alphas) or any(a in (0, 1) for a in alphas):
        raise ValueError("alphas must be distinct and differ from 0 and 1")
    universe = VarUniverse(("y", "z"))
    y = RatFunc.var(universe, "y")
    # what no degree u changes: the weights, and the orbit series exponent
    # at the constant weights alpha
    weights = _residue_weights(universe, alphas)
    exponent = _orbit_exponent(
        universe, [RatFunc.const(universe, a) for a in alphas], n_order)
    for u in range(1, n_order + 1):
        f = _residue_core(universe, u).unreduced_product([weights])
        res0 = residue_at(f, "z", Fraction(0))
        res1 = residue_at(f, "z", Fraction(1))
        res_alpha = sum((residue_at(f, "z", a) for a in alphas),
                        RatFunc.const(universe, 0))
        # (a) z=0 residue: t^u coefficient of log(1 - t(1+y))/(1+y)
        expect0 = Fraction(-1, u) * (1 + y) ** (u - 1)
        if res0 != expect0:
            return False
        # (b) total residue over the finite poles vanishes
        if not (res0 + res1 + res_alpha).is_zero():
            return False
        # (c) -sum of weight-pole residues = exponent of the orbit series
        if -res_alpha != exponent.coeffs[u]:
            return False
    return True
