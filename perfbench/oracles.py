"""Independent oracles for the benchmark's cases.

Every oracle here evaluates with plain ``Fraction`` arithmetic at seeded
random integer points, so none of them relies on the library's
``LaurentPoly``/``RatFunc`` arithmetic.  Two values that agree at random
points with large coordinates are equal with overwhelming probability
(Schwartz-Zippel); the formulas themselves are the closed forms of the
paper's identities:

- affine class: the falling factorial prod_{m<k} (x - m e) with
  x = prod_j (1 + y/a_j) and e = prod_j (1 - 1/a_j);
- projective class at a fixed point: the one-point recursion
  prod_p (lambda_y(i_p) - c_p lambda_{-1}(i_p)), c_p the number of earlier
  positions with the same axis;
- orbit classes: the t^k coefficient of the exp-log side
  prod_i (1 + t (1+y)/(a_i - 1))^(lambda_y(i)/lambda_{-1}(i)), with the
  scaling weights specialized to 1;
- orbit classes at random scaling weights b_a: the defining sum over set
  partitions P of {1..k},
  sum_P prod_blocks (-1)^(s-1) (s-1)! sum_i prod_{j!=i} lambda-ratio(i, j)
  prod_j prod_{a in block} psi_ij(b_a a_j), evaluated point by point.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Coordinates are drawn from [2, SPAN]; large and distinct, so no weight
# equals 0 or 1 and no two weights coincide.
SPAN = 1 << 20


def random_point(rng, names, fixed=None):
    """Distinct random integer values for `names`; `fixed` pins some."""
    fixed = dict(fixed or {})
    used = set(fixed.values())
    point = {}
    for name in names:
        if name in fixed:
            point[name] = Fraction(fixed[name])
            continue
        while True:
            v = rng.randint(2, SPAN)
            if v not in used:
                break
        used.add(v)
        point[name] = Fraction(v)
    return point


def eval_poly(p, point) -> Fraction:
    """Value of a LaurentPoly at a point given by variable name."""
    vals = [point[name] for name in p.universe.names]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        v = coeff
        for x, e in zip(vals, exps):
            if e:
                v *= x ** e
        total += v
    return total


def eval_ratfunc(rf, point) -> Fraction:
    """Value of a RatFunc, from its numerator and its denominator factors;
    the denominator is not expanded, so no library arithmetic runs."""
    den = Fraction(1)
    for factor, power in rf._factors.items():
        den *= eval_poly(factor, point) ** power
    if not den:
        raise ZeroDivisionError("denominator vanishes at the oracle point")
    return eval_poly(rf.num, point) / den


def out_terms(rf) -> int:
    """Numerator terms plus expanded-denominator terms.  Expanding the
    denominator runs library arithmetic, so this is only called on a
    case's first, untraced execution."""
    return len(rf.num.terms) + len(rf.den.terms)


def _weights(point, n):
    return [point["a%d" % j] for j in range(1, n + 1)]


def lambda_pair(a, i, y):
    """(lambda_y, lambda_{-1}) of projective space at axis i (0-based)."""
    lam_y = Fraction(1)
    lam_m1 = Fraction(1)
    for j, aj in enumerate(a):
        if j != i:
            lam_y *= 1 + y * a[i] / aj
            lam_m1 *= 1 - a[i] / aj
    return lam_y, lam_m1


def affine_value(point, n, k) -> Fraction:
    a, y = _weights(point, n), point["y"]
    x = math.prod((1 + y / aj for aj in a), start=Fraction(1))
    e = math.prod((1 - 1 / aj for aj in a), start=Fraction(1))
    return math.prod((x - m * e for m in range(k)), start=Fraction(1))


def proj_value(point, n, iota) -> Fraction:
    a, y = _weights(point, n), point["y"]
    val = Fraction(1)
    for p, i in enumerate(iota):
        lam_y, lam_m1 = lambda_pair(a, i - 1, y)
        val *= lam_y - iota[:p].count(i) * lam_m1
    return val


def _binomial_series(exponent, c, order):
    """Coefficients of (1 + c t)^exponent up to t^order."""
    out = [Fraction(1)]
    for m in range(1, order + 1):
        out.append(out[-1] * (exponent - m + 1) / m * c)
    return out


def orbit_normalized(point, n, k) -> Fraction:
    """f_k = k! [t^k] prod_i (1 + c_i t)^(L_i): the orbit class at unit
    scaling weights divided by the k-th power of the point Euler class."""
    a, y = _weights(point, n), point["y"]
    series = [Fraction(1)] + [Fraction(0)] * k
    for i, ai in enumerate(a):
        lam_y, lam_m1 = lambda_pair(a, i, y)
        factor = _binomial_series(lam_y / lam_m1, (1 + y) / (ai - 1), k)
        series = [sum(series[u] * factor[d - u] for u in range(d + 1))
                  for d in range(k + 1)]
    return math.factorial(k) * series[k]


def orbit_value(point, n, k) -> Fraction:
    e = math.prod((1 - 1 / aj for aj in _weights(point, n)), start=Fraction(1))
    return orbit_normalized(point, n, k) * e ** k


def orbit_full_value(point, n, k) -> Fraction:
    return (orbit_normalized(point, n, k)
            + k * orbit_normalized(point, n, k - 1))


def set_partitions(items):
    """Every set partition of the list `items`, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [[first]] + p
        for b in range(len(p)):
            yield p[:b] + [[first] + p[b]] + p[b + 1:]


def _betas(point, k):
    return [point["b%d" % m] for m in range(1, k + 1)]


def orbit_sum_value(point, n, k) -> Fraction:
    """The orbit class at any scaling weights, from its defining partition
    sum; psi_ii(theta) = (1+y)/theta and psi_ij(theta) = 1 - 1/theta."""
    if k == 0:
        return Fraction(1)
    a, b, y = _weights(point, n), _betas(point, k), point["y"]
    total = Fraction(0)
    for p in set_partitions(list(range(k))):
        term = Fraction(1)
        for block in p:
            s = len(block)
            inner = Fraction(0)
            for i in range(n):
                prod = Fraction(1)
                for j in range(n):
                    if j != i:
                        prod *= (1 + y * a[i] / a[j]) / (1 - a[i] / a[j])
                    for m in block:
                        theta = b[m] * a[j]
                        prod *= (1 + y) / theta if j == i else 1 - 1 / theta
                inner += prod
            term *= (-1) ** (s - 1) * math.factorial(s - 1) * inner
        total += term
    return total


def _euler_beta(point, n, k) -> Fraction:
    a, b = _weights(point, n), _betas(point, k)
    return math.prod((1 - 1 / (bm * aj) for bm in b for aj in a),
                     start=Fraction(1))


def orbit_full_sum_value(point, n, k) -> Fraction:
    """The orbit-full class at any scaling weights: the orbit class over
    the beta-weighted point Euler class, plus k times the same for k-1."""
    prev = orbit_sum_value(point, n, k - 1) / _euler_beta(point, n, k - 1)
    return orbit_sum_value(point, n, k) / _euler_beta(point, n, k) + k * prev
