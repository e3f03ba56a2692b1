"""Exact arithmetic core: sparse multivariate Laurent polynomials over Q
and rational functions with cross-multiplication equality.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import collections.abc
import math
import operator
import struct
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[Fraction, int]

# Bits per digit of a packed exponent key (VarUniverse decodes digits as
# 32-bit C ints).  Digits are signed, so a key compares like its exponent
# tuple.  Exponents are held to a quarter of the digit range, so the
# difference of two of them (a span, or a shift to minimum exponent 0)
# still fits in a digit.
_WIDTH = 32
EXP_LIMIT = (1 << (_WIDTH - 2)) - 1


class UniverseMismatchError(ValueError):
    pass


class ZeroDenominatorError(ZeroDivisionError):
    pass


class ExponentOverflowError(ValueError):
    """An exponent beyond +-EXP_LIMIT, which a packed key cannot hold."""


class VarUniverse:
    """Ordered, fixed list of variable names shared by all values built over it.

    It also packs exponent tuples over its variables into int keys: the
    i-th exponent is the signed digit of place 2^(_WIDTH * (n-1-i)), so the
    first variable is the most significant and int order is the
    lexicographic order of the tuples.  Adding keys adds exponent vectors.
    """

    __slots__ = ("names", "_index", "_place", "_guard", "_codec")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self._place = tuple(1 << (_WIDTH * (n - 1 - i)) for i in range(n))
        # the top bit of every digit; key + _guard holds each digit plus
        # half the digit range, which is nonnegative
        self._guard = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(n))
        self._codec = struct.Struct(">%di" % n)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("variable %r not in universe %r" % (name, self.names))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarUniverse) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "VarUniverse(%r)" % (self.names,)

    # -- packed exponent keys ----------------------------------------------

    def _vector(self, exps: Mapping[str, int]) -> list:
        """Exponent vector with the given exponent per name, 0 elsewhere."""
        vec = [0] * len(self.names)
        for name, e in exps.items():
            vec[self.index(name)] = e
        return vec

    def _key(self, vec) -> int:
        """Packed key of an exponent vector, unchecked."""
        return sum(map(operator.mul, vec, self._place))

    def _pack(self, exps) -> int:
        """Packed key of an exponent tuple, checked against EXP_LIMIT."""
        if len(exps) != len(self.names):
            raise ValueError("exponent tuple length mismatch")
        if exps and max(map(abs, exps)) > EXP_LIMIT:
            raise ExponentOverflowError(
                "exponent beyond +-%d in %r" % (EXP_LIMIT, tuple(exps)))
        return self._key(exps)

    def _unpack(self, key: int) -> tuple:
        """Exponent tuple of a packed key: each digit plus half the range,
        with its top bit flipped, is the digit in two's complement."""
        g = self._guard
        return self._codec.unpack(((key + g) ^ g).to_bytes(self._codec.size,
                                                           "big"))

    def _digits(self, keys, i: int) -> list:
        """The exponent of variable i in each of `keys`."""
        shift = _WIDTH * (len(self.names) - 1 - i)
        mask = (1 << _WIDTH) - 1
        half = 1 << (_WIDTH - 1)
        g = self._guard
        return [((k + g) >> shift & mask) - half for k in keys]

    def _box(self, keys):
        """Lowest and highest exponent of each variable over nonempty keys.

        The keys' digits are read as one buffer of native 32-bit ints, and
        each variable's digits are a strided view of it, so no tuple is
        built per key or per variable."""
        n, g, size = len(self.names), self._guard, self._codec.size
        flat = memoryview(b"".join([((k + g) ^ g).to_bytes(size, sys.byteorder)
                                    for k in keys])).cast("i")
        # a little-endian key holds its last variable first
        columns = ([flat[i::n] for i in range(n)] if sys.byteorder == "big"
                   else [flat[n - 1 - i::n] for i in range(n)])
        return list(map(min, columns)), list(map(max, columns))


def _check_same(a, b):
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError(
            "mixed universes: %r vs %r" % (a.universe.names, b.universe.names)
        )


def _as_fraction(x: Scalar) -> Fraction:
    # the exact type first: a failed isinstance against Fraction, an ABC,
    # goes through ABCMeta.__instancecheck__
    if type(x) is Fraction:
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError("expected exact rational, got %r" % (x,))


def _check_bound(bound: int) -> int:
    if bound > EXP_LIMIT:
        raise ExponentOverflowError(
            "exponents may exceed +-%d (bound %d)" % (EXP_LIMIT, bound))
    return bound


def _canonical(universe, coeffs: dict, denom: int, bound: int):
    """LaurentPoly from nonzero int numerators over a positive denominator,
    with their common factor divided out by one gcd."""
    if denom != 1:
        g = math.gcd(denom, *coeffs.values())
        if g != 1:
            coeffs = {k: c // g for k, c in coeffs.items()}
            denom //= g
    return LaurentPoly._make(universe, coeffs, denom, bound)


class _Terms(collections.abc.Mapping):
    """Read-only view of a LaurentPoly's terms, exponent tuple -> Fraction,
    decoded from the packed storage on every read."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "LaurentPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._coeffs)

    def __iter__(self):
        return map(self._poly.universe._unpack, self._poly._coeffs)

    def __getitem__(self, exps) -> Fraction:
        p = self._poly
        try:
            key = p.universe._pack(tuple(exps))
        except (TypeError, ValueError):
            raise KeyError(exps)
        return Fraction(p._coeffs[key], p._denom)

    def items(self) -> list:
        p = self._poly
        unpack, d = p.universe._unpack, p._denom
        return [(unpack(k), Fraction(c, d)) for k, c in p._coeffs.items()]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class LaurentPoly:
    """Sparse Laurent polynomial over Q: integer numerators over one
    positive common denominator, on packed exponent keys.

    `_coeffs` maps the packed key of each exponent tuple (see VarUniverse;
    one signed entry per universe variable) to a nonzero int numerator, and
    `_denom` is the common denominator, with gcd(_denom, numerators) = 1.
    Equal polynomials therefore have equal storage.  `_bound` is at least
    every |exponent|; a product adds its operands' bounds, so overflow past
    EXP_LIMIT is caught once per operation and raises
    ExponentOverflowError.  `terms` is a read-only view that decodes the
    storage into exponent tuples and Fractions on each read.  Term order
    (for serialization) is descending lexicographic in universe order.
    """

    __slots__ = ("universe", "_coeffs", "_denom", "_bound")

    def __init__(self, universe: VarUniverse, terms: Mapping[tuple, Scalar] = ()):
        fracs = {}
        bound = 0
        for exps, coeff in dict(terms).items():
            coeff = _as_fraction(coeff)
            if coeff:
                fracs[universe._pack(exps)] = coeff
                bound = max(bound, max(map(abs, exps), default=0))
        # over the least common denominator the numerators are coprime to it
        denom = math.lcm(*(c.denominator for c in fracs.values()))
        self.universe = universe
        self._coeffs = {k: c.numerator * (denom // c.denominator)
                        for k, c in fracs.items()}
        self._denom = denom
        self._bound = bound

    @classmethod
    def _make(cls, universe: VarUniverse, coeffs: dict, denom: int = 1,
              bound: int = 0) -> "LaurentPoly":
        """Trusted constructor for storage that is already canonical."""
        self = object.__new__(cls)
        self.universe = universe
        self._coeffs = coeffs
        self._denom = denom
        self._bound = bound
        return self

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        return _Terms(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, universe: VarUniverse) -> "LaurentPoly":
        return cls._make(universe, {})

    @classmethod
    def const(cls, universe: VarUniverse, c: Scalar) -> "LaurentPoly":
        if type(c) is int:
            return cls._make(universe, {0: c} if c else {})
        c = _as_fraction(c)
        if not c:
            return cls._make(universe, {})
        return cls._make(universe, {0: c.numerator}, c.denominator)

    @classmethod
    def var(cls, universe: VarUniverse, name: str, power: int = 1) -> "LaurentPoly":
        return cls.character(universe, {name: power})

    @classmethod
    def character(cls, universe: VarUniverse,
                  exps: Mapping[str, int]) -> "LaurentPoly":
        """The monomial prod_x x^e over `exps` (name -> e) with coefficient
        1, stored as the product of the powers `var(universe, x, e)`: its
        key is the sum of each e times the place of x, and its bound is the
        sum of the |e|, since a product adds its operands' bounds."""
        place = universe._place
        key = bound = 0
        for name, e in exps.items():
            key += e * place[universe.index(name)]
            bound += abs(e)
        return cls._make(universe, {key: 1}, 1, _check_bound(bound))

    @classmethod
    def monomial(cls, universe: VarUniverse, exps: Mapping[str, int],
                 coeff: Scalar = 1) -> "LaurentPoly":
        return cls(universe, {tuple(universe._vector(exps)): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other over the least common denominator."""
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.universe, other)
        _check_same(self, other)
        denom, d2 = self._denom, other._denom
        if denom == d2:
            acc = dict(self._coeffs)
            scale = sign
        else:
            g = math.gcd(denom, d2)
            acc = {k: c * (d2 // g) for k, c in self._coeffs.items()}
            scale = sign * (denom // g)
            denom *= d2 // g
        get = acc.get
        for k, c in other._coeffs.items():
            s = get(k, 0) + scale * c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return _canonical(self.universe, acc, denom,
                          max(self._bound, other._bound))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.universe,
                                 {k: -c for k, c in self._coeffs.items()},
                                 self._denom, self._bound)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _as_fraction(other)
            if not c:
                # the storage of a product by LaurentPoly.const(0), bound
                # included
                return LaurentPoly._make(self.universe, {}, 1, self._bound)
            n = c.numerator
            return _canonical(self.universe,
                              {k: v * n for k, v in self._coeffs.items()},
                              self._denom * c.denominator, self._bound)
        _check_same(self, other)
        bound = _check_bound(self._bound + other._bound)
        outer, inner = self._coeffs, other._coeffs
        if len(outer) > len(inner):
            outer, inner = inner, outer
        if len(outer) == 1:
            # a key shift and a scale: the keys stay distinct and the
            # products nonzero, in the general loop's order
            [(k0, c0)] = outer.items()
            return _canonical(self.universe,
                              {k + k0: c * c0 for k, c in inner.items()},
                              self._denom * other._denom, bound)
        inner = list(inner.items())
        acc: dict = {}
        get = acc.get
        for k1, c1 in outer.items():
            for k2, c2 in inner:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _canonical(self.universe, {k: c for k, c in acc.items() if c},
                          self._denom * other._denom, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("LaurentPoly power must be a nonnegative integer")
        if not k:
            return LaurentPoly.const(self.universe, 1)
        # square up to the lowest set bit of k, which starts the result
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.universe, other)
        return (self.universe == other.universe
                and self._denom == other._denom
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.universe, self._denom,
                     frozenset(self._coeffs.items())))

    # -- structure queries -------------------------------------------------

    def min_exp(self, name: str) -> int:
        """Smallest exponent of `name` over all terms (0 for the zero poly)."""
        if not self._coeffs:
            return 0
        return min(self.universe._digits(self._coeffs,
                                         self.universe.index(name)))

    def coeff_of(self, name: str, power: int) -> "LaurentPoly":
        """Collect terms with the given exponent of `name`, with that
        exponent zeroed out in the result."""
        u = self.universe
        i = u.index(name)
        drop = power * u._place[i]
        coeffs = {k - drop: c for (k, c), e in zip(self._coeffs.items(),
                                                    u._digits(self._coeffs, i))
                  if e == power}
        return _canonical(u, coeffs, self._denom, self._bound)

    def translate(self, name: str, c: Scalar) -> "LaurentPoly":
        """`name` replaced by `name` + c, for a polynomial without negative
        powers of `name`: each term's power is expanded by the binomial
        theorem.  A negative power of `name` raises ValueError when c is
        nonzero."""
        c = _as_fraction(c)
        if not c:
            return self
        u = self.universe
        i = u.index(name)
        place = u._place[i]
        powers = u._digits(self._coeffs, i)
        if min(powers, default=0) < 0:
            raise ValueError("cannot translate %r in a polynomial with "
                             "negative powers of it" % name)
        # c = a/b; over b^top every term's coefficient is an integer
        a, b = c.numerator, c.denominator
        top = max([0] + powers)
        acc: dict = {}
        for (key, coeff), d in zip(self._coeffs.items(), powers):
            base = key - d * place
            for j in range(d + 1):
                k = base + j * place
                acc[k] = acc.get(k, 0) + (coeff * math.comb(d, j)
                                          * a ** (d - j) * b ** (top - d + j))
        coeffs = {k: v for k, v in acc.items() if v}
        return _canonical(u, coeffs, self._denom * b ** top, self._bound)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object]) -> "LaurentPoly":
        """Simultaneous monomial substitution.

        Each bound variable goes to a constant or to c * monomial over our
        universe: an int, a Fraction, a LaurentPoly with at most one term,
        or a RatFunc with no denominator factors and at most one numerator
        term.
        """
        u = self.universe
        keys = list(self._coeffs)
        new_keys = list(keys)
        scales = [1] * len(keys)
        # new exponent of variable j: its own (if unbound) plus sum_i e_i x_ij
        weight = [1] * len(u)
        for name, value in bindings.items():
            i = u.index(name)
            c, mono = _monomial_image(name, value, u)
            weight[i] -= 1
            move = -u._place[i]
            for j, x in mono:
                move += x * u._place[j]
                weight[j] += abs(x)
            for t, e in enumerate(u._digits(keys, i)):
                if not e:
                    continue
                new_keys[t] += e * move
                if c != 1:
                    if not c and e < 0:
                        raise ZeroDenominatorError(
                            "substituting 0 into a negative power")
                    scales[t] *= c ** e
        bound = _check_bound(self._bound * max(weight, default=0))
        # over the common denominator of the scales (ints have denominator 1)
        common = math.lcm(*(s.denominator for s in scales))
        acc: dict = {}
        for k, c, s in zip(new_keys, self._coeffs.values(), scales):
            acc[k] = acc.get(k, 0) + c * s.numerator * (common // s.denominator)
        return _canonical(u, {k: v for k, v in acc.items() if v},
                          self._denom * common, bound)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        unpack, d = self.universe._unpack, self._denom
        return [(unpack(k), Fraction(c, d))
                for k, c in sorted(self._coeffs.items(), reverse=True)]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [str(coeff)]
            for name, e in zip(self.universe.names, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append("%s^%d" % (name, e))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "<LaurentPoly %s>" % self

    def to_json_terms(self) -> list:
        out = []
        for exps, coeff in self.sorted_terms():
            e = {name: v for name, v in zip(self.universe.names, exps) if v}
            out.append({"coeff": str(coeff), "exps": e})
        return out


def _monomial_image(name: str, value, universe: VarUniverse):
    """A substitution binding as (coefficient, [(index, exponent)])."""
    if isinstance(value, (int, Fraction)):
        return _as_fraction(value), []
    if isinstance(value, RatFunc) and not value._factors:
        value = value.num
    if isinstance(value, LaurentPoly) and len(value._coeffs) <= 1:
        if value.universe != universe:
            raise UniverseMismatchError("binding universes disagree")
        if value.is_zero():
            return Fraction(0), []
        [(key, c)] = value._coeffs.items()
        exps = universe._unpack(key)
        return (Fraction(c, value._denom),
                [(j, x) for j, x in enumerate(exps) if x])
    raise ValueError("binding for %r is not a constant or c * monomial: %r"
                     % (name, value))


def _exact_div(p: LaurentPoly, f: LaurentPoly):
    """Quotient p/f if f divides p exactly (up to monomials), else None.

    p must be nonzero and f a denominator factor as _normalize_den makes
    it: at least two terms, leading coefficient 1 (its lex-leading
    numerator is f._denom) and minimum exponent 0 in every variable.  The
    integer numerators of such an f have content 1, so p's numerators are
    divided over Z by f's own, exactly whenever the division over Q is
    (Gauss's lemma).

    Only a binomial with an entry +-1 in the difference of its exponents
    is divided (_chain_div), and only while its chain keys fit the packed
    digit range; any other f gives None and stays in the denominator.
    Every factor of the local classes (a_i - a_j, a_i - 1, b_a a_j - 1,
    z - alpha) is one.  No other factor was seen to divide: on a seed-1
    `limits` benchmark pass they make 1210 of 1634 trials, all misses.

    Evaluation at the point of ones, x = (1, ..., 1), is a ring map from
    the Laurent ring, so f | p forces p(1..1) = 0 whenever f(1..1) = 0, as
    for every a_i - a_j, a_i - 1 and b_a a_j - 1.  Those values are the
    sums of the integer numerators, and a p whose sum is not 0 is a miss,
    refuted before the chains are built.
    """
    fc = f._coeffs
    if len(fc) != 2:
        return None
    u = p.universe
    top, bottom = fc.items()
    w = [a - b for a, b in zip(u._unpack(top[0]), u._unpack(bottom[0]))]
    if -1 in w and 1 not in w:
        top, bottom, w = bottom, top, [-x for x in w]
    # the chain keys are within _bound * (1 + max |w_j|); beyond the digit
    # range a carry could merge two chains
    if 1 not in w or p._bound * (1 + max(map(abs, w))) > EXP_LIMIT:
        return None
    if not (top[1] + bottom[1]) and sum(p._coeffs.values()):
        return None
    return _chain_div(p, f, w.index(1), top, bottom)


def _chain_div(p: LaurentPoly, f: LaurentPoly, i: int, top, bottom):
    """p/f or None, for a binomial f = c_t X^t + c_b X^b whose exponent
    difference s = t - b has x_i-entry 1, by synthetic division.

    f is X^b (c_t Z + c_b) with Z = X^s, and X^b is free of x_i (f's
    minimum exponent in x_i is 0).  Write each term of p as X^k' Z^e, where
    e is its x_i-degree and the chain key k' = k - e s is free of x_i.
    Multiplying by X^b and by c_t Z + c_b maps a chain into one chain, so
    f divides p exactly when it divides every chain polynomial
    sum_e c_e Z^e, a polynomial in Z up to a power of Z.  A single-term
    chain is a unit times a power of Z, which the binomial never divides.
    Otherwise Horner's scheme runs from the chain's top degree down: each
    step's value divided by c_t is the next quotient coefficient, and a
    remainder there is a miss, because c_t Z + c_b is primitive and any
    quotient of it is integral.  The final value is the chain polynomial,
    over its lowest power of Z, at Z = -c_b/c_t, and must be 0.  Gaps in a
    chain are degrees with coefficient 0, and zero quotient coefficients
    are left out.
    """
    (kt, ct), (kb, cb) = top, bottom
    pc = p._coeffs
    step = kt - kb
    chains: dict = {}
    for (k, c), e in zip(pc.items(), p.universe._digits(pc, i)):
        base = k - e * step
        chain = chains.get(base)
        if chain is None:
            chains[base] = {e: c}
        else:
            chain[e] = c
    quot = []
    append = quot.append
    for base, chain in chains.items():
        if len(chain) == 1:
            return None
        lo, hi = min(chain), max(chain)
        get = chain.get
        # the quotient's degree-j term of this chain is at key
        # base - kb + j * step
        key = base - kb + hi * step
        r = chain[hi]
        for j in range(hi - 1, lo - 1, -1):
            key -= step
            q, rest = divmod(r, ct)
            if rest:
                return None
            if q:
                append((key, q))
            r = get(j, 0) - cb * q
        if r:
            return None
    quot.sort(reverse=True)
    # the bound is the largest |exponent| of the quotient's keys
    low, high = p.universe._box([k for k, _ in quot])
    lead_c = f._denom
    return _canonical(p.universe, {k: c * lead_c for k, c in quot},
                      p._denom, _check_bound(max(map(abs, low + high))))


def _unit_inverse(m: LaurentPoly) -> LaurentPoly:
    """X^-k / c for a one-term m = c X^k, read from its one key and
    numerator: the numerator and denominator of a canonical single term
    are coprime, so swapping them, with the sign moved to the new
    numerator, leaves canonical storage.  The bound is max |e|."""
    [(key, n)] = m._coeffs.items()
    d = m._denom
    return LaurentPoly._make(m.universe, {-key: d if n > 0 else -d}, abs(n),
                             max(map(abs, m.universe._unpack(key)), default=0))


def _two_terms(k1: int, c1: int, k2: int, c2: int) -> dict:
    """{k1: c1} plus c2 at k2, merged as a sum merges them: one term, or
    none when they cancel, where the keys coincide."""
    if k1 != k2:
        return {k1: c1, k2: c2}
    return {k1: c1 + c2} if c1 + c2 else {}


def _normalize_den(den: LaurentPoly):
    """Split a nonzero denominator into a monomial to move into the
    numerator and a normalized factor (leading coefficient 1, minimum
    exponents 0), the latter None when the denominator is a monomial.

    This is the only place that gives a factor its shape, and RatFunc's
    constructor is its only caller.  Every other RatFunc operation only
    carries factors over from its operands, so every factor has this
    shape, and _exact_div relies on it."""
    if len(den._coeffs) == 1:
        return _unit_inverse(den), None
    u = den.universe
    if len(den._coeffs) == 2:
        # a binomial's box from its two exponent tuples
        ends = list(map(u._unpack, den._coeffs))
        low, high = list(map(min, *ends)), list(map(max, *ends))
    else:
        low, high = u._box(den._coeffs)
    off = u._key(low)
    # shifting keeps the lex order, so the leading term stays leading.  With
    # d the denominator and lead the leading numerator, the monomial is
    # X^-low times d/lead in lowest terms, and the factor is the shifted
    # numerators over lead, their content (signed like lead) divided out.
    d, lead = den._denom, den._coeffs[max(den._coeffs)]
    g = math.gcd(d, lead)
    c_num, c_den = d // g, lead // g
    if c_den < 0:
        c_num, c_den = -c_num, -c_den
    mono = LaurentPoly._make(u, {-off: c_num}, c_den,
                             max([0] + [abs(e) for e in low]))
    content = math.gcd(*den._coeffs.values())
    if lead < 0:
        content = -content
    factor = LaurentPoly._make(
        u, {k - off: v // content for k, v in den._coeffs.items()},
        lead // content, _check_bound(max(h - l for l, h in zip(low, high))))
    return mono, factor


class RatFunc:
    """Quotient of Laurent polynomials with cross-multiplication equality.

    The denominator is held as a multiset of irreducible-as-built factors,
    each normalized by _normalize_den, which lets sums share denominators.
    After a sum or product, trial division (_exact_div) cancels the
    binomial factors of the local classes that divide the numerator; any
    other factor stays.  No polynomial gcd is ever computed, and
    correctness never relies on cancellation succeeding.

    The expanded denominator satisfies the canonical shift: its minimum
    exponent in every variable is zero.

    The units of the Laurent ring skip the factor machinery.  A product
    by a scalar, or by a monomial c X^e (one numerator term, no factors),
    keeps the other operand's factors and tries no division, since a
    factor divides m * num exactly when it divides num.  The inverse of
    a monomial is X^-e / c, read from its one term; any other inverse is
    the constructor with numerator and denominator swapped.
    """

    __slots__ = ("universe", "num", "_factors")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None):
        factors = {}
        if den is not None:
            _check_same(num, den)
            if den.is_zero():
                raise ZeroDenominatorError("zero denominator")
            # as in _make: the zero function carries no denominator
            if not num.is_zero():
                scaled, factor = _normalize_den(den)
                num = num * scaled
                if factor is not None:
                    factors[factor] = 1
        self.universe = num.universe
        self.num = num
        self._factors = factors

    @classmethod
    def _make(cls, num: LaurentPoly, factors: dict) -> "RatFunc":
        """Trusted constructor.  It keeps `factors` without a copy: every
        caller passes a fresh dict or an operand's own, which no value
        mutates."""
        self = object.__new__(cls)
        self.universe = num.universe
        self.num = num
        self._factors = {} if num.is_zero() else factors
        return self

    def _reduced(self) -> "RatFunc":
        """Cancel denominator factors that exactly divide the numerator."""
        # a factor has at least two terms, so it is not a unit of the
        # Laurent ring and divides no monomial numerator
        if not self._factors or len(self.num._coeffs) == 1:
            return self
        num = self.num
        factors = {}
        for f, power in self._factors.items():
            while power > 0:
                q = _exact_div(num, f)
                if q is None:
                    break
                num = q
                power -= 1
            if power:
                factors[f] = power
        return RatFunc._make(num, factors)

    @property
    def den(self) -> LaurentPoly:
        """The product of the factor powers, computed on each read."""
        d = None
        for f, power in self._factors.items():
            fp = f if power == 1 else f ** power
            d = fp if d is None else d * fp
        return LaurentPoly.const(self.universe, 1) if d is None else d

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, universe: VarUniverse, c: Scalar) -> "RatFunc":
        return cls(LaurentPoly.const(universe, c))

    @classmethod
    def var(cls, universe: VarUniverse, name: str, power: int = 1) -> "RatFunc":
        return cls(LaurentPoly.var(universe, name, power))

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.universe, other)
        return None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_unit(self) -> bool:
        """Whether this is a unit c X^k of the Laurent ring: one numerator
        term and no factors."""
        return not self._factors and len(self.num._coeffs) == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(values):
        """The values' numerators over the least common multiset of their
        factors, and that multiset."""
        first = values[0]
        merged = dict(first._factors)
        for v in values[1:]:
            _check_same(first, v)
            for f, power in v._factors.items():
                if merged.get(f, 0) < power:
                    merged[f] = power
        nums = []
        for v in values:
            num, own = v.num, v._factors
            for f, power in merged.items():
                extra = power - own.get(f, 0)
                if extra:
                    num = num * f ** extra
            nums.append(num)
        return nums, merged

    @staticmethod
    def over_common_den(values):
        """The values' numerators over the least common multiset of their
        factors, and the reciprocal of that denominator (numerator 1, those
        factors): numerators[i] * reciprocal == values[i].  A sum formed
        over the lifted numerators needs no factor until it is multiplied
        by the reciprocal, whose product with it reduces once."""
        nums, merged = RatFunc._lift(values)
        return nums, RatFunc._make(LaurentPoly._make(values[0].universe,
                                                     {0: 1}), merged)

    def _combine(self, other, op):
        """op(self, other) over the common denominator, op add or sub.  A
        zero operand gives the other one, negated for 0 - x, with no lift
        over the other's factors and no trial division by them."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            _check_same(self, other)
            return self
        if self.is_zero():
            _check_same(self, other)
            return other if op is operator.add else -other
        (left, right), merged = RatFunc._lift((self, other))
        return RatFunc._make(op(left, right), merged)._reduced()

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self._factors)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        # a product by a unit of the Laurent ring (a scalar, or a one-term
        # numerator without factors) keeps the other operand's factors and
        # tries no division, as negation does: a factor divides m * num
        # exactly when it divides num.  A scalar is never lifted to a
        # RatFunc constant.
        if not isinstance(other, RatFunc):
            if isinstance(other, (int, Fraction)):
                return RatFunc._make(self.num * other, self._factors)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        _check_same(self, other)
        if other.is_unit():
            return RatFunc._make(self.num * other.num, self._factors)
        if self.is_unit():
            return RatFunc._make(self.num * other.num, other._factors)
        merged = dict(self._factors)
        for f, power in other._factors.items():
            merged[f] = merged.get(f, 0) + power
        return RatFunc._make(self.num * other.num, merged)._reduced()

    __rmul__ = __mul__

    def unreduced_product(self, others) -> "RatFunc":
        """self times each of `others` in turn, with no trial division: the
        numerators multiplied in order and the factor powers added.

        The value is the product whatever the operands.  Where no factor
        divides the running numerator, as for line classes 1 + y/w over
        origin classes 1 - 1/w (distinct irreducible binomials), it stores
        what the chain of `*` stores, without the divisions that miss."""
        num = self.num
        factors = dict(self._factors)
        for other in others:
            _check_same(self, other)
            num = num * other.num
            for f, power in other._factors.items():
                factors[f] = factors.get(f, 0) + power
        return RatFunc._make(num, factors)

    def __truediv__(self, other):
        if not isinstance(other, RatFunc) and isinstance(other, (int, Fraction)):
            # through the scalar product, with no constant to invert
            if not other:
                raise ZeroDenominatorError("division by zero rational function")
            return self * Fraction(1, other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDenominatorError("division by zero rational function")
        if self.is_unit():
            return RatFunc._make(_unit_inverse(self.num), {})
        return RatFunc(self.den, self.num)

    def line_classes(self, name: str):
        """1 - m, 1 + x m and (1 + x) m for this unit m = c X^k and the
        variable x named `name`, as RatFuncs without factors: the origin,
        line and punctured classes of the character whose inverse is m.

        Each is read from m's one key and numerator with the storage that
        Laurent arithmetic gives it.  Over m's denominator d, 1 - m is
        {0: d, k: -c} with m's bound, and 1 + x m is {k + x: c, 0: d} with
        one more; where the two keys coincide (a constant m, or m a
        multiple of 1/x) the numerators merge as a sum merges them, into
        one term or none.  (1 + x) m, the line less the origin, is
        {k + x: c, k: c}.  c and d are coprime, and so are d and d -+ c,
        so no gcd is taken."""
        if not self.is_unit():
            raise ValueError("line classes need a unit, got %s" % self)
        m = self.num
        u = m.universe
        [(k, c)] = m._coeffs.items()
        d, bound = m._denom, m._bound
        kx = k + u._place[u.index(name)]
        line_bound = _check_bound(bound + 1)
        return (RatFunc._make(LaurentPoly._make(u, _two_terms(0, d, k, -c),
                                                d, bound), {}),
                RatFunc._make(LaurentPoly._make(u, _two_terms(kx, c, 0, d),
                                                d, line_bound), {}),
                RatFunc._make(LaurentPoly._make(u, {kx: c, k: c}, d,
                                                line_bound), {}))

    def line_products(self, weights, name: str):
        """self times prod_w (1 + x/w) and self times prod_w (1 - 1/w) over
        units w and the variable x named `name`: with self 1, lambda_x and
        lambda_{-1} of the characters w, the products of the line and of
        the origin classes of `line_classes`.

        Both are read from the weights' keys with no inverse and no class
        object per weight.  With 1/w = c X^k over its denominator d, the
        line class is (d + c X^(k + x))/d and the origin class
        (d - c X^k)/d, so each weight doubles one packed-key -> numerator
        dict per product, over the running denominator; each product then
        takes one gcd and one object.  The bounds are what the chain of
        Laurent products stores: self's plus max |e| of each 1/w, and one
        more per weight in the line product.  Self's factors are carried
        over, and nothing is trial-divided.  A weight that is not a unit
        raises ValueError."""
        u = self.universe
        line = origin = self.num._coeffs
        denom, bound = self.num._denom, self.num._bound
        place = u._place[u.index(name)]
        for w in weights:
            _check_same(self, w)
            if not w.is_unit():
                raise ValueError("line products need unit weights, got %s"
                                 % w)
            # w = (p/q) X^-k, so 1/w = c X^k over d > 0
            [(key, p)] = w.num._coeffs.items()
            q, k = w.num._denom, -key
            c, d = (q, p) if p > 0 else (-q, -p)
            bound += max(map(abs, u._unpack(key)), default=0)
            denom *= d
            if d == 1:
                new_line, new_origin = dict(line), dict(origin)
            else:
                new_line = {j: v * d for j, v in line.items()}
                new_origin = {j: v * d for j, v in origin.items()}
            kx = k + place
            get = new_line.get
            for j, v in line.items():
                new_line[j + kx] = get(j + kx, 0) + c * v
            get = new_origin.get
            for j, v in origin.items():
                new_origin[j + k] = get(j + k, 0) - c * v
            line, origin = new_line, new_origin
        line_bound = _check_bound(bound + len(weights))
        return (RatFunc._make(_canonical(u, {j: v for j, v in line.items()
                                             if v}, denom, line_bound),
                              self._factors),
                RatFunc._make(_canonical(u, {j: v for j, v in origin.items()
                                             if v}, denom, bound),
                              self._factors))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer power expected")
        if k < 0:
            return self.inverse() ** (-k)
        if k == 1:
            return self
        factors = {f: power * k for f, power in self._factors.items()} if k else {}
        return RatFunc._make(self.num ** k, factors)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # cross-multiply, skipping factors shared by both denominators
        (left, right), _ = RatFunc._lift((self, other))
        return left == right

    # -- misc --------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object]) -> "RatFunc":
        """Monomial substitution (see LaurentPoly.substitute) applied to
        the numerator and to each denominator factor."""
        result = RatFunc(self.num.substitute(bindings))
        for f, power in self._factors.items():
            fs = f.substitute(bindings)
            if fs.is_zero():
                raise ZeroDenominatorError(
                    "substitution vanishes on the denominator")
            result = result * RatFunc(fs) ** (-power)
        return result

    def __str__(self) -> str:
        if not self._factors:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self) -> str:
        return "<RatFunc %s>" % self

    def to_json(self) -> dict:
        return {
            "universe": list(self.universe.names),
            "num": self.num.to_json_terms(),
            "den": self.den.to_json_terms(),
        }
