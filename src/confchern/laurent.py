"""Exact arithmetic core: sparse multivariate Laurent polynomials over Q
and rational functions with cross-multiplication equality.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[Fraction, int]


class UniverseMismatchError(ValueError):
    pass


class ZeroDenominatorError(ZeroDivisionError):
    pass


class VarUniverse:
    """Ordered, fixed list of variable names shared by all values built over it."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

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


def _check_same(a, b):
    if a.universe != b.universe:
        raise UniverseMismatchError(
            "mixed universes: %r vs %r" % (a.universe.names, b.universe.names)
        )


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected exact rational, got %r" % (x,))


class LaurentPoly:
    """Sparse Laurent polynomial: map from exponent tuples to nonzero Fractions.

    Exponent tuples have one signed entry per universe variable.  Term order
    (for serialization) is descending lexicographic in universe order.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: Mapping[tuple, Scalar] = ()):
        self.universe = universe
        clean = {}
        for exps, coeff in dict(terms).items():
            coeff = _as_fraction(coeff)
            if coeff:
                if len(exps) != len(universe):
                    raise ValueError("exponent tuple length mismatch")
                clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, universe: VarUniverse) -> "LaurentPoly":
        return cls(universe)

    @classmethod
    def const(cls, universe: VarUniverse, c: Scalar) -> "LaurentPoly":
        c = _as_fraction(c)
        if not c:
            return cls(universe)
        return cls(universe, {(0,) * len(universe): c})

    @classmethod
    def var(cls, universe: VarUniverse, name: str, power: int = 1) -> "LaurentPoly":
        exps = [0] * len(universe)
        exps[universe.index(name)] = power
        return cls(universe, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, universe: VarUniverse, exps: Mapping[str, int],
                 coeff: Scalar = 1) -> "LaurentPoly":
        vec = [0] * len(universe)
        for name, e in exps.items():
            vec[universe.index(name)] = e
        return cls(universe, {tuple(vec): _as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        if not self.terms:
            return True
        zero = (0,) * len(self.universe)
        return len(self.terms) == 1 and zero in self.terms

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        [(exps, coeff)] = self.terms.items()
        if any(exps):
            raise ValueError("not a constant: %s" % self)
        return coeff

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.universe, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_same(self, other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = terms.get(exps, 0) + coeff
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.universe, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.universe, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.universe, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return LaurentPoly(self.universe,
                               {e: cf * c for e, cf in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_same(self, other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(exps, 0) + c1 * c2
                if s:
                    terms[exps] = s
                else:
                    terms.pop(exps, None)
        return LaurentPoly(self.universe, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("LaurentPoly power must be a nonnegative integer")
        result = LaurentPoly.const(self.universe, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.universe, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    # -- structure queries -------------------------------------------------

    def min_exp(self, name: str) -> int:
        """Smallest exponent of `name` over all terms (0 for the zero poly)."""
        if not self.terms:
            return 0
        i = self.universe.index(name)
        return min(e[i] for e in self.terms)

    def shift(self, exps: Mapping[str, int]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponents."""
        vec = [0] * len(self.universe)
        for name, e in exps.items():
            vec[self.universe.index(name)] = e
        terms = {tuple(x + y for x, y in zip(e, vec)): c
                 for e, c in self.terms.items()}
        return LaurentPoly(self.universe, terms)

    def coeff_of(self, name: str, power: int) -> "LaurentPoly":
        """Collect terms with the given exponent of `name`, with that
        exponent zeroed out in the result."""
        i = self.universe.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                terms[e[:i] + (0,) + e[i + 1:]] = c
        return LaurentPoly(self.universe, terms)

    def translate(self, name: str, c: Scalar) -> "LaurentPoly":
        """`name` replaced by `name` + c, for a polynomial without negative
        powers of `name`: each term's power is expanded by the binomial
        theorem."""
        c = _as_fraction(c)
        if not c:
            return self
        i = self.universe.index(name)
        terms: dict = {}
        for e, coeff in self.terms.items():
            d = e[i]
            for j in range(d + 1):
                key = e[:i] + (j,) + e[i + 1:]
                s = terms.get(key, 0) + coeff * math.comb(d, j) * c ** (d - j)
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return LaurentPoly(self.universe, terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object]) -> "LaurentPoly":
        """Simultaneous monomial substitution.

        Each bound variable goes to a constant or to c * monomial over our
        universe: an int, a Fraction, a LaurentPoly with at most one term,
        or a RatFunc with no denominator factors and at most one numerator
        term.
        """
        u = self.universe
        # bound variable's index -> (coefficient, [(index, exponent)])
        images = {u.index(name): _monomial_image(name, value, u)
                  for name, value in bindings.items()}
        terms: dict = {}
        for exps, coeff in self.terms.items():
            vec = list(exps)
            for i, (c, mono) in images.items():
                e = exps[i]
                if not e:
                    continue
                vec[i] -= e
                if c != 1:
                    if not c and e < 0:
                        raise ZeroDenominatorError(
                            "substituting 0 into a negative power")
                    coeff = coeff * c ** e
                for j, x in mono:
                    vec[j] += x * e
            key = tuple(vec)
            terms[key] = terms.get(key, 0) + coeff
        return LaurentPoly(u, terms)  # drops the zero sums

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
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

    @classmethod
    def from_json_terms(cls, universe: VarUniverse, terms: list) -> "LaurentPoly":
        acc = {}
        for t in terms:
            vec = [0] * len(universe)
            for name, e in t["exps"].items():
                vec[universe.index(name)] = int(e)
            acc[tuple(vec)] = Fraction(t["coeff"])
        return cls(universe, acc)


def _monomial_image(name: str, value, universe: VarUniverse):
    """A substitution binding as (coefficient, [(index, exponent)])."""
    if isinstance(value, (int, Fraction)):
        return _as_fraction(value), []
    if isinstance(value, RatFunc) and not value._factors:
        value = value.num
    if isinstance(value, LaurentPoly) and len(value.terms) <= 1:
        if value.universe != universe:
            raise UniverseMismatchError("binding universes disagree")
        if value.is_zero():
            return Fraction(0), []
        [(exps, c)] = value.terms.items()
        return c, [(j, x) for j, x in enumerate(exps) if x]
    raise ValueError("binding for %r is not a constant or c * monomial: %r"
                     % (name, value))


def _exact_div(p: LaurentPoly, f: LaurentPoly):
    """Quotient p/f if f divides p exactly (up to monomials), else None.

    Monomial factors always divide in the Laurent ring, so divisibility is
    tested after shifting both operands to nonnegative exponents.  The
    remainder lives in one dict that each step updates in place: the
    lex-leading term is cancelled against f's leading term, and only the
    terms that f's other terms touch are rewritten.
    """
    if p.is_zero():
        return p
    u = p.universe
    nvars = len(u)
    p_low = [min(e[i] for e in p.terms) for i in range(nvars)]
    f_low = [min(e[i] for e in f.terms) for i in range(nvars)]
    rem = {tuple(x - m for x, m in zip(e, p_low)): c
           for e, c in p.terms.items()}
    f0 = {tuple(x - m for x, m in zip(e, f_low)): c
          for e, c in f.terms.items()}
    lead = max(f0)
    lead_c = f0.pop(lead)
    rest = list(f0.items())
    quot = []
    while rem:
        top = max(rem)
        q_exps = tuple(a - b for a, b in zip(top, lead))
        if any(x < 0 for x in q_exps):
            return None
        q_c = rem.pop(top) / lead_c
        quot.append((q_exps, q_c))
        for e, c in rest:
            key = tuple(a + b for a, b in zip(q_exps, e))
            s = rem.get(key, 0) - q_c * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    # undo the shifts: p/f = x^(p_low - f_low) * (p0/f0)
    back = [a - b for a, b in zip(p_low, f_low)]
    return LaurentPoly(u, {tuple(x + d for x, d in zip(q, back)): c
                           for q, c in quot})


def _normalize_den(den: LaurentPoly):
    """Split a nonzero denominator into a monomial to move into the
    numerator and a normalized factor (leading coefficient 1, minimum
    exponents 0), the latter None when the denominator is a monomial."""
    u = den.universe
    s = {n: -den.min_exp(n) for n in u}
    den0 = den.shift(s)
    if len(den0.terms) == 1:
        c = den0.terms[(0,) * len(u)]
        mono = LaurentPoly(u, {tuple(s[n] for n in u): Fraction(1) / c})
        return mono, None
    c = den0.terms[max(den0.terms)]
    mono = LaurentPoly(u, {tuple(s[n] for n in u): Fraction(1) / c})
    return mono, den0 * (Fraction(1) / c)


class RatFunc:
    """Quotient of Laurent polynomials with cross-multiplication equality.

    The denominator is held as a multiset of normalized irreducible-as-built
    factors, which lets sums share denominators and lets exact trial
    division cancel factors cheaply.  No polynomial gcd is ever computed;
    correctness never relies on cancellation succeeding.

    The expanded denominator satisfies the canonical shift: its minimum
    exponent in every variable is zero.
    """

    __slots__ = ("universe", "num", "_factors", "_den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None):
        if den is None:
            self._init_parts(num, {})
            return
        _check_same(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if num.is_zero():
            # as in _make: the zero function carries no denominator
            self._init_parts(num, {})
            return
        scaled, factor = _normalize_den(den)
        self._init_parts(num * scaled, {factor: 1} if factor is not None else {})

    def _init_parts(self, num: LaurentPoly, factors: dict):
        self.universe = num.universe
        self.num = num
        self._factors = factors
        self._den = None

    @classmethod
    def _make(cls, num: LaurentPoly, factors: dict) -> "RatFunc":
        self = object.__new__(cls)
        if num.is_zero():
            factors = {}
        self._init_parts(num, dict(factors))
        return self

    def _reduced(self) -> "RatFunc":
        """Cancel denominator factors that exactly divide the numerator."""
        if not self._factors or self.num.is_zero():
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
        if self._den is None:
            d = LaurentPoly.const(self.universe, 1)
            for f, power in self._factors.items():
                d = d * f ** power
            self._den = d
        return self._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, universe: VarUniverse, c: Scalar) -> "RatFunc":
        return cls(LaurentPoly.const(universe, c))

    @classmethod
    def var(cls, universe: VarUniverse, name: str, power: int = 1) -> "RatFunc":
        return cls(LaurentPoly.var(universe, name, power))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.universe, other)
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            return other
        return None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _over_common_den(self, other):
        """Both numerators over the smallest common multiset of factors:
        (self.num * extra, other.num * extra', merged factors)."""
        _check_same(self, other)
        merged = dict(self._factors)
        for f, power in other._factors.items():
            if merged.get(f, 0) < power:
                merged[f] = power
        left = self.num
        for f, power in merged.items():
            extra = power - self._factors.get(f, 0)
            if extra:
                left = left * f ** extra
        right = other.num
        for f, power in merged.items():
            extra = power - other._factors.get(f, 0)
            if extra:
                right = right * f ** extra
        return left, right, merged

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, right, merged = self._over_common_den(other)
        return RatFunc._make(left + right, merged)._reduced()

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self._factors)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, right, merged = self._over_common_den(other)
        return RatFunc._make(left - right, merged)._reduced()

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _check_same(self, other)
        merged = dict(self._factors)
        for f, power in other._factors.items():
            merged[f] = merged.get(f, 0) + power
        return RatFunc._make(self.num * other.num, merged)._reduced()

    __rmul__ = __mul__

    def __truediv__(self, other):
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
        scaled, factor = _normalize_den(self.num)
        return RatFunc._make(self.den * scaled,
                             {factor: 1} if factor is not None else {})

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer power expected")
        if k < 0:
            return self.inverse() ** (-k)
        factors = {f: power * k for f, power in self._factors.items()} if k else {}
        return RatFunc._make(self.num ** k, factors)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # cross-multiply, skipping factors shared by both denominators
        left, right, _ = self._over_common_den(other)
        return left == right

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is semantic)")

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

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __str__(self) -> str:
        if self.den.is_const():
            d = self.den.const_value()
            if d == 1:
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

    @classmethod
    def from_json(cls, obj: dict) -> "RatFunc":
        universe = VarUniverse(obj["universe"])
        return cls(LaurentPoly.from_json_terms(universe, obj["num"]),
                   LaurentPoly.from_json_terms(universe, obj["den"]))

