"""Exact arithmetic in the rational-function field of q.

Scalars are quotients of sparse Laurent polynomials whose exponents are
exact rational powers of q and whose coefficients are rational numbers.
Nothing here is ever floating point.  Canonical forms (fully reduced,
monic denominator with lowest exponent zero) make equality a structural
dictionary comparison.

Fractional exponents arise from half-weights and from weight pairings,
which on A_{n-1} produce denominators dividing 2n.  Internally every
gcd or division rescales exponents by their common denominator, so the
actual computation always happens in an ordinary Laurent ring.

Canonicalisation is fraction-free: each side is split into a rational
content times a primitive integer polynomial, the gcd is a primitive
polynomial remainder sequence over the integers, both sides are divided
by it with exact integer long division (exact by Gauss's lemma), and the
contents come back only when the denominator is made monic.  Sums go
through ``sum_scalars``, which adds numerators over each distinct
denominator and canonicalises once per denominator, not once per term.

Arithmetic on canonical scalars skips every gcd it can prove useless.
Addition is gcd-first (Henrici; Knuth, TAOCP vol. 2, 4.5.1): with
g = gcd(d1, d2) and e_i = d_i / g, the numerator n1*e2 + n2*e1 shares
no factor with e1*e2, so it is reduced against g alone, and not at all
when g = 1.  Multiplying or dividing by a unit c*q^e (a rational
constant included) keeps the other operand's denominator as it is.

Products and quotients of q-integers [x], or of factors 1 - q^(2x), go
through factor_product, the one place that writes such a factor as
sign * q^e * prod_d Phi_d(q^2)^p with Phi_d the d-th cyclotomic
polynomial.  The product is then a sum of signs, exponents and powers,
and cyclotomic_scalar turns it into a canonical scalar with no gcd:
distinct Phi_d are coprime, monic and nonzero at 0.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]

__all__ = [
    "ExactDivisionError",
    "LaurentPoly",
    "ExactScalar",
    "qint",
    "one_minus_q2",
    "factor_product",
    "cyclotomic",
    "cyclotomic_scalar",
    "q_power",
    "sum_scalars",
    "evaluate_limit_q1",
    "poly_to_str",
    "scalar_to_str",
    "parse_poly",
    "parse_scalar",
]


class ExactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial: finite map {exponent of q: coefficient}.

    Exponents are Fractions, coefficients are nonzero Fractions.  Instances
    are treated as immutable; no method mutates ``terms`` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Rat, Rat] | Iterable[tuple[Rat, Rat]] | None = None):
        data: dict[Fraction, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                c = _as_fraction(c)
                if c:
                    e = _as_fraction(e)
                    prev = data.get(e)
                    if prev is None:
                        data[e] = c
                    else:
                        s = prev + c
                        if s:
                            data[e] = s
                        else:
                            del data[e]
        self.terms = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _raw_poly({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _raw_poly({_F0: _F1})

    @classmethod
    def constant(cls, c: Rat) -> "LaurentPoly":
        return cls({Fraction(0): c})

    @classmethod
    def q_term(cls, exponent: Rat, coeff: Rat = 1) -> "LaurentPoly":
        """The monomial coeff * q^exponent."""
        return cls({exponent: coeff})

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {_F0: _F1}

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _F0 in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection ------------------------------------------------------

    @property
    def min_exp(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    @property
    def max_exp(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def eval_one(self) -> Fraction:
        """Value at q = 1 (sum of coefficients)."""
        return sum(self.terms.values(), Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            prev = data.get(e)
            if prev is None:
                data[e] = c
            else:
                s = prev + c
                if s:
                    data[e] = s
                else:
                    del data[e]
        return _raw_poly(data)

    __radd__ = __add__

    def __neg__(self):
        return _raw_poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly.zero()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        data: dict[Fraction, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                p = c1 * c2
                prev = data.get(e)
                if prev is None:
                    data[e] = p
                else:
                    s = prev + p
                    if s:
                        data[e] = s
                    else:
                        del data[e]
        return _raw_poly(data)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, int) or m < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = LaurentPoly.one()
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def conj(self) -> "LaurentPoly":
        """Substitute q -> q^(-1)."""
        return _raw_poly({-e: c for e, c in self.terms.items()})

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # equal to the hash of the int or Fraction a constant compares equal to
        if self.is_constant:
            return hash(self.terms.get(_F0, _F0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly<{poly_to_str(self)}>"


_F0 = Fraction(0)
_F1 = Fraction(1)


def _raw_poly(data: dict[Fraction, Fraction]) -> LaurentPoly:
    """Wrap an already-normalized term dict without copying."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = data
    return p


def _coerce_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.constant(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# dense helpers: ordinary polynomials as coefficient lists, low degree first
# ---------------------------------------------------------------------------


def _exp_lcm(*polys: LaurentPoly) -> int:
    dens = [e.denominator for p in polys for e in p.terms]
    return math.lcm(*dens) if dens else 1


def _to_dense(p: LaurentPoly, scale: int) -> tuple[int, list[Fraction]]:
    """Return (lowest scaled exponent, coefficient list) for nonzero p."""
    scaled = {}
    for e, c in p.terms.items():
        se = e * scale
        if se.denominator != 1:
            raise ValueError("exponent scale does not clear denominators")
        scaled[int(se)] = c
    lo = min(scaled)
    hi = max(scaled)
    coeffs = [_F0] * (hi - lo + 1)
    for se, c in scaled.items():
        coeffs[se - lo] = c
    return lo, coeffs


def _from_dense(lo: int, coeffs: list[Fraction], scale: int) -> LaurentPoly:
    return _raw_poly({Fraction(lo + i, scale): c for i, c in enumerate(coeffs) if c})


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _primitive(coeffs: list[Rat]) -> tuple[Fraction, list[int]]:
    """Split a trimmed coefficient list into (content, primitive part).

    The primitive part is a list of coprime integers with a positive
    leading entry, and content * primitive part gives back the input.
    An integer list stays in integers: its denominators are all 1.
    [] splits as (0, []).
    """
    if not coeffs:
        return _F0, []
    den = math.lcm(*(c.denominator for c in coeffs))
    num = math.gcd(*(c.numerator for c in coeffs))
    if coeffs[-1] < 0:
        num = -num
    if den == 1:
        return Fraction(num), [c // num for c in coeffs]
    return Fraction(num, den), [c.numerator * (den // c.denominator) // num for c in coeffs]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        la = a[-1]
        if la == 0:
            a.pop()
            continue
        d = len(a) - 1 - db
        a = [lb * c for c in a]
        for j, cb in enumerate(b):
            a[j + d] -= la * cb
        a.pop()
        _trim(a)
    return a


def _poly_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive PRS gcd of primitive integer polynomials."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))[1]
    return a


def _exact_quo_int(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists, when b divides a with an integer quotient.

    By Gauss's lemma that holds whenever a primitive b divides an integer
    a over the rationals.  Any remainder raises ExactDivisionError.
    """
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f, r = divmod(c, lead)
            if r:
                raise ExactDivisionError("nonzero remainder in exact polynomial division")
            quo[i - db] = f
            for j, d in enumerate(b):
                a[i - db + j] -= f * d
    if any(a[:db]):
        raise ExactDivisionError("nonzero remainder in exact polynomial division")
    return quo


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (lowest exponent normalized to 0).

    Fraction-free: content is stripped and the remainder sequence stays in
    integer coefficients throughout.
    """
    if a.is_zero and b.is_zero:
        return LaurentPoly.zero()
    scale = _exp_lcm(a, b)
    prims = [_primitive(_to_dense(p, scale)[1])[1] if p else [] for p in (a, b)]
    g = _poly_gcd_int(*prims)
    return _from_dense(0, [Fraction(c, g[-1]) for c in g], scale)


def exact_div_poly(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b when the division is exact; ExactDivisionError otherwise."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return LaurentPoly.zero()
    scale = _exp_lcm(a, b)
    la, ca = _to_dense(a, scale)
    lb, cb = _to_dense(b, scale)
    ka, pa = _primitive(ca)
    kb, pb = _primitive(cb)
    ratio = ka / kb
    return _from_dense(la - lb, [ratio * c for c in _exact_quo_int(pa, pb)], scale)


# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------


class ExactScalar:
    """Quotient of Laurent polynomials, always stored in canonical form.

    Canonical means: numerator and denominator share no polynomial factor,
    all q-power factors are moved into the numerator (the denominator's
    lowest exponent is 0), and the denominator is monic.  Zero is 0/1.
    Equality is then plain structural comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        if num is NotImplemented:
            raise TypeError("numerator must be a LaurentPoly or rational")
        if den is None:
            den = LaurentPoly.one()
        else:
            den = _coerce_poly(den)
            if den is NotImplemented:
                raise TypeError("denominator must be a LaurentPoly or rational")
        self.num, self.den = _canonical_pair(num, den)

    @classmethod
    def _make(cls, num: LaurentPoly, den: LaurentPoly) -> "ExactScalar":
        """Trusted constructor for a pair already in canonical form."""
        s = cls.__new__(cls)
        s.num = num
        s.den = den
        return s

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls._make(LaurentPoly.zero(), LaurentPoly.one())

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls._make(LaurentPoly.one(), LaurentPoly.one())

    @classmethod
    def from_rational(cls, c: Rat) -> "ExactScalar":
        return cls._make(LaurentPoly.constant(c), LaurentPoly.one())

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    @property
    def is_rational_constant(self) -> bool:
        return self.den.is_one and self.num.is_constant

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # gcd-first (see the module docstring); scalars with different
        # canonical denominators never sum to zero, so no zero check below
        if d1.terms == d2.terms:
            if d1.is_one:
                return ExactScalar._make(n1 + n2, d1)
            return ExactScalar(n1 + n2, d1)
        g = LaurentPoly.one() if d1.is_one or d2.is_one else laurent_gcd(d1, d2)
        if g.is_one:
            return ExactScalar._make(n1 * d2 + n2 * d1, d1 * d2)
        e1 = exact_div_poly(d1, g)
        e2 = exact_div_poly(d2, g)
        part = ExactScalar(n1 * e2 + n2 * e1, g)
        return ExactScalar._make(part.num, part.den * e1 * e2)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._make(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        # a unit c*q^e keeps the other factor's denominator canonical
        if other.den.is_one:
            if self.den.is_one or other.num.is_monomial:
                return ExactScalar._make(self.num * other.num, self.den)
        elif self.den.is_one and self.num.is_monomial:
            return ExactScalar._make(self.num * other.num, other.den)
        return ExactScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("exact scalar division by zero")
        if other.den.is_one and other.num.is_monomial:
            (e, c), = other.num.terms.items()
            return ExactScalar._make(self.num * _raw_poly({-e: _F1 / c}), self.den)
        return ExactScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "ExactScalar":
        if self.num.is_zero:
            raise ZeroDivisionError("cannot invert zero")
        return ExactScalar(self.den, self.num)

    def __pow__(self, m: int):
        if not isinstance(m, int):
            raise TypeError("scalar powers must be integers")
        base = self
        if m < 0:
            base = self.inverse()
            m = -m
        out = ExactScalar.one()
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def subst_q_inverse(self) -> "ExactScalar":
        """The image under q -> q^(-1)."""
        return ExactScalar(self.num.conj(), self.den.conj())

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self) -> int:
        # a polynomial scalar compares equal to its numerator, so it hashes like it
        if self.den.is_one:
            return hash(self.num)
        return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))

    def __str__(self) -> str:
        return scalar_to_str(self)

    def __repr__(self) -> str:
        return f"ExactScalar<{scalar_to_str(self)}>"


def _coerce_scalar(x) -> ExactScalar:
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.from_rational(x)
    if isinstance(x, LaurentPoly):
        return ExactScalar(x)
    return NotImplemented


def _canonical_pair(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return LaurentPoly.zero(), LaurentPoly.one()
    if den.is_monomial:
        (e, c), = den.terms.items()
        if e == 0 and c == 1:
            return num, LaurentPoly.one()
        inv = _F1 / c
        return _raw_poly({ke - e: kc * inv for ke, kc in num.terms.items()}), LaurentPoly.one()
    scale = _exp_lcm(num, den)
    ln, cn = _to_dense(num, scale)
    ld, cd = _to_dense(den, scale)
    kn, pn = _primitive(cn)
    kd, pd = _primitive(cd)
    g = _poly_gcd_int(pn, pd)
    if len(g) > 1:
        pn = _exact_quo_int(pn, g)
        pd = _exact_quo_int(pd, g)
    lead = pd[-1]
    ratio = kn / (kd * lead)
    return (_from_dense(ln - ld, [ratio * c for c in pn], scale),
            _from_dense(0, [Fraction(c, lead) for c in pd], scale))


def sum_scalars(items: Iterable[ExactScalar | tuple[ExactScalar, ExactScalar]]) -> ExactScalar:
    """The sum of the items, each a scalar or a pair (a, b) standing for a * b.

    Canonical denominators are monic with lowest exponent 0, and so is a
    product of two.  The numerators of all items that share a denominator
    are added as plain term dicts, with no gcd; then one scalar is
    canonicalised per distinct denominator and those few are added.  A
    pair's product is never canonicalised on its own.
    """
    groups: dict[frozenset, tuple[LaurentPoly, dict[Fraction, Fraction]]] = {}
    for item in items:
        if isinstance(item, ExactScalar):
            num, den = item.num, item.den
        else:
            a, b = item
            num = a.num * b.num
            den = a.den if b.den.is_one else b.den if a.den.is_one else a.den * b.den
        key = frozenset(den.terms.items())
        group = groups.get(key)
        if group is None:
            group = groups[key] = (den, {})
        acc = group[1]
        for e, c in num.terms.items():
            acc[e] = acc.get(e, _F0) + c
    total = ExactScalar.zero()
    for den, acc in groups.values():
        total = total + ExactScalar(_raw_poly({e: c for e, c in acc.items() if c}), den)
    return total


# ---------------------------------------------------------------------------
# q-integers and limits
# ---------------------------------------------------------------------------


def q_power(exponent: Rat) -> ExactScalar:
    """The monomial q^exponent as a scalar."""
    return ExactScalar._make(LaurentPoly.q_term(exponent), LaurentPoly.one())


def qint(m: int) -> ExactScalar:
    """The symmetric q-integer [m] = (q^m - q^(-m)) / (q - q^(-1)).

    For m > 0 this expands to q^(m-1) + q^(m-3) + ... + q^(1-m); [0] = 0
    and [-m] = -[m].
    """
    if not isinstance(m, int):
        raise TypeError("q-integers are indexed by integers")
    sign = 1
    if m < 0:
        sign, m = -1, -m
    terms = {Fraction(m - 1 - 2 * j): Fraction(sign) for j in range(m)}
    return ExactScalar._make(_raw_poly(terms), LaurentPoly.one())


def one_minus_q2(x: int) -> ExactScalar:
    """1 - q^(2x) as a scalar (zero when x = 0)."""
    return ExactScalar._make(LaurentPoly.one() - LaurentPoly.q_term(2 * x), LaurentPoly.one())


def factor_product(up: Sequence[int], down: Sequence[int], factor) -> ExactScalar:
    """prod_{x in up} factor(x) / prod_{x in down} factor(x), for factor qint or one_minus_q2.

    Each factor is sign * q^e * a product of binomials (q^(2m) - 1)^(+-1),

        [x]        = sgn(x) q^(1 - |x|) (q^(2|x|) - 1) / (q^2 - 1),
        1 - q^(2x) = -(q^(2x) - 1) for x > 0,  q^(2x) (q^(-2x) - 1) for x < 0,

    and q^(2m) - 1 = prod_{d | m} Phi_d(q^2).  The signs multiply, the
    exponents and binomial powers add (a down factor's subtract), and
    cyclotomic_scalar assembles the result with no gcd.  A vanishing up
    factor gives 0; a vanishing down factor raises ZeroDivisionError, even
    when an up factor vanishes too.
    """
    if factor is not qint and factor is not one_minus_q2:
        raise ValueError(f"factor_product needs factor qint or one_minus_q2, got {factor!r}")
    if 0 in down:
        raise ZeroDivisionError("exact scalar division by zero")
    if 0 in up:
        return ExactScalar.zero()
    sign, q_exp, binomials = 1, 0, {}
    for xs, step in ((up, 1), (down, -1)):
        for x in xs:
            m = abs(x)
            binomials[m] = binomials.get(m, 0) + step
            if factor is qint:
                if x < 0:
                    sign = -sign
                q_exp += step * (1 - m)
                binomials[1] = binomials.get(1, 0) - step
            elif x > 0:
                sign = -sign
            else:
                q_exp += step * 2 * x
    powers: dict[int, int] = {}
    for m, p in binomials.items():
        if p:
            for d in range(1, m + 1):
                if m % d == 0:
                    powers[d] = powers.get(d, 0) + p
    return cyclotomic_scalar(sign, q_exp, powers.items())


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_d, low degree first.

    Phi_d is x^d - 1 divided by Phi_e for every proper divisor e of d.
    """
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _exact_quo_int(p, cyclotomic(e))
    return tuple(p)


def _mul_int(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic_scalar(sign: int, q_exp: int, powers: Iterable[tuple[int, int]]) -> ExactScalar:
    """sign * q^q_exp * prod Phi_d(q^2)^p over the pairs (d, p), canonical with no gcd.

    Distinct Phi_d are coprime and monic with a nonzero constant term, and
    so are their values at q^2.  The positive powers with the sign and the
    q-power make the numerator and the negative powers the denominator;
    that pair is already canonical.  A sign of 0 gives 0.
    """
    if not sign:
        return ExactScalar.zero()
    num, den = [sign], [1]
    for d, p in powers:
        for _ in range(abs(p)):
            if p > 0:
                num = _mul_int(num, cyclotomic(d))
            else:
                den = _mul_int(den, cyclotomic(d))
    return ExactScalar._make(
        _raw_poly({Fraction(q_exp + 2 * i): Fraction(c) for i, c in enumerate(num) if c}),
        _raw_poly({Fraction(2 * i): Fraction(c) for i, c in enumerate(den) if c}))


def evaluate_limit_q1(s: ExactScalar) -> Fraction:
    """The value at q = 1, defined when the reduced form has no pole there."""
    d = s.den.eval_one()
    if d == 0:
        raise ValueError("pole at q = 1")
    return s.num.eval_one() / d


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------
#
#   scalar := poly | '(' poly ')/(' poly ')'
#   poly   := term (('+'|'-') term)*
#   term   := coeff ['*' 'q^(' rational ')']
#
# Printing always includes the coefficient (so q^2 renders as "1*q^(2)")
# and lists terms by increasing exponent; parsing is a tolerant superset
# that also accepts a bare q-power with no coefficient.


def poly_to_str(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for e in sorted(p.terms):
        c = p.terms[e]
        mag = abs(c)
        body = str(mag) if e == 0 else f"{mag}*q^({e})"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def scalar_to_str(s: ExactScalar) -> str:
    if s.den.is_one:
        return poly_to_str(s.num)
    return f"({poly_to_str(s.num)})/({poly_to_str(s.den)})"


_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_QPOW_RE = re.compile(r"q\^\(\s*(-?\d+(?:/\d+)?)\s*\)")


def parse_poly(text: str) -> LaurentPoly:
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    terms: list[tuple[Fraction, Fraction]] = []
    i, n = 0, len(s)
    first = True
    while i < n:
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            break
        sign = 1
        if s[i] in "+-":
            if s[i] == "-":
                sign = -1
            i += 1
            while i < n and s[i].isspace():
                i += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' at position {i} in {text!r}")
        m = _NUM_RE.match(s, i)
        coeff = None
        if m:
            coeff = Fraction(m.group())
            i = m.end()
            while i < n and s[i].isspace():
                i += 1
        exp = _F0
        has_q = False
        if i < n and s[i] in "*q":
            j = i
            if s[j] == "*":
                if coeff is None:
                    raise ValueError(f"'*' without coefficient at position {j} in {text!r}")
                j += 1
                while j < n and s[j].isspace():
                    j += 1
            m2 = _QPOW_RE.match(s, j)
            if not m2:
                raise ValueError(f"malformed q-power at position {j} in {text!r}")
            exp = Fraction(m2.group(1))
            i = m2.end()
            has_q = True
        if coeff is None:
            if not has_q:
                raise ValueError(f"empty term at position {i} in {text!r}")
            coeff = _F1
        terms.append((exp, sign * coeff))
        first = False
    if first:
        raise ValueError(f"no terms found in {text!r}")
    return LaurentPoly(terms)


def parse_scalar(text: str) -> ExactScalar:
    s = text.strip()
    if s.startswith("("):
        m = re.fullmatch(r"\((?P<num>.*?)\)\s*/\s*\((?P<den>.*)\)", s, re.S)
        if not m:
            raise ValueError(f"malformed scalar quotient: {text!r}")
        return ExactScalar(parse_poly(m.group("num")), parse_poly(m.group("den")))
    return ExactScalar(parse_poly(s))
