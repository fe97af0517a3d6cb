"""The group algebra of the weight lattice, with exact scalar coefficients.

Elements are finite sums  sum_beta c_beta e^beta  with c_beta in the
exact scalar field.  This is where symmetric-group invariance, the bar
involution e^beta -> e^(-beta), constant terms, and principal-type
evaluations e^beta -> q^(2 (beta, xi)) live.

Two products over roots live here too: root_product, behind every closed
form of the paper, hands its q-integers or factors 1 - q^(2x) to
exact.factor_product; binomial_product multiplies e^lead by root binomials
1 - q^(2i) e^alpha and gives the kernel, chi0 and the Weyl alternant a_rho.
"""

from __future__ import annotations

from typing import Mapping

from .exact import (ExactScalar, _coerce_scalar, factor_product, q_power, qint, scalar_to_str,
                    sum_scalars)
from .weights import Weight, RootData, check_param, pairing, weyl_orbit

__all__ = [
    "GroupAlgebraElement",
    "orbit_sum",
    "orbit_expansion",
    "char_lambda_r",
    "qdim",
    "root_product",
    "binomial_product",
    "element_to_str",
]


class GroupAlgebraElement:
    """A finite formal sum of exponentials e^beta over one weight lattice."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Weight, object] | None = None):
        check_param(n, "rank parameter n", 2)
        data: dict[Weight, ExactScalar] = {}
        if terms:
            for w, c in terms.items():
                if w.rank != n:
                    raise ValueError(f"weight {w!r} has rank {w.rank}, element has rank {n}")
                c = _coerce_scalar(c)
                if c is NotImplemented:
                    raise TypeError(f"bad coefficient for {w!r}")
                if c:
                    data[w] = c
        self.n = n
        self.terms = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {Weight.zero(n): ExactScalar.one()})

    @classmethod
    def exponential(cls, w: Weight, coeff=1) -> "GroupAlgebraElement":
        """The single term coeff * e^w."""
        return cls(w.rank, {w: coeff})

    @classmethod
    def _raw(cls, n: int, data: dict[Weight, ExactScalar]) -> "GroupAlgebraElement":
        el = cls.__new__(cls)
        el.n = n
        el.terms = data
        return el

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list[Weight]:
        return sorted(self.terms, key=lambda w: w.coords)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check(other)
        data = dict(self.terms)
        for w, c in other.terms.items():
            prev = data.get(w)
            if prev is None:
                data[w] = c
            else:
                s = prev + c
                if s:
                    data[w] = s
                else:
                    del data[w]
        return GroupAlgebraElement._raw(self.n, data)

    def __neg__(self):
        return GroupAlgebraElement._raw(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            self._check(other)
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            data: dict[Weight, ExactScalar] = {}
            for w1, c1 in a.items():
                for w2, c2 in b.items():
                    w = w1 + w2
                    p = c1 * c2
                    prev = data.get(w)
                    if prev is None:
                        if p:
                            data[w] = p
                    else:
                        s = prev + p
                        if s:
                            data[w] = s
                        else:
                            del data[w]
            return GroupAlgebraElement._raw(self.n, data)
        c = _coerce_scalar(other)
        if c is NotImplemented:
            return NotImplemented
        if not c:
            return GroupAlgebraElement.zero(self.n)
        return GroupAlgebraElement._raw(self.n, {w: cw * c for w, cw in self.terms.items()})

    __rmul__ = __mul__

    # -- structure maps --------------------------------------------------

    def bar(self) -> "GroupAlgebraElement":
        """The involution e^beta -> e^(-beta); scalar coefficients untouched."""
        return GroupAlgebraElement._raw(self.n, {-w: c for w, c in self.terms.items()})

    def constant_term(self) -> ExactScalar:
        return self.terms.get(Weight.zero(self.n), ExactScalar.zero())

    def evaluate_at(self, xi: Weight) -> ExactScalar:
        """Substitute e^beta -> q^(2 (beta, xi)), summed over common denominators."""
        if xi.rank != self.n:
            raise ValueError(f"evaluation point has rank {xi.rank}, element has rank {self.n}")
        return sum_scalars((c, q_power(2 * pairing(w, xi))) for w, c in self.terms.items())

    def is_w_invariant(self) -> bool:
        """Invariance under all adjacent-transposition coordinate swaps."""
        for i in range(self.n - 1):
            for w, c in self.terms.items():
                coords = list(w.coords)
                coords[i], coords[i + 1] = coords[i + 1], coords[i]
                if self.terms.get(Weight(coords)) != c:
                    return False
        return True

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"GroupAlgebraElement<{element_to_str(self)}>"


def element_to_str(f: GroupAlgebraElement) -> str:
    if f.is_zero:
        return "0"
    parts = [f"({scalar_to_str(f.terms[w])})*e[{w}]" for w in f.support()]
    return " + ".join(parts)


def orbit_sum(lam: Weight) -> GroupAlgebraElement:
    """m_lam: the sum of e^mu over the Weyl orbit of dominant lam, coefficients 1."""
    if not lam.is_dominant:
        raise ValueError(f"orbit sums are indexed by dominant weights, got {lam!r}")
    one = ExactScalar.one()
    return GroupAlgebraElement._raw(lam.rank, {w: one for w in weyl_orbit(lam)})


def orbit_expansion(n: int, coeffs: Mapping[Weight, ExactScalar]) -> GroupAlgebraElement:
    """sum_mu c_mu m_mu over dominant mu; zero coefficients are dropped.

    Orbits of distinct dominant weights are disjoint: no terms to combine.
    """
    return GroupAlgebraElement._raw(
        n, {w: c for mu, c in coeffs.items() if c for w in weyl_orbit(mu)})


def char_lambda_r(n: int, r: int) -> GroupAlgebraElement:
    """Character of the r-th exterior power of the vector representation.

    The highest weight omega_r is minuscule, so this is a bare orbit sum.
    """
    from .weights import fundamental_weight

    return orbit_sum(fundamental_weight(n, r))


def qdim(lam: Weight, n: int | None = None) -> ExactScalar:
    """Symmetric quantum dimension: product of [(alpha, lam+rho)] / [(alpha, rho)].

    The optional n is a cross-check against the weight's own rank.
    """
    if n is not None and lam.rank != n:
        raise ValueError(f"weight rank {lam.rank} does not match n={n}")
    if not lam.is_dominant:
        raise ValueError(f"quantum dimensions are indexed by dominant weights, got {lam!r}")
    rd = RootData(lam.rank)
    return root_product(rd.positive_roots, lam + rd.rho, rd.rho, (0,), (0,), qint)


def root_product(roots, top: Weight, bottom: Weight, up, down, factor) -> ExactScalar:
    """The product over alpha in roots of

        prod_{s in up} factor((alpha, top) + s) / prod_{s in down} factor((alpha, bottom) + s),

    with factor qint or one_minus_q2, as one call to exact.factor_product.
    A root pairs to an integer with every weight, (e_i - e_j, w) = w_i - w_j;
    any other pairing raises ValueError before any factor is evaluated.  A
    vanishing down factor raises ZeroDivisionError, even when an up factor
    vanishes too.
    """
    ups, downs = [], []
    for alpha in roots:
        for weight, shifts, xs in ((top, up, ups), (bottom, down, downs)):
            a = pairing(alpha, weight)
            if a.denominator != 1:
                raise ValueError(
                    f"root_product needs roots, but the weight {alpha} pairs to {a} with {weight}")
            xs.extend(a.numerator + s for s in shifts)
    return factor_product(ups, downs, factor)


def binomial_product(lead: Weight, roots, shifts) -> GroupAlgebraElement:
    """e^lead * prod_{alpha in roots} prod_{i in shifts} (1 - q^(2i) e^alpha).

    Roots outer, shifts inner, each binomial multiplied straight into the
    running element: pairing binomials up first is slower.
    """
    n = lead.rank
    zero = Weight.zero(n)
    f = GroupAlgebraElement.exponential(lead)
    for alpha in roots:
        for i in shifts:
            f = f * GroupAlgebraElement(n, {zero: 1, alpha: -q_power(2 * i)})
    return f
