"""Difference operators, eigenvalues, Pieri expansion, and the specialized
recurrence they induce on evaluations.

The r-th operator acts on W-invariant elements by

    M_r f = q^(k r (r-n)) * sum_{nu in Lambda_r}
            ( prod_{alpha in R, (alpha,nu) = -1} (q^(2k) - e^alpha)/(1 - e^alpha) ) T_nu f,

where T_nu e^lam = q^(2 (nu, lam)) e^lam and Lambda_r runs over the
weights of the r-th exterior power.  As a ratio of Weyl alternants it is
M_r f = A / a_rho with A = sum_nu T_{k nu}(a_rho) T_nu f and
a_rho = e^rho prod_{alpha>0} (1 - e^(-alpha)) = sum_w sgn(w) e^(w rho)
(Macdonald, SFHP VI.3).  The normalising power cancels since
2 (nu, rho) = sum_{alpha>0} (alpha, nu): the q^(2k (nu, rho)) that T_{k nu}
puts on e^rho is q^(k r (r-n)) times the q^(2k) pulled out of each
positive root with (alpha, nu) = 1.

Neither the product nor the division is carried out.  M_r f = sum_mu d_mu m_mu
is W-invariant, so by Weyl's character formula (SFHP I.3) the coefficient
of e^(mu+rho) in a_rho M_r f, for dominant mu, is

    A[mu+rho] = sum_w sgn(w) d[dom(mu + rho - w rho)],

and only w = 1 gives mu itself; every other term is strictly higher in
dominance.  So d_mu is A[mu+rho], read off f's coefficients at
mu + rho - w rho, minus the higher d's, taken highest mu first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (GroupAlgebraElement, binomial_product, char_lambda_r, orbit_expansion,
                      root_product)
from .core import MacdonaldContext, poly_value
from .exact import ExactScalar, q_power, qint, sum_scalars
from .weights import Weight, check_param, dominant_below, lambda_r_weights, pairing

__all__ = [
    "PieriTerm",
    "macdonald_operator",
    "eigenvalue",
    "pieri_coefficient",
    "pieri_expand",
    "specialized_recurrence_sides",
    "specialized_recurrence_check",
]


def macdonald_operator(f: GroupAlgebraElement, r: int,
                       ctx: MacdonaldContext) -> GroupAlgebraElement:
    """Apply M_r to a W-invariant element by the readout above; the result is W-invariant."""
    n, k = ctx.n, ctx.k
    if f.n != n:
        raise ValueError(f"element rank {f.n} does not match context rank {n}")
    check_param(r, "operator index r", 1, n - 1)
    if not f.is_w_invariant():
        raise ValueError("macdonald_operator requires a Weyl-invariant input")
    rho = ctx.root_data.rho
    a_rho = ctx.memo("a_rho", (), lambda: binomial_product(
        rho, [-alpha for alpha in ctx.root_data.positive_roots], (0,)))
    nus = lambda_r_weights(n, r)
    # e^(w rho) -> (rho - w rho, sgn w, each nu's 2k (nu, w rho))
    alternant = [(rho - w, sign, [2 * k * pairing(nu, w) for nu in nus])
                 for w, sign in a_rho.terms.items()]
    # M_r f lies in the span of the m_mu below f's dominant weights; walk them
    # highest first (descending coordinates extend dominance, as canonical
    # weights end in 0), so every higher d is known when mu needs it
    below = {mu for lam in f.terms if lam.is_dominant for mu in dominant_below(lam)}
    d: dict[Weight, ExactScalar] = {}
    for mu in sorted(below, key=lambda w: w.coords, reverse=True):
        items = []
        for shift, sign, exps in alternant:
            beta = mu + shift
            c = f.terms.get(beta)
            if c is not None:
                c = c * sign
                items.extend((c, q_power(e + 2 * pairing(nu, beta))) for nu, e in zip(nus, exps))
            # d[mu] itself is not there yet, so w = 1 adds nothing here
            higher = d.get(Weight(sorted(beta.coords, reverse=True)))
            if higher is not None:
                items.append(-(higher * sign))
        d[mu] = sum_scalars(items)
    return orbit_expansion(n, d)


def eigenvalue(lam: Weight, r: int, ctx: MacdonaldContext) -> ExactScalar:
    """The M_r eigenvalue on P_lam: the exterior-power character at q^(2(lam + k rho))."""
    if lam.rank != ctx.n:
        raise ValueError(f"weight rank {lam.rank} does not match context rank {ctx.n}")
    if not lam.is_dominant:
        raise ValueError(f"eigenvalues are indexed by dominant weights, got {lam!r}")
    return char_lambda_r(ctx.n, r).evaluate_at(lam + ctx.k * ctx.root_data.rho)


def _exterior_index(nu: Weight, n: int) -> int:
    for r in range(1, n):
        if nu in lambda_r_weights(n, r):
            return r
    raise ValueError(f"{nu!r} is not an exterior-power weight")


def pieri_coefficient(mu: Weight, nu: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed-form coefficient of P_(mu+nu) in X_r * P_mu.

    Over positive roots with (alpha, nu) = -1, with a = (alpha, mu + k rho):

        [a + k - 1] [a - k] / ([a] [a - 1]).

    Requires mu and mu + nu dominant; no denominator vanishes then.
    """
    n, k = ctx.n, ctx.k
    if mu.rank != n or nu.rank != n:
        raise ValueError("weight rank does not match context rank")
    if not mu.is_dominant:
        raise ValueError(f"pieri_coefficient needs dominant mu, got {mu!r}")
    _exterior_index(nu, n)
    if not (mu + nu).is_dominant:
        raise ValueError(f"mu + nu = {(mu + nu)!r} is not dominant; the term drops out")
    shifted = mu + k * ctx.root_data.rho
    roots = [alpha for alpha in ctx.root_data.positive_roots if pairing(alpha, nu) == -1]
    return root_product(roots, shifted, shifted, (k - 1, -k), (0, -1), qint)


@dataclass(frozen=True)
class PieriTerm:
    nu: Weight
    coefficient: ExactScalar


def pieri_expand(mu: Weight, r: int, ctx: MacdonaldContext) -> list[PieriTerm]:
    """All admissible terms of X_r * P_mu = sum_nu c_nu P_(mu+nu).

    Terms with non-dominant mu + nu drop out; the list order follows
    lambda_r_weights and is deterministic.
    """
    check_param(r, "operator index r", 1, ctx.n - 1)
    if not mu.is_dominant:
        raise ValueError(f"pieri_expand needs dominant mu, got {mu!r}")
    out = []
    for nu in lambda_r_weights(ctx.n, r):
        if (mu + nu).is_dominant:
            out.append(PieriTerm(nu, pieri_coefficient(mu, nu, ctx)))
    return out


def specialized_recurrence_sides(lam: Weight, mu: Weight, r: int,
                                 ctx: MacdonaldContext) -> tuple[ExactScalar, ExactScalar]:
    """Both sides of the evaluation recurrence

        sum_nu ( prod_{alpha in R, (alpha,nu) = -1} [(mu + k rho, alpha) - k]
                 / [(mu + k rho, alpha)] ) P_lam(q^(2(mu + nu + k rho)))
          = X_r(q^(2(lam + k rho))) P_lam(q^(2(mu + k rho))),

    with nu running over exterior-power weights keeping mu + nu dominant.
    Note the coefficient product runs over ALL roots here, not just the
    positive ones.
    """
    n, k = ctx.n, ctx.k
    if not lam.is_dominant or not mu.is_dominant:
        raise ValueError("specialized recurrence needs dominant lam and mu")
    check_param(r, "operator index r", 1, n - 1)
    rho = ctx.root_data.rho
    shifted = mu + k * rho
    items = []
    for nu in lambda_r_weights(n, r):
        if not (mu + nu).is_dominant:
            continue
        roots = [alpha for alpha in ctx.root_data.all_roots if pairing(alpha, nu) == -1]
        coeff = root_product(roots, shifted, shifted, (-k,), (0,), qint)
        items.append((coeff, poly_value(lam, mu + nu + k * rho, ctx)))
    lhs = sum_scalars(items)
    rhs = eigenvalue(lam, r, ctx) * poly_value(lam, shifted, ctx)
    return lhs, rhs


def specialized_recurrence_check(lam: Weight, mu: Weight, r: int,
                                 ctx: MacdonaldContext) -> bool:
    lhs, rhs = specialized_recurrence_sides(lam, mu, r, ctx)
    return lhs == rhs
