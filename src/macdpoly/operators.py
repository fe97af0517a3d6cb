"""Difference operators, eigenvalues, Pieri expansion, and the specialized
recurrence they induce on evaluations.

The r-th operator acts on W-invariant elements by

    M_r f = q^(k r (r-n)) * sum_{nu in Lambda_r}
            ( prod_{alpha in R, (alpha,nu) = -1} (q^(2k) - e^alpha)/(1 - e^alpha) ) T_nu f,

where T_nu e^lam = q^(2 (nu, lam)) e^lam and Lambda_r runs over the
weights of the r-th exterior power.  It is computed as a ratio of Weyl
alternants, M_r f = a_rho^(-1) sum_nu T_{k nu}(a_rho) T_nu f with
a_rho = e^rho prod_{alpha>0} (1 - e^(-alpha)) (Macdonald, SFHP VI.3), built
by algebra.binomial_product like the kernel and chi0; the anti-invariant
sum is divided by a_rho exactly, one positive root at a time.
The normalising power cancels since 2 (nu, rho) = sum_{alpha>0} (alpha, nu):
the q^(2k (nu, rho)) that T_{k nu} puts on e^rho is q^(k r (r-n)) times the
q^(2k) pulled out of each positive root with (alpha, nu) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import GroupAlgebraElement, binomial_product, char_lambda_r, root_product
from .core import MacdonaldContext, macdonald_poly
from .exact import ExactDivisionError, ExactScalar, q_power, qint
from .weights import Weight, check_param, lambda_r_weights, pairing

__all__ = [
    "PieriTerm",
    "shift_apply",
    "macdonald_operator",
    "eigenvalue",
    "pieri_coefficient",
    "pieri_expand",
    "specialized_recurrence_sides",
    "specialized_recurrence_check",
    "divide_by_root_binomial",
]


def shift_apply(f: GroupAlgebraElement, nu: Weight) -> GroupAlgebraElement:
    """T_nu: multiply the e^lam coefficient by q^(2 (nu, lam))."""
    if nu.rank != f.n:
        raise ValueError(f"shift weight rank {nu.rank} does not match element rank {f.n}")
    return GroupAlgebraElement._raw(
        f.n, {w: c * q_power(2 * pairing(nu, w)) for w, c in f.terms.items()})


def divide_by_root_binomial(f: GroupAlgebraElement, alpha: Weight) -> GroupAlgebraElement:
    """Exact division by (1 - e^alpha).

    The support splits into ZZ-alpha cosets; along each coset the division
    is univariate Laurent division, and the final carry must vanish for
    the division to be exact (ExactDivisionError otherwise).
    """
    if f.is_zero:
        return f
    aa = pairing(alpha, alpha)
    columns: dict[Weight, dict[int, ExactScalar]] = {}
    for w, c in f.terms.items():
        j = math.floor(pairing(w, alpha) / aa)
        key = w - j * alpha
        columns.setdefault(key, {})[j] = c
    out: dict[Weight, ExactScalar] = {}
    for key, col in columns.items():
        lo = min(col)
        hi = max(col)
        carry = ExactScalar.zero()
        for j in range(lo, hi + 1):
            g = col.get(j)
            if g is not None:
                carry = carry + g
            if j == hi:
                if carry:
                    raise ExactDivisionError(
                        f"(1 - e^[{alpha}]) does not divide element: residue {carry} "
                        f"on the coset of {key}")
            elif carry:
                out[key + j * alpha] = carry
    return GroupAlgebraElement._raw(f.n, out)


def macdonald_operator(f: GroupAlgebraElement, r: int,
                       ctx: MacdonaldContext) -> GroupAlgebraElement:
    """Apply M_r to a W-invariant element by the alternant ratio above; the result is W-invariant."""
    n, k = ctx.n, ctx.k
    if f.n != n:
        raise ValueError(f"element rank {f.n} does not match context rank {n}")
    check_param(r, "operator index r", 1, n - 1)
    if not f.is_w_invariant():
        raise ValueError("macdonald_operator requires a Weyl-invariant input")
    rd = ctx.root_data
    a_rho = binomial_product(rd.rho, [-alpha for alpha in rd.positive_roots], (0,))
    total = GroupAlgebraElement.zero(n)
    for nu in lambda_r_weights(n, r):
        total = total + shift_apply(a_rho, k * nu) * shift_apply(f, nu)
    total = total * GroupAlgebraElement.exponential(-rd.rho)
    for alpha in rd.positive_roots:
        total = divide_by_root_binomial(total, -alpha)
    return total


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
    p = macdonald_poly(lam, ctx)
    lhs = ExactScalar.zero()
    for nu in lambda_r_weights(n, r):
        if not (mu + nu).is_dominant:
            continue
        roots = [alpha for alpha in ctx.root_data.all_roots if pairing(alpha, nu) == -1]
        coeff = root_product(roots, shifted, shifted, (-k,), (0,), qint)
        lhs = lhs + coeff * p.evaluate_at(mu + nu + k * rho)
    rhs = eigenvalue(lam, r, ctx) * p.evaluate_at(shifted)
    return lhs, rhs


def specialized_recurrence_check(lam: Weight, mu: Weight, r: int,
                                 ctx: MacdonaldContext) -> bool:
    lhs, rhs = specialized_recurrence_sides(lam, mu, r, ctx)
    return lhs == rhs
