"""Closed-form evaluators and two-sided identity verification.

Each verifier computes a first-principles side (constant terms,
evaluations of the constructed P_lam, operator application) and a
closed-form side (a product over roots of q-integers or of 1 - q^(2x),
one call to algebra.root_product, assembled from cyclotomic factors with
no gcd) by disjoint code paths, then compares canonical forms exactly.
Verifiers work on values and dominant coefficients, not on products of
elements: each P_lam(q^(2 xi)) is read from the context's value memo,
and since evaluation is a ring homomorphism a character's value is a
product of values.  Reports carry both sides as canonical strings even
on success, for golden-file regressions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

from .algebra import GroupAlgebraElement, element_to_str, orbit_expansion, qdim, root_product
from .core import (MacdonaldContext, chi0, delta_kernel, macdonald_coeffs, macdonald_poly,
                   norm, poly_value)
from .exact import ExactScalar, one_minus_q2, q_power, qint, scalar_to_str, sum_scalars
from .operators import eigenvalue, macdonald_operator, pieri_expand, specialized_recurrence_sides
from .weights import (Weight, RootData, dominant_below, dominant_weights_up_to,
                      fundamental_weight, lambda_r_weights, pairing)

__all__ = [
    "VerificationReport",
    "norm_rhs",
    "shapovalov_denominator",
    "cor38_ratio",
    "symmetry_rhs",
    "symmetry_rhs_exponential",
    "special_value_rhs",
    "special_value_rhs_exponential",
    "IDENTITIES",
    "verify",
    "verify_grid",
]


def norm_rhs(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of <P_lam, P_lam>:

        prod_{alpha > 0} prod_{i=1}^{k-1}
            (1 - q^(2 (alpha, lam + k rho) + 2i)) / (1 - q^(2 (alpha, lam + k rho) - 2i)).

    Empty product (hence 1) when k = 1.
    """
    if not lam.is_dominant:
        raise ValueError(f"norm_rhs needs a dominant weight, got {lam!r}")
    shifted = lam + ctx.k * ctx.root_data.rho
    return root_product(ctx.root_data.positive_roots, shifted, shifted,
                        range(1, ctx.k), range(-1, -ctx.k, -1), one_minus_q2)


def shapovalov_denominator(lam: Weight, k: int, n: int) -> ExactScalar:
    """prod_{alpha > 0} prod_{i=1}^{k} (1 - q^(2 (alpha, lam + rho) - 2i)).

    Defined for any integer k >= 0 (k = 0 gives the empty product 1);
    this is the denominator that controls the contravariant-form poles.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    rd = RootData(n)
    shifted = lam + rd.rho
    return root_product(rd.positive_roots, shifted, shifted,
                        range(-1, -k - 1, -1), (), one_minus_q2)


def cor38_ratio(lam: Weight, k: int, n: int) -> ExactScalar:
    """prod_{alpha > 0} prod_{i=1}^{k}
           (1 - q^(2 (alpha, lam + rho) + 2i)) / (1 - q^(2 (alpha, lam + rho) - 2i)).

    Raises when a denominator factor vanishes, naming the offending
    (alpha, i); that happens exactly when (alpha, lam + rho) = i.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    rd = RootData(n)
    shifted = lam + rd.rho
    for alpha in rd.positive_roots:
        a = pairing(alpha, shifted)
        if 1 <= a <= k:
            raise ValueError(
                f"vanishing denominator factor at alpha = {alpha}, i = {a}: "
                f"(alpha, lam + rho) = {a}")
    return root_product(rd.positive_roots, shifted, shifted,
                        range(1, k + 1), range(-1, -k - 1, -1), one_minus_q2)


def symmetry_rhs(lam: Weight, mu: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of P_mu(q^(2(lam + k rho))) / P_lam(q^(2(mu + k rho))):

        prod_{alpha > 0} prod_{i=0}^{k-1}
            [(alpha, mu + k rho) + i] / [(alpha, lam + k rho) + i].
    """
    if not lam.is_dominant or not mu.is_dominant:
        raise ValueError("symmetry_rhs needs dominant weights")
    k, rho = ctx.k, ctx.root_data.rho
    return root_product(ctx.root_data.positive_roots, mu + k * rho, lam + k * rho,
                        range(k), range(k), qint)


def symmetry_rhs_exponential(lam: Weight, mu: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """The equivalent printed form with an explicit q-power prefactor:

        q^(2k (rho, lam - mu)) * prod_{alpha > 0} prod_{i=0}^{k-1}
            (1 - q^(2 (alpha, mu + k rho) + 2i)) / (1 - q^(2 (alpha, lam + k rho) + 2i)).
    """
    if not lam.is_dominant or not mu.is_dominant:
        raise ValueError("symmetry_rhs_exponential needs dominant weights")
    k, rho = ctx.k, ctx.root_data.rho
    return q_power(2 * k * pairing(rho, lam - mu)) * root_product(
        ctx.root_data.positive_roots, mu + k * rho, lam + k * rho, range(k), range(k),
        one_minus_q2)


def special_value_rhs(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of P_lam(q^(2 k rho)):

        prod_{alpha > 0} prod_{i=0}^{k-1} [(alpha, lam + k rho) + i] / [(alpha, k rho) + i].
    """
    if not lam.is_dominant:
        raise ValueError(f"special_value_rhs needs a dominant weight, got {lam!r}")
    k, rho = ctx.k, ctx.root_data.rho
    return root_product(ctx.root_data.positive_roots, lam + k * rho, k * rho,
                        range(k), range(k), qint)


def special_value_rhs_exponential(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """The equivalent printed form with an explicit q-power prefactor."""
    if not lam.is_dominant:
        raise ValueError(f"special_value_rhs_exponential needs a dominant weight, got {lam!r}")
    k, rho = ctx.k, ctx.root_data.rho
    return q_power(-2 * k * pairing(rho, lam)) * root_product(
        ctx.root_data.positive_roots, lam + k * rho, k * rho, range(k), range(k), one_minus_q2)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    identity: str
    params: dict
    lhs: str
    rhs: str
    equal: bool
    error: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.error is None:
            del d["error"]
        return d

    def to_json(self) -> str:
        """One-line JSON with sorted keys, stable for golden files."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _verify_norm(lam, ctx):
    return norm(lam, ctx), norm_rhs(lam, ctx)


def _verify_symmetry(lam, mu, ctx):
    num = poly_value(mu, lam + ctx.k * ctx.root_data.rho, ctx)
    den = poly_value(lam, mu + ctx.k * ctx.root_data.rho, ctx)
    if not den:
        raise ValueError("denominator evaluation vanishes; symmetry ratio undefined")
    return num / den, symmetry_rhs(lam, mu, ctx)


def _verify_special_value(lam, ctx):
    return poly_value(lam, ctx.k * ctx.root_data.rho, ctx), special_value_rhs(lam, ctx)


def _verify_kernel_factorization(ctx):
    c0 = chi0(ctx)
    return c0 * c0.bar() * delta_kernel(ctx.n, 1), ctx.kernel


def _verify_eigenvalue(lam, r, ctx):
    p = macdonald_poly(lam, ctx)
    return macdonald_operator(p, r, ctx), p * eigenvalue(lam, r, ctx)


def _verify_pieri(mu, r, ctx):
    """sum_nu c_nu P_(mu+nu) against X_r P_mu, [X_r f]_kappa = sum_(nu in Lambda_r) f[kappa - nu].

    Both are read at every dominant kappa below the top weight mu + omega_r, not just
    on the left side's support, so a missing term shows; orbits are expanded to print.
    """
    terms = [(t.coefficient, macdonald_coeffs(mu + t.nu, ctx)) for t in pieri_expand(mu, r, ctx)]
    p = macdonald_coeffs(mu, ctx)
    nus = lambda_r_weights(ctx.n, r)
    lhs, rhs = {}, {}
    for kappa in dominant_below(mu + fundamental_weight(ctx.n, r)):
        lhs[kappa] = sum_scalars((c, cs[kappa]) for c, cs in terms if kappa in cs)
        rhs[kappa] = sum_scalars(p[d] for nu in nus
                                 if (d := Weight(sorted((kappa - nu).coords, reverse=True))) in p)
    return orbit_expansion(ctx.n, lhs), orbit_expansion(ctx.n, rhs)


def _verify_specialized_recurrence(lam, mu, r, ctx):
    # looked up at call time, so a wrapper bound over the name (perfbench/tracer.py) sees it
    return specialized_recurrence_sides(lam, mu, r, ctx)


def _verify_cross_check_45(lam, mu, ctx):
    """The trace symmetry relating the two generalized characters.

    Each side evaluates the other weight's character at its own shifted
    point and multiplies by its own norm and q-dimension:

        chi_mu(q^(2(lam+k rho))) <P_lam, P_lam> qdim(lam + (k-1) rho)

    equals the same expression with lam and mu exchanged.  Pairing the
    norm and the q-dimension with the evaluation point in this way is
    forced by the symmetry identity together with the norm closed form:
    substituting those into this equation reproduces the symmetry ratio
    exactly, while attaching each q-dimension to the opposite side would
    invert it.

    Evaluation is a ring homomorphism, so chi_mu = P_mu chi0 is never built:
    its value is P_mu's times chi0's.  Each side is memoized per ordered pair,
    so the reports for (lam, mu) and (mu, lam) compare the same two values.
    """
    k, rho = ctx.k, ctx.root_data.rho

    def side(a, b, a_up):
        xi = a + k * rho
        c0 = ctx.memo("chi0_value", xi, lambda: chi0(ctx).evaluate_at(xi))
        return ctx.memo("trace_side", (a, b),
                        lambda: poly_value(b, xi, ctx) * c0 * norm(a, ctx) * qdim(a_up))

    # both shifts first, so a weight of the wrong rank fails there for either side
    lam_up, mu_up = lam + (k - 1) * rho, mu + (k - 1) * rho
    return side(lam, mu, lam_up), side(mu, lam, mu_up)


# identity -> (driver, parameter names); driver(*params, ctx) returns (lhs, rhs)
_DRIVERS = {
    "norm": (_verify_norm, ("lambda",)),
    "symmetry": (_verify_symmetry, ("lambda", "mu")),
    "special_value": (_verify_special_value, ("lambda",)),
    "kernel_factorization": (_verify_kernel_factorization, ()),
    "eigenvalue": (_verify_eigenvalue, ("lambda", "r")),
    "pieri": (_verify_pieri, ("mu", "r")),
    "specialized_recurrence": (_verify_specialized_recurrence, ("lambda", "mu", "r")),
    "cross_check_45": (_verify_cross_check_45, ("lambda", "mu")),
}

IDENTITIES = tuple(_DRIVERS)


def verify(identity: str, params: dict, ctx: MacdonaldContext) -> VerificationReport:
    """Run one identity check; a bad identity name or parameters give an error report."""
    try:
        if identity not in _DRIVERS:
            raise ValueError(f"unknown identity {identity!r}; expected one of {sorted(_DRIVERS)}")
        driver, needed = _DRIVERS[identity]
        missing = [name for name in needed if params.get(name) is None]
        if missing:
            raise ValueError(f"identity {identity!r} requires parameter {missing[0]!r}")
        lhs, rhs = driver(*(params[name] for name in needed), ctx)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        shown = {key: str(val) for key, val in params.items() if val is not None}
        return VerificationReport(
            identity=identity, params={"n": ctx.n, "k": ctx.k, **shown},
            lhs="", rhs="", equal=False, error=str(exc))
    shown = {"n": ctx.n, "k": ctx.k}
    shown.update((name, params[name] if name == "r" else str(params[name])) for name in needed)
    to_str = element_to_str if isinstance(lhs, GroupAlgebraElement) else scalar_to_str
    return VerificationReport(identity=identity, params=shown, lhs=to_str(lhs),
                              rhs=to_str(rhs), equal=lhs == rhs)


def verify_grid(ctx: MacdonaldContext, max_size: int = 4,
                identities=None) -> list[VerificationReport]:
    """Sweep every identity over all dominant weights up to max_size.

    The order of reports is deterministic: identities in declaration
    order, parameters nested lexicographically in _DRIVERS order, with
    lambda and mu over the dominant weights and r over 1..n-1.
    """
    names = list(identities) if identities is not None else list(IDENTITIES)
    for name in names:
        if name not in _DRIVERS:
            raise ValueError(f"unknown identity {name!r}")
    lams = dominant_weights_up_to(ctx.n, max_size)
    ranges = {"lambda": lams, "mu": lams, "r": range(1, ctx.n)}
    out: list[VerificationReport] = []
    for name in names:
        needed = _DRIVERS[name][1]
        for values in itertools.product(*(ranges[p] for p in needed)):
            out.append(verify(name, dict(zip(needed, values)), ctx))
    return out
