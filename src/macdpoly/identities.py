"""Closed-form evaluators and two-sided identity verification.

Each verifier computes a first-principles side (constant terms,
evaluations of the constructed P_lam, operator application) and a
closed-form side (products of q-integers or cyclotomic-style factors) by
disjoint code paths, then compares canonical forms exactly.  Reports
carry both sides as canonical strings even on success, for golden-file
regressions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from .algebra import GroupAlgebraElement, char_lambda_r, element_to_str, qdim
from .core import MacdonaldContext, chi, chi0, delta_kernel, macdonald_poly, norm
from .exact import ExactScalar, LaurentPoly, q_power, qint, scalar_to_str
from .operators import eigenvalue, macdonald_operator, pieri_expand, specialized_recurrence_sides
from .weights import Weight, RootData, dominant_weights_up_to, pairing

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


def _one_minus_q(exponent) -> ExactScalar:
    """1 - q^exponent as a scalar."""
    return ExactScalar(LaurentPoly({Fraction(0): 1}) - LaurentPoly.q_term(exponent))


def _int_pairing(a: Weight, b: Weight) -> int:
    v = pairing(a, b)
    assert v.denominator == 1, f"expected integral pairing, got {v}"
    return int(v)


def norm_rhs(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of <P_lam, P_lam>:

        prod_{alpha > 0} prod_{i=1}^{k-1}
            (1 - q^(2 (alpha, lam + k rho) + 2i)) / (1 - q^(2 (alpha, lam + k rho) - 2i)).

    Empty product (hence 1) when k = 1.
    """
    if not lam.is_dominant:
        raise ValueError(f"norm_rhs needs a dominant weight, got {lam!r}")
    shifted = lam + ctx.k * ctx.root_data.rho
    val = ExactScalar.one()
    for alpha in ctx.root_data.positive_roots:
        a = 2 * _int_pairing(alpha, shifted)
        for i in range(1, ctx.k):
            val = val * _one_minus_q(a + 2 * i) / _one_minus_q(a - 2 * i)
    return val


def shapovalov_denominator(lam: Weight, k: int, n: int) -> ExactScalar:
    """prod_{alpha > 0} prod_{i=1}^{k} (1 - q^(2 (alpha, lam + rho) - 2i)).

    Defined for any integer k >= 0 (k = 0 gives the empty product 1);
    this is the denominator that controls the contravariant-form poles.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    rd = RootData(n)
    shifted = lam + rd.rho
    val = ExactScalar.one()
    for alpha in rd.positive_roots:
        a = 2 * _int_pairing(alpha, shifted)
        for i in range(1, k + 1):
            val = val * _one_minus_q(a - 2 * i)
    return val


def cor38_ratio(lam: Weight, k: int, n: int) -> ExactScalar:
    """prod_{alpha > 0} prod_{i=1}^{k}
           (1 - q^(2 (alpha, lam + rho) + 2i)) / (1 - q^(2 (alpha, lam + rho) - 2i)).

    Raises when a denominator factor vanishes, naming the offending
    (alpha, i); that happens exactly when (alpha, lam + rho) = i.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    rd = RootData(n)
    shifted = lam + rd.rho
    val = ExactScalar.one()
    for alpha in rd.positive_roots:
        a = _int_pairing(alpha, shifted)
        for i in range(1, k + 1):
            if a == i:
                raise ValueError(
                    f"vanishing denominator factor at alpha = {alpha}, i = {i}: "
                    f"(alpha, lam + rho) = {a}")
            val = val * _one_minus_q(2 * a + 2 * i) / _one_minus_q(2 * a - 2 * i)
    return val


def symmetry_rhs(lam: Weight, mu: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of P_mu(q^(2(lam + k rho))) / P_lam(q^(2(mu + k rho))):

        prod_{alpha > 0} prod_{i=0}^{k-1}
            [(alpha, mu + k rho) + i] / [(alpha, lam + k rho) + i].
    """
    if not lam.is_dominant or not mu.is_dominant:
        raise ValueError("symmetry_rhs needs dominant weights")
    k = ctx.k
    rho = ctx.root_data.rho
    lam_s = lam + k * rho
    mu_s = mu + k * rho
    val = ExactScalar.one()
    for alpha in ctx.root_data.positive_roots:
        am = _int_pairing(alpha, mu_s)
        al = _int_pairing(alpha, lam_s)
        for i in range(k):
            val = val * qint(am + i) / qint(al + i)
    return val


def symmetry_rhs_exponential(lam: Weight, mu: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """The equivalent printed form with an explicit q-power prefactor:

        q^(2k (rho, lam - mu)) * prod_{alpha > 0} prod_{i=0}^{k-1}
            (1 - q^(2 (alpha, mu + k rho) + 2i)) / (1 - q^(2 (alpha, lam + k rho) + 2i)).
    """
    if not lam.is_dominant or not mu.is_dominant:
        raise ValueError("symmetry_rhs_exponential needs dominant weights")
    k = ctx.k
    rho = ctx.root_data.rho
    lam_s = lam + k * rho
    mu_s = mu + k * rho
    val = q_power(2 * k * pairing(rho, lam - mu))
    for alpha in ctx.root_data.positive_roots:
        am = 2 * _int_pairing(alpha, mu_s)
        al = 2 * _int_pairing(alpha, lam_s)
        for i in range(k):
            val = val * _one_minus_q(am + 2 * i) / _one_minus_q(al + 2 * i)
    return val


def special_value_rhs(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """Closed form of P_lam(q^(2 k rho)):

        prod_{alpha > 0} prod_{i=0}^{k-1} [(alpha, lam + k rho) + i] / [(alpha, k rho) + i].
    """
    if not lam.is_dominant:
        raise ValueError(f"special_value_rhs needs a dominant weight, got {lam!r}")
    k = ctx.k
    rho = ctx.root_data.rho
    lam_s = lam + k * rho
    val = ExactScalar.one()
    for alpha in ctx.root_data.positive_roots:
        al = _int_pairing(alpha, lam_s)
        ar = k * _int_pairing(alpha, rho)
        for i in range(k):
            val = val * qint(al + i) / qint(ar + i)
    return val


def special_value_rhs_exponential(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """The equivalent printed form with an explicit q-power prefactor."""
    if not lam.is_dominant:
        raise ValueError(f"special_value_rhs_exponential needs a dominant weight, got {lam!r}")
    k = ctx.k
    rho = ctx.root_data.rho
    lam_s = lam + k * rho
    val = q_power(-2 * k * pairing(rho, lam))
    for alpha in ctx.root_data.positive_roots:
        al = 2 * _int_pairing(alpha, lam_s)
        ar = 2 * k * _int_pairing(alpha, rho)
        for i in range(k):
            val = val * _one_minus_q(al + 2 * i) / _one_minus_q(ar + 2 * i)
    return val


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
    num = macdonald_poly(mu, ctx).evaluate_at(lam + ctx.k * ctx.root_data.rho)
    den = macdonald_poly(lam, ctx).evaluate_at(mu + ctx.k * ctx.root_data.rho)
    if not den:
        raise ValueError("denominator evaluation vanishes; symmetry ratio undefined")
    return num / den, symmetry_rhs(lam, mu, ctx)


def _verify_special_value(lam, ctx):
    lhs = macdonald_poly(lam, ctx).evaluate_at(ctx.k * ctx.root_data.rho)
    return lhs, special_value_rhs(lam, ctx)


def _verify_kernel_factorization(ctx):
    c0 = chi0(ctx)
    return c0 * c0.bar() * delta_kernel(ctx.n, 1), ctx.kernel


def _verify_eigenvalue(lam, r, ctx):
    p = macdonald_poly(lam, ctx)
    return macdonald_operator(p, r, ctx), p * eigenvalue(lam, r, ctx)


def _verify_pieri(mu, r, ctx):
    lhs = GroupAlgebraElement.zero(ctx.n)
    for term in pieri_expand(mu, r, ctx):
        lhs = lhs + macdonald_poly(mu + term.nu, ctx) * term.coefficient
    return lhs, char_lambda_r(ctx.n, r) * macdonald_poly(mu, ctx)


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
    """
    k = ctx.k
    rho = ctx.root_data.rho
    lam_up = lam + (k - 1) * rho
    mu_up = mu + (k - 1) * rho
    lhs = (chi(mu, ctx).evaluate_at(lam + k * rho) * norm(lam, ctx) * qdim(lam_up))
    rhs = (chi(lam, ctx).evaluate_at(mu + k * rho) * norm(mu, ctx) * qdim(mu_up))
    return lhs, rhs


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
