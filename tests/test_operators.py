"""Difference operators, Pieri expansion, specialized recurrence."""

import random

import pytest

from macdpoly.algebra import GroupAlgebraElement, char_lambda_r, orbit_sum
from macdpoly.core import macdonald_poly
from macdpoly.exact import ExactDivisionError, ExactScalar, q_power, qint
from macdpoly.identities import verify_grid
from macdpoly.operators import (
    eigenvalue,
    macdonald_operator,
    pieri_coefficient,
    pieri_expand,
    specialized_recurrence_check,
    specialized_recurrence_sides,
)
from macdpoly.weights import Weight, fundamental_weight, lambda_r_weights, pairing

from helpers import (
    GRID_NK,
    divide_by_root_binomial,
    expand_in_p_basis,
    get_context,
    grid_weights,
    macdonald_operator_by_definition,
    macdonald_operator_by_division,
    shift_apply,
)

E = GroupAlgebraElement.exponential


def test_shift_apply():
    nu = Weight((1, 0))
    f = E(Weight((2, 0))) + E(Weight((-2, 0))) * qint(2)
    shifted = shift_apply(f, nu)
    # e^w picks up q^(2 (nu, w))
    assert shifted.terms[Weight((2, 0))] == q_power(2 * pairing(nu, Weight((2, 0))))
    assert shifted.terms[Weight((-2, 0))] == qint(2) * q_power(-2)


def test_divide_by_root_binomial_exact():
    alpha = Weight((1, -1, 0))
    g = orbit_sum(Weight((1, 1, 0))) - E(Weight((2, 0, 0)))
    product = (GroupAlgebraElement.one(3) - E(alpha)) * g
    assert divide_by_root_binomial(product, alpha) == g


def test_divide_by_root_binomial_inexact():
    alpha = Weight((1, -1))
    with pytest.raises(ExactDivisionError):
        divide_by_root_binomial(GroupAlgebraElement.one(2), alpha)


def test_operator_requires_invariance():
    ctx = get_context(2, 2)
    with pytest.raises(ValueError):
        macdonald_operator(E(fundamental_weight(2, 1)), 1, ctx)
    with pytest.raises(ValueError):
        macdonald_operator(GroupAlgebraElement.one(2), 0, ctx)
    with pytest.raises(ValueError):
        macdonald_operator(GroupAlgebraElement.one(3), 1, ctx)


def test_operator_on_constants():
    # M_r fixes 1 up to its eigenvalue at lambda = 0
    for n, k in [(2, 1), (2, 2), (3, 2)]:
        ctx = get_context(n, k)
        one = GroupAlgebraElement.one(n)
        for r in range(1, n):
            out = macdonald_operator(one, r, ctx)
            assert out == one * eigenvalue(Weight((0,) * n), r, ctx)


def test_eigenvalue_equation_rank2():
    ctx = get_context(2, 2)
    for lam in grid_weights(2, 3):
        p = macdonald_poly(lam, ctx)
        assert macdonald_operator(p, 1, ctx) == p * eigenvalue(lam, 1, ctx)


def test_eigenvalue_equation_rank3_both_operators():
    ctx = get_context(3, 2)
    lam = Weight((2, 1, 0))
    p = macdonald_poly(lam, ctx)
    for r in (1, 2):
        assert macdonald_operator(p, r, ctx) == p * eigenvalue(lam, r, ctx)


def test_eigenvalue_equation_rank5():
    ctx = get_context(5, 1)
    for lam in grid_weights(5, 2):
        p = macdonald_poly(lam, ctx)
        for r in range(1, 5):
            assert macdonald_operator(p, r, ctx) == p * eigenvalue(lam, r, ctx)


def test_pieri_rank5():
    # every |mu| <= 2 and r = 1..4 at n = 5
    reports = verify_grid(get_context(5, 1), max_size=2, identities=["pieri"])
    assert len(reports) == 16
    for r in reports:
        assert r.equal, r.to_json()


def test_eigenvalue_closed_form():
    # c = sum over the r-subset weights of q^(2 (nu, lam + k rho))
    ctx = get_context(3, 2)
    lam = Weight((2, 0, 0))
    point = lam + ctx.k * ctx.root_data.rho
    total = ExactScalar.zero()
    for nu in lambda_r_weights(3, 2):
        total = total + q_power(2 * pairing(nu, point))
    assert eigenvalue(lam, 2, ctx) == total
    assert eigenvalue(lam, 2, ctx) == char_lambda_r(3, 2).evaluate_at(point)


@pytest.mark.parametrize("n,k,max_size", [(2, 1, 4), (2, 2, 4), (2, 3, 4), (3, 1, 2), (3, 2, 2)])
def test_operator_matches_definition(n, k, max_size):
    # the readout against the definition: every P_lam and every r,
    # plus m_(2,0,..)^2 + X_r, which is invariant but not an eigenfunction
    ctx = get_context(n, k)
    m2 = orbit_sum(Weight((2,) + (0,) * (n - 1)))
    polys = [macdonald_poly(lam, ctx) for lam in grid_weights(n, max_size)]
    for r in range(1, n):
        for f in polys + [m2 * m2 + char_lambda_r(n, r)]:
            assert macdonald_operator(f, r, ctx) == macdonald_operator_by_definition(f, r, ctx)


def test_operator_matches_definition_rank4():
    ctx = get_context(4, 1)
    f = orbit_sum(Weight((1, 1, 0, 0))) * orbit_sum(Weight((1, 0, 0, 0))) + char_lambda_r(4, 3)
    assert macdonald_operator(f, 2, ctx) == macdonald_operator_by_definition(f, 2, ctx)


def _mixed_invariant(n, rng):
    """A W-invariant sum of random multiples of orbit sums of sizes 1, 2 and 3.

    Those sizes lie in different root-lattice cosets for n >= 3, so the
    readout has to walk several dominance-closed sets at once.
    """
    f = GroupAlgebraElement.zero(n)
    for size in (1, 2, 3):
        lam = rng.choice([w for w in grid_weights(n, 3) if w.total() == size])
        f = f + orbit_sum(lam) * (qint(rng.randint(1, 4)) * q_power(rng.randint(-3, 3)))
    return f


@pytest.mark.parametrize("n,k,max_size",
                         [(n, k, 4) for n, k in GRID_NK] + [(4, 1, 2), (4, 2, 2), (5, 1, 2)])
def test_operator_readout_matches_oracles(n, k, max_size):
    # every P_lam and every r, plus for each r two invariants that are not
    # eigenfunctions: m_(2,0,..)^2 + X_r and a random sum over several cosets
    ctx = get_context(n, k)
    rng = random.Random(10 * n + k)
    m2 = orbit_sum(Weight((2,) + (0,) * (n - 1)))
    polys = [macdonald_poly(lam, ctx) for lam in grid_weights(n, max_size)]
    for r in range(1, n):
        for f in polys + [m2 * m2 + char_lambda_r(n, r), _mixed_invariant(n, rng)]:
            out = macdonald_operator(f, r, ctx)
            assert out == macdonald_operator_by_division(f, r, ctx)
            if n <= 3:
                assert out == macdonald_operator_by_definition(f, r, ctx)


def test_operator_is_linear():
    ctx = get_context(2, 2)
    f = macdonald_poly(Weight((2, 0)), ctx)
    g = macdonald_poly(Weight((0, 0)), ctx)
    c = qint(3)
    lhs = macdonald_operator(f * c + g, 1, ctx)
    rhs = macdonald_operator(f, 1, ctx) * c + macdonald_operator(g, 1, ctx)
    assert lhs == rhs


def test_pieri_coefficient_dominant_direction_is_one():
    # the dominant subset weight meets no positive root negatively, so the
    # product is empty
    for n, k in [(2, 2), (3, 3)]:
        ctx = get_context(n, k)
        assert pieri_coefficient(Weight((1, 0) + (0,) * (n - 2)),
                                 fundamental_weight(n, 1), ctx) == ExactScalar.one()


def test_pieri_coefficient_frozen_case():
    # mu = omega_1, nu the lowering direction: [2k][1] / ([k+1][k])
    for k in (1, 2, 3):
        ctx = get_context(2, k)
        c = pieri_coefficient(Weight((1, 0)), Weight((-1, 0)), ctx)
        a = 1 + k  # (alpha, mu + k rho)
        assert c == (qint(a + k - 1) * qint(a - k)) / (qint(a) * qint(a - 1))
        assert c == (qint(2 * k) * qint(1)) / (qint(k + 1) * qint(k))


def test_pieri_coefficient_generic_case():
    ctx = get_context(2, 3)
    mu = Weight((2, 0))
    c = pieri_coefficient(mu, Weight((-1, 0)), ctx)
    a = 2 + 3  # (alpha, mu + k rho)
    expected = (qint(a + 2) * qint(a - 3)) / (qint(a) * qint(a - 1))
    assert c == expected


def test_pieri_coefficient_drop_out():
    ctx = get_context(2, 2)
    with pytest.raises(ValueError):
        pieri_coefficient(Weight((0, 0)), Weight((-1, 0)), ctx)


def test_pieri_identity_rank2():
    ctx = get_context(2, 2)
    for mu in grid_weights(2, 3):
        terms = pieri_expand(mu, 1, ctx)
        lhs = GroupAlgebraElement.zero(2)
        for t in terms:
            lhs = lhs + macdonald_poly(mu + t.nu, ctx) * t.coefficient
        assert lhs == char_lambda_r(2, 1) * macdonald_poly(mu, ctx)


def test_pieri_matches_peeling_oracle():
    # independent P-basis expansion of X_1 * P_mu by triangular peeling
    ctx = get_context(2, 2)
    for mu in grid_weights(2, 4):
        product = char_lambda_r(2, 1) * macdonald_poly(mu, ctx)
        oracle = expand_in_p_basis(product, ctx)
        terms = {mu + t.nu: t.coefficient for t in pieri_expand(mu, 1, ctx)}
        assert terms == oracle


def test_pieri_chi_variant():
    # multiplying the P-normalized relation through by chi0 gives the
    # same relation among the chi's
    from macdpoly.core import chi

    ctx = get_context(2, 2)
    mu = Weight((2, 0))
    lhs = GroupAlgebraElement.zero(2)
    for t in pieri_expand(mu, 1, ctx):
        lhs = lhs + chi(mu + t.nu, ctx) * t.coefficient
    assert lhs == char_lambda_r(2, 1) * chi(mu, ctx)


def test_specialized_recurrence():
    ctx = get_context(3, 2)
    lam = Weight((2, 1, 0))
    mu = Weight((1, 0, 0))
    lhs, rhs = specialized_recurrence_sides(lam, mu, 1, ctx)
    assert lhs == rhs
    assert specialized_recurrence_check(lam, mu, 1, ctx)


def test_specialized_recurrence_rejects_bad_rank():
    ctx = get_context(2, 2)
    with pytest.raises(ValueError):
        specialized_recurrence_sides(Weight((1, 0, 0)), Weight((0, 0)), 1, ctx)
