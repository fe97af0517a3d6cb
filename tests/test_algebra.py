"""Group algebra elements: products, bar, orbit sums, evaluation, qdim."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from macdpoly import algebra, identities, operators
from macdpoly.algebra import (
    GroupAlgebraElement,
    char_lambda_r,
    element_to_str,
    orbit_sum,
    qdim,
    root_product,
)
from macdpoly.core import MacdonaldContext, chi, macdonald_poly
from macdpoly.exact import ExactScalar, evaluate_limit_q1, one_minus_q2, parse_scalar, q_power, qint
from macdpoly.weights import RootData, Weight, fundamental_weight, lambda_r_weights, pairing

from helpers import evaluate_at_term_by_term, get_context, grid_weights, root_product_by_division

E = GroupAlgebraElement.exponential


def test_add_and_scalar_mul():
    f = E(Weight((1, 0))) + E(Weight((-1, 0)))
    assert f.terms[Weight((1, 0))] == ExactScalar.one()
    g = f * qint(2)
    assert g.terms[Weight((-1, 0))] == qint(2)
    assert (f - f) == GroupAlgebraElement.zero(2)
    assert not (f - f).terms


def test_mul_identity_and_zero():
    f = E(Weight((1, 0))) + E(Weight((-1, 0))) * q_power(2)
    assert GroupAlgebraElement.one(2) * f == f
    assert GroupAlgebraElement.zero(2) * f == GroupAlgebraElement.zero(2)


def test_mul_expands_convolution():
    # (e^w + e^(-w))^2 = e^(2w) + 2 + e^(-2w) for n=2
    w = fundamental_weight(2, 1)
    f = E(w) + E(-w)
    sq = f * f
    assert sq.terms[Weight((2, 0))] == ExactScalar.one()
    assert sq.terms[Weight((0, 0))] == ExactScalar.from_rational(2)
    assert sq.terms[Weight((-2, 0))] == ExactScalar.one()
    assert len(sq.terms) == 3


def test_rank_mismatch():
    with pytest.raises(ValueError):
        E(Weight((1, 0))) * E(Weight((1, 0, 0)))
    with pytest.raises(ValueError):
        E(Weight((1, 0))) + E(Weight((1, 0, 0)))


def test_bar():
    assert GroupAlgebraElement.one(2).bar() == GroupAlgebraElement.one(2)
    f = E(Weight((2, 0))) * q_power(2)
    assert f.bar() == E(Weight((-2, 0))) * q_power(2)  # scalars untouched
    # bar fixes orbit sums in rank 2
    m = orbit_sum(Weight((3, 0)))
    assert m.bar() == m


def test_constant_term():
    assert GroupAlgebraElement.one(3).constant_term() == ExactScalar.one()
    assert E(fundamental_weight(2, 1)).constant_term() == ExactScalar.zero()
    alpha = Weight((1, -1))
    f = (GroupAlgebraElement.one(2) - E(alpha)) * (GroupAlgebraElement.one(2) - E(-alpha))
    assert f.constant_term() == ExactScalar.from_rational(2)


def test_orbit_sum():
    assert orbit_sum(Weight((0, 0))) == GroupAlgebraElement.one(2)
    m = orbit_sum(fundamental_weight(2, 1))
    assert set(m.terms) == {Weight((1, 0)), Weight((-1, 0))}
    m3 = orbit_sum(fundamental_weight(3, 1))
    assert len(m3.terms) == 3
    assert all(c == ExactScalar.one() for c in m3.terms.values())
    with pytest.raises(ValueError):
        orbit_sum(Weight((0, 1)))


def test_is_w_invariant():
    assert orbit_sum(Weight((2, 1, 0))).is_w_invariant()
    assert not E(fundamental_weight(2, 1)).is_w_invariant()
    mixed = orbit_sum(Weight((2, 0))) + E(Weight((1, 0))) * qint(3)
    assert not mixed.is_w_invariant()


def test_evaluate_at():
    rho = Weight((1, 0))
    assert GroupAlgebraElement.one(2).evaluate_at(rho) == ExactScalar.one()
    # m_{omega_1} at rho: q^(2(w,rho)) + q^(-2(w,rho)) = q + q^(-1) = [2]
    m = orbit_sum(fundamental_weight(2, 1))
    assert m.evaluate_at(rho) == qint(2)
    with pytest.raises(ValueError):
        m.evaluate_at(Weight((1, 0, 0)))


def test_evaluate_at_is_ring_homomorphism():
    xi = Weight((2, 1, 0))
    f = orbit_sum(Weight((1, 0, 0))) + E(Weight((1, 1, 0))) * qint(2)
    g = orbit_sum(Weight((1, 1, 0))) - E(Weight((2, 0, 0)))
    assert (f * g).evaluate_at(xi) == f.evaluate_at(xi) * g.evaluate_at(xi)
    assert (f + g).evaluate_at(xi) == f.evaluate_at(xi) + g.evaluate_at(xi)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (3, 2)])
def test_evaluate_at_matches_term_by_term(n, k):
    ctx = get_context(n, k)
    rho = ctx.root_data.rho
    points = [mu + k * rho for mu in grid_weights(n, 2)]
    for lam in grid_weights(n, 3):
        for f in (macdonald_poly(lam, ctx), chi(lam, ctx)):
            for xi in points:
                assert f.evaluate_at(xi) == evaluate_at_term_by_term(f, xi)


def test_evaluate_at_mixed_denominators_cancel_to_zero():
    # coefficients over (1 - q^2), (1 + q) and 1 whose values at xi sum to 0
    xi = Weight((2, 1, 0))
    one_minus_q2 = ExactScalar.one() - q_power(2)
    values = [
        1 / one_minus_q2,
        1 / (1 + q_power(1)),
        (q_power(1) - 2) / one_minus_q2,
        q_power(Fraction(1, 3)) + 3,
        -q_power(Fraction(1, 3)) - 3,
    ]
    weights = [Weight(c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0), (0, 0, 1))]
    assert sum(values, ExactScalar.zero()).is_zero
    f = GroupAlgebraElement(3, {
        w: v * q_power(-2 * pairing(w, xi)) for w, v in zip(weights, values)})
    assert len(f.terms) == 5
    assert f.evaluate_at(xi) == evaluate_at_term_by_term(f, xi) == ExactScalar.zero()


def test_char_lambda_r():
    x1 = char_lambda_r(2, 1)
    assert x1 == orbit_sum(fundamental_weight(2, 1))
    assert x1.is_w_invariant()
    assert len(char_lambda_r(3, 2).terms) == 3
    for r in (1, 2):
        assert char_lambda_r(3, r).is_w_invariant()


def test_qdim():
    assert qdim(Weight((0, 0))) == ExactScalar.one()
    assert qdim(fundamental_weight(2, 1)) == qint(2)
    assert evaluate_limit_q1(qdim(Weight((1, 0, 0)), n=3)) == 3
    # adjoint of rank 2: classical dimension 8
    assert evaluate_limit_q1(qdim(Weight((2, 1, 0)))) == 8
    with pytest.raises(ValueError):
        qdim(Weight((0, 1)))
    with pytest.raises(ValueError):
        qdim(Weight((1, 0)), n=3)


def test_qdim_palindromic():
    for coords in [(1, 0), (3, 0), (1, 1, 0), (2, 1, 0), (4, 0, 0)]:
        d = qdim(Weight(coords))
        assert d == ExactScalar(d.num.conj(), d.den.conj())


def test_root_product_empty_and_vanishing():
    roots = RootData(3).positive_roots
    top, bottom = Weight((2, 1, 0)), Weight((1, 0, 0))
    for factor in (qint, one_minus_q2):
        assert root_product(roots, top, bottom, (), (), factor) == ExactScalar.one()
        assert root_product((), top, bottom, (0, 1), (0, 1), factor) == ExactScalar.one()
        # (e_1 - e_2, top) = 1, so the s = -1 factor is factor(0) = 0
        assert root_product(roots, top, bottom, (0, -1), (1,), factor).is_zero


def test_root_product_pairs_through_canonical_coordinates():
    # e_1 - e_3 is stored as (2, 1, 0); its pairing with (1, 0, 0) is 1, not 2
    alpha = Weight((1, 0, -1))
    assert alpha.coords == (2, 1, 0)
    got = root_product([alpha], Weight((1, 0, 0)), Weight((0, 0, 0)), (0, 2), (-3,), qint)
    assert got == qint(1) * qint(3) / qint(-3)
    got = root_product([alpha], Weight((1, 0, 0)), Weight((1, 0, 0)), (1,), (-2,), one_minus_q2)
    assert got == parse_scalar("1 - 1*q^(4)") / parse_scalar("1 - 1*q^(-2)")


def test_root_product_rejects_weights_that_are_not_roots():
    # (1,0,0) pairs to 2/3 with itself; truncating that to 0 gave [1] = 1
    with pytest.raises(ValueError, match="1,0,0 pairs to 2/3 with 1,0,0"):
        root_product([Weight((1, 0, 0))], Weight((1, 0, 0)), Weight((0, 0, 0)), (1,), (), qint)


def test_root_product_rejects_unknown_factor():
    rd = RootData(3)
    with pytest.raises(ValueError, match="factor qint or one_minus_q2, got <function q_power"):
        root_product(rd.positive_roots, rd.rho, rd.rho, (0,), (0,), q_power)


def _root_product_outcome(fn, args):
    try:
        val = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return val.num.terms, val.den.terms


def test_root_product_matches_division_oracle():
    rng = random.Random(14)
    kinds = Counter()
    for _ in range(500):
        n = rng.choice((2, 2, 3, 3, 4, 4, 5))
        rd = RootData(n)
        lams = grid_weights(n, 3)
        subset = rng.sample(rd.all_roots, rng.randint(1, len(rd.all_roots)))
        roots = rng.choice([rd.positive_roots, rd.all_roots, subset])
        top = rng.choice(lams) + rng.randint(0, 2) * rd.rho
        bottom = rng.choice(lams) + rng.randint(0, 2) * rd.rho
        up = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        down = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        args = (roots, top, bottom, up, down, rng.choice((qint, one_minus_q2)))
        want = _root_product_outcome(root_product_by_division, args)
        assert _root_product_outcome(root_product, args) == want, args
        kinds["raises" if isinstance(want[0], type) else "zero" if not want[0] else "value"] += 1
    # vanishing up and down factors both occur, as well as ordinary values
    assert kinds["raises"] >= 50 and kinds["zero"] >= 50 and kinds["value"] >= 200, kinds


def test_root_product_matches_division_oracle_on_closed_form_inputs(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        return root_product(*args)

    for module in (algebra, identities, operators):
        monkeypatch.setattr(module, "root_product", recording)
    for n, k, size in [(3, 2, 3), (4, 2, 2), (5, 1, 2)]:
        ctx = MacdonaldContext(n, k)
        rd = ctx.root_data
        ws = grid_weights(n, size)
        for lam in ws:
            identities.norm_rhs(lam, ctx)
            identities.special_value_rhs(lam, ctx)
            identities.special_value_rhs_exponential(lam, ctx)
            identities.shapovalov_denominator(lam, k, n)
            identities.cor38_ratio(lam + (k - 1) * rd.rho, k - 1, n)
            algebra.qdim(lam + (k - 1) * rd.rho)
            for mu in ws:
                identities.symmetry_rhs(lam, mu, ctx)
                identities.symmetry_rhs_exponential(lam, mu, ctx)
            shifted = lam + k * rd.rho
            for r in range(1, n):
                operators.pieri_expand(lam, r, ctx)
                # the specialized-recurrence coefficients, as operators builds them
                for nu in lambda_r_weights(n, r):
                    if (lam + nu).is_dominant:
                        roots = [a for a in rd.all_roots if pairing(a, nu) == -1]
                        calls.append((roots, shifted, shifted, (-k,), (0,), qint))
    assert len(calls) > 300
    for args in calls:
        assert (_root_product_outcome(root_product, args)
                == _root_product_outcome(root_product_by_division, args)), args


def test_element_to_str_deterministic():
    f = orbit_sum(fundamental_weight(2, 1))
    assert element_to_str(f) == element_to_str(orbit_sum(fundamental_weight(2, 1)))
    assert "e[" in element_to_str(f)
