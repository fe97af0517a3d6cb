"""Acceptance suite: the ten headline checks, each with a runtime budget.

Every check is an exact canonical-form identity -- no tolerances anywhere.
Each criterion prints a single line

    ACCEPTANCE <number> <name>: PASS|FAIL (<seconds>s)

(visible under ``pytest -s``) and fails the test if the identity breaks
or the budget is exceeded.  Run order matters only for speed: earlier
criteria warm the shared per-(n, k) polynomial caches.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from macdpoly.algebra import (
    GroupAlgebraElement,
    char_lambda_r,
    orbit_sum,
    qdim,
)
from macdpoly.core import chi, chi0, delta_kernel, inner_product, macdonald_coeffs, macdonald_poly, norm
from macdpoly.exact import ExactScalar, LaurentPoly, parse_scalar, q_power, qint
from macdpoly.identities import (
    cor38_ratio,
    norm_rhs,
    special_value_rhs,
    special_value_rhs_exponential,
    symmetry_rhs,
    symmetry_rhs_exponential,
)
from macdpoly.operators import eigenvalue, macdonald_operator, pieri_expand, specialized_recurrence_sides
from macdpoly.weights import Weight, dominance_leq, dominant_below

from helpers import GRID_NK, expand_in_p_basis, get_context, grid_weights, kostka_number, lift_to_content


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)", flush=True)
        raise AssertionError(
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {budget_seconds}s")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_acceptance_01_schur_degeneration():
    # k = 1: coefficients are plain integers, equal to semistandard
    # tableau counts computed by brute force
    with criterion(1, "schur-degeneration", 10):
        for n in (2, 3):
            ctx = get_context(n, 1)
            for lam in grid_weights(n):
                shape = lam.coords
                total = sum(shape)
                coeffs = macdonald_coeffs(lam, ctx)
                expected = {}
                for mu in dominant_below(lam):
                    count = kostka_number(shape, lift_to_content(mu, total, n))
                    if count:
                        expected[mu] = count
                assert set(coeffs) == set(expected)
                for mu, count in expected.items():
                    assert coeffs[mu] == ExactScalar(count)


def test_acceptance_02_norm_identity():
    with criterion(2, "norm-identity", 300):
        # the worked value first
        ctx22 = get_context(2, 2)
        zero = Weight((0, 0))
        worked = parse_scalar("1 + 1*q^(2) + 1*q^(4)")
        one = GroupAlgebraElement.exponential(zero)
        assert inner_product(one, one, ctx22) == worked
        assert norm_rhs(zero, ctx22) == worked
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            for lam in grid_weights(n):
                p = macdonald_poly(lam, ctx)
                assert inner_product(p, p, ctx) == norm_rhs(lam, ctx)


def test_acceptance_03_kernel_factorization():
    with criterion(3, "kernel-factorization", 30):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            c0 = chi0(ctx)
            assert c0 * c0.bar() * delta_kernel(n, 1) == ctx.kernel


def test_acceptance_04_symmetry_identity():
    with criterion(4, "symmetry-identity", 300):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            rho = ctx.root_data.rho
            weights = grid_weights(n)
            polys = {w: macdonald_poly(w, ctx) for w in weights}
            for lam in weights:
                for mu in weights:
                    num = polys[mu].evaluate_at(lam + k * rho)
                    den = polys[lam].evaluate_at(mu + k * rho)
                    rhs = symmetry_rhs(lam, mu, ctx)
                    assert num / den == rhs
                    # the two printed forms of the right side agree symbolically
                    assert rhs == symmetry_rhs_exponential(lam, mu, ctx)


def test_acceptance_05_special_value():
    with criterion(5, "special-value", 60):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            point = k * ctx.root_data.rho
            for lam in grid_weights(n):
                value = macdonald_poly(lam, ctx).evaluate_at(point)
                assert value == special_value_rhs(lam, ctx)
                assert value == special_value_rhs_exponential(lam, ctx)
            assert special_value_rhs(Weight((0,) * n), ctx) == ExactScalar.one()


def test_acceptance_06_eigenvalue_equation():
    with criterion(6, "eigenvalue-equation", 300):
        for n in (2, 3):
            for k in (1, 2):
                ctx = get_context(n, k)
                for r in range(1, n):
                    for lam in grid_weights(n):
                        p = macdonald_poly(lam, ctx)
                        assert macdonald_operator(p, r, ctx) == p * eigenvalue(lam, r, ctx)
                    # the operator also gives an invariant on invariants that
                    # are not eigenfunctions (test_operators checks its value)
                    f = orbit_sum(Weight((2,) + (0,) * (n - 1)))
                    g = f * f + char_lambda_r(n, r)
                    assert macdonald_operator(g, r, ctx).is_w_invariant()


def test_acceptance_07_pieri_recurrence():
    with criterion(7, "pieri-recurrence", 300):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            for r in range(1, n):
                x_r = char_lambda_r(n, r)
                for mu in grid_weights(n):
                    terms = pieri_expand(mu, r, ctx)
                    lhs = GroupAlgebraElement.zero(n)
                    for term in terms:
                        lhs = lhs + macdonald_poly(mu + term.nu, ctx) * term.coefficient
                    assert lhs == x_r * macdonald_poly(mu, ctx)
                    if n == 2 and r == 1:
                        # independent check: expand X_1 P_mu on the P-basis
                        # by triangular elimination and compare coefficients
                        oracle = expand_in_p_basis(x_r * macdonald_poly(mu, ctx), ctx)
                        stated = {mu + t.nu: t.coefficient for t in terms
                                  if not t.coefficient.is_zero}
                        assert oracle == stated


def test_acceptance_08_specialized_recurrence_and_cross_checks():
    with criterion(8, "specialized-recurrence-and-cross-checks", 120):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            rho = ctx.root_data.rho
            weights = grid_weights(n)
            for lam in weights:
                # the norm closed form is the shifted-argument ratio product
                assert cor38_ratio(lam + (k - 1) * rho, k - 1, n) == norm_rhs(lam, ctx)
            chis = {w: chi(w, ctx) for w in weights}
            norms = {w: norm(w, ctx) for w in weights}
            qdims = {w: qdim(w + (k - 1) * rho) for w in weights}
            for lam in weights:
                for mu in weights:
                    for r in range(1, n):
                        lhs, rhs = specialized_recurrence_sides(lam, mu, r, ctx)
                        assert lhs == rhs
                    left = chis[mu].evaluate_at(lam + k * rho) * norms[lam] * qdims[lam]
                    right = chis[lam].evaluate_at(mu + k * rho) * norms[mu] * qdims[mu]
                    assert left == right


def test_acceptance_09_orthogonality_and_triangularity():
    with criterion(9, "orthogonality-triangularity", 300):
        for n, k in GRID_NK:
            ctx = get_context(n, k)
            weights = grid_weights(n)
            polys = {}
            for lam in weights:
                coeffs = macdonald_coeffs(lam, ctx)
                assert coeffs[lam] == ExactScalar.one()
                assert all(dominance_leq(mu, lam) for mu in coeffs)
                p = macdonald_poly(lam, ctx)
                assert p.is_w_invariant()
                rebuilt = GroupAlgebraElement.zero(n)
                for mu, c in coeffs.items():
                    rebuilt = rebuilt + orbit_sum(mu) * c
                assert p == rebuilt
                polys[lam] = p
            for i, lam in enumerate(weights):
                for mu in weights[i + 1:]:
                    assert inner_product(polys[lam], polys[mu], ctx).is_zero


def test_acceptance_10_arithmetic_properties():
    with criterion(10, "arithmetic-properties", 30):
        rng = random.Random(20260822)
        cases = 0

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = rng.randint(-3, 4)
                terms[exp] = terms.get(exp, 0) + rng.randint(-5, 5)
            return LaurentPoly(terms)

        def rand_scalar():
            den = rand_poly()
            while den.is_zero:
                den = rand_poly()
            return ExactScalar(rand_poly(), den)

        # field axioms and canonical-form idempotence
        for _ in range(150):
            a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ExactScalar.zero() == a
            assert a * ExactScalar.one() == a
            assert (a - a).is_zero
            cases += 8
            if not a.is_zero:
                assert a * a.inverse() == ExactScalar.one()
                assert (b / a) * a == b
                cases += 2
            # rebuilding from the stored pair reproduces the same pair:
            # canonicalization is idempotent
            again = ExactScalar(a.num, a.den)
            assert (again.num, again.den) == (a.num, a.den)
            cases += 1

        # q-integer identities
        for _ in range(150):
            m = rng.randint(-12, 12)
            s = rng.randint(-12, 12)
            assert qint(-m) == -qint(m)
            assert qint(m + s) == qint(m) * q_power(s) + q_power(-m) * qint(s)
            assert qint(2 * m) == qint(m) * (q_power(m) + q_power(-m))
            cases += 3

        # evaluation at a weight is a ring homomorphism
        ctx = get_context(2, 2)
        point_pool = [Weight((w, 0)) for w in range(-2, 4)]
        for _ in range(60):
            f = GroupAlgebraElement.zero(2)
            g = GroupAlgebraElement.zero(2)
            for _ in range(rng.randint(1, 3)):
                f = f + GroupAlgebraElement.exponential(rng.choice(point_pool)) * ExactScalar(rng.randint(-3, 3))
                g = g + GroupAlgebraElement.exponential(rng.choice(point_pool)) * ExactScalar(rng.randint(-3, 3))
            w = rng.choice(point_pool)
            assert (f + g).evaluate_at(w) == f.evaluate_at(w) + g.evaluate_at(w)
            assert (f * g).evaluate_at(w) == f.evaluate_at(w) * g.evaluate_at(w)
            cases += 2

        # exact division round-trips through multiplication
        for _ in range(100):
            a = rand_scalar()
            b = rand_scalar()
            while b.is_zero:
                b = rand_scalar()
            assert (a * b) / b == a
            assert Fraction(1, 2) * (a + a) == a
            cases += 2

        assert cases >= 1000, f"only {cases} randomized cases run"
