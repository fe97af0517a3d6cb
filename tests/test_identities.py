"""Closed-form evaluators, two-sided verification, report serialization."""

import hashlib
import json
import sys
from collections import Counter

import pytest

from macdpoly import identities
from macdpoly.algebra import GroupAlgebraElement, qdim
from macdpoly.core import MacdonaldContext, macdonald_poly, norm
from macdpoly.exact import ExactScalar, evaluate_limit_q1, parse_scalar, qint, scalar_to_str
from macdpoly.identities import (
    IDENTITIES,
    cor38_ratio,
    norm_rhs,
    shapovalov_denominator,
    special_value_rhs,
    special_value_rhs_exponential,
    symmetry_rhs,
    symmetry_rhs_exponential,
    verify,
    verify_grid,
)
from macdpoly.operators import pieri_expand
from macdpoly.weights import Weight, dominant_weights_up_to

from helpers import (
    ORACLE_GRID,
    cross_check_45_by_characters,
    get_context,
    grid_weights,
    pieri_sides_by_products,
)


def test_norm_rhs_k1_is_one():
    ctx = get_context(3, 1)
    for lam in grid_weights(3, 4):
        assert norm_rhs(lam, ctx) == ExactScalar.one()


def test_norm_rhs_worked_value():
    # lam = 0, n=2, k=2: (1 - q^6)/(1 - q^2) = 1 + q^2 + q^4
    ctx = get_context(2, 2)
    assert norm_rhs(Weight((0, 0)), ctx) == parse_scalar("1 + 1*q^(2) + 1*q^(4)")


def test_norm_identity_small_grid():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        ctx = get_context(n, k)
        for lam in grid_weights(n, 3):
            assert norm(lam, ctx) == norm_rhs(lam, ctx)


def test_shapovalov_denominator():
    # k = 0 gives the empty product
    assert shapovalov_denominator(Weight((2, 0)), 0, 2) == ExactScalar.one()
    # the i = (alpha, lam + rho) factor makes it vanish at small weights
    assert shapovalov_denominator(Weight((0, 0)), 1, 2).is_zero
    # generic weight: (alpha, lam + rho) = 4, factors at i = 1, 2
    v = shapovalov_denominator(Weight((3, 0)), 2, 2)
    assert v == parse_scalar("1 - 1*q^(6)") * parse_scalar("1 - 1*q^(4)")


@pytest.mark.parametrize("closed_form", [shapovalov_denominator, cor38_ratio])
def test_k_must_be_an_int_not_a_bool(closed_form):
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        closed_form(Weight((1, 0)), True, 2)
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        closed_form(Weight((1, 0)), -1, 2)


def test_cor38_ratio_matches_norm_closed_form():
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        ctx = get_context(n, k)
        rho = ctx.root_data.rho
        for lam in grid_weights(n, 3):
            assert cor38_ratio(lam + (k - 1) * rho, k - 1, n) == norm_rhs(lam, ctx)


def test_cor38_ratio_vanishing_denominator():
    with pytest.raises(ValueError):
        cor38_ratio(Weight((0, 0)), 1, 2)


def test_symmetry_rhs_frozen_value():
    # n=2, k=1, lam two boxes, mu empty: [1]/[3]
    ctx = get_context(2, 1)
    got = symmetry_rhs(Weight((2, 0)), Weight((0, 0)), ctx)
    assert got == qint(1) / qint(3)
    assert scalar_to_str(got) == "(1*q^(2))/(1 + 1*q^(2) + 1*q^(4))"


def test_symmetry_two_printed_forms_agree():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        ctx = get_context(n, k)
        ws = grid_weights(n, 3)
        for lam in ws:
            for mu in ws:
                assert symmetry_rhs(lam, mu, ctx) == symmetry_rhs_exponential(lam, mu, ctx)


def test_special_value_two_printed_forms_agree():
    for n, k in [(2, 2), (3, 3)]:
        ctx = get_context(n, k)
        for lam in grid_weights(n, 3):
            assert special_value_rhs(lam, ctx) == special_value_rhs_exponential(lam, ctx)


def _weyl_dimension(lam):
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i), in integers."""
    c = lam.coords
    pairs = [(i, j) for i in range(len(c)) for j in range(i + 1, len(c))]
    num = den = 1
    for i, j in pairs:
        num *= c[i] - c[j] + j - i
        den *= j - i
    assert num % den == 0
    return num // den


def _check_closed_forms(n, ks, ws):
    for k in ks:
        ctx = get_context(n, k)
        rho = ctx.root_data.rho
        for lam in ws:
            for mu in ws:
                assert symmetry_rhs(lam, mu, ctx) == symmetry_rhs_exponential(lam, mu, ctx)
            assert special_value_rhs(lam, ctx) == special_value_rhs_exponential(lam, ctx)
            assert cor38_ratio(lam + (k - 1) * rho, k - 1, n) == norm_rhs(lam, ctx)
            assert evaluate_limit_q1(qdim(lam)) == _weyl_dimension(lam)


def test_closed_forms_rank4():
    # every dominant lam, mu with |.| <= 2 at n = 4
    ws = grid_weights(4, 2)
    assert {str(lam): _weyl_dimension(lam) for lam in ws} == {
        "0,0,0,0": 1, "1,0,0,0": 4, "1,1,0,0": 6, "2,0,0,0": 10}
    _check_closed_forms(4, (1, 2), ws)


def test_closed_forms_rank5():
    # every dominant lam, mu with |.| <= 2 at n = 5
    ws = grid_weights(5, 2)
    assert {str(lam): _weyl_dimension(lam) for lam in ws} == {
        "0,0,0,0,0": 1, "1,0,0,0,0": 5, "1,1,0,0,0": 10, "2,0,0,0,0": 15}
    _check_closed_forms(5, (1, 2, 3), ws)


def test_closed_forms_match_golden_digest():
    # canonical strings of every closed form over a fixed sweep, recorded
    # when each was still built by one exact division per root
    out = []
    for n, k, size in [(3, 2, 4), (3, 3, 4), (4, 2, 3), (5, 2, 2), (4, 3, 3)]:
        ctx = MacdonaldContext(n, k)
        up = (k - 1) * ctx.root_data.rho
        ws = dominant_weights_up_to(n, size)
        for lam in ws:
            out += [norm_rhs(lam, ctx), special_value_rhs(lam, ctx),
                    special_value_rhs_exponential(lam, ctx), qdim(lam + up),
                    cor38_ratio(lam + up, k - 1, n)]
            for mu in ws:
                out += [symmetry_rhs(lam, mu, ctx), symmetry_rhs_exponential(lam, mu, ctx)]
            for r in range(1, n):
                out += [term.coefficient for term in pieri_expand(lam, r, ctx)]
    text = "\n".join(scalar_to_str(value) for value in out)
    assert len(out) == 926
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "976be21b3f09cfd974226202dd49f761be47642ad2ba43884c35b59ee0d07b86")


def test_special_value_identity():
    ctx = get_context(2, 2)
    point = ctx.k * ctx.root_data.rho
    for lam in grid_weights(2, 3):
        assert macdonald_poly(lam, ctx).evaluate_at(point) == special_value_rhs(lam, ctx)
    assert special_value_rhs(Weight((0, 0)), ctx) == ExactScalar.one()


def test_verify_known_identities():
    ctx = get_context(2, 2)
    for identity, params in [
        ("norm", {"lambda": Weight((2, 0))}),
        ("symmetry", {"lambda": Weight((2, 0)), "mu": Weight((1, 0))}),
        ("special_value", {"lambda": Weight((2, 0))}),
        ("kernel_factorization", {}),
        ("eigenvalue", {"lambda": Weight((2, 0)), "r": 1}),
        ("pieri", {"mu": Weight((2, 0)), "r": 1}),
        ("specialized_recurrence",
         {"lambda": Weight((2, 0)), "mu": Weight((1, 0)), "r": 1}),
        ("cross_check_45", {"lambda": Weight((2, 0)), "mu": Weight((1, 0))}),
    ]:
        report = verify(identity, params, ctx)
        assert report.equal, report.to_json()
        assert report.error is None
        assert report.lhs and report.rhs


def test_verify_identity_list_is_complete():
    assert set(IDENTITIES) == {
        "norm", "symmetry", "special_value", "kernel_factorization",
        "eigenvalue", "pieri", "specialized_recurrence", "cross_check_45",
    }


def test_verify_error_reports():
    ctx = get_context(2, 2)
    missing = verify("symmetry", {"lambda": Weight((2, 0))}, ctx)
    assert not missing.equal
    assert "requires parameter" in missing.error
    unknown = verify("frobnicate", {}, ctx)
    assert not unknown.equal
    assert "unknown identity" in unknown.error
    bad_rank = verify("norm", {"lambda": Weight((1, 0, 0))}, ctx)
    assert not bad_rank.equal and bad_rank.error
    # an unknown identity shows its params like any other error report
    unknown = verify("bogus", {"lambda": Weight((1, 0)), "r": None}, ctx)
    assert json.loads(unknown.to_json())["params"] == {"n": 2, "k": 2, "lambda": "1,0"}
    # error reports show every parameter as a string, r included
    bad_pieri = verify("pieri", {"mu": Weight((1, 0, 0)), "r": 1}, ctx)
    assert bad_pieri.error and bad_pieri.params == {"n": 2, "k": 2, "mu": "1,0,0", "r": "1"}


def test_report_params_are_the_needed_names():
    ctx = get_context(2, 2)
    report = verify("pieri", {"lambda": Weight((2, 0)), "mu": Weight((1, 0)), "r": 1}, ctx)
    assert report.equal
    assert report.params == {"n": 2, "k": 2, "mu": "1,0", "r": 1}
    assert type(report.params["r"]) is int


def test_bool_parameters_are_rejected():
    # True is an int to isinstance; it must not pass for k = 1 or r = 1
    with pytest.raises(ValueError):
        MacdonaldContext(2, True)
    ctx = get_context(2, 2)
    lam = Weight((1, 0))
    for identity, params in (("eigenvalue", {"lambda": lam}), ("pieri", {"mu": lam}),
                             ("specialized_recurrence", {"lambda": lam, "mu": lam})):
        report = verify(identity, {**params, "r": True}, ctx)
        assert not report.equal and "operator index r" in report.error


def test_report_golden_json_lines():
    ctx = get_context(2, 2)
    got = verify("norm", {"lambda": Weight((2, 0))}, ctx).to_json()
    assert got == (
        '{"equal": true, "identity": "norm", '
        '"lhs": "(1 + 1*q^(2) + 1*q^(4) + 1*q^(6) + 1*q^(8))/(1 + 1*q^(2) + 1*q^(4))", '
        '"params": {"k": 2, "lambda": "2,0", "n": 2}, '
        '"rhs": "(1 + 1*q^(2) + 1*q^(4) + 1*q^(6) + 1*q^(8))/(1 + 1*q^(2) + 1*q^(4))"}'
    )
    got = verify("special_value", {"lambda": Weight((1, 0))}, ctx).to_json()
    assert got == (
        '{"equal": true, "identity": "special_value", "lhs": "1*q^(-2) + 1*q^(2)", '
        '"params": {"k": 2, "lambda": "1,0", "n": 2}, "rhs": "1*q^(-2) + 1*q^(2)"}'
    )


def test_report_json_is_stable():
    ctx = get_context(2, 2)
    a = verify("norm", {"lambda": Weight((2, 0))}, ctx).to_json()
    b = verify("norm", {"lambda": Weight((2, 0))}, ctx).to_json()
    assert a == b


def test_cross_check_45_cases():
    for n, k in [(2, 2), (3, 2)]:
        ctx = get_context(n, k)
        ws = grid_weights(n, 3)
        for i, lam in enumerate(ws):
            for mu in ws[: i + 1]:
                report = verify("cross_check_45", {"lambda": lam, "mu": mu}, ctx)
                assert report.equal, report.to_json()


def test_verify_grid_all_pass():
    reports = verify_grid(get_context(2, 2), max_size=3)
    assert reports
    for r in reports:
        assert r.equal, r.to_json()
    # deterministic order
    ids = [(r.identity, tuple(sorted(r.params.items()))) for r in reports]
    reports2 = verify_grid(get_context(2, 2), max_size=3)
    assert ids == [(r.identity, tuple(sorted(r.params.items()))) for r in reports2]


def test_eigenvalue_and_pieri_rank4():
    # every |lam| <= 2 and r = 1..3 at n = 4
    for k in (1, 2):
        reports = verify_grid(get_context(4, k), max_size=2, identities=["eigenvalue", "pieri"])
        assert len(reports) == 24
        for r in reports:
            assert r.equal, r.to_json()


def test_evaluation_identities_rank4():
    # symmetry over every pair, special value and norm over every |lam| <= 2 at n = 4
    size = len(grid_weights(4, 2))
    for k in (1, 2):
        reports = verify_grid(get_context(4, k), max_size=2,
                              identities=["symmetry", "special_value", "norm"])
        assert len(reports) == size * size + 2 * size
        for r in reports:
            assert r.equal, r.to_json()


def test_verify_grid_identity_filter():
    reports = verify_grid(get_context(2, 1), max_size=2, identities=["norm"])
    assert reports
    assert all(r.identity == "norm" for r in reports)


def _old_grid_order(ctx, max_size, names):
    """(identity, params) in the order of the per-identity loops verify_grid once had."""
    lams = grid_weights(ctx.n, max_size)
    rs = range(1, ctx.n)
    base = {"n": ctx.n, "k": ctx.k}
    out = []
    for name in names:
        if name == "kernel_factorization":
            out.append((name, base))
        elif name in ("norm", "special_value"):
            out += [(name, {**base, "lambda": str(lam)}) for lam in lams]
        elif name in ("symmetry", "cross_check_45"):
            out += [(name, {**base, "lambda": str(lam), "mu": str(mu)})
                    for lam in lams for mu in lams]
        elif name == "eigenvalue":
            out += [(name, {**base, "lambda": str(lam), "r": r}) for lam in lams for r in rs]
        elif name == "pieri":
            out += [(name, {**base, "mu": str(mu), "r": r}) for mu in lams for r in rs]
        elif name == "specialized_recurrence":
            out += [(name, {**base, "lambda": str(lam), "mu": str(mu), "r": r})
                    for lam in lams for mu in lams for r in rs]
    return out


@pytest.mark.parametrize("names", [None, ["pieri", "norm"]])
def test_verify_grid_order_matches_nested_loops(names):
    ctx = get_context(3, 2)
    reports = verify_grid(ctx, max_size=2, identities=names)
    expected = _old_grid_order(ctx, 2, names or IDENTITIES)
    assert [(r.identity, r.params) for r in reports] == expected
    assert all(r.equal for r in reports)


def test_verify_grid_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_grid(get_context(2, 1), max_size=2, identities=["norm", "bogus"])


@pytest.mark.parametrize("n,k,max_size", ORACLE_GRID)
def test_pieri_matches_product_oracle(n, k, max_size):
    ctx = get_context(n, k)
    for mu in grid_weights(n, max_size):
        for r in range(1, n):
            lhs, rhs = identities._verify_pieri(mu, r, ctx)
            assert (lhs, rhs) == pieri_sides_by_products(mu, r, ctx)
            assert lhs == rhs


@pytest.mark.parametrize("n,k,max_size", ORACLE_GRID)
def test_cross_check_45_matches_character_oracle(n, k, max_size):
    ctx = get_context(n, k)
    lams = grid_weights(n, max_size)
    for lam in lams:
        for mu in lams:
            lhs, rhs = identities._verify_cross_check_45(lam, mu, ctx)
            assert (lhs, rhs) == cross_check_45_by_characters(lam, mu, ctx)
            # the swapped report compares the same two sides
            assert identities._verify_cross_check_45(mu, lam, ctx) == (rhs, lhs)


def test_pieri_reads_every_weight_below_the_top(monkeypatch):
    # drop the top term P_(mu + omega_r): at mu = 0 no term is left, so the
    # left side is 0, and a check read only over its support would pass
    expand = identities.pieri_expand
    monkeypatch.setattr(identities, "pieri_expand", lambda *args: expand(*args)[1:])
    ctx = get_context(3, 2)
    reports = verify_grid(ctx, max_size=2, identities=["pieri"])
    assert reports and not any(r.equal for r in reports)
    zero = [r for r in reports if r.params["mu"] == "0,0,0"]
    assert zero and all(r.lhs == "0" for r in zero)


def test_verify_grid_works_on_values(monkeypatch):
    # on a fresh (3,2) context: each P_lam is evaluated at most once per
    # point, no chi is built, and two elements are multiplied only to build
    # the kernel, chi0 and a_rho and to check the kernel factorization
    evaluated, products = [], Counter()
    evaluate_at, mul = GroupAlgebraElement.evaluate_at, GroupAlgebraElement.__mul__

    def counted_evaluate_at(self, xi):
        evaluated.append((self, xi))  # holding self keeps every id distinct
        return evaluate_at(self, xi)

    def counted_mul(self, other):
        if isinstance(other, GroupAlgebraElement):
            products[sys._getframe(1).f_code.co_name] += 1
        return mul(self, other)

    monkeypatch.setattr(GroupAlgebraElement, "evaluate_at", counted_evaluate_at)
    monkeypatch.setattr(GroupAlgebraElement, "__mul__", counted_mul)
    ctx = MacdonaldContext(3, 2)
    reports = verify_grid(ctx, max_size=3)
    assert reports and all(r.equal for r in reports)
    polys = {id(macdonald_poly(lam, ctx)) for lam in grid_weights(3, 3)}
    per_point = Counter((id(f), xi) for f, xi in evaluated if id(f) in polys)
    assert per_point and max(per_point.values()) == 1
    assert not any(kind == "chi" for kind, _ in ctx._memo)
    assert set(products) == {"binomial_product", "_verify_kernel_factorization"}
