"""Closed-form evaluators, two-sided verification, report serialization."""

import json

import pytest

from macdpoly.core import macdonald_poly, norm
from macdpoly.exact import ExactScalar, parse_scalar, qint, scalar_to_str
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
from macdpoly.weights import Weight

from helpers import get_context, grid_weights


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
