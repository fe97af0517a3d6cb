"""Construction of P_lambda: kernel, inner product, Gram table, memo, caching."""

import json
import os
import threading

import pytest

from macdpoly.algebra import GroupAlgebraElement, orbit_sum
from macdpoly.core import (
    MacdonaldContext,
    chi,
    chi0,
    delta_kernel,
    inner_product,
    load_cache,
    macdonald_coeffs,
    macdonald_poly,
    norm,
    save_cache,
)
from macdpoly.exact import ExactScalar, LaurentPoly, parse_scalar, qint
from macdpoly.weights import Weight, dominance_leq, fundamental_weight

from helpers import get_context, grid_weights


def test_context_validation():
    with pytest.raises(ValueError):
        MacdonaldContext(1, 1)
    with pytest.raises(ValueError):
        MacdonaldContext(2, 0)
    with pytest.raises(ValueError):
        MacdonaldContext(2, "2")


def test_delta_kernel_rank2_k1():
    d = delta_kernel(2, 1)
    alpha = Weight((1, -1))
    assert d.terms[Weight((0, 0))] == ExactScalar.from_rational(2)
    assert d.terms[alpha] == -ExactScalar.one()
    assert d.terms[-alpha] == -ExactScalar.one()
    assert len(d.terms) == 3


def test_delta_kernel_properties():
    for n, k in [(2, 1), (2, 3), (3, 2)]:
        d = delta_kernel(n, k)
        assert d.is_w_invariant()
        assert d.bar() == d
    # k=1 kernel has no q-dependence
    d1 = delta_kernel(3, 1)
    for c in d1.terms.values():
        assert c.is_rational_constant
    assert delta_kernel(2, 1).constant_term() == ExactScalar.from_rational(2)


def test_inner_product_values():
    ctx1 = get_context(2, 1)
    one = GroupAlgebraElement.one(2)
    assert inner_product(one, one, ctx1) == ExactScalar.one()
    ctx2 = get_context(2, 2)
    expected = ExactScalar(LaurentPoly({0: 1, 2: 1, 4: 1}))
    assert inner_product(one, one, ctx2) == expected
    m = orbit_sum(fundamental_weight(2, 1))
    assert inner_product(m, one, ctx2) == ExactScalar.zero()


def test_inner_product_symmetric_on_invariants():
    ctx = get_context(2, 2)
    f = orbit_sum(Weight((2, 0)))
    g = orbit_sum(Weight((0, 0)))
    assert inner_product(f, g, ctx) == inner_product(g, f, ctx)


def test_macdonald_poly_trivial_cases():
    ctx = get_context(2, 2)
    assert macdonald_poly(Weight((0, 0)), ctx) == GroupAlgebraElement.one(2)
    w = fundamental_weight(2, 1)
    assert macdonald_poly(w, ctx) == orbit_sum(w)


def test_macdonald_poly_schur_case():
    # k=1: P is the classical character; for two boxes in rank 2 it is m + 1
    ctx = get_context(2, 1)
    p = macdonald_poly(Weight((2, 0)), ctx)
    assert p == orbit_sum(Weight((2, 0))) + GroupAlgebraElement.one(2)


def test_macdonald_poly_worked_coefficient():
    # the classic rank-2, k=2, two-box coefficient
    ctx = get_context(2, 2)
    coeffs = macdonald_coeffs(Weight((2, 0)), ctx)
    expected = parse_scalar("(1 + 2*q^(2) + 1*q^(4))/(1 + 1*q^(2) + 1*q^(4))")
    assert coeffs[Weight((2, 0))] == ExactScalar.one()
    assert coeffs[Weight((0, 0))] == expected


def test_macdonald_poly_validation():
    ctx = get_context(2, 2)
    with pytest.raises(ValueError):
        macdonald_poly(Weight((0, 1)), ctx)  # not dominant
    with pytest.raises(ValueError):
        macdonald_poly(Weight((1, 0, 0)), ctx)  # wrong rank


def test_triangularity_and_leading_coefficient():
    for n, k in [(2, 2), (3, 2)]:
        ctx = get_context(n, k)
        for lam in grid_weights(n, 3):
            coeffs = macdonald_coeffs(lam, ctx)
            assert coeffs[lam] == ExactScalar.one()
            for mu in coeffs:
                assert mu.is_dominant and dominance_leq(mu, lam)
            p = macdonald_poly(lam, ctx)
            assert p.is_w_invariant()


def test_orthogonality_small():
    ctx = get_context(2, 3)
    ws = grid_weights(2, 3)
    polys = {w: macdonald_poly(w, ctx) for w in ws}
    for i, a in enumerate(ws):
        for b in ws[:i]:
            assert inner_product(polys[a], polys[b], ctx).is_zero


def test_gram_coefficients_have_polynomial_q_exponents():
    ctx = get_context(3, 2)
    for lam in grid_weights(3, 3):
        for c in macdonald_coeffs(lam, ctx).values():
            for poly in (c.num, c.den):
                assert all(e.denominator == 1 for e in poly.terms)


def test_chi0():
    assert chi0(get_context(3, 1)) == GroupAlgebraElement.one(3)
    c = chi0(get_context(2, 2))
    w = fundamental_weight(2, 1)
    assert set(c.terms) == {w, -w}
    assert c.terms[w] == ExactScalar.one()
    assert c.terms[-w] == ExactScalar.zero() - ExactScalar(LaurentPoly({2: 1}))


def test_kernel_factorization_small():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        ctx = get_context(n, k)
        c0 = chi0(ctx)
        assert c0 * c0.bar() * delta_kernel(n, 1) == ctx.kernel


def test_chi_and_norm_transfer():
    # <chi_lam, chi_lam>_1 = <P_lam, P_lam>_k
    for n, k in [(2, 2), (3, 2)]:
        ctx = get_context(n, k)
        ctx1 = get_context(n, 1)
        for lam in grid_weights(n, 2):
            c = chi(lam, ctx)
            assert inner_product(c, c, ctx1) == norm(lam, ctx)
    assert chi(Weight((0, 0)), get_context(2, 3)) == chi0(get_context(2, 3))


def test_norm_values():
    ctx = get_context(2, 2)
    assert norm(Weight((0, 0)), ctx) == ExactScalar(LaurentPoly({0: 1, 2: 1, 4: 1}))
    ctx1 = get_context(3, 1)
    for lam in grid_weights(3, 3):
        assert norm(lam, ctx1) == ExactScalar.one()


def test_cache_round_trip(tmp_path):
    ctx = MacdonaldContext(2, 2)
    for lam in grid_weights(2, 3):
        macdonald_poly(lam, ctx)
    path = tmp_path / "cache.json"
    save_cache(ctx, path)
    fresh = MacdonaldContext(2, 2)
    assert load_cache(fresh, path) == len(grid_weights(2, 3))
    for lam in grid_weights(2, 3):
        assert macdonald_poly(lam, fresh) == macdonald_poly(lam, ctx)
    # loaded cache serializes back to the identical file
    path2 = tmp_path / "cache2.json"
    save_cache(fresh, path2)
    assert path.read_text() == path2.read_text()


def test_cache_rejects_wrong_context(tmp_path):
    ctx = MacdonaldContext(2, 2)
    macdonald_poly(Weight((2, 0)), ctx)
    path = tmp_path / "cache.json"
    save_cache(ctx, path)
    other = MacdonaldContext(2, 3)
    with pytest.raises(ValueError):
        load_cache(other, path)


def test_cache_rejects_tampering(tmp_path):
    ctx = MacdonaldContext(2, 2)
    macdonald_poly(Weight((2, 0)), ctx)
    path = tmp_path / "cache.json"
    save_cache(ctx, path)
    doc = json.loads(path.read_text())

    def reload(mutated):
        path.write_text(json.dumps(mutated))
        fresh = MacdonaldContext(2, 2)
        with pytest.raises(ValueError):
            load_cache(fresh, path)

    # non-dominant lambda
    bad = json.loads(json.dumps(doc))
    bad["entries"][-1]["lambda"] = "0,1"
    reload(bad)
    # broken triangularity: coefficient weight not below lambda
    bad = json.loads(json.dumps(doc))
    bad["entries"][-1]["coeffs"].append({"mu": "4,0", "value": "1"})
    reload(bad)
    # leading coefficient must be one
    bad = json.loads(json.dumps(doc))
    for entry in bad["entries"]:
        if entry["lambda"] == "2,0":
            for c in entry["coeffs"]:
                if c["mu"] == "2,0":
                    c["value"] = "2"
    reload(bad)
    # duplicate entries
    bad = json.loads(json.dumps(doc))
    bad["entries"].append(bad["entries"][-1])
    reload(bad)


def test_poly_cache_concurrent_reads():
    ctx = MacdonaldContext(2, 2)
    ws = grid_weights(2, 4)
    results = [None] * 8
    errors = []

    def worker(i):
        try:
            results[i] = [macdonald_poly(w, ctx) for w in ws]
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for r in results[1:]:
        assert r == results[0]


# ---------------------------------------------------------------------------
# Gram table and triangular recursion, against independent oracles
# ---------------------------------------------------------------------------


def test_gram_table_matches_raw_inner_product():
    from macdpoly.core import _gram

    for n, k in [(3, 2), (2, 3)]:
        ctx = get_context(n, k)
        ws = grid_weights(n, 4)
        for a in ws:
            for b in ws:
                raw = inner_product(orbit_sum(a), orbit_sum(b), ctx)
                assert _gram(a, b, ctx) == raw, (n, k, a, b)


def test_build_order_and_warm_cache_agree(tmp_path):
    import random

    ws = grid_weights(3, 5)
    ascending = MacdonaldContext(3, 2)
    expected = {lam: macdonald_coeffs(lam, ascending) for lam in ws}
    shuffled = list(ws)
    random.Random(7).shuffle(shuffled)
    ctx = MacdonaldContext(3, 2)
    assert {lam: macdonald_coeffs(lam, ctx) for lam in shuffled} == expected
    path = tmp_path / "cache.json"
    save_cache(ascending, path)
    warm = MacdonaldContext(3, 2)
    assert load_cache(warm, path) == len(ws)
    assert {lam: macdonald_coeffs(lam, warm) for lam in shuffled} == expected
    assert warm.rejected == []


def test_pairwise_orthogonality_rank4():
    ctx = get_context(4, 1)
    ws = grid_weights(4, 3)
    polys = {w: macdonald_poly(w, ctx) for w in ws}
    for i, a in enumerate(ws):
        for b in ws[:i]:
            assert inner_product(polys[a], polys[b], ctx).is_zero, (a, b)


# ---------------------------------------------------------------------------
# Cache robustness: malformed shapes and wrong values
# ---------------------------------------------------------------------------


def _saved_doc(tmp_path):
    ctx = MacdonaldContext(2, 2)
    for lam in grid_weights(2, 2):
        macdonald_poly(lam, ctx)
    path = tmp_path / "cache.json"
    save_cache(ctx, path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["entries"][-1].pop("coeffs"),
    lambda doc: doc["entries"][-1].pop("lambda"),
    lambda doc: doc["entries"][-1]["coeffs"][0].pop("value"),
    lambda doc: doc["entries"][-1].__setitem__("coeffs", {"mu": "2,0"}),
    lambda doc: doc["entries"].__setitem__(-1, "2,0"),
    lambda doc: doc["entries"][-1]["coeffs"][0].__setitem__("value", 1),
    lambda doc: doc["entries"][-1].__setitem__("lambda", [2, 0]),
    lambda doc: doc["entries"][-1]["coeffs"][0].__setitem__("value", "(1)/(0)"),
], ids=["missing-coeffs", "missing-lambda", "missing-value", "non-list-coeffs",
        "non-dict-entry", "non-string-value", "non-string-lambda", "zero-denominator"])
def test_cache_malformed_shapes_raise_value_error(tmp_path, mutate):
    path, doc = _saved_doc(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_cache(MacdonaldContext(2, 2), path)


def test_cache_half_bad_file_loads_nothing(tmp_path):
    path, doc = _saved_doc(tmp_path)
    del doc["entries"][-1]["coeffs"]
    path.write_text(json.dumps(doc))
    fresh = MacdonaldContext(2, 2)
    with pytest.raises(ValueError):
        load_cache(fresh, path)
    empty = tmp_path / "empty.json"
    save_cache(fresh, empty)
    assert json.loads(empty.read_text())["entries"] == []


def test_cache_poisoned_entry_is_rebuilt(tmp_path):
    path, doc = _saved_doc(tmp_path)
    for entry in doc["entries"]:
        if entry["lambda"] == "2,0":
            for rec in entry["coeffs"]:
                if rec["mu"] == "0,0":
                    rec["value"] = "7"
    path.write_text(json.dumps(doc))
    fresh = MacdonaldContext(2, 2)
    load_cache(fresh, path)
    assert macdonald_coeffs(Weight((2, 0)), fresh) == macdonald_coeffs(
        Weight((2, 0)), get_context(2, 2))
    assert fresh.rejected == [Weight((2, 0))]


def test_loaded_cache_concurrent_first_use(tmp_path):
    import sys

    ws = grid_weights(3, 4)
    path = tmp_path / "cache.json"
    built = MacdonaldContext(3, 2)
    expected = [macdonald_coeffs(w, built) for w in ws]
    save_cache(built, path)
    ctx = MacdonaldContext(3, 2)
    load_cache(ctx, path)
    results = [None] * 8

    def worker(i):
        results[i] = [macdonald_coeffs(w, ctx) for w in reversed(ws)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for r in results:
        assert r is not None and r[::-1] == expected
    assert ctx.rejected == [] and not ctx._loaded


# ---------------------------------------------------------------------------
# The per-context memo
# ---------------------------------------------------------------------------


def test_norm_is_memoized(monkeypatch):
    from macdpoly import core

    calls = []
    raw = core.inner_product
    monkeypatch.setattr(core, "inner_product", lambda *a: calls.append(1) or raw(*a))
    ctx = MacdonaldContext(2, 2)
    lam = Weight((2, 0))
    first = norm(lam, ctx)
    assert len(calls) == 1
    assert norm(lam, ctx) == first and len(calls) == 1


def test_zero_gram_entry_is_memoized(monkeypatch):
    from macdpoly import core

    calls = []
    orbit = core.weyl_orbit
    monkeypatch.setattr(core, "weyl_orbit", lambda w: calls.append(w) or orbit(w))
    ctx = MacdonaldContext(3, 2)
    a, b = Weight((1, 0, 0)), Weight((0, 0, 0))
    assert core._gram(a, b, ctx).is_zero
    assert len(calls) == 1
    assert core._gram(b, a, ctx).is_zero
    assert len(calls) == 1


def test_save_cache_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    ctx = MacdonaldContext(2, 2)
    macdonald_poly(Weight((1, 0)), ctx)
    path = tmp_path / "cache.json"
    save_cache(ctx, path)
    before = path.read_bytes()
    macdonald_poly(Weight((2, 0)), ctx)

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_cache(ctx, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
