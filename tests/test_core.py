"""Construction of P_lambda: kernel, inner product, Gram table, memo, caching."""

import itertools
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from macdpoly.algebra import GroupAlgebraElement, binomial_product, orbit_sum
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
from macdpoly.exact import ExactScalar, LaurentPoly, parse_scalar, q_power, qint
from macdpoly.weights import RootData, Weight, dominance_leq, dominant_below, fundamental_weight

from helpers import (
    GRID_NK,
    ORACLE_GRID,
    _horizontal_strips,
    _psi,
    a_rho_by_loops,
    chi0_by_loops,
    delta_kernel_by_loops,
    get_context,
    grid_weights,
    inner_product_by_product,
    kostka_number,
    lift_to_content,
    macdonald_coeffs_by_tableaux,
    psi_by_rows,
)


def test_context_validation():
    with pytest.raises(ValueError):
        MacdonaldContext(1, 1)
    with pytest.raises(ValueError):
        MacdonaldContext(2, 0)
    with pytest.raises(ValueError):
        MacdonaldContext(2, "2")


def test_kernel_built_on_first_use(monkeypatch):
    import macdpoly.core as core
    from macdpoly.operators import eigenvalue, pieri_coefficient, pieri_expand

    def refuse(n, k):
        raise AssertionError("kernel built")

    monkeypatch.setattr(core, "delta_kernel", refuse)
    ctx = MacdonaldContext(5, 2)
    mu = Weight((1, 0, 0, 0, 0))
    terms = pieri_expand(mu, 2, ctx)
    assert [t.nu for t in terms] == [Weight((1, 1, 0, 0, 0)), Weight((0, 1, 1, 0, 0))]
    assert pieri_coefficient(mu, terms[0].nu, ctx) == terms[0].coefficient
    assert eigenvalue(mu, 1, ctx)
    with pytest.raises(AssertionError, match="kernel built"):
        ctx.kernel

    calls = []
    monkeypatch.setattr(core, "delta_kernel", lambda n, k: calls.append((n, k)) or delta_kernel(n, k))
    ctx = MacdonaldContext(2, 2)
    assert calls == []
    norm(Weight((0, 0)), ctx)
    norm(Weight((1, 0)), ctx)
    core._gram(Weight((2, 0)), Weight((0, 0)), ctx)
    assert calls == [(2, 2)]
    assert ctx.kernel == delta_kernel(2, 2)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_binomial_products_match_loops(n):
    rd = RootData(n)
    negative = [-alpha for alpha in rd.positive_roots]
    assert binomial_product(rd.rho, negative, (0,)) == a_rho_by_loops(n)
    for k in (1, 2, 3):
        assert chi0(MacdonaldContext(n, k)) == chi0_by_loops(n, k)
        assert delta_kernel(n, k) == delta_kernel_by_loops(n, k)


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


def _random_element(n, rng):
    """A few exponentials e^w at random small weights with random rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        w = Weight([rng.randint(-2, 2) for _ in range(n)])
        terms[w] = q_power(rng.randint(-3, 3)) * qint(rng.randint(1, 4)) / qint(rng.randint(1, 3))
    return GroupAlgebraElement(n, terms)


@pytest.mark.parametrize("n,k,max_size", ORACLE_GRID)
def test_inner_product_matches_product_oracle(n, k, max_size):
    # every pair of P's, and pairs with elements that are not W-invariant
    ctx = get_context(n, k)
    rng = random.Random(10 * n + k)
    polys = [macdonald_poly(lam, ctx) for lam in grid_weights(n, max_size)]
    others = []
    while len(others) < 4:
        f = _random_element(n, rng)
        if not f.is_w_invariant():
            others.append(f)
    mixed = list(itertools.product(polys + others, others))
    for f, g in list(itertools.product(polys, repeat=2)) + mixed + [(g, f) for f, g in mixed]:
        assert inner_product(f, g, ctx) == inner_product_by_product(f, g, ctx)


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


@pytest.mark.parametrize("n,k", GRID_NK + [(4, 1), (4, 2), (5, 1)])
def test_macdonald_coeffs_match_tableau_formula(n, k):
    # Macdonald's tableau formula needs neither the kernel nor the Gram table
    ctx = get_context(n, k)
    for lam in grid_weights(n, 4):
        assert macdonald_coeffs(lam, ctx) == macdonald_coeffs_by_tableaux(lam, n, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tableau_formula_counts_tableaux_at_k1(n):
    # at k = 1 every psi_T is 1, so each coefficient is a Kostka number
    for lam in grid_weights(n, 5):
        total = sum(lam.coords)
        expected = {mu: kostka_number(lam.coords, lift_to_content(mu, total, n))
                    for mu in dominant_below(lam)}
        assert macdonald_coeffs_by_tableaux(lam, n, 1) == {
            mu: ExactScalar(c) for mu, c in expected.items() if c}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_psi_by_rows_matches_box_form(k):
    # every horizontal strip of a partition with parts <= 4 and at most 4 rows
    strips = 0
    for parts in itertools.product(range(5), repeat=4):
        big = tuple(x for x in parts if x)
        if not big or list(parts) != sorted(parts, reverse=True):
            continue
        for size in range(sum(big) + 1):
            for small in _horizontal_strips(big, size, 4):
                assert psi_by_rows(big, small, k) == _psi(big, small, k), (big, small)
                strips += 1
    assert strips == 494


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
    # no temporary file is left behind; the lock file stays for the next save
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "cache.json.lock"]


def test_save_cache_merges_with_file_on_disk(tmp_path):
    path = tmp_path / "cache.json"
    first, second = MacdonaldContext(2, 2), MacdonaldContext(2, 2)
    for lam in ((1, 0), (2, 0)):
        macdonald_poly(Weight(lam), first)
    macdonald_poly(Weight((3, 0)), second)
    save_cache(first, path)
    save_cache(second, path)
    fresh = MacdonaldContext(2, 2)
    assert load_cache(fresh, path) == 4
    for lam in ((0, 0), (1, 0), (2, 0), (3, 0)):
        assert macdonald_poly(Weight(lam), fresh) == macdonald_poly(Weight(lam), get_context(2, 2))
    assert fresh.rejected == []
    # saving again in the other order writes the same file
    other = tmp_path / "other.json"
    save_cache(second, other)
    save_cache(first, other)
    assert other.read_text() == path.read_text()


def test_save_cache_own_entries_win(tmp_path):
    path = tmp_path / "cache.json"
    ctx = MacdonaldContext(2, 2)
    macdonald_poly(Weight((2, 0)), ctx)
    save_cache(ctx, path)
    good = path.read_text()
    # a well-formed but wrong lower coefficient on disk for a weight the context holds
    doc = json.loads(good)
    assert doc["entries"][-1]["lambda"] == "2,0"
    assert doc["entries"][-1]["coeffs"][0]["mu"] == "0,0"
    doc["entries"][-1]["coeffs"][0]["value"] = "7"
    path.write_text(json.dumps(doc))
    assert load_cache(MacdonaldContext(2, 2), path) == 2
    save_cache(ctx, path)
    assert path.read_text() == good


@pytest.mark.parametrize("text", [
    "{not json",
    '{"n": 2, "k": 3, "entries": []}',
    '{"n": 2, "k": 2, "entries": [{"lambda": "2,0"}]}',
    "[]",
])
def test_save_cache_replaces_damaged_or_mismatched_file(tmp_path, text):
    path = tmp_path / "cache.json"
    ctx = MacdonaldContext(2, 2)
    macdonald_poly(Weight((1, 0)), ctx)
    save_cache(ctx, tmp_path / "clean.json")
    path.write_text(text)
    save_cache(ctx, path)
    assert path.read_text() == (tmp_path / "clean.json").read_text()


_SAVER = """
import sys
from macdpoly.core import MacdonaldContext, save_cache
from macdpoly.exact import ExactScalar
from macdpoly.weights import Weight

path, parity, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
print("ready", flush=True)
sys.stdin.read()
for i in range(count):
    # a fresh context holds only its newest weight: the earlier ones
    # survive only through save_cache's merge with the file
    ctx = MacdonaldContext(2, 1)
    lam = Weight((2 * i + parity, 0))
    ctx._loaded[lam] = {lam: ExactScalar.one()}
    save_cache(ctx, path)
"""


def test_save_cache_overlapping_processes_keep_every_entry(tmp_path):
    path = tmp_path / "cache.json"
    count = 40
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    procs = [subprocess.Popen([sys.executable, "-c", _SAVER, str(path), str(parity), str(count)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
             for parity in (0, 1)]
    try:
        for p in procs:
            assert p.stdout.readline() == "ready\n"
        for p in procs:
            p.stdin.close()
        for p in procs:
            assert p.wait(timeout=120) == 0
    finally:
        for p in procs:
            p.kill()
            p.stdout.close()
    doc = json.loads(path.read_text())
    assert sorted(e["lambda"] for e in doc["entries"]) == sorted(f"{m},0" for m in range(2 * count))
