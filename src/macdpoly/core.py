"""Macdonald polynomials P_lam(q, q^k) at integer k, via constant terms.

The inner product is

    <f, g> = (1/n!) [ f bar(g) Delta ]_0,
    Delta  = prod_{alpha in R} prod_{i=0}^{k-1} (1 - q^(2i) e^alpha),

and P_lam is the unique W-invariant element  m_lam + (lower orbit sums)
orthogonal to every strictly smaller orbit sum.  The P's are mutually
orthogonal (Macdonald, Symmetric Functions and Hall Polynomials, VI.9),
so P_lam is m_lam minus its projections onto the lower P_mu:

    P_lam = m_lam - sum_{mu < lam} <m_lam, P_mu> / <P_mu, P_mu> * P_mu,

worked out on orbit-sum coefficients against a per-context table of
Gram entries <m_a, m_b> read off the kernel.  Results are memoized per
context and can be saved to / loaded from a JSON cache; a loaded entry
is checked against the Gram table on its first use.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction
from pathlib import Path

from .algebra import GroupAlgebraElement
from .exact import ExactScalar, parse_scalar, q_power, scalar_to_str
from .weights import (Weight, RootData, check_param, dominance_leq, dominant_below,
                      parse_weight, weyl_orbit)

__all__ = [
    "MacdonaldContext",
    "delta_kernel",
    "inner_product",
    "macdonald_poly",
    "macdonald_coeffs",
    "chi0",
    "chi",
    "norm",
    "save_cache",
    "load_cache",
]


def delta_kernel(n: int, k: int) -> GroupAlgebraElement:
    """The weight function prod_{alpha in R} prod_{i=0}^{k-1} (1 - q^(2i) e^alpha)."""
    check_param(n, "rank parameter n", 2)
    check_param(k, "deformation parameter k", 1)
    rd = RootData(n)
    zero = Weight.zero(n)
    f = GroupAlgebraElement.one(n)
    for alpha in rd.all_roots:
        for i in range(k):
            f = f * GroupAlgebraElement(n, {zero: 1, alpha: -q_power(2 * i)})
    return f


class MacdonaldContext:
    """Fixed (n, k) workspace: root data, kernel, and a polynomial cache.

    The cache maps dominant weights to (orbit-sum coefficients, element)
    pairs.  Reads and insert-if-absent are guarded by a lock, so one
    context can serve several threads; a value is computed at most once
    per weight in the common case and extra computations are discarded
    by setdefault semantics.  Entries read from a cache file wait in
    ``_loaded`` until their first use checks them; ``rejected`` lists
    those that failed.  Gram entries and norms use plain setdefault.
    """

    def __init__(self, n: int, k: int):
        check_param(n, "rank parameter n", 2)
        check_param(k, "deformation parameter k", 1)
        self.n = n
        self.k = k
        self.root_data = RootData(n)
        self.kernel = delta_kernel(n, k)
        self._polys: dict[Weight, tuple[dict[Weight, ExactScalar], GroupAlgebraElement]] = {}
        self._loaded: dict[Weight, dict[Weight, ExactScalar]] = {}
        self.rejected: list[Weight] = []
        self._gram: dict[tuple[Weight, Weight], ExactScalar] = {}
        self._pnorms: dict[Weight, ExactScalar] = {}
        self._lock = threading.Lock()
        self._chi0: GroupAlgebraElement | None = None

    def __repr__(self) -> str:
        return f"MacdonaldContext(n={self.n}, k={self.k})"

    def _cache_get(self, lam: Weight):
        with self._lock:
            return self._polys.get(lam)

    def _cache_put(self, lam: Weight, value):
        with self._lock:
            return self._polys.setdefault(lam, value)


def inner_product(f: GroupAlgebraElement, g: GroupAlgebraElement,
                  ctx: MacdonaldContext) -> ExactScalar:
    """<f, g> = (1/n!) * constant term of f * bar(g) * Delta."""
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("inner product arguments must match the context rank")
    h = f * g.bar()
    kernel = ctx.kernel.terms
    total = ExactScalar.zero()
    for w, c in h.terms.items():
        kc = kernel.get(-w)
        if kc is not None:
            total = total + c * kc
    return total * Fraction(1, math.factorial(ctx.n))


def _gram(a: Weight, b: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """<m_a, m_b> for dominant a, b, memoized per unordered pair.

    The kernel is W-invariant and bar-invariant, so the double sum over
    both orbits collapses to |O(a)|/n! * sum_{y in O(b)} K[y - a], and
    the entry is symmetric in a and b.
    """
    key = (a, b) if a.coords >= b.coords else (b, a)
    hit = ctx._gram.get(key)
    if hit is not None:
        return hit
    a, b = key
    zero = ExactScalar.zero()
    total = sum((ctx.kernel.terms.get(y - a, zero) for y in weyl_orbit(b)), zero)
    # |O(a)|/n! = 1 / prod(multiplicity! of each coordinate value)
    stabilizer = math.prod(math.factorial(a.coords.count(v)) for v in set(a.coords))
    return ctx._gram.setdefault(key, total * Fraction(1, stabilizer))


def _pair_with(lam: Weight, coeffs: dict[Weight, ExactScalar], ctx: MacdonaldContext) -> ExactScalar:
    """<m_lam, sum_nu c_nu m_nu> on the Gram table."""
    return sum((c * _gram(lam, nu, ctx) for nu, c in coeffs.items()), ExactScalar.zero())


def _build(lam: Weight, ctx: MacdonaldContext) -> dict[Weight, ExactScalar]:
    """Orbit-sum coefficients of P_lam by the triangular recursion.

    The lower weights are visited lowest first, so every P_mu they need
    is already memoized when _poly_entry asks for it.
    """
    coeffs = {lam: ExactScalar.one()}
    for mu in reversed(dominant_below(lam)[1:]):
        lower = _poly_entry(mu, ctx)[0]
        overlap = _pair_with(lam, lower, ctx)
        if not overlap:
            continue
        # <P_mu, P_mu> = <m_mu, P_mu>: P_mu is orthogonal to its own lower terms
        pnorm = ctx._pnorms.get(mu) or ctx._pnorms.setdefault(mu, _pair_with(mu, lower, ctx))
        ratio = overlap / pnorm
        for nu, c in lower.items():
            coeffs[nu] = coeffs.get(nu, ExactScalar.zero()) - ratio * c
    return {nu: c for nu, c in coeffs.items() if c}


def macdonald_coeffs(lam: Weight, ctx: MacdonaldContext) -> dict[Weight, ExactScalar]:
    """Orbit-sum expansion coefficients of P_lam (unit leading coefficient)."""
    return dict(_poly_entry(lam, ctx)[0])


def macdonald_poly(lam: Weight, ctx: MacdonaldContext) -> GroupAlgebraElement:
    """P_lam(q, q^k) as a group-algebra element."""
    return _poly_entry(lam, ctx)[1]


def _poly_entry(lam: Weight, ctx: MacdonaldContext):
    if lam.rank != ctx.n:
        raise ValueError(f"weight rank {lam.rank} does not match context rank {ctx.n}")
    if not lam.is_dominant:
        raise ValueError(f"Macdonald polynomials are indexed by dominant weights, got {lam!r}")
    hit = ctx._cache_get(lam)
    if hit is not None:
        return hit
    with ctx._lock:
        coeffs = ctx._loaded.pop(lam, None)
    # load_cache checked the unit leading term and triangular support; being
    # orthogonal to every lower m_mu as well singles out P_lam
    if coeffs is not None and any(_pair_with(mu, coeffs, ctx) for mu in dominant_below(lam)[1:]):
        ctx.rejected.append(lam)
        coeffs = None
    if coeffs is None:
        coeffs = _build(lam, ctx)
    # orbits of distinct dominant weights are disjoint: no terms to combine
    element = GroupAlgebraElement._raw(
        ctx.n, {w: c for mu, c in coeffs.items() for w in weyl_orbit(mu)})
    return ctx._cache_put(lam, (coeffs, element))


def chi0(ctx: MacdonaldContext) -> GroupAlgebraElement:
    """The k-deformed Weyl-denominator factor, in its half-weight-free form:

        e^((k-1) rho) * prod_{alpha > 0} prod_{i=1}^{k-1} (1 - q^(2i) e^(-alpha)).

    For k = 1 this is the identity.
    """
    if ctx._chi0 is not None:
        return ctx._chi0
    n, k = ctx.n, ctx.k
    zero = Weight.zero(n)
    f = GroupAlgebraElement.exponential((k - 1) * ctx.root_data.rho)
    for alpha in ctx.root_data.positive_roots:
        for i in range(1, k):
            f = f * GroupAlgebraElement(n, {zero: 1, -alpha: -q_power(2 * i)})
    ctx._chi0 = f
    return f


def chi(lam: Weight, ctx: MacdonaldContext) -> GroupAlgebraElement:
    """chi_lam = P_lam * chi0, the deformed-character normalization."""
    return macdonald_poly(lam, ctx) * chi0(ctx)


def norm(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """<P_lam, P_lam> computed from first principles (constant term)."""
    p = macdonald_poly(lam, ctx)
    return inner_product(p, p, ctx)


# ---------------------------------------------------------------------------
# JSON cache files
# ---------------------------------------------------------------------------


def save_cache(ctx: MacdonaldContext, path: str | Path) -> None:
    """Write every memoized polynomial of this context to a JSON file.

    Loaded entries not used yet (so not checked yet) are written back as read.
    """
    with ctx._lock:
        snapshot = dict(ctx._loaded)
        snapshot.update((lam, coeffs) for lam, (coeffs, _) in ctx._polys.items())
    entries = []
    for lam in sorted(snapshot, key=lambda w: w.coords):
        coeffs = snapshot[lam]
        entries.append({
            "lambda": str(lam),
            "coeffs": [
                {"mu": str(mu), "value": scalar_to_str(coeffs[mu])}
                for mu in sorted(coeffs, key=lambda w: w.coords)
            ],
        })
    doc = {"n": ctx.n, "k": ctx.k, "entries": entries}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _field(record, key: str, kind: type, where: str):
    """record[key], where record must be a JSON object and the value a `kind`."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"{where} needs a {kind.__name__} field {key!r}, got {record!r}")
    return value


def _parse_entry(entry, ctx: MacdonaldContext) -> tuple[Weight, dict[Weight, ExactScalar]]:
    text = _field(entry, "lambda", str, "cache entry")
    where = f"cache entry {text!r}"
    lam = parse_weight(text, ctx.n)
    if not lam.is_dominant:
        raise ValueError(f"cache entry for non-dominant weight {text!r}")
    coeffs: dict[Weight, ExactScalar] = {}
    for rec in _field(entry, "coeffs", list, where):
        mu_text = _field(rec, "mu", str, where)
        mu = parse_weight(mu_text, ctx.n)
        if mu in coeffs:
            raise ValueError(f"duplicate coefficient for {mu_text!r}")
        if not mu.is_dominant or not dominance_leq(mu, lam):
            raise ValueError(f"{where} violates triangularity at {mu_text!r}")
        value = _field(rec, "value", str, where)
        try:
            coeffs[mu] = parse_scalar(value)
        except ZeroDivisionError:
            raise ValueError(f"{where} has a zero denominator in {value!r}") from None
    coeffs = {mu: c for mu, c in coeffs.items() if c}
    if coeffs.get(lam) != ExactScalar.one():
        raise ValueError(f"{where} lacks unit leading coefficient")
    return lam, coeffs


def load_cache(ctx: MacdonaldContext, path: str | Path) -> int:
    """Load a cache file into the context, validating every entry.

    Every entry is parsed before any is committed, so a bad file loads
    nothing.  Each mu must be dominant and below its lambda, and the
    leading coefficient must be 1; the values are checked on first use
    (see _poly_entry).  Returns the number of entries loaded; raises
    ValueError on any malformed or inconsistent content.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("cache file must contain a JSON object")
    if doc.get("n") != ctx.n or doc.get("k") != ctx.k:
        raise ValueError(
            f"cache file is for n={doc.get('n')}, k={doc.get('k')}; "
            f"context is n={ctx.n}, k={ctx.k}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValueError("cache file has no entries list")
    staged: dict[Weight, dict[Weight, ExactScalar]] = {}
    for entry in entries:
        lam, coeffs = _parse_entry(entry, ctx)
        if lam in staged:
            raise ValueError(f"duplicate cache entry for {str(lam)!r}")
        staged[lam] = coeffs
    with ctx._lock:
        ctx._loaded.update((lam, c) for lam, c in staged.items() if lam not in ctx._polys)
    return len(staged)
