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

import fcntl
import json
import math
import os
import threading
from fractions import Fraction
from pathlib import Path

from .algebra import GroupAlgebraElement, binomial_product, orbit_expansion
from .exact import ExactScalar, parse_scalar, scalar_to_str, sum_scalars
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
    "poly_value",
    "save_cache",
    "load_cache",
]


def delta_kernel(n: int, k: int) -> GroupAlgebraElement:
    """The weight function prod_{alpha in R} prod_{i=0}^{k-1} (1 - q^(2i) e^alpha)."""
    check_param(n, "rank parameter n", 2)
    check_param(k, "deformation parameter k", 1)
    return binomial_product(Weight.zero(n), RootData(n).all_roots, range(k))


class MacdonaldContext:
    """Fixed (n, k) workspace: root data and one memo table.

    Every per-context value goes through ``memo``: the kernel (built on
    first use), the polynomials
    (``"poly"``: dominant weight -> (orbit-sum coefficients, element)),
    the Gram entries, the norms <P_mu, P_mu> used by the construction,
    the raw constant-term ``norm`` of each P_lam, ``chi``, ``chi0``, the
    values P_lam(q^(2 xi)) and chi0(q^(2 xi)) and the cross_check_45 sides
    that identities compares, and the Weyl alternant ``a_rho`` that
    operators reads M_r off.
    Entries read from a cache file wait in ``_loaded`` until their first
    use checks them; ``rejected`` lists those that failed.
    """

    def __init__(self, n: int, k: int):
        check_param(n, "rank parameter n", 2)
        check_param(k, "deformation parameter k", 1)
        self.n = n
        self.k = k
        self.root_data = RootData(n)
        self._memo: dict[tuple[str, object], object] = {}
        self._loaded: dict[Weight, dict[Weight, ExactScalar]] = {}
        self.rejected: list[Weight] = []
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"MacdonaldContext(n={self.n}, k={self.k})"

    @property
    def kernel(self) -> GroupAlgebraElement:
        """delta_kernel(n, k), built on first use: evaluation, operators and Pieri never need it."""
        return self.memo("kernel", (), lambda: delta_kernel(self.n, self.k))

    def memo(self, kind: str, key, compute):
        """The value stored under (kind, key), from compute() on a miss.

        The table is read and written under the lock, but compute() runs
        outside it, because building P_lam recurses into lower weights.
        Two threads that miss together both compute; setdefault keeps the
        first value stored, so every caller sees the same one.  Stored
        values are never None, and a miss is tested with ``is None``
        because zero Gram entries are real values.
        """
        with self._lock:
            hit = self._memo.get((kind, key))
        if hit is None:
            value = compute()
            with self._lock:
                hit = self._memo.setdefault((kind, key), value)
        return hit


def inner_product(f: GroupAlgebraElement, g: GroupAlgebraElement,
                  ctx: MacdonaldContext) -> ExactScalar:
    """<f, g> = (1/n!) * constant term of f * bar(g) * Delta.

    That is sum_(w1, w2) f[w1] g[w2] Delta[w2 - w1]; f * bar(g) is never formed.
    """
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("inner product arguments must match the context rank")
    kernel = ctx.kernel.terms
    total = sum_scalars(
        (c1, sum_scalars((c2, kc) for w2, c2 in g.terms.items()
                         if (kc := kernel.get(w2 - w1)) is not None))
        for w1, c1 in f.terms.items())
    return total * Fraction(1, math.factorial(ctx.n))


def _gram(a: Weight, b: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """<m_a, m_b> for dominant a, b, memoized per unordered pair.

    The kernel is W-invariant and bar-invariant, so the double sum over
    both orbits collapses to |O(a)|/n! * sum_{y in O(b)} K[y - a], and
    the entry is symmetric in a and b.
    """
    if a.coords < b.coords:
        a, b = b, a

    def compute():
        kernel = ctx.kernel.terms
        total = sum_scalars(kc for y in weyl_orbit(b) if (kc := kernel.get(y - a)) is not None)
        # |O(a)|/n! = 1 / prod(multiplicity! of each coordinate value)
        stabilizer = math.prod(math.factorial(a.coords.count(v)) for v in set(a.coords))
        return total * Fraction(1, stabilizer)

    return ctx.memo("gram", (a, b), compute)


def _pair_with(lam: Weight, coeffs: dict[Weight, ExactScalar], ctx: MacdonaldContext) -> ExactScalar:
    """<m_lam, sum_nu c_nu m_nu> on the Gram table."""
    return sum_scalars((c, _gram(lam, nu, ctx)) for nu, c in coeffs.items())


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
        pnorm = ctx.memo("pnorm", mu, lambda: _pair_with(mu, lower, ctx))
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
    return ctx.memo("poly", lam, lambda: _load_or_build(lam, ctx))


def _load_or_build(lam: Weight, ctx: MacdonaldContext):
    """(coefficients, element) of P_lam: the loaded entry if it checks out, else built."""
    with ctx._lock:
        coeffs = ctx._loaded.pop(lam, None)
    # load_cache checked the unit leading term and triangular support; being
    # orthogonal to every lower m_mu as well singles out P_lam
    if coeffs is not None and any(_pair_with(mu, coeffs, ctx) for mu in dominant_below(lam)[1:]):
        ctx.rejected.append(lam)
        coeffs = None
    if coeffs is None:
        coeffs = _build(lam, ctx)
    return coeffs, orbit_expansion(ctx.n, coeffs)


def chi0(ctx: MacdonaldContext) -> GroupAlgebraElement:
    """The k-deformed Weyl-denominator factor, in its half-weight-free form:

        e^((k-1) rho) * prod_{alpha > 0} prod_{i=1}^{k-1} (1 - q^(2i) e^(-alpha)).

    For k = 1 this is the identity.
    """
    rd = ctx.root_data
    return ctx.memo("chi0", (), lambda: binomial_product(
        (ctx.k - 1) * rd.rho, [-alpha for alpha in rd.positive_roots], range(1, ctx.k)))


def chi(lam: Weight, ctx: MacdonaldContext) -> GroupAlgebraElement:
    """chi_lam = P_lam * chi0, the deformed-character normalization."""
    return ctx.memo("chi", lam, lambda: macdonald_poly(lam, ctx) * chi0(ctx))


def norm(lam: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """<P_lam, P_lam> computed from first principles (constant term).

    Memoized per lam, but never read off the Gram table the construction
    uses, so it stays an independent check of that construction.
    """
    def compute():
        p = macdonald_poly(lam, ctx)
        return inner_product(p, p, ctx)

    return ctx.memo("norm", lam, compute)


def poly_value(lam: Weight, xi: Weight, ctx: MacdonaldContext) -> ExactScalar:
    """P_lam(q^(2 xi)), memoized per (lam, xi): each value is evaluated once per context."""
    return ctx.memo("value", (lam, xi), lambda: macdonald_poly(lam, ctx).evaluate_at(xi))


# ---------------------------------------------------------------------------
# JSON cache files
# ---------------------------------------------------------------------------


def save_cache(ctx: MacdonaldContext, path: str | Path) -> None:
    """Write every memoized polynomial of this context to a JSON file.

    Loaded entries not used yet (so not checked yet) are written back as read.
    Entries already in the file for weights this context does not hold are
    kept, so runs that share a file add to it; the context's own entries
    win, and a damaged or mismatched file is simply replaced.  The file is
    written to a temporary file beside it and moved into place, so a failed
    or interrupted save leaves the old file whole.  An exclusive flock on
    ``<file>.lock``, held from the read through the move, keeps saves from
    other processes or threads from dropping each other's entries.
    """
    with ctx._lock:
        snapshot = dict(ctx._loaded)
        snapshot.update((lam, entry[0]) for (kind, lam), entry in ctx._memo.items()
                        if kind == "poly")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(path.with_name(f"{path.name}.lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            snapshot.update(_read_cache(ctx, path, skip=snapshot.keys()))
        except (OSError, ValueError):
            pass
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
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _field(record, key: str, kind: type, where: str):
    """record[key], where record must be a JSON object and the value a `kind`."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"{where} needs a {kind.__name__} field {key!r}, got {record!r}")
    return value


def _parse_entry(entry, ctx: MacdonaldContext,
                 skip) -> tuple[Weight, dict[Weight, ExactScalar] | None]:
    """(lambda, coefficients) of one entry; the coefficients are None if lambda is in skip."""
    text = _field(entry, "lambda", str, "cache entry")
    where = f"cache entry {text!r}"
    lam = parse_weight(text, ctx.n)
    if not lam.is_dominant:
        raise ValueError(f"cache entry for non-dominant weight {text!r}")
    if lam in skip:
        return lam, None
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


def _read_cache(ctx: MacdonaldContext, path: str | Path,
                skip=()) -> dict[Weight, dict[Weight, ExactScalar]]:
    """Every entry of a cache file for this context, except those for weights in skip.

    The file's shape and the weights of skipped entries are still checked.
    Raises ValueError on any malformed or inconsistent content.
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
    staged: dict[Weight, dict[Weight, ExactScalar] | None] = {}
    for entry in entries:
        lam, coeffs = _parse_entry(entry, ctx, skip)
        if lam in staged:
            raise ValueError(f"duplicate cache entry for {str(lam)!r}")
        staged[lam] = coeffs
    return {lam: coeffs for lam, coeffs in staged.items() if coeffs is not None}


def load_cache(ctx: MacdonaldContext, path: str | Path) -> int:
    """Load a cache file into the context, validating every entry.

    Every entry is parsed before any is committed, so a bad file loads
    nothing.  Each mu must be dominant and below its lambda, and the
    leading coefficient must be 1; the values are checked on first use
    (see _poly_entry).  Returns the number of entries loaded; raises
    ValueError on any malformed or inconsistent content.
    """
    staged = _read_cache(ctx, path)
    with ctx._lock:
        ctx._loaded.update((lam, c) for lam, c in staged.items() if ("poly", lam) not in ctx._memo)
    return len(staged)
