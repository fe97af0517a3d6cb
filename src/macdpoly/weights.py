"""The A_{n-1} weight lattice and its root-system combinatorics.

A weight is a class of integer n-vectors modulo the all-ones vector; the
canonical representative has last coordinate zero, so dominant weights
are partitions with at most n-1 nonzero parts.  The pairing is induced
by the standard inner product with the trace removed:

    (a, b) = sum(a_i b_i) - sum(a) sum(b) / n.

Roots e_i - e_j pair to 2 with themselves, and rho (half the sum of the
positive roots) has canonical coordinates (n-1, n-2, ..., 0).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "check_param",
    "Weight",
    "RootData",
    "pairing",
    "dominance_leq",
    "dominant_below",
    "weyl_orbit",
    "lambda_r_weights",
    "fundamental_weight",
    "dominant_weights_up_to",
    "parse_weight",
]


def check_param(value, name: str, lo: int, hi: int | None = None) -> None:
    """Require an int, not a bool, with lo <= value (<= hi, which is only ever n-1 on an index r)."""
    if type(value) is int and value >= lo and (hi is None or value <= hi):
        return
    bound = f"be an integer >= {lo}" if hi is None else f"satisfy {lo} <= r <= n-1"
    raise ValueError(f"{name} must {bound}, got {value!r}")


class Weight:
    """An element of the weight lattice, stored canonically (last coord 0)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        t = tuple(coords)
        if len(t) < 2:
            raise ValueError("weights need at least two coordinates")
        for c in t:
            if type(c) is not int:
                raise TypeError(f"weight coordinates must be integers, got {c!r}")
        last = t[-1]
        if last:
            t = tuple(c - last for c in t)
        self.coords = t

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((0,) * n)

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_dominant(self) -> bool:
        c = self.coords
        return all(c[i] >= c[i + 1] for i in range(len(c) - 1))

    def total(self) -> int:
        """Sum of the canonical coordinates (the size |.| of a dominant weight)."""
        return sum(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.coords)

    def __mul__(self, m: int) -> "Weight":
        if not isinstance(m, int):
            return NotImplemented
        return Weight(m * a for a in self.coords)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Weight({','.join(map(str, self.coords))})"

    def __str__(self) -> str:
        return ",".join(map(str, self.coords))


def _check_rank(a: Weight, b: Weight) -> None:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")


def parse_weight(text: str, n: int | None = None) -> Weight:
    try:
        coords = [int(p.strip()) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed weight {text!r}: expected comma-separated integers") from None
    if n is not None and len(coords) != n:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {n}")
    return Weight(coords)


def pairing(a: Weight, b: Weight) -> Fraction:
    """The trace-free inner product; shift-invariant in both arguments."""
    _check_rank(a, b)
    n = a.rank
    dot = sum(x * y for x, y in zip(a.coords, b.coords))
    return Fraction(dot) - Fraction(sum(a.coords) * sum(b.coords), n)


class RootData:
    """Positive/simple roots and rho for a fixed rank."""

    __slots__ = ("n", "positive_roots", "simple_roots", "all_roots", "rho")

    def __init__(self, n: int):
        check_param(n, "rank parameter n", 2)
        self.n = n
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                coords = [0] * n
                coords[i], coords[j] = 1, -1
                pos.append(Weight(coords))
        self.positive_roots = tuple(pos)
        self.all_roots = self.positive_roots + tuple(-a for a in self.positive_roots)
        simple = []
        for i in range(n - 1):
            coords = [0] * n
            coords[i], coords[i + 1] = 1, -1
            simple.append(Weight(coords))
        self.simple_roots = tuple(simple)
        self.rho = Weight(range(n - 1, -1, -1))

    def __repr__(self) -> str:
        return f"RootData(n={self.n})"


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """Whether lam - mu is a nonnegative sum of positive roots.

    Comparable weights must agree modulo the root lattice, i.e. their
    coordinate sums must be congruent mod n.
    """
    _check_rank(mu, lam)
    n = mu.rank
    diff = lam.total() - mu.total()
    if diff % n:
        return False
    shift = diff // n
    partial = 0
    for i in range(n - 1):
        partial += lam.coords[i] - (mu.coords[i] + shift)
        if partial < 0:
            return False
    return True


def _partitions(total: int, max_parts: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    if largest is None or largest > total:
        largest = total
    for first in range(largest, 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def _height_below(lam: Weight, mu: Weight) -> int:
    """Height of lam - mu as a sum of positive roots (mu <= lam assumed)."""
    n = lam.rank
    shift = (lam.total() - mu.total()) // n
    partial = 0
    height = 0
    for i in range(n - 1):
        partial += lam.coords[i] - (mu.coords[i] + shift)
        height += partial
    return height


def dominant_below(lam: Weight) -> list[Weight]:
    """All dominant weights <= lam, ordered by increasing height of lam - mu.

    Ties are broken lexicographically on canonical coordinates, so lam
    itself always comes first and the order is deterministic.
    """
    if not lam.is_dominant:
        raise ValueError(f"{lam!r} is not dominant")
    n = lam.rank
    total = lam.total()
    found = []
    for part in _partitions(total, n):
        padded = part + (0,) * (n - len(part))
        mu = Weight(padded)
        if dominance_leq(mu, lam):
            found.append(mu)
    return sorted(found, key=lambda m: (_height_below(lam, m), m.coords))


def weyl_orbit(lam: Weight) -> list[Weight]:
    """The S_n orbit of a weight, deterministically ordered, no repeats."""
    # distinct arrangements by insertion; no step holds more than the orbit's size
    perms = {()}
    for c in lam.coords:
        perms = {p[:i] + (c,) + p[i:] for p in perms for i in range(len(p) + 1)}
    return sorted(map(Weight, perms), key=lambda w: w.coords, reverse=True)


def fundamental_weight(n: int, r: int) -> Weight:
    """omega_r, the highest weight of the r-th exterior power of the vector rep."""
    check_param(r, "r", 1, n - 1)
    return Weight((1,) * r + (0,) * (n - r))


def lambda_r_weights(n: int, r: int) -> list[Weight]:
    """All weights of the r-th exterior power: indicator vectors of r-subsets."""
    check_param(r, "r", 1, n - 1)
    out = []
    for subset in itertools.combinations(range(n), r):
        coords = [0] * n
        for i in subset:
            coords[i] = 1
        out.append(Weight(coords))
    return out


def dominant_weights_up_to(n: int, max_size: int) -> list[Weight]:
    """All dominant weights with |lam| <= max_size, smallest first."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    out = []
    for total in range(max_size + 1):
        batch = []
        for part in _partitions(total, n - 1):
            batch.append(Weight(part + (0,) * (n - len(part))))
        out.extend(sorted(batch, key=lambda w: w.coords))
    return out
