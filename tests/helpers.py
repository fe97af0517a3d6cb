"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own closed forms:
Kostka numbers come from brute-force tableau counting, and P-basis
expansions come from greedy triangular peeling.  Agreement between
these and the library is what the tests are for.
"""

from functools import lru_cache

from macdpoly.algebra import GroupAlgebraElement
from macdpoly.core import MacdonaldContext, macdonald_poly
from macdpoly.exact import ExactScalar, q_power
from macdpoly.operators import divide_by_root_binomial, shift_apply
from macdpoly.weights import (
    Weight,
    dominance_leq,
    dominant_weights_up_to,
    lambda_r_weights,
    pairing,
)


@lru_cache(maxsize=None)
def get_context(n, k):
    """One shared context per (n, k) so polynomial caches warm across tests."""
    return MacdonaldContext(n, k)


def grid_weights(n, max_size=4):
    return dominant_weights_up_to(n, max_size)


def kostka_number(shape, content):
    """Count semistandard tableaux: rows weakly increase, columns strictly.

    shape is a partition tuple, content[v-1] is the multiplicity of the
    entry v.  Pure brute force; fine for |shape| <= 6.
    """
    rows = [r for r in shape if r]
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    if sum(rows) != sum(content):
        return 0
    n = len(content)
    remaining = list(content)
    entries = {}

    def place(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j:
            lo = entries[i, j - 1]
        if i:
            lo = max(lo, entries[i - 1, j] + 1)
        count = 0
        for v in range(lo, n + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                entries[i, j] = v
                count += place(idx + 1)
                remaining[v - 1] += 1
        return count

    return place(0)


def lift_to_content(mu, total, n):
    """Rewrite a canonical weight as the composition of `total` it represents.

    Canonical representatives are only defined up to adding multiples of
    (1, ..., 1); tableau contents need the representative whose entries
    sum to `total`.
    """
    shift = total - sum(mu.coords)
    assert shift % n == 0
    c = shift // n
    content = tuple(x + c for x in mu.coords)
    assert all(x >= 0 for x in content)
    return content


def expand_in_p_basis(f, ctx):
    """Coefficients of a W-invariant element on the P-basis.

    Greedy peeling: a dominance-maximal dominant weight in the support
    must be the top of some P, and its exponential coefficient is that
    P's coefficient.  This is an exact triangular solve that never looks
    at the library's recurrence coefficients.
    """
    remaining = f
    coeffs = {}
    while remaining.terms:
        dominants = [w for w in remaining.terms if w.is_dominant]
        assert dominants, f"no dominant weight left in support of {remaining.terms.keys()}"
        top = None
        for w in dominants:
            if all(w == v or not dominance_leq(w, v) for v in dominants):
                top = w
                break
        assert top is not None, "support has no dominance-maximal dominant weight"
        c = remaining.terms[top]
        coeffs[top] = c
        remaining = remaining - macdonald_poly(top, ctx) * c
    return coeffs


def evaluate_at_term_by_term(f, xi):
    """f at e^beta -> q^(2 (beta, xi)), canonicalising after every term.

    The oracle for the library's evaluate_at, which sums over common
    denominators and canonicalises once per denominator.
    """
    total = ExactScalar.zero()
    for w, c in f.terms.items():
        total = total + c * q_power(2 * pairing(w, xi))
    return total


def macdonald_operator_by_definition(f, r, ctx):
    """M_r f straight from its definition, as the oracle for the alternant form.

    Multiplies each T_nu f by every root binomial of R, taking
    (q^(2k) - e^alpha) where (alpha, nu) = -1 and (1 - e^alpha) elsewhere,
    divides the sum by all of them, and applies q^(k r (r-n)).
    """
    n, k = ctx.n, ctx.k
    roots = ctx.root_data.all_roots
    zero = Weight.zero(n)
    total = GroupAlgebraElement.zero(n)
    for nu in lambda_r_weights(n, r):
        term = shift_apply(f, nu)
        for alpha in roots:
            lead = q_power(2 * k) if pairing(alpha, nu) == -1 else 1
            term = term * GroupAlgebraElement(n, {zero: lead, alpha: -1})
        total = total + term
    for alpha in roots:
        total = divide_by_root_binomial(total, alpha)
    return total * q_power(k * r * (r - n))
