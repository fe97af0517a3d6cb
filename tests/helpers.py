"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own closed forms:
Kostka numbers come from brute-force tableau counting, P-basis
expansions come from greedy triangular peeling, and Macdonald
coefficients come from Macdonald's tableau formula.  Agreement between
these and the library is what the tests are for.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from macdpoly.algebra import GroupAlgebraElement, binomial_product, char_lambda_r, qdim
from macdpoly.core import MacdonaldContext, chi, macdonald_poly, norm
from macdpoly.exact import (ExactDivisionError, ExactScalar, LaurentPoly, factor_product,
                            one_minus_q2, q_power, sum_scalars)
from macdpoly.operators import pieri_expand
from macdpoly.weights import (
    RootData,
    Weight,
    dominance_leq,
    dominant_below,
    dominant_weights_up_to,
    lambda_r_weights,
    pairing,
)

GRID_NK = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]

# (n, k, max_size) at which a fast path is checked against its oracle
ORACLE_GRID = [(n, k, 3) for n, k in GRID_NK] + [(4, 1, 2), (4, 2, 2), (5, 1, 2)]


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


def shift_apply(f, nu):
    """T_nu: multiply the e^lam coefficient by q^(2 (nu, lam))."""
    if nu.rank != f.n:
        raise ValueError(f"shift weight rank {nu.rank} does not match element rank {f.n}")
    return GroupAlgebraElement._raw(
        f.n, {w: c * q_power(2 * pairing(nu, w)) for w, c in f.terms.items()})


def divide_by_root_binomial(f, alpha):
    """Exact division by (1 - e^alpha).

    The support splits into ZZ-alpha cosets; along each coset the division
    is univariate Laurent division, and the final carry must vanish for
    the division to be exact (ExactDivisionError otherwise).
    """
    if f.is_zero:
        return f
    aa = pairing(alpha, alpha)
    columns = {}
    for w, c in f.terms.items():
        j = math.floor(pairing(w, alpha) / aa)
        key = w - j * alpha
        columns.setdefault(key, {})[j] = c
    out = {}
    for key, col in columns.items():
        lo = min(col)
        hi = max(col)
        carry = ExactScalar.zero()
        for j in range(lo, hi + 1):
            g = col.get(j)
            if g is not None:
                carry = carry + g
            if j == hi:
                if carry:
                    raise ExactDivisionError(
                        f"(1 - e^[{alpha}]) does not divide element: residue {carry} "
                        f"on the coset of {key}")
            elif carry:
                out[key + j * alpha] = carry
    return GroupAlgebraElement._raw(f.n, out)


def macdonald_operator_by_division(f, r, ctx):
    """M_r f as the alternant ratio a_rho^(-1) sum_nu T_(k nu)(a_rho) T_nu f, multiplied out.

    The oracle for operators.macdonald_operator, which reads the orbit
    coefficients of the same ratio off f without any product or division:
    here the sum is built as whole group-algebra elements and divided by
    e^rho and then by (1 - e^(-alpha)), one positive root at a time.
    """
    n, k = ctx.n, ctx.k
    rd = ctx.root_data
    a_rho = binomial_product(rd.rho, [-alpha for alpha in rd.positive_roots], (0,))
    total = GroupAlgebraElement.zero(n)
    for nu in lambda_r_weights(n, r):
        total = total + shift_apply(a_rho, k * nu) * shift_apply(f, nu)
    total = total * GroupAlgebraElement.exponential(-rd.rho)
    for alpha in rd.positive_roots:
        total = divide_by_root_binomial(total, -alpha)
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


def pieri_sides_by_products(mu, r, ctx):
    """Both sides of the Pieri rule as whole elements: sum_nu c_nu P_(mu+nu) and X_r * P_mu.

    The oracle for the pieri verifier, which reads both sides off
    dominant coefficients without any group-algebra product.
    """
    lhs = GroupAlgebraElement.zero(ctx.n)
    for term in pieri_expand(mu, r, ctx):
        lhs = lhs + macdonald_poly(mu + term.nu, ctx) * term.coefficient
    return lhs, char_lambda_r(ctx.n, r) * macdonald_poly(mu, ctx)


def cross_check_45_by_characters(lam, mu, ctx):
    """Both sides of cross_check_45 with each chi built as the element P * chi0, then evaluated.

    The oracle for the cross_check_45 verifier, which multiplies the
    values P_mu(q^(2 xi)) and chi0(q^(2 xi)) instead.
    """
    k, rho = ctx.k, ctx.root_data.rho
    lhs = chi(mu, ctx).evaluate_at(lam + k * rho) * norm(lam, ctx) * qdim(lam + (k - 1) * rho)
    rhs = chi(lam, ctx).evaluate_at(mu + k * rho) * norm(mu, ctx) * qdim(mu + (k - 1) * rho)
    return lhs, rhs


def inner_product_by_product(f, g, ctx):
    """<f, g> as (1/n!) [f bar(g) Delta]_0, with f * bar(g) multiplied out first.

    The oracle for core.inner_product, which sums f[w1] g[w2] Delta[w2 - w1]
    without forming the product.
    """
    kernel = ctx.kernel.terms
    total = sum_scalars((c, kc) for w, c in (f * g.bar()).terms.items()
                        if (kc := kernel.get(-w)) is not None)
    return total * Fraction(1, math.factorial(ctx.n))


def add_by_cross_multiplication(a, b):
    """a + b as (n1 d2 + n2 d1) / (d1 d2), canonicalised with a full gcd.

    The oracle for ExactScalar.__add__, which takes gcd(d1, d2) first.
    """
    return ExactScalar(a.num * b.den + b.num * a.den, a.den * b.den)


def mul_by_canonicalisation(a, b):
    """a * b, canonicalised with a full gcd: the oracle for the unit fast path."""
    return ExactScalar(a.num * b.num, a.den * b.den)


def div_by_canonicalisation(a, b):
    """a / b, canonicalised with a full gcd: the oracle for the unit fast path."""
    return ExactScalar(a.num * b.den, a.den * b.num)


def root_product_by_division(roots, top, bottom, up, down, factor):
    """algebra.root_product one root at a time, each step an exact division.

    The oracle for the cyclotomic assembly: each root's up factors are
    multiplied, its down factors are multiplied, and the running value is
    multiplied by the first and divided by the second, with a full gcd.
    """
    val = ExactScalar.one()
    for alpha in roots:
        a = int(pairing(alpha, top))
        b = int(pairing(alpha, bottom))
        num = den = ExactScalar.one()
        for s in up:
            num = num * factor(a + s)
        for s in down:
            den = den * factor(b + s)
        val = val * num / den
    return val


def factor_product_by_division(up, down, factor):
    """exact.factor_product as a plain product and quotient of factor values.

    The oracle for the cyclotomic assembly: the up values are multiplied,
    the down values are multiplied, and the quotient is canonicalised with
    a full gcd.
    """
    num = den = ExactScalar.one()
    for x in up:
        num = num * factor(x)
    for x in down:
        den = den * factor(x)
    return num / den


def _binomial(n, alpha, i):
    """1 - q^(2i) e^alpha."""
    return GroupAlgebraElement(n, {Weight.zero(n): 1, alpha: -q_power(2 * i)})


def delta_kernel_by_loops(n, k):
    """The kernel prod_{alpha in R} prod_{i=0}^{k-1} (1 - q^(2i) e^alpha), multiplied out in place.

    The oracle for core.delta_kernel, which goes through algebra.binomial_product.
    """
    f = GroupAlgebraElement.one(n)
    for alpha in RootData(n).all_roots:
        for i in range(k):
            f = f * _binomial(n, alpha, i)
    return f


def chi0_by_loops(n, k):
    """e^((k-1) rho) prod_{alpha > 0} prod_{i=1}^{k-1} (1 - q^(2i) e^(-alpha)), multiplied out.

    The oracle for core.chi0, which goes through algebra.binomial_product.
    """
    rd = RootData(n)
    f = GroupAlgebraElement.exponential((k - 1) * rd.rho)
    for alpha in rd.positive_roots:
        for i in range(1, k):
            f = f * _binomial(n, -alpha, i)
    return f


def a_rho_by_loops(n):
    """The alternant e^rho prod_{alpha > 0} (1 - e^(-alpha)), multiplied out in place.

    The oracle for the binomial_product behind the operators' a_rho.
    """
    rd = RootData(n)
    a_rho = GroupAlgebraElement.exponential(rd.rho)
    for alpha in rd.positive_roots:
        a_rho = a_rho * (GroupAlgebraElement.one(n) - GroupAlgebraElement.exponential(-alpha))
    return a_rho


def _b(shape, conj, i, j, k):
    """Macdonald's b_shape(s) at the box s = (i, j), with (q, t) = (q^2, q^(2k)).

    b(s) = (1 - q^a t^(l+1)) / (1 - q^(a+1) t^l) for the arm a and leg l
    of s in the shape, and 1 for a box outside it.
    """
    if i >= len(shape) or j >= shape[i]:
        return ExactScalar.one()
    arm = shape[i] - j - 1
    leg = conj[j] - i - 1
    return ExactScalar(LaurentPoly({0: 1, 2 * (arm + k * (leg + 1)): -1}),
                       LaurentPoly({0: 1, 2 * (arm + 1 + k * leg): -1}))


def _conjugate(shape):
    return [sum(1 for r in shape if r > j) for j in range(shape[0] if shape else 0)]


def _psi(big, small, k):
    """psi_{big/small} for a horizontal strip, SFHP VI (6.24)(ii): the oracle for psi_by_rows.

    The product of b_small(s) / b_big(s) over the boxes s that lie in a row
    meeting the strip but not in a column meeting it.
    """
    small = small + (0,) * (len(big) - len(small))
    rows = [i for i in range(len(big)) if big[i] > small[i]]
    cols = {j for i in rows for j in range(small[i], big[i])}
    cb, cs = _conjugate(big), _conjugate(small)
    out = ExactScalar.one()
    for i in rows:
        for j in range(big[i]):
            if j not in cols:
                out = out * _b(small, cs, i, j, k) / _b(big, cb, i, j, k)
    return out


def psi_by_rows(big, small, k):
    """psi_{big/small} for a horizontal strip, SFHP VI (6.24)(iv), through factor_product.

    The product over 1 <= i <= j <= len(small) of

        f(small_i - small_j) f(big_i - big_(j+1)) / (f(big_i - small_j) f(small_i - big_(j+1))),

    each argument shifted by k (j - i).  Macdonald's f(u) = (t u; q)_inf / (q u; q)_inf
    at u = q^(2x) and (q, t) = (q^2, q^(2k)) is 1 / prod_{s=1}^{k-1} (1 - q^(2(x+s))),
    so the f's of the numerator put their factors down and those of the
    denominator put theirs up.  Every argument is >= 0 on a strip, so no
    factor vanishes.
    """
    small = tuple(x for x in small if x)
    big = tuple(big) + (0,) * (len(small) + 1 - len(big))
    up, down = [], []
    for i in range(len(small)):
        for j in range(i, len(small)):
            shift = k * (j - i)
            for s in range(1, k):
                down += [small[i] - small[j] + shift + s, big[i] - big[j + 1] + shift + s]
                up += [big[i] - small[j] + shift + s, small[i] - big[j + 1] + shift + s]
    return factor_product(up, down, one_minus_q2)


def _horizontal_strips(shape, size, max_rows):
    """Every partition nu of at most max_rows parts with shape/nu a horizontal strip of `size` boxes."""
    below = shape[1:] + (0,)
    for nu in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(below, shape))):
        if sum(shape) - sum(nu) == size and not any(nu[max_rows:]):
            yield tuple(x for x in nu if x)


def macdonald_coeffs_by_tableaux(lam, n, k):
    """[m_mu] P_lam for every dominant mu <= lam, from Macdonald's tableau formula.

    SFHP VI (7.13'): P_lam = sum_T psi_T x^T over the semistandard tableaux T
    of shape lam, so [m_mu] P_lam is the sum of psi_T over the tableaux of
    content mu.  psi_T is the product of psi over T's horizontal strips
    (the boxes holding 1, then 2, ...).  Macdonald's (q, t) are (q^2, q^(2k))
    here.  A lower weight mu is lifted by (|lam| - |mu|)/n before it is read
    as a content.  Nothing here touches the kernel or the Gram recursion.
    """
    shape = tuple(x for x in lam.coords if x)
    total = sum(shape)

    @lru_cache(maxsize=None)
    def fill(sub, content):
        # sum of psi_T over the tableaux of shape sub with entries 1..len(content)
        if not content:
            return ExactScalar.zero() if sub else ExactScalar.one()
        rest, last = content[:-1], content[-1]
        return sum_scalars((psi_by_rows(sub, nu, k), fill(nu, rest))
                           for nu in _horizontal_strips(sub, last, len(rest)))

    out = {}
    for mu in dominant_below(lam):
        c = fill(shape, lift_to_content(mu, total, n))
        if c:
            out[mu] = c
    return out
