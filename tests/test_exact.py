"""Unit tests for the exact scalar arithmetic core."""

import functools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from macdpoly.exact import (
    ExactDivisionError,
    ExactScalar,
    LaurentPoly,
    cyclotomic,
    evaluate_limit_q1,
    exact_div_poly,
    factor_product,
    laurent_gcd,
    parse_poly,
    parse_scalar,
    poly_to_str,
    one_minus_q2,
    q_power,
    qint,
    scalar_to_str,
    sum_scalars,
)

from helpers import (
    add_by_cross_multiplication,
    div_by_canonicalisation,
    factor_product_by_division,
    mul_by_canonicalisation,
)


def P(terms):
    return LaurentPoly({Fraction(e): Fraction(c) for e, c in terms.items()})


def one_minus(e):
    return P({0: 1, e: -1})


def test_poly_basics():
    z = LaurentPoly.zero()
    assert z.is_zero
    assert LaurentPoly.one().is_one
    p = P({2: 1, 0: 3})
    assert p + z == p
    assert p * LaurentPoly.one() == p
    assert p - p == z
    assert (-p) + p == z
    assert p.min_exp == 0 and p.max_exp == 2


def test_poly_mul_cancellation():
    # q * q^(-1) = 1
    assert LaurentPoly.q_term(1) * LaurentPoly.q_term(-1) == LaurentPoly.one()
    a = one_minus(2)
    b = P({0: 1, 2: 1, 4: 1})
    assert a * b == one_minus(6)


def test_poly_pow():
    p = P({1: 1, -1: 1})
    assert p ** 0 == LaurentPoly.one()
    assert p ** 1 == p
    assert p ** 2 == P({2: 1, 0: 2, -2: 1})
    with pytest.raises(ValueError):
        p ** -1


def test_conj_flips_exponents():
    p = P({3: 2, -1: 5})
    assert p.conj() == P({-3: 2, 1: 5})
    assert p.conj().conj() == p


def test_fractional_exponents_multiply():
    h = LaurentPoly.q_term(Fraction(1, 2))
    assert h * h == LaurentPoly.q_term(1)
    mixed = h + LaurentPoly.q_term(-1)
    assert (mixed * h) == LaurentPoly.q_term(1) + LaurentPoly.q_term(Fraction(-1, 2))


def test_exact_div_poly():
    # (1 - q^6) / (1 - q^2) = 1 + q^2 + q^4
    quotient = exact_div_poly(one_minus(6), one_minus(2))
    assert quotient == P({0: 1, 2: 1, 4: 1})
    with pytest.raises(ExactDivisionError):
        exact_div_poly(one_minus(3), one_minus(2))
    with pytest.raises(ZeroDivisionError):
        exact_div_poly(one_minus(2), LaurentPoly.zero())


def test_gcd_is_top_monic_with_zero_valuation():
    # normalization: lowest exponent 0, highest coefficient 1
    expected = P({0: -1, 2: 1})
    g = laurent_gcd(one_minus(6), one_minus(4))
    assert g == expected
    # gcd ignores units: multiplying by monomials changes nothing
    g2 = laurent_gcd(one_minus(6) * LaurentPoly.q_term(-5), one_minus(4) * LaurentPoly.q_term(7))
    assert g2 == expected
    assert laurent_gcd(LaurentPoly.zero(), one_minus(2) * LaurentPoly.q_term(3)) == expected


def test_scalar_arith_trivial():
    one = ExactScalar.one()
    assert one + one == ExactScalar.from_rational(2)
    assert ExactScalar(LaurentPoly.q_term(1)) * ExactScalar(LaurentPoly.q_term(-1)) == one


def test_scalar_division_reduces():
    s = ExactScalar(one_minus(6), one_minus(2))
    assert s.is_polynomial
    assert s == ExactScalar(P({0: 1, 2: 1, 4: 1}))
    t = ExactScalar(one_minus(2), one_minus(6))
    assert not t.is_polynomial
    assert s * t == ExactScalar.one()


def test_canonical_form_monic_denominator_from_lowest_exponent():
    # whatever unit junk goes in, den starts at exponent 0 with coefficient 1
    num = one_minus(4) * LaurentPoly.q_term(-3)
    den = one_minus(2) * LaurentPoly.q_term(5) * LaurentPoly.constant(Fraction(-7, 3))
    s = ExactScalar(num, den)
    assert s.den.min_exp == 0
    assert s.den.terms[Fraction(0)] == 1
    # canonicalization is idempotent
    again = ExactScalar(s.num, s.den)
    assert again.num == s.num and again.den == s.den


def test_scalar_inverse_and_pow():
    s = ExactScalar(one_minus(4), one_minus(2))
    assert s * s.inverse() == ExactScalar.one()
    assert s ** 3 == s * s * s
    assert s ** 0 == ExactScalar.one()
    assert s ** -2 == (s.inverse()) ** 2
    with pytest.raises(ZeroDivisionError):
        ExactScalar.zero().inverse()


def test_qint_values():
    assert qint(0).is_zero
    assert qint(1).is_one
    assert qint(2) == ExactScalar(P({1: 1, -1: 1}))
    assert qint(3) == ExactScalar(P({2: 1, 0: 1, -2: 1}))
    assert qint(-3) == ExactScalar.zero() - qint(3)


def test_qint_matches_defining_ratio():
    # [m] = (q^m - q^(-m)) / (q - q^(-1))
    for m in range(1, 8):
        num = ExactScalar(P({m: 1, -m: -1}))
        den = ExactScalar(P({1: 1, -1: -1}))
        assert qint(m) == num / den


def test_cyclotomic_polynomials():
    # prod_{d | m} Phi_d(x) = x^m - 1; Phi_d(0) = 1 and deg Phi_d = phi(d) for d > 1
    for m in range(1, 61):
        prod = LaurentPoly.one()
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * P(dict(enumerate(cyclotomic(d))))
        assert prod == P({m: 1, 0: -1})
        if m > 1:
            assert cyclotomic(m)[0] == 1
            assert len(cyclotomic(m)) - 1 == sum(1 for j in range(1, m) if math.gcd(j, m) == 1)


def test_factored_forms_rebuild_the_factors():
    for factor in (qint, one_minus_q2):
        for x in range(-40, 41):
            assert factor_product([x], [], factor) == factor(x)


def _factor_product_outcome(fn, args):
    try:
        val = fn(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)
    return val.num.terms, val.den.terms


def test_factor_product_matches_division_oracle():
    # a vanishing up factor gives 0; a vanishing down factor raises, even
    # when an up factor vanishes too
    cases = [([], [], qint), ([3, 0], [2], qint), ([0], [-1, 0], one_minus_q2)]
    rng = random.Random(15)
    for _ in range(400):
        up = [rng.randint(-12, 12) for _ in range(rng.randint(0, 4))]
        down = [rng.randint(-12, 12) for _ in range(rng.randint(0, 4))]
        for xs in (up, down):
            if rng.random() < 0.2:
                xs.insert(rng.randint(0, len(xs)), 0)
        cases.append((up, down, rng.choice((qint, one_minus_q2))))
    kinds = Counter()
    for args in cases:
        want = _factor_product_outcome(factor_product_by_division, args)
        assert _factor_product_outcome(factor_product, args) == want, args
        up, down, factor = args
        kinds[factor.__name__, 0 in up, 0 in down] += 1
        kinds["empty"] += not up or not down
    assert len(kinds) == 9 and min(kinds.values()) >= 10, kinds


def test_subst_q_inverse():
    s = ExactScalar(one_minus(4), one_minus(2))
    flipped = s.subst_q_inverse()
    assert flipped == ExactScalar(one_minus(-4), one_minus(-2))
    # q-integers are palindromic
    assert qint(5).subst_q_inverse() == qint(5)


def test_evaluate_limit_q1():
    assert evaluate_limit_q1(qint(2)) == 2
    assert evaluate_limit_q1(ExactScalar.one()) == 1
    assert evaluate_limit_q1(ExactScalar(one_minus(6), one_minus(2))) == 3
    with pytest.raises(ValueError):
        evaluate_limit_q1(ExactScalar(LaurentPoly.one(), one_minus(1)))


def test_print_grammar():
    assert poly_to_str(LaurentPoly.zero()) == "0"
    assert poly_to_str(LaurentPoly.one()) == "1"
    assert poly_to_str(P({0: 1, 2: 1, 4: 1})) == "1 + 1*q^(2) + 1*q^(4)"
    assert poly_to_str(P({-2: -1, 3: Fraction(1, 2)})) == "-1*q^(-2) + 1/2*q^(3)"
    s = ExactScalar(one_minus(6), one_minus(2))
    assert scalar_to_str(s) == "1 + 1*q^(2) + 1*q^(4)"
    halves = ExactScalar(one_minus(6), one_minus(2) * LaurentPoly.constant(2))
    assert scalar_to_str(halves) == "1/2 + 1/2*q^(2) + 1/2*q^(4)"


def test_parse_round_trip():
    cases = [
        LaurentPoly.zero(),
        LaurentPoly.one(),
        P({0: 1, 2: 1, 4: 1}),
        P({-2: -1, 3: Fraction(1, 2)}),
        P({Fraction(1, 2): 1, Fraction(-1, 2): -2}),
    ]
    for p in cases:
        assert parse_poly(poly_to_str(p)) == p
    scalars = [
        ExactScalar.one(),
        ExactScalar(one_minus(2), one_minus(6)),
        ExactScalar(P({-3: 2}), one_minus(4)),
    ]
    for s in scalars:
        assert parse_scalar(scalar_to_str(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("1 +")
    with pytest.raises(ValueError):
        parse_poly("q^")
    with pytest.raises(ValueError):
        parse_scalar("(1/(1")


def test_randomized_ring_axioms():
    rng = random.Random(8271)

    def rand_poly():
        return P({
            rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))
        })

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not b.is_zero:
            prod = a * b
            assert exact_div_poly(prod, b) == a


def test_randomized_gcd_divides():
    rng = random.Random(1443)

    def rand_poly():
        return P({
            rng.randint(0, 5): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        })

    def normalized(p):
        lead = p.terms[p.max_exp]
        return p * LaurentPoly.q_term(-p.min_exp) * LaurentPoly.constant(Fraction(1) / lead)

    for _ in range(120):
        a, b = rand_poly(), rand_poly()
        g = laurent_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        exact_div_poly(a, g)
        exact_div_poly(b, g)
        # multiplying both inputs by a common factor scales the gcd by it
        f = one_minus(2)
        assert laurent_gcd(a * f, b * f) == normalized(g * f)


def test_q_power_shortcut():
    assert q_power(0) == ExactScalar.one()
    assert q_power(3) * q_power(-3) == ExactScalar.one()
    assert q_power(Fraction(1, 2)) ** 2 == q_power(1)


@pytest.mark.parametrize("forms", [
    [0, Fraction(0), LaurentPoly.zero(), LaurentPoly.constant(0), ExactScalar.zero()],
    [2, Fraction(2), LaurentPoly.constant(2), ExactScalar(2), ExactScalar.from_rational(2)],
    [Fraction(1, 2), LaurentPoly.constant(Fraction(1, 2)), ExactScalar(Fraction(1, 2))],
    [q_power(1).num, q_power(1), ExactScalar(P({1: 1}))],
], ids=["zero", "two", "half", "q"])
def test_equal_scalars_hash_equal(forms):
    # int, Fraction, LaurentPoly and ExactScalar forms of one value compare
    # equal, so they must hash equal and collapse to one set or dict key
    for a in forms:
        for b in forms:
            assert a == b
            assert hash(a) == hash(b)
    assert len(set(forms)) == 1


def test_sum_scalars_empty_and_zeros():
    assert sum_scalars([]) == ExactScalar.zero()
    assert sum_scalars(iter(())).is_zero
    zero = ExactScalar.zero()
    total = sum_scalars([zero, zero, (zero, qint(3)), (ExactScalar(P({1: 1})), zero)])
    assert total.is_zero
    assert total.den.is_one


def test_sum_scalars_cancels_within_one_denominator():
    den = one_minus(2) * P({0: 1, Fraction(1, 2): 3})
    a = ExactScalar(P({-1: 2, 3: Fraction(1, 3)}), den)
    b = ExactScalar(P({Fraction(1, 2): -5}), den)
    assert a.den == b.den
    assert sum_scalars([a, b, -a, -b]) == ExactScalar.zero()
    # the group sum is (1 - q^2) / a.den, which canonicalises past the shared factor
    c = ExactScalar(one_minus(2) - a.num - b.num, a.den)
    assert sum_scalars([a, b, c]) == ExactScalar(one_minus(2), a.den)
    assert sum_scalars([a, b, c]) == ExactScalar(-3, P({0: 1, Fraction(1, 2): 3}))


def test_sum_scalars_matches_term_by_term():
    rng = random.Random(5150)

    def rand_scalar():
        num = P({rng.randint(-3, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))})
        den = rng.choice([LaurentPoly.one(), one_minus(1), one_minus(2), P({0: 2, 1: 1}),
                          P({Fraction(1, 2): 1, 0: -1})])
        return ExactScalar(num, den)

    for _ in range(60):
        items = [rand_scalar() if rng.random() < 0.5 else (rand_scalar(), rand_scalar())
                 for _ in range(rng.randint(0, 8))]
        expected = functools.reduce(
            operator.add,
            (item if isinstance(item, ExactScalar) else item[0] * item[1] for item in items),
            ExactScalar.zero())
        assert sum_scalars(items) == expected


def _sympy_canonical(num, den):
    """Canonical (num terms, den terms) of num/den, reduced by sympy.

    q = x^L, where L clears every exponent denominator; sympy cancels the
    quotient in x, and the result is normalised as ExactScalar promises:
    monic denominator with lowest exponent 0.
    """
    sympy = pytest.importorskip("sympy")
    exps = [e for p in (num, den) for e in p.terms]
    scale = math.lcm(*(e.denominator for e in exps))
    x = sympy.Symbol("x")

    def to_expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** int(e * scale)
                    for e, c in p.terms.items()), sympy.Integer(0))

    top, bottom = sympy.fraction(sympy.cancel(sympy.together(to_expr(num) / to_expr(den))))
    if top == 0:
        return {}, {Fraction(0): Fraction(1)}
    top, bottom = sympy.Poly(top, x), sympy.Poly(bottom, x)
    lead = Fraction(str(bottom.LC()))
    low = min(m for (m,), _ in bottom.terms())

    def to_terms(p):
        return {Fraction(m - low, scale): Fraction(str(c)) / lead for (m,), c in p.terms()}

    return to_terms(top), to_terms(bottom)


def test_canonical_form_matches_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(2718)
    halves = [Fraction(i, 2) for i in range(-4, 5)]
    thirds = [Fraction(i, 3) for i in range(-3, 4)]

    def rand_poly(exps, size):
        return P({rng.choice(exps): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                  for _ in range(size)})

    cases = []
    for _ in range(80):
        exps = rng.choice([halves, thirds, halves + thirds])
        shared = rand_poly(exps, rng.randint(1, 3)) or one_minus(Fraction(1, 2))
        num, den = rand_poly(exps, rng.randint(0, 4)), rand_poly(exps, rng.randint(1, 4))
        if den.is_zero:
            den = one_minus(Fraction(1, 3))
        kind = rng.randrange(4)
        if kind == 1:  # cancels to a constant
            num, den = den * Fraction(rng.randint(-3, 3), rng.randint(1, 3)), den
        elif kind == 2:  # cancels to zero
            num = num * shared - shared * num
        cases.append((num * shared, den * shared))
    cases += [(one_minus(1), P({Fraction(1, 2): 1, 0: -1})),
              (P({5: 3}), P({2: Fraction(1, 2)})),
              (LaurentPoly.zero(), one_minus(3))]
    kinds = set()
    for num, den in cases:
        s = ExactScalar(num, den)
        want_num, want_den = _sympy_canonical(num, den)
        assert (s.num.terms, s.den.terms) == (want_num, want_den), (num, den)
        want = ExactScalar._make(LaurentPoly(want_num), LaurentPoly(want_den))
        assert scalar_to_str(s) == scalar_to_str(want)
        kinds.add("zero" if s.is_zero else "constant" if s.is_rational_constant else "quotient")
    assert kinds == {"zero", "constant", "quotient"}


def test_sum_scalars_matches_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(3141)
    dens = [one_minus(1), P({0: 1, Fraction(1, 2): 1}), one_minus(2) * P({Fraction(1, 3): 2, 0: 1})]

    def rand_scalar():
        num = P({Fraction(rng.randint(-6, 6), 6): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))})
        return ExactScalar(num, rng.choice(dens))

    for _ in range(30):
        items = [rand_scalar() for _ in range(rng.randint(1, 6))]
        total = sum_scalars(items)
        num, den = LaurentPoly.zero(), LaurentPoly.one()
        for s in items:
            num, den = num * s.den + s.num * den, den * s.den
        assert (total.num.terms, total.den.terms) == _sympy_canonical(num, den)


# ---------------------------------------------------------------------------
# gcd-first addition and unit products against full canonicalisation
# ---------------------------------------------------------------------------


def _same_form(x, y):
    return x.num.terms == y.num.terms and x.den.terms == y.den.terms


def test_fast_paths_match_full_canonicalisation():
    rng = random.Random(2718)

    def rat():
        return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))

    def exponent():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 6]))

    def poly(most=3):
        return P({exponent(): rat() for _ in range(rng.randint(1, most))})

    def factor():
        # mostly a binomial 1 + c q^e with e > 0, sometimes any small polynomial
        if rng.random() < 0.7:
            return P({0: 1, abs(exponent()) or 1: rat()})
        return poly()

    def den():
        return functools.reduce(operator.mul, (factor() for _ in range(rng.randint(0, 2))),
                                LaurentPoly.one())

    def unit():
        return ExactScalar(LaurentPoly.q_term(rng.choice([0, exponent()]), rat()))

    def pair(kind):
        if kind == "equal":
            d = den()
            return ExactScalar(poly(), d), ExactScalar(poly(), d)
        if kind == "coprime":
            return ExactScalar(poly(), den()), ExactScalar(poly(), den())
        common = factor()
        a = ExactScalar(poly(), common * den())
        if kind == "common":
            return a, ExactScalar(poly(), common * den())
        if kind == "cancel":
            h = factor()
            return a, ExactScalar(-a.num * h, a.den * h)
        # "collapse": b = t - a, so a + b = t loses the common factor of a.den and b.den
        t = ExactScalar(poly(), den())
        return a, add_by_cross_multiplication(t, -a)

    kinds = ["equal", "coprime", "common", "cancel", "collapse"]
    seen = dict.fromkeys(["zero", "gcd", "unit_zero"], 0)
    for case in range(400):
        a, b = pair(kinds[case % len(kinds)])
        total = a + b
        assert _same_form(total, add_by_cross_multiplication(a, b))
        assert _same_form(a - b, add_by_cross_multiplication(a, -b))
        seen["zero"] += total.is_zero
        seen["gcd"] += a.den != b.den and not laurent_gcd(a.den, b.den).is_one
        u = unit()
        assert _same_form(a / u, div_by_canonicalisation(a, u))
        if rng.random() < 0.1:
            u = ExactScalar.zero()
            seen["unit_zero"] += not a.den.is_one
        assert _same_form(a * u, mul_by_canonicalisation(a, u))
        assert _same_form(u * a, mul_by_canonicalisation(u, a))
    # enough cases cancel to zero, share a nontrivial gcd, or multiply a fraction by 0
    assert seen["zero"] >= 60 and seen["gcd"] >= 100 and seen["unit_zero"] >= 10, seen
