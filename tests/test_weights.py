"""Weight lattice, roots, dominance order, and orbit combinatorics."""

from fractions import Fraction

import pytest

from macdpoly.weights import (
    RootData,
    Weight,
    dominance_leq,
    dominant_below,
    dominant_weights_up_to,
    fundamental_weight,
    lambda_r_weights,
    pairing,
    parse_weight,
    weyl_orbit,
)


def test_canonical_rep_mod_all_ones():
    assert Weight((1, 1)) == Weight((0, 0))
    assert Weight((3, 2, 1)) == Weight((2, 1, 0))
    assert Weight((0, 1)).coords == (-1, 0)
    with pytest.raises(TypeError):
        Weight((1.5, 0))
    with pytest.raises(TypeError):
        Weight((True, False))


def test_weight_arithmetic():
    a = Weight((2, 0))
    b = Weight((1, 0))
    assert a + b == Weight((3, 0))
    assert a - b == b
    assert -b == Weight((-1, 0))
    assert 3 * b == Weight((3, 0))
    assert 2 * Weight((1, 1, 0)) == Weight((2, 2, 0))


def test_parse_weight():
    assert parse_weight("2,1,0", 3) == Weight((2, 1, 0))
    assert parse_weight(" 1 , 0 ") == Weight((1, 0))
    with pytest.raises(ValueError):
        parse_weight("1,x", 2)
    with pytest.raises(ValueError):
        parse_weight("1,0", 3)


def test_pairing_values():
    # simple root against rho pairs to 1
    rho3 = Weight((2, 1, 0))
    assert pairing(Weight((1, -1, 0)), rho3) == 1
    assert pairing(Weight((0, 1, -1)), rho3) == 1
    # (omega_1, omega_1) = 1/2 for n=2
    w = fundamental_weight(2, 1)
    assert pairing(w, w) == Fraction(1, 2)
    assert pairing(w, Weight((0, 0))) == 0
    with pytest.raises(ValueError):
        pairing(Weight((1, 0)), Weight((1, 0, 0)))


def test_pairing_is_shift_invariant():
    # well-defined on the quotient: shifting by all-ones changes nothing
    a = Weight((2, 0, 0))
    b = Weight((1, 1, 0))
    shifted = Weight((2 + 5, 0 + 5, 0 + 5))
    assert shifted == a
    assert pairing(shifted, b) == pairing(a, b)


def test_root_data():
    rd = RootData(3)
    assert rd.rho == Weight((2, 1, 0))
    assert len(rd.positive_roots) == 3
    assert len(rd.all_roots) == 6
    assert len(rd.simple_roots) == 2
    for alpha in rd.simple_roots:
        assert pairing(alpha, rd.rho) == 1
    for alpha in rd.positive_roots:
        assert pairing(alpha, alpha) == 2
        assert Weight(tuple(-c for c in alpha.coords)) in rd.all_roots


def test_dominance_leq():
    lam = Weight((2, 0, 0))
    assert dominance_leq(lam, lam)
    assert dominance_leq(Weight((1, 1, 0)), lam)
    assert not dominance_leq(lam, Weight((1, 1, 0)))
    # different cosets of the root lattice are incomparable
    assert not dominance_leq(Weight((1, 0)), Weight((0, 0)))
    assert not dominance_leq(Weight((0, 0)), Weight((1, 0)))


def test_dominance_is_partial_order():
    ws = dominant_weights_up_to(3, 4)
    for a in ws:
        for b in ws:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b


def test_dominant_below():
    assert dominant_below(Weight((0, 0))) == [Weight((0, 0))]
    assert dominant_below(Weight((2, 0))) == [Weight((2, 0)), Weight((0, 0))]
    assert dominant_below(Weight((1, 1, 0))) == [Weight((1, 1, 0))]
    got = dominant_below(Weight((2, 2, 0)))
    assert got[0] == Weight((2, 2, 0))
    for mu in got:
        assert mu.is_dominant and dominance_leq(mu, Weight((2, 2, 0)))
    with pytest.raises(ValueError):
        dominant_below(Weight((0, 1)))


def test_dominant_below_is_downward_closed():
    lam = Weight((4, 0, 0))
    below = dominant_below(lam)
    for mu in below:
        for nu in dominant_below(mu):
            assert nu in below


def test_weyl_orbit():
    assert weyl_orbit(Weight((0, 0))) == [Weight((0, 0))]
    assert set(weyl_orbit(Weight((1, 0)))) == {Weight((1, 0)), Weight((-1, 0))}
    orbit = weyl_orbit(Weight((2, 1, 0)))
    assert len(orbit) == 6
    assert len(set(orbit)) == 6
    # stabilized coordinates shrink the orbit
    assert len(weyl_orbit(Weight((1, 1, 0)))) == 3


def test_lambda_r_weights():
    assert set(lambda_r_weights(2, 1)) == {Weight((1, 0)), Weight((-1, 0))}
    w3 = lambda_r_weights(3, 1)
    assert len(w3) == 3 and len(set(w3)) == 3
    assert sum(1 for w in w3 if w.is_dominant) == 1
    assert fundamental_weight(3, 1) in w3
    with pytest.raises(ValueError):
        lambda_r_weights(3, 3)
    with pytest.raises(ValueError):
        lambda_r_weights(3, 0)


def test_lambda_r_matches_fundamental_weight_orbit():
    for n in (2, 3, 4):
        for r in range(1, n):
            assert set(lambda_r_weights(n, r)) == set(weyl_orbit(fundamental_weight(n, r)))


def test_dominant_weights_up_to():
    ws = dominant_weights_up_to(2, 4)
    assert ws == [Weight((i, 0)) for i in range(5)]
    ws3 = dominant_weights_up_to(3, 4)
    assert Weight((0, 0, 0)) in ws3 and Weight((2, 2, 0)) in ws3
    assert all(w.is_dominant for w in ws3)
    assert len(set(ws3)) == len(ws3) == 9


def test_weyl_orbit_matches_full_permutation_formula():
    import itertools
    import random

    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(15):
            lam = Weight(rng.randint(-2, 2) for _ in range(n))
            old = sorted({Weight(p) for p in set(itertools.permutations(lam.coords))},
                         key=lambda w: w.coords, reverse=True)
            assert weyl_orbit(lam) == old


def test_check_param_messages():
    from macdpoly.weights import check_param

    check_param(2, "rank parameter n", 2)
    check_param(3, "r", 1, 3)
    cases = [
        ((1, "rank parameter n", 2), "rank parameter n must be an integer >= 2, got 1"),
        (("2", "deformation parameter k", 1),
         "deformation parameter k must be an integer >= 1, got '2'"),
        ((0, "r", 1, 2), "r must satisfy 1 <= r <= n-1, got 0"),
        ((3, "operator index r", 1, 2),
         "operator index r must satisfy 1 <= r <= n-1, got 3"),
        ((True, "deformation parameter k", 1),
         "deformation parameter k must be an integer >= 1, got True"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            check_param(*args)
        assert str(info.value) == message

