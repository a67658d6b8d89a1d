import random
from fractions import Fraction

import numpy as np
import pytest

from qcode.counting import get_field
from qcode.cyclotomic import (
    CycNum,
    exp_sum,
    gauss_sum_ext,
    gauss_sum_prime,
    pstar,
    pstar_half_power,
    sigma_unit_sum,
    verify_quadratic_gauss,
    verify_sigma_power_sums,
)
from qcode.errors import NonUnitError, ZeroLeadCoefficientError
from qcode.field import eta_bar

from oracles import complex_value, is_zero


def rational(p, v):
    return CycNum.from_rational(p, v)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def test_full_zeta_sum_vanishes():
    for p in (3, 5, 7, 11):
        acc = CycNum.zero(p)
        for k in range(p):
            acc = acc + CycNum.zeta_pow(p, k)
        assert is_zero(acc)


def test_zeta_times_zeta_inverse():
    for p in (3, 5, 7):
        z = CycNum.zeta_pow(p, 1)
        zinv = CycNum.zeta_pow(p, p - 1)
        assert z * zinv == rational(p, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_mul_zeta_pow_is_multiplication_by_zeta_pow(p):
    # the rotation against the full product, on random coordinates over
    # random denominators, at every k in two periods (negative k too)
    rng = random.Random(p)
    for _ in range(6):
        den = rng.choice([1, 2, p, p**3, 6 * p])
        x = CycNum(p, [Fraction(rng.randint(-9 * p, 9 * p), den) for _ in range(p - 1)])
        for k in range(-p, p + 1):
            got = x.mul_zeta_pow(k)
            want = x * CycNum.zeta_pow(p, k)
            assert (got.num, got.den) == (want.num, want.den), (p, k, x)
    assert is_zero(CycNum.zero(p).mul_zeta_pow(1))


def test_p3_gauss_square_by_hand():
    # (zeta - zeta^2)^2 expands to -3 after zeta^3 = 1 and 1+zeta+zeta^2 = 0
    g = CycNum.zeta_pow(3, 1) - CycNum.zeta_pow(3, 2)
    assert g * g == rational(3, -3)


def test_coordinates_stay_reduced_and_rational_detection():
    x = CycNum.zeta_pow(5, 4)
    assert len(x.coords) == 4
    assert not x.is_rational()
    y = x + CycNum.zeta_pow(5, 1) + CycNum.zeta_pow(5, 2) + CycNum.zeta_pow(5, 3)
    assert y == rational(5, -1)
    assert y.rational_value() == Fraction(-1)


def test_numpy_counts_become_python_integers():
    # numpy integers would wrap past 2^63; coordinates are Python ints
    x = CycNum.from_exponent_counts(3, np.array([2**40, 0, 0], dtype=np.int64))
    assert all(type(n) is int for n in x.num)
    assert (x * x).rational_value() == 2**80


def test_scale_and_pow():
    g = gauss_sum_prime(7)
    assert g.scale(Fraction(1, 7)) * rational(7, 7) == g
    assert g**2 == rational(7, pstar(7))
    assert g**0 == rational(7, 1)


def test_text_form():
    g = gauss_sum_prime(3)
    assert g.to_text() == "1 + 2*z"
    assert rational(5, Fraction(-2, 3)).to_text() == "-2/3 + 0*z + 0*z^2 + 0*z^3"


# ---------------------------------------------------------------------------
# gauss sums and half powers of p*
# ---------------------------------------------------------------------------

def test_gauss_sum_against_direct_summation():
    for p in (3, 5, 7, 13):
        counts = [0] * p
        for c in range(1, p):
            counts[c] += eta_bar(c, p)
        assert gauss_sum_prime(p) == CycNum.from_exponent_counts(p, counts)


def test_gauss_square_is_pstar_small():
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum_prime(p)
        assert g * g == rational(p, pstar(p))


def test_pstar_half_power_values_p3():
    assert pstar_half_power(3, 2) == rational(3, -3)
    assert pstar_half_power(3, -2) == rational(3, Fraction(-1, 3))
    assert pstar_half_power(3, 1) == gauss_sum_prime(3)


def test_pstar_half_power_inverse_products():
    for p in (3, 5, 7):
        for e in range(-5, 6):
            prod = pstar_half_power(p, e) * pstar_half_power(p, -e)
            assert prod == rational(p, 1)


def test_galois_action_on_gauss_sum():
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum_prime(p)
        for a in range(1, p):
            assert g.sigma(a) == g.scale(eta_bar(a, p))


def test_sigma_is_automorphism():
    p = 7
    x = gauss_sum_prime(p) + CycNum.zeta_pow(p, 3).scale(Fraction(2, 5))
    y = CycNum.zeta_pow(p, 1) - rational(p, 4)
    for a in range(1, p):
        assert (x * y).sigma(a) == x.sigma(a) * y.sigma(a)
        assert x.sigma(1) == x
        for b in range(1, p):
            assert x.sigma(a).sigma(b) == x.sigma(a * b % p)
    with pytest.raises(NonUnitError):
        x.sigma(7)


def test_galois_stable_sums_are_rational():
    # unit-orbit sums of gauss-sum powers land in the rational slot
    for p in (5, 7):
        for e in range(1, 5):
            total = sigma_unit_sum(gauss_sum_prime(p) ** e)
            assert total.is_rational()


# ---------------------------------------------------------------------------
# the sigma power-sum identities
# ---------------------------------------------------------------------------

def test_sigma_power_sums_without_shift():
    r1 = verify_sigma_power_sums(3, 1)
    assert r1["equal"] and r1["lhs"] == CycNum.zero(3).to_text()
    r2 = verify_sigma_power_sums(3, 2)
    assert r2["equal"]
    assert r2["lhs"] == rational(3, Fraction(-2, 3)).to_text()


def test_sigma_power_sums_with_shift():
    assert verify_sigma_power_sums(5, 3, 2)["equal"]
    assert verify_sigma_power_sums(7, 4, 3)["equal"]
    with pytest.raises(NonUnitError):
        verify_sigma_power_sums(5, 2, 5)


# ---------------------------------------------------------------------------
# exponential sums over extension fields
# ---------------------------------------------------------------------------

def test_exp_sum_constant_phase():
    F = get_field(3, 3)
    assert exp_sum(F, lambda x: 0) == rational(3, 27)


def test_exp_sum_additive_character_vanishes():
    F = get_field(3, 3)
    assert is_zero(exp_sum(F, F.trace))
    for beta in list(F.nonzero_elements())[::5]:
        assert is_zero(exp_sum(F, lambda x: F.trace(F.mul(beta, x))))


def test_exp_sum_square_trace_gf9():
    F = get_field(3, 2)
    val = exp_sum(F, lambda x: F.trace(F.mul(x, x)))
    assert val == rational(3, 3)


def test_exp_sum_accepts_sequences():
    F = get_field(3, 2)
    vals = [F.trace(F.mul(x, x)) for x in F.elements()]
    assert exp_sum(F, vals) == rational(3, 3)
    with pytest.raises(ValueError):
        exp_sum(F, vals[:-1])


def test_extension_gauss_sum_closed_form():
    # brute sum_{c != 0} eta(c) zeta^Tr(c) against the signed prime-sum power
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        F = get_field(p, m)
        counts = [0] * p
        for c in F.nonzero_elements():
            counts[F.trace(c)] += F.eta(c)
        assert CycNum.from_exponent_counts(p, counts) == gauss_sum_ext(p, m)


# ---------------------------------------------------------------------------
# the quadratic character-sum identity
# ---------------------------------------------------------------------------

def test_quadratic_gauss_gf3_and_gf9():
    r = verify_quadratic_gauss(get_field(3, 1), 1, 0, 0)
    assert r["equal"] and r["gauss_brute_equals_closed"]
    r9 = verify_quadratic_gauss(get_field(3, 2), 1, 0, 0)
    assert r9["equal"] and r9["gauss_brute_equals_closed"]
    # both sides are the rational 3 = -(p*) here
    assert r9["lhs"] == rational(3, 3).to_text()


def test_quadratic_gauss_seeded_trials():
    import random

    rng = random.Random(50)
    F = get_field(3, 2)
    for _ in range(50):
        a2 = rng.randrange(1, F.q)
        a1, a0 = rng.randrange(F.q), rng.randrange(F.q)
        assert verify_quadratic_gauss(F, a2, a1, a0)["equal"]
    with pytest.raises(ZeroLeadCoefficientError):
        verify_quadratic_gauss(F, 0, 1, 0)


# ---------------------------------------------------------------------------
# numeric embedding diagnostic (exactness is the contract; this is a sanity
# check of the embedding itself)
# ---------------------------------------------------------------------------

def test_complex_embedding_matches_floating_gauss():
    import cmath

    for p in (3, 7, 11):
        g = complex_value(gauss_sum_prime(p))
        want = sum(eta_bar(c, p) * cmath.exp(2j * cmath.pi * c / p)
                   for c in range(1, p))
        assert abs(g - want) < 1e-9
        assert abs(g * g - pstar(p)) < 1e-9
