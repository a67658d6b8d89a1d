import hashlib
import json
import math
import pathlib
import random

import numpy as np
import pytest

from qcode.counting import _histogram, get_field
from qcode.errors import (
    EvenPrimeError,
    NonPrimeError,
    PreconditionViolatedError,
    ReducibleModulusError,
)
from qcode import field as field_mod
from qcode.field import ExtField, eta_bar, hyperplane_counts, is_irreducible, is_prime
from qcode.quadform import analyze, preset_cor1, preset_trace_square_minus

from oracles import trace_table


# ---------------------------------------------------------------------------
# construction and modulus selection
# ---------------------------------------------------------------------------

def test_default_modulus_gf9_is_smallest_irreducible():
    # independent sieve: monic quadratics over GF(3) are irreducible iff
    # they have no root; pick the one with the smallest (c0, c1) encoding
    best = None
    for enc in range(9):
        c0, c1 = enc % 3, enc // 3
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            best = (c0, c1, 1)
            break
    F = get_field(3, 2)
    assert F.modulus == best == (1, 0, 1)


def test_even_prime_rejected():
    with pytest.raises(EvenPrimeError):
        ExtField(2, 4)


def test_non_prime_rejected():
    with pytest.raises(NonPrimeError):
        ExtField(9, 1)


def test_explicit_modulus_accepted():
    F = ExtField(3, 5, [1, 2, 0, 0, 0, 1])
    assert F.modulus == (1, 2, 0, 0, 0, 1)


def test_reducible_modulus_rejected():
    # x^2 + 2x + 1 = (x + 1)^2
    with pytest.raises(ReducibleModulusError):
        ExtField(3, 2, [1, 2, 1])
    with pytest.raises(ReducibleModulusError):
        ExtField(3, 2, [1, 0, 2])  # not monic


def test_construction_is_deterministic():
    a, b = ExtField(5, 3), ExtField(5, 3)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert np.array_equal(a._exp, b._exp)


def test_is_prime_and_irreducible_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_irreducible([1, 2, 0, 0, 0, 1], 3)
    assert not is_irreducible([1, 2, 1], 3)


def _monic(p, d):
    """Every monic polynomial of degree d over GF(p), little-endian."""
    return [[enc // p**i % p for i in range(d)] + [1] for enc in range(p**d)]


def _reducible_by_products(p, m):
    """Encodings of the low coefficients of every reducible monic
    polynomial of degree m: the products of two monic factors of degrees
    d and m - d, 1 <= d <= m/2."""
    out = set()
    for d in range(1, m // 2 + 1):
        for a in _monic(p, d):
            for b in _monic(p, m - d):
                prod = [0] * (m + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
                out.add(sum(c % p * p**i for i, c in enumerate(prod[:m])))
    return out


def _mobius(n):
    mu, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return mu


IRREDUCIBILITY_GRID = ([(3, m) for m in range(1, 7)] + [(5, m) for m in range(1, 5)]
                       + [(7, m) for m in range(1, 4)] + [(11, 2), (13, 2)])


@pytest.mark.parametrize("p,m", IRREDUCIBILITY_GRID)
def test_is_irreducible_matches_the_product_sieve_and_gauss_count(p, m):
    # every monic polynomial of degree m: irreducible exactly when no
    # product of two monic factors of lower degree gives it, and as many
    # as Gauss's formula (1/m) sum_{d | m} mu(d) p^(m/d)
    irreducible = {enc for enc, coeffs in enumerate(_monic(p, m))
                   if is_irreducible(coeffs, p)}
    assert irreducible == set(range(p**m)) - _reducible_by_products(p, m)
    gauss = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert len(irreducible) * m == gauss


def test_is_irreducible_refuses_a_characteristic_past_the_cap():
    # int64 matrix powers are exact only inside the field-size cap
    with pytest.raises(PreconditionViolatedError):
        is_irreducible([1, 0, 1], 200_003)
    # at the largest prime under the cap, p = 3 mod 4: x^2 + 1 has no
    # root and is irreducible, x^2 - 1 = (x - 1)(x + 1) is not
    assert is_irreducible([1, 0, 1], 199_999)
    assert not is_irreducible([199_998, 0, 1], 199_999)


def test_is_irreducible_refuses_a_composite_characteristic():
    # over Z/9 the test has no meaning; the check used to answer True for
    # every linear polynomial
    with pytest.raises(NonPrimeError):
        is_irreducible([1, 1], 9)


def test_is_irreducible_rejects_non_monic_and_constant_inputs():
    assert not is_irreducible([1, 2], 3)
    assert not is_irreducible([1, 0, 2], 3)
    assert not is_irreducible([2, 0, 0, 0, 0, 2], 3)
    assert not is_irreducible([1], 3)
    assert not is_irreducible([], 3)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf9_product_reduces_mod_modulus():
    F = get_field(3, 2)
    one_plus_x = 1 + 3
    two_x = 2 * 3
    assert F.mul(one_plus_x, one_plus_x) == two_x


def test_field_axioms_exhaustive_gf9():
    F = get_field(3, 2)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[:5]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_inverse_exhaustive_small_fields():
    for p, m in [(3, 2), (5, 2), (3, 3)]:
        F = get_field(p, m)
        for a in F.nonzero_elements():
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        get_field(3, 2).inv(0)


def test_pow_lagrange():
    for p, m in [(3, 2), (3, 3), (5, 2)]:
        F = get_field(p, m)
        for g in F.nonzero_elements():
            assert F.pow(g, F.q - 1) == 1
    assert get_field(3, 2).pow(0, 5) == 0
    assert get_field(3, 2).pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        get_field(3, 2).pow(0, -1)


# ---------------------------------------------------------------------------
# frobenius and trace
# ---------------------------------------------------------------------------

def test_frobenius_gf9_conjugation():
    # under x^2 + 1, x^3 = -x, so (a + bx)^3 = a - bx
    F = get_field(3, 2)
    for a in range(3):
        for b in range(3):
            x = a + 3 * b
            assert F.frobenius(x, 1) == a + 3 * ((-b) % 3)


def test_frobenius_fixes_prime_subfield_and_has_order_m():
    F = get_field(3, 3)
    for c in range(3):
        for i in range(3):
            assert F.frobenius(c, i) == c
    for x in F.elements():
        assert F.frobenius(x, 0) == x
        assert F.frobenius(F.frobenius(x, 1), F.m - 1) == x
    with pytest.raises(PreconditionViolatedError):
        F.frobenius(1, 3)


def test_trace_against_direct_frobenius_sum():
    # oracle: sum the m frobenius images directly
    F = get_field(3, 5)
    for x in list(F.elements())[::7]:
        acc, cur = 0, x
        for _ in range(F.m):
            acc = F.add(acc, cur)
            cur = F.pow(cur, F.p)
        assert acc == F.trace(x)


def test_trace_basics():
    for p, m in [(3, 2), (3, 3), (5, 2), (3, 5)]:
        F = get_field(p, m)
        assert F.trace(1) == m % p
    F9 = get_field(3, 2)
    assert F9.trace(3) == 0  # the root of x^2 + 1 has zero trace


def test_trace_additivity_and_frobenius_invariance():
    F = get_field(5, 3)
    elems = list(F.elements())[::9]
    for x in elems:
        assert F.trace(F.frobenius(x, 1)) == F.trace(x)
        for y in elems:
            assert F.trace(F.add(x, y)) == (F.trace(x) + F.trace(y)) % F.p


# ---------------------------------------------------------------------------
# quadratic characters and generators
# ---------------------------------------------------------------------------

def test_eta_basics():
    F = get_field(3, 2)
    assert F.eta(0) == 0
    assert F.eta(1) == 1
    assert F.eta(F.generator) == -1
    assert eta_bar(0, 3) == 0
    assert eta_bar(1, 3) == 1
    assert eta_bar(2, 3) == -1


def test_eta_multiplicative_exhaustive_gf25():
    F = get_field(5, 2)
    for a in F.nonzero_elements():
        for b in F.nonzero_elements():
            assert F.eta(F.mul(a, b)) == F.eta(a) * F.eta(b)


def test_eta_square_count_up_to_3_pow_6():
    for p, m in [(3, 2), (3, 4), (3, 6)]:
        F = get_field(p, m)
        squares = sum(1 for x in F.nonzero_elements() if F.eta(x) == 1)
        assert squares == (F.q - 1) // 2


def test_generator_smallest_primitive():
    assert get_field(3, 1).generator == 2
    F = get_field(3, 2)
    g = F.generator
    order = next(k for k in range(1, F.q) if F.pow(g, k) == 1)
    assert order == 8
    # nothing smaller is primitive (checked by brute order)
    for cand in range(1, g):
        assert next(k for k in range(1, F.q) if F.pow(cand, k) == 1) < F.q - 1


def test_generator_primitivity_criterion():
    from qcode.field import prime_factors

    F = get_field(5, 2)
    g = F.generator
    assert F.pow(g, F.q - 1) == 1
    for ell in prime_factors(F.q - 1):
        assert F.pow(g, (F.q - 1) // ell) != 1


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def test_element_text_roundtrip_and_gk():
    F = ExtField(3, 5, [1, 2, 0, 0, 0, 1])
    assert F.parse_element("17") == 17
    assert F.parse_element("g^2") == F.mul(F.generator, F.generator)
    assert F.parse_element("g") == F.generator
    assert F.element_text(17) == "17"
    assert F.modulus_text() == "1,2,0,0,0,1"
    with pytest.raises(PreconditionViolatedError):
        F.parse_element("100000")


def test_generator_of_reference_moduli_is_x():
    # the two explicit reference moduli have primitive x, so g^k text
    # resolves against the root itself
    assert ExtField(3, 5, [1, 2, 0, 0, 0, 1]).generator == 3
    assert ExtField(3, 4, [2, 0, 0, 2, 1]).generator == 3


# ---------------------------------------------------------------------------
# exp/log tables, trace table and digit matrix
# ---------------------------------------------------------------------------

# Oracles on the digit polynomials, independent of every table and of the
# matrix construction: schoolbook products reduced modulo F.modulus.

def _oracle_mul(F, a, b):
    p, m, mod = F.p, F.m, F.modulus
    da = [a // p**i % p for i in range(m)]
    db = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    # x^k = x^(k-m) (x^m - modulus), top degree first
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        for j in range(m + 1):
            prod[k - m + j] -= c * mod[j]
    return sum(c % p * p**i for i, c in enumerate(prod[:m]))


def _oracle_pow(F, a, e):
    out = 1
    while e:
        if e & 1:
            out = _oracle_mul(F, out, a)
        a = _oracle_mul(F, a, a)
        e >>= 1
    return out


def _frobenius_trace(F, x):
    # Tr(x) = x + x^p + ... + x^(p^(m-1)), digit by digit
    p, acc, cur = F.p, [0] * F.m, x
    for _ in range(F.m):
        for i in range(F.m):
            acc[i] += cur // p**i % p
        cur = _oracle_pow(F, cur, p)
    assert all(c % p == 0 for c in acc[1:]), "trace left the prime subfield"
    return acc[0] % p


def test_oracle_mul_gf9_by_hand():
    # under x^2 + 1: (1 + x)^2 = 2x, x * x = -1 = 2
    F = get_field(3, 2)
    assert _oracle_mul(F, 1 + 3, 1 + 3) == 2 * 3
    assert _oracle_mul(F, 3, 3) == 2


TABLE_FIELDS = [(3, 1, None), (3, 2, None), (3, 3, None), (3, 4, None),
                (3, 5, None), (3, 6, None), (5, 3, None), (7, 3, None),
                (13, 2, None), (199999, 1, None),
                (3, 5, (1, 2, 0, 0, 0, 1)), (3, 4, (2, 0, 0, 2, 1))]
BENCH_FIELDS = [(3, 8), (3, 9), (5, 6), (7, 5), (3, 11), (7, 6), (11, 5)]


def _check_table_steps(F, ks):
    # oracle: the defining step g^(k+1) = g^k * g, one polynomial
    # multiplication each, independent of the blocked fill
    g, n = F.generator, F.q - 1
    for k in ks:
        assert F._exp[(k + 1) % n] == _oracle_mul(F, int(F._exp[k]), g), k
        assert F._log[F._exp[k]] == k, k


@pytest.mark.parametrize("p,m,modulus", TABLE_FIELDS + [(3, 7, None)])
def test_tables_follow_generator_recurrence(p, m, modulus):
    F = get_field(p, m, modulus)
    assert len(F._exp) == F.q - 1 and len(F._log) == F.q
    _check_table_steps(F, range(F.q - 1))
    assert np.array_equal(np.sort(F._exp), np.arange(1, F.q))
    assert F._exp.dtype == F._log.dtype == np.int32
    assert trace_table(F).dtype == np.min_scalar_type(p - 1)
    for table in (F._exp, F._log, F._trace_powers):
        assert not table.flags.writeable


def test_tables_follow_generator_recurrence_sampled_gf3_11():
    F = get_field(3, 11)
    _check_table_steps(F, random.Random(11).sample(range(F.q - 1), 2000))
    _check_table_steps(F, [0, F.q - 2])


@pytest.mark.parametrize("p,m", BENCH_FIELDS)
def test_tables_follow_generator_recurrence_sampled_bench_sizes(p, m):
    F = get_field(p, m)
    _check_table_steps(F, random.Random(p * 100 + m).sample(range(F.q - 1), 200))
    _check_table_steps(F, [0, F.q - 2])


@pytest.mark.parametrize("p,m,short", [(3, 1, False), (19, 1, True), (3, 11, True)])
def test_blocked_tables_follow_the_generator_recurrence_everywhere(p, m, short):
    # every entry of the batched fill against the per-element recurrence
    # exp[0] = 1, exp[k + 1] = exp[k] g, with multiplication by g on digit
    # rows built from the oracle product (one _oracle_mul per basis
    # element), so by induction exp[k] = g^k; log inverts exp, and every
    # trace is digits(x) . (Tr(x^j)) with the Frobenius-sum trace.  3^1 is
    # one block of two rows; at 19^1 and 3^11, q - 1 is not a multiple of
    # the rows one batched product forms, so the last block is short.
    F = ExtField(p, m)
    n = F.q - 1
    width = math.isqrt(n) + 1
    group = max(1, min(field_mod._BLOCK_ROWS // width, -(-n // width)))
    assert (n % (group * width) != 0) == short
    place = p ** np.arange(m, dtype=np.int64)
    mul_g = np.array([F.digits(_oracle_mul(F, p**j, F.generator)) for j in range(m)])
    tr = np.array([_frobenius_trace(F, p**j) for j in range(m)])
    exp = F._exp.astype(np.int64)
    assert exp[0] == 1
    assert np.array_equal((exp[:, None] // place % p) @ mul_g % p @ place, np.roll(exp, -1))
    assert np.array_equal(F._log[exp], np.arange(n)) and F._log[0] == 0
    digits = np.arange(F.q, dtype=np.int64)[:, None] // place % p
    assert np.array_equal(trace_table(F), digits @ tr % p)


@pytest.mark.parametrize("p,m,modulus", [(3, 1, None), (3, 2, None), (3, 3, None),
                                         (3, 4, None), (3, 5, None), (5, 1, None),
                                         (5, 2, None), (5, 3, None), (5, 4, None),
                                         (7, 2, None), (7, 3, None), (11, 2, None),
                                         (13, 2, None), (23, 2, None),
                                         (3, 5, (1, 2, 0, 0, 0, 1))])
def test_generator_is_smallest_element_of_full_order(p, m, modulus):
    # brute order counting with the oracle product, for q <= 5^4
    F = get_field(p, m, modulus)

    def order(a):
        k, cur = 1, a
        while cur != 1:
            cur, k = _oracle_mul(F, cur, a), k + 1
        return k

    assert order(F.generator) == F.q - 1
    assert all(order(a) < F.q - 1 for a in range(1, F.generator))


@pytest.mark.parametrize("p,m,modulus", [
    # p divides m: Newton's identities meet k c_(m-k) with p | k
    (3, 3, None), (3, 6, None), (3, 9, None), (5, 5, None),
    (3, 2, None), (3, 4, None), (5, 3, None), (7, 4, None), (11, 5, None),
    (13, 3, None), (3, 5, (1, 2, 0, 0, 0, 1)), (3, 4, (2, 0, 0, 2, 1))])
def test_newton_trace_basis_equals_frobenius_sum(p, m, modulus):
    F = get_field(p, m, modulus)
    assert F._trace_basis() == [_frobenius_trace(F, p**j) for j in range(m)]
    for x in random.Random(q := F.q).sample(range(q), min(q, 60)):
        assert F.trace(x) == _frobenius_trace(F, x), x


# the oracle trace on each of GF(199999)'s elements is too slow for this suite
@pytest.mark.parametrize("p,m,modulus", [f for f in TABLE_FIELDS if f[0] != 199999])
def test_digit_matrix_and_trace_table_match_scalar_forms(p, m, modulus):
    # the digit matrix is digit_codes of the unit columns
    F = get_field(p, m, modulus)
    eye = np.eye(m, dtype=np.int64)
    dm = np.stack([F.digit_codes(eye[:, [j]]) for j in range(m)], axis=1)
    assert dm.shape == (F.q, m)
    assert np.array_equal(F.digit_codes(eye), np.arange(F.q))
    assert all(tuple(dm[x].tolist()) == F.digits(x) for x in F.elements())
    assert trace_table(F).tolist() == [_frobenius_trace(F, x) for x in F.elements()]


@pytest.mark.parametrize("p,m,dtype", [(3, 9, np.uint8), (19, 2, np.uint8),
                                       (251, 2, np.uint8), (257, 2, np.uint16),
                                       (65537, 1, np.uint32)])
def test_digit_matrix_is_narrow_and_digit_products_are_exact(p, m, dtype):
    # the trace windows that the digit products read are in the smallest
    # unsigned dtype that holds p - 1; the products against the same
    # products on int64 digit vectors
    F = get_field(p, m)
    assert F.trace_mul_log(1).dtype == dtype
    wide = _digit_vectors(p, m)
    rng = np.random.default_rng(F.q)
    for k in (1, m):
        mat = rng.integers(0, p, size=(m, k))
        got = F.digit_codes(mat)
        want = (wide @ mat % p) @ p ** np.arange(k)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    gram = rng.integers(0, p, size=(m, m))
    gram = (gram + gram.T) % p
    form = F.digit_form(gram)
    assert form.dtype == np.int64
    assert np.array_equal(form, np.einsum("ij,jk,ik->i", wide, gram, wide) % p)


@pytest.mark.parametrize("p,m", [(3, 9), (7, 4), (19, 3), (257, 2), (65537, 1),
                                 (199999, 1)])
def test_digit_codes_and_form_codes_are_exact(p, m):
    # the window products against Python-int arithmetic on the digits of
    # every element (all p - 1 at q - 1, the largest products); digit_form
    # with codes gives both
    F = get_field(p, m)
    rng = np.random.default_rng(p + m)
    n = F.q
    k = max(1, m - 2)
    mat = rng.integers(0, p, size=(m, k))
    mat[0] = p - 1
    gram = rng.integers(0, p, size=(m, m))
    gram = (gram + gram.T) % p
    gram[0, 0] = p - 1
    ints = _digit_vectors(p, m).astype(object)
    assert ints[-1].tolist() == [p - 1] * m
    want_codes = [sum(int(c) * p**j for j, c in enumerate(r)) for r in ints @ mat % p]
    want_form = [int(v) for v in np.einsum("ij,jk,ik->i", ints, gram.astype(object), ints) % p]
    codes = F.digit_codes(mat)
    assert codes.dtype == np.int64 and codes.tolist() == want_codes
    form = F.digit_form(gram)
    assert form.dtype == np.int64 and form.tolist() == want_form
    both = F.digit_form(gram, codes=mat)
    assert [a.tolist() for a in both] == [want_form, want_codes]
    assert F.digit_form(gram, codes=mat[:, :0])[1].tolist() == [0] * n


@pytest.mark.parametrize("p,m", [(3, 1), (3, 5), (5, 3), (7, 4), (19, 2), (3, 11)])
def test_trace_dual_reads_a_linear_functional_as_a_trace(p, m):
    # Tr(c x) = digits(x) . v for random v, at random x and on the whole
    # log-order window that beta_classes scatters through the exp table
    F = get_field(p, m)
    rng = random.Random(p * 31 + m)
    place = p ** np.arange(m, dtype=np.int64)
    for _ in range(5):
        v = [rng.randrange(p) for _ in range(m)]
        c = F.trace_dual(v)
        assert F.trace_mul_vector(c).tolist() == v
        for x in rng.sample(range(F.q), min(F.q, 20)):
            assert F.trace(F.mul(c, x)) == np.dot(F.digits(x), v) % p
        exp = F._exp.astype(np.int64)
        assert np.array_equal(F.trace_mul_log(c), (exp[:, None] // place % p) @ v % p)


GOLDEN_TABLES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "field_tables.json").read_text())


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("pin", GOLDEN_TABLES, ids=lambda d: f"{d['p']}^{d['m']}")
def test_field_tables_match_pinned_digests(pin):
    # digests recorded from the per-element construction this one replaced:
    # modulus, generator and the exp, log and trace tables byte for byte
    F = ExtField(pin["p"], pin["m"])
    assert list(F.modulus) == pin["modulus"]
    assert F.generator == pin["generator"]
    assert _sha256(F._exp) == pin["exp_sha256"]
    assert _sha256(F._log) == pin["log_sha256"]
    assert _sha256(trace_table(F)) == pin["trace_sha256"]


def test_scalar_methods_return_python_ints():
    # a numpy scalar leaking out of the tables breaks json.dumps on the CLI
    F = ExtField(3, 5, [1, 2, 0, 0, 0, 1])
    x, y = 17, 200
    values = [F.mul(x, y), F.inv(x), F.pow(x, 5), F.pow(x, -3), F.pow(0, 0),
              F.frobenius(x, 2), F.trace(x), F.eta(x), F.eta(0),
              F.parse_element("g^7"), F.parse_element("g"), F.generator]
    assert all(type(v) is int for v in values), [type(v) for v in values]
    json.dumps(values)


# ---------------------------------------------------------------------------
# the two scalar paths: digit rows before the tables exist, tables after
# ---------------------------------------------------------------------------

def _tables_unbuilt(F):
    return (F._exp_array is None and F._log_array is None
            and F._trace_powers is None and F._exp_at is None)


def _scalar_results(F, xs, ys, es):
    out = []
    for x, y, e in zip(xs, ys, es):
        out += [F.mul(x, y), F.trace(x), F.eta(x), F.pow(x, 0), F.pow(y, e),
                F.pow(x, F.q - 1), F.pow(x, 3 * (F.q - 1) + 2),
                F.parse_element(f"g^{e}"), F.parse_element(f"g^{-e}")]
        out += [F.frobenius(x, i) for i in range(F.m)]
        if x:
            out += [F.inv(x), F.pow(x, -e), F.pow(x, -1)]
    return out


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 3), (7, 4),
                                 (3, 9), (3, 11), (11, 5)])
def test_digit_path_and_table_path_agree(p, m):
    fresh, built = ExtField(p, m), ExtField(p, m)
    built._exp  # the first read builds the tables
    assert _tables_unbuilt(fresh) and not _tables_unbuilt(built)
    rng = random.Random(p**m)
    xs = [0, 1, fresh.generator, fresh.q - 1] + [rng.randrange(fresh.q) for _ in range(60)]
    ys = [rng.randrange(fresh.q) for _ in xs]
    es = [rng.randrange(1, 3 * fresh.q) for _ in xs]
    digit = _scalar_results(fresh, xs, ys, es)
    assert _tables_unbuilt(fresh)  # every answer above came from digit rows
    table = _scalar_results(built, xs, ys, es)
    assert digit == table
    assert all(type(v) is int for v in digit + table)


@pytest.mark.parametrize("built", [False, True])
def test_both_scalar_paths_raise_the_same_errors(built):
    F = ExtField(5, 3)
    if built:
        F._exp
    with pytest.raises(ZeroDivisionError, match="0 has no multiplicative inverse"):
        F.inv(0)
    with pytest.raises(ZeroDivisionError, match="0 has no negative powers"):
        F.pow(0, -1)
    for i in (-1, 3, 10):
        with pytest.raises(PreconditionViolatedError, match=rf"frobenius index {i} outside"):
            F.frobenius(7, i)
    # a non-integer element raises TypeError and one outside [-q, q)
    # IndexError on both paths; with the tables built, the TypeError is
    # not taken for unbuilt tables
    for bad, error in ((1.5, TypeError), (F.q, IndexError),
                       (-F.q - 1, IndexError), (10**30, IndexError)):
        for op in (F.mul, F.pow, F.frobenius):
            with pytest.raises(error):
                op(bad, 2)
        with pytest.raises(error):
            F.mul(2, bad)
        for op in (F.inv, F.trace, F.eta):
            with pytest.raises(error):
                op(bad)
    # the tables wrap a negative index, and so do the digit rows
    assert F.trace(-1) == F.trace(F.q - 1) and F.mul(-1, -2) == F.mul(F.q - 1, F.q - 2)
    # -q wraps to the element 0, which the log table reads as it reads 1
    zero = -F.q
    assert F.mul(zero, 7) == F.mul(7, zero) == F.mul(zero, zero) == 0
    with pytest.raises(ZeroDivisionError, match="0 has no multiplicative inverse"):
        F.inv(zero)
    assert F.pow(zero, 2) == 0 and F.pow(zero, 0) == 1
    with pytest.raises(ZeroDivisionError, match="0 has no negative powers"):
        F.pow(zero, -1)
    assert [F.frobenius(zero, i) for i in range(F.m)] == [0] * F.m
    assert F.trace(zero) == F.eta(zero) == 0
    assert _tables_unbuilt(F) != built


@pytest.mark.parametrize("p,m", [(3, 11), (7, 6), (11, 5)])
def test_predict_builds_no_table_past_the_brute_cap(p, m, capsys):
    import qcode.counting as counting_mod
    import qcode.quadform as quadform_mod
    from qcode.cli import main

    counting_mod.get_field.cache_clear()
    quadform_mod.analyze.cache_clear()
    for preset, alpha in (("cor1:u=1", "1"), ("cor1:u=g^3", "g^5")):
        argv = ["--p", str(p), "--m", str(m), "--preset", preset, "--alpha", alpha]
        assert main(["predict", *argv]) == 0
        assert main(["analyze", *argv]) == 0
    F = get_field(p, m)
    assert _tables_unbuilt(F)
    assert F._trace_powers is None
    capsys.readouterr()


def _scan_default_modulus(p, m):
    # the rule as stated: the first monic irreducible in encoding order
    for enc in range(p**m):
        coeffs = [enc // p**i % p for i in range(m)] + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial")


DEFAULT_MODULUS_FIELDS = [(p, m) for p in range(3, 280) if is_prime(p)
                          for m in range(2, 11) if p**m <= 5**7]


def test_default_modulus_matches_the_irreducibility_scan():
    for p, m in DEFAULT_MODULUS_FIELDS:
        assert ExtField._default_modulus(p, m) == _scan_default_modulus(p, m), (p, m)


# The stacked matrix-power test the Frobenius orbit replaced, kept as the
# oracle: x^(p^m) = x mod f read as row 0 of C^(p^m), and the rank step on
# C^(p^(m/l)) - C, each by binary powers of the companion matrix C.

def _stacked_rank_step(comp, p):
    m = len(comp)
    return all(field_mod.rank(field_mod._mat_pow(comp, p ** (m // ell), p) - comp, p) == m
               for ell in field_mod.prime_factors(m))


def _stacked_is_irreducible(coeffs, p):
    m = len(coeffs) - 1
    comp = field_mod._companion(np.asarray(coeffs[:m], dtype=np.int64) % p, p)
    return (np.array_equal(field_mod._mat_pow(comp, p**m, p), comp)
            and _stacked_rank_step(comp, p))


def _stacked_default_modulus(p, m):
    if m == 1:
        return [0, 1]
    q = p**m
    powers = np.arange(p, dtype=np.int64) ** np.arange(m + 1, dtype=np.int64)[:, None] % p
    x = np.eye(m, dtype=np.int64)[1]
    lo, size = 0, 8
    while lo < q:
        low = np.arange(lo, min(lo + size, q), dtype=np.int64)[:, None] // (
            p ** np.arange(m, dtype=np.int64)) % p
        low = low[((low @ powers[:m] + powers[m]) % p).all(axis=1)]
        comps = field_mod._companion(low, p)
        fixed = (field_mod._mat_pow(comps, q, p)[:, 0] == x).all(axis=1)
        for coeffs, comp in zip(low[fixed].tolist(), comps[fixed]):
            if _stacked_rank_step(comp, p):
                return coeffs + [1]
        lo, size = lo + size, 2 * size
    raise AssertionError("no irreducible polynomial")


# every (p, m) the field-size cap admits with p <= 19, and two past it
STACKED_ORACLE_FIELDS = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19)
                         for m in range(1, 12) if p**m <= field_mod._MAX_FIELD_SIZE]
STACKED_ORACLE_FIELDS += [(3, 20), (7, 20)]


def test_default_modulus_matches_the_stacked_power_oracle():
    # through _default_modulus, so the two fields past the cap need no ExtField
    for p, m in STACKED_ORACLE_FIELDS:
        assert ExtField._default_modulus(p, m) == _stacked_default_modulus(p, m), (p, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_is_irreducible_matches_the_stacked_power_oracle(p):
    rng = random.Random(7919 * p)
    verdicts = set()
    for m in range(1, 9):
        for _ in range(12):
            coeffs = [rng.randrange(p) for _ in range(m)] + [1]
            expected = _stacked_is_irreducible(coeffs, p)
            assert is_irreducible(coeffs, p) == expected, coeffs
            verdicts.add((m > 1, expected))
    # both verdicts past degree 1, where the rank step can decide
    assert verdicts >= {(True, True), (True, False)}
    # squarefree products of distinct irreducibles whose degrees divide m
    # (1 + 2 + 3 = 6, 2 + 2 = 4) pass x^(p^m) = x, so the rank step alone
    # must refuse them
    low = {d: [c for c in _monic(p, d) if _stacked_is_irreducible(c, p)][:2]
           for d in (1, 2, 3)}
    for factors in ([low[1][0], low[2][0], low[3][0]], low[2][:2]):
        f = [1]
        for g in factors:
            f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) % p
                 for k in range(len(f) + len(g) - 1)]
        m = len(f) - 1
        comp = field_mod._companion(np.asarray(f[:m], dtype=np.int64), p)
        orbit = field_mod._frobenius_orbit(comp, p)
        assert np.array_equal(orbit[m], orbit[0])
        assert not is_irreducible(f, p) and not _stacked_is_irreducible(f, p)


def test_frobenius_orbit_reads_the_stacked_powers_of_c():
    # row k of the orbit is row 0 of C^(p^k), irreducible f or not
    for p, coeffs in [(3, [2, 0, 1, 0, 0, 0, 0, 0, 1]), (5, [1, 1, 1, 1]),
                      (7, [0, 0, 1, 2, 1]), (13, [12, 0, 1]), (199_999, [3, 1, 1])]:
        m = len(coeffs) - 1
        comp = field_mod._companion(np.asarray(coeffs[:m], dtype=np.int64), p)
        orbit = field_mod._frobenius_orbit(comp, p)
        for k in range(m + 1):
            assert np.array_equal(orbit[k], field_mod._mat_pow(comp, p**k, p)[0]), (p, k)


def test_field_holds_no_element_length_python_list():
    F = get_field(3, 7)
    for name, value in vars(F).items():
        if isinstance(value, (list, tuple)):
            assert len(value) < F.m + 2, name


def test_table_buffers_are_read_only():
    F = get_field(3, 4)
    for table in (F._exp, F._log, F._trace_powers):
        with pytest.raises(ValueError):
            table[1] = 0
    for view in (F._exp_at, F._log_at, F._trace_at):
        with pytest.raises(TypeError):
            view[1] = 0
    assert F.mul(3, 3) == _oracle_mul(F, 3, 3)


def test_predict_leaves_digit_matrix_unbuilt(capsys, monkeypatch):
    import qcode.counting as counting_mod
    import qcode.quadform as quadform_mod
    from qcode.cli import main

    counting_mod.get_field.cache_clear()
    quadform_mod.analyze.cache_clear()
    argv = ["--p", "3", "--m", "5", "--preset", "cor1:u=1", "--alpha", "1"]
    assert main(["predict", *argv]) == 0
    F = get_field(3, 5)
    # control: build reads the tables, so the check in
    # test_predict_builds_no_table_past_the_brute_cap can fail
    assert main(["build", *argv]) == 0
    assert not _tables_unbuilt(F)

    # the generator is searched on its first read only.  Past the spot
    # check (3^9), integer-spelled predict and analyze build no table and
    # spell no g^k, so they never search; verify builds the code, whose
    # tables are written in g, so it searches once
    pin = next(d for d in GOLDEN_TABLES if (d["p"], d["m"]) == (3, 9))
    searches = []
    search = ExtField._find_generator
    monkeypatch.setattr(ExtField, "_find_generator",
                        lambda self: searches.append((self.p, self.m)) or search(self))
    argv = ["--p", "3", "--m", "9", "--preset", "cor1:u=1", "--alpha", "1"]
    counting_mod.get_field.cache_clear()
    quadform_mod.analyze.cache_clear()
    for command in ("predict", "analyze", "predict", "analyze"):
        assert main([command, *argv]) == 0
    F = get_field(3, 9)
    assert searches == [] and F._generator is None and _tables_unbuilt(F)
    assert main(["verify", *argv]) == 0
    assert searches == [(3, 9)] and F.generator == pin["generator"]
    assert not _tables_unbuilt(F)
    # a g^k spelling, a read of .generator and a table build each search
    # once on a fresh field, and find the pinned generator
    counting_mod.get_field.cache_clear()
    quadform_mod.analyze.cache_clear()
    assert main(["predict", *argv[:-1], "g^3"]) == 0
    F = get_field(3, 9)
    assert _tables_unbuilt(F) and F._generator == pin["generator"]
    for read in (lambda F: F.generator, lambda F: F._exp[1]):
        F = ExtField(3, 9)
        assert F._generator is None
        assert read(F) == pin["generator"]
    assert searches == [(3, 9)] * 4
    capsys.readouterr()


def test_get_field_spellings_share_one_entry():
    get_field.cache_clear()
    assert get_field(3, 5) is get_field(3, 5, None) is get_field(3, 5, ())
    modulus = [1, 2, 0, 0, 0, 1]
    assert get_field(3, 5, modulus) is get_field(3, 5, tuple(modulus))
    info = get_field.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


@pytest.mark.parametrize("p,m", [(3, 12), (3, 10**6), (3, 10**8), (5, 8),
                                 (10**30 + 57, 1), (200_003, 1)])
def test_size_cap_checked_before_p_to_the_m(p, m):
    # 3^(10^8) alone takes minutes, and 3^(10^6) has too many digits for
    # str(); the cap must reject both without forming p^m
    with pytest.raises(PreconditionViolatedError, match="cap"):
        ExtField(p, m)


# ---------------------------------------------------------------------------
# hyperplane counts over GF(p)^m
# ---------------------------------------------------------------------------

def _digit_vectors(p, m):
    """(p^m, m) digits of every encoding, by integer division."""
    x = np.arange(p**m)
    return np.stack([x // p**j % p for j in range(m)], axis=1)


@pytest.mark.parametrize("p,m", [(3, 5), (5, 3), (7, 2)])
def test_level_set_counts_reproduce_the_joint_histogram(p, m):
    # the p level sets of f as a k = p stack: C[v, t_e, s] counts x with
    # f(x) = v and Tr(e x) = s, which is _histogram(an, e)
    F = get_field(p, m)
    v = next(v for v in F.nonzero_elements() if F.trace(F.mul(v, v)))
    rng = random.Random(p * 100 + m)
    place = p ** np.arange(m)
    for f in (preset_cor1(F, F.generator), preset_trace_square_minus(F, v)):
        an = analyze(f)
        fv = f.values()
        counts = hyperplane_counts(p, m, np.stack([fv == c for c in range(p)]))
        for e in [rng.randrange(F.q) for _ in range(50)]:
            t_e = int(F.trace_mul_vector(e) @ place)
            assert np.array_equal(counts[:, t_e, :], _histogram(an, e)), (f.coeffs, e)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 5), (5, 3), (7, 2),
                                 (11, 2), (13, 2), (17, 1)])
def test_hyperplane_counts_match_direct_enumeration(p, m):
    q = p**m
    rows = np.random.default_rng(q).integers(0, 2, size=(3, q))
    digits = _digit_vectors(p, m)
    dots = digits @ digits.T % p  # dots[x, t] = digits(x) . t
    expected = np.stack([rows @ (dots == s) for s in range(p)], axis=-1)
    counts = hyperplane_counts(p, m, rows)
    assert counts.dtype == np.int32
    assert np.array_equal(counts, expected)


def test_hyperplane_counts_refuse_a_row_past_exact_float32():
    # float32 holds every integer below 2^24, so a row weighing 2^24 - 1 is
    # counted exactly; one weighing 2^24 is refused, also below a light row
    light = np.array([[2**24 - 2, 1, 0]])
    counts = hyperplane_counts(3, 1, light)
    assert counts.dtype == np.int32
    assert counts[0].tolist() == [[2**24 - 1, 0, 0], [2**24 - 2, 1, 0],
                                  [2**24 - 2, 0, 1]]
    heavy = np.array([[1, 1, 1], [2**24 - 1, 1, 0]])
    with pytest.raises(PreconditionViolatedError, match="2\\^24"):
        hyperplane_counts(3, 1, heavy)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 8), (5, 5), (7, 4), (13, 3), (19, 2)])
def test_full_space_counts_are_hyperplane_sizes(p, m):
    # t = 0 puts every point at s = 0; any other t splits GF(p)^m into p
    # parallel hyperplanes of q/p points
    q = p**m
    counts = hyperplane_counts(p, m, np.ones((1, q), dtype=np.int64))
    assert counts.dtype == np.int32 and counts.shape == (1, q, p)
    assert counts[0, 0].tolist() == [q] + [0] * (p - 1)
    assert (counts[0, 1:] == q // p).all()
