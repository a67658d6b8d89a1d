import random
import tracemalloc

import numpy as np
import pytest

import qcode.codes as codes_mod
from qcode.codes import (
    code_json,
    defining_set,
    enumerator_string,
    generator_matrix,
    generator_matrix_csv,
    parse_enumerator,
    proportional_pairs,
    weight_distribution,
    weight_of,
)
from qcode.counting import BRUTE_MAX_P, analysis_pool, get_field, predict_root_count
from qcode.errors import (
    DimensionCollapseError,
    EmptyDefiningSetError,
    PreconditionViolatedError,
    QCodeError,
)
from qcode.field import ExtField
from qcode.quadform import FormAnalysis, analyze, preset_cor1, preset_trace_square_minus

from oracles import pow_of_basis, trace_table


def example1_set():
    F = get_field(3, 4)
    return defining_set(analyze(preset_cor1(F, 1)), 1)


# ---------------------------------------------------------------------------
# defining sets
# ---------------------------------------------------------------------------

def test_defining_set_small_and_sorted():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    ds = defining_set(an, 1)
    assert ds.length == 1
    assert list(ds.elements) == sorted(set(ds.elements))
    for d in ds.elements:
        assert d != 0
        assert (an.f.evaluate(d) - F.trace(F.mul(1, d))) % F.p == 0


def test_defining_set_size_links_to_count():
    rng = random.Random(1)
    for p, m in [(3, 3), (3, 4), (5, 2)]:
        for an in analysis_pool(p, m, rng, extra=2):
            for _ in range(4):
                alpha = rng.randrange(an.ctx.q)
                try:
                    ds = defining_set(an, alpha)
                except EmptyDefiningSetError:
                    assert predict_root_count(an, alpha) == 1
                    continue
                assert ds.length == predict_root_count(an, alpha) - 1


def test_defining_set_example1_length():
    assert example1_set().length == 29


def test_homogeneous_defining_set():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    ds = defining_set(an, 0)
    assert ds.homogeneous
    want = [x for x in F.nonzero_elements() if an.f.evaluate(x) == 0]
    assert list(ds.elements) == want


def test_empty_defining_set():
    F = get_field(3, 1)
    an = analyze(preset_cor1(F, 1))  # x^2 has no nonzero roots
    with pytest.raises(EmptyDefiningSetError):
        defining_set(an, 0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_of_zero_and_scaling():
    ds = example1_set()
    F = ds.ctx
    assert weight_of(0, ds) == 0
    rng = random.Random(4)
    for _ in range(10):
        beta = rng.randrange(1, F.q)
        for z in range(1, F.p):
            assert weight_of(beta, ds) == weight_of(F.scalar_mul(z, beta), ds)


def test_weight_of_matches_direct_count():
    ds = example1_set()
    F = ds.ctx
    for beta in list(F.elements())[::7]:
        direct = sum(1 for d in ds.elements if F.trace(F.mul(beta, d)) != 0)
        assert weight_of(beta, ds) == direct


def test_example1_max_weight():
    ds = example1_set()
    F = ds.ctx
    assert max(weight_of(b, ds) for b in F.elements()) == 24


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_example1_distribution_modes_agree():
    ds = example1_set()
    for mode in ("naive", "analytic", "both"):
        wd = weight_distribution(ds, mode)
        assert (wd.n, wd.k, wd.d_min) == (29, 4, 18)
        assert wd.counts == {0: 1, 18: 44, 21: 30, 24: 6}


def test_example4_distribution():
    F = get_field(3, 3)
    wd = weight_distribution(defining_set(analyze(preset_cor1(F, 1)), 1))
    assert (wd.n, wd.k) == (8, 3)
    assert wd.counts == {0: 1, 4: 6, 5: 6, 6: 8, 7: 6}


def test_theorem2_instance_distribution():
    # trmv with Tr(v alpha) != 0 routes outside the image: n = p^(m-1) - 1.
    # At degree 4 this is the [26, 4] three-weight code; the degree-5 run
    # gives n = 80 (the published row stating [26] at degree 5 is the
    # known swapped-degree misprint).
    F4 = get_field(3, 4)
    wd4 = weight_distribution(defining_set(
        analyze(preset_trace_square_minus(F4, 1)), 1))
    assert wd4.n == 26
    assert wd4.counts == {0: 1, 15: 24, 18: 44, 21: 12}
    F5 = get_field(3, 5)
    wd5 = weight_distribution(defining_set(
        analyze(preset_trace_square_minus(F5, 1)), 1))
    assert (wd5.n, wd5.k) == (80, 5)


def test_distribution_structural_invariants_sweep():
    rng = random.Random(12)
    checked = 0
    for p, m in [(3, 3), (3, 4), (5, 2), (5, 3)]:
        for an in analysis_pool(p, m, rng, extra=2):
            alpha = rng.randrange(1, an.ctx.q)
            try:
                wd = weight_distribution(defining_set(an, alpha), "both")
            except (DimensionCollapseError, EmptyDefiningSetError):
                continue
            p_ = an.ctx.p
            assert sum(wd.counts.values()) == p_**wd.k
            assert sum(w * c for w, c in wd.counts.items()) \
                == wd.n * (p_ - 1) * p_ ** (wd.k - 1)
            assert all(c % (p_ - 1) == 0 for w, c in wd.counts.items() if w)
            assert wd.d_min == min(w for w in wd.counts if w)
            checked += 1
    assert checked >= 20


SMALL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]


def small_forms(F):
    """cor1 with u = 1 and u = g, and trmv with the first v that has
    Tr(v^2) != 0."""
    v = next(v for v in F.nonzero_elements() if F.trace(F.mul(v, v)))
    return [preset_cor1(F, 1), preset_cor1(F, F.generator),
            preset_trace_square_minus(F, v)]


def test_naive_transform_matches_weight_of():
    # every beta, for every alpha with a nonempty defining set
    alpha_zero = collapses = 0
    for p, m in SMALL_FIELDS:
        F = get_field(p, m)
        for f in small_forms(F):
            an = analyze(f)
            for alpha in F.elements():
                try:
                    ds = defining_set(an, alpha)
                except EmptyDefiningSetError:
                    continue
                weights = codes_mod._weights_naive(ds)
                assert weights.tolist() == [weight_of(b, ds) for b in F.elements()], \
                    (p, m, f.coeffs, alpha)
                alpha_zero += alpha == 0
                if (p, m, f.coeffs, alpha) == (3, 2, (1, 0), 1):
                    # the dimension-collapse case: two nonzero betas give 0
                    collapses += 1
                    assert np.count_nonzero(weights[1:] == 0) == 2
    assert alpha_zero and collapses == 1


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2), (3, 5)])
def test_trace_dual_coordinates_give_every_trace(p, m):
    # the naive route's identity Tr(beta d) = digits(beta) . w(d) (mod p),
    # w(d) = the row of d across _trace_dual's m columns, on every (beta, d)
    # with d != 0 (a set holding every nonzero element), against a field
    # multiplication and the trace table
    F = get_field(p, m)
    tr = trace_table(F)
    ds = codes_mod.DefiningSet(analyze(preset_cor1(F, 1)), 0, np.arange(1, F.q))
    dual = np.stack(codes_mod._trace_dual(ds), axis=1)
    assert dual.dtype == F._digit_dtype and dual.shape == (F.q - 1, m)
    digits = np.array([F.digits(b) for b in F.elements()], dtype=np.int64)
    via_dual = digits @ dual.astype(np.int64).T % p
    direct = [[tr[F.mul(b, d)] for d in F.nonzero_elements()] for b in F.elements()]
    assert via_dual.tolist() == direct


def test_weight_routes_and_pairs_at_the_largest_brute_p():
    # p = BRUTE_MAX_P = 19 with uint8 digits, where lambda * digit reaches
    # 18 * 18 > 255: both weight routes against weight_of on every beta,
    # and the proportional pairs against a count by field multiplication
    p, m = BRUTE_MAX_P, 2
    F = get_field(p, m)
    assert F.trace_mul_log(1).dtype == np.uint8
    rng = random.Random(19)
    checked = 0
    for f in small_forms(F):
        an = analyze(f)
        for alpha in (0, 1, rng.randrange(2, F.q)):
            try:
                ds = defining_set(an, alpha)
            except EmptyDefiningSetError:
                continue
            want = [weight_of(b, ds) for b in F.elements()]
            assert codes_mod._weights_naive(ds).tolist() == want, (f.coeffs, alpha)
            assert codes_mod._weights_analytic(ds).tolist() == want, (f.coeffs, alpha)
            members = set(ds.elements)
            ordered = sum(F.mul(lam, d) in members
                          for d in ds.elements for lam in range(2, p))
            assert proportional_pairs(ds) * 2 == ordered
            checked += ordered > 0
    assert checked


def test_build_route_peak_memory_per_element():
    # tracemalloc peak of defining_set plus both weight routes on a fresh
    # 3^9 field, per element: about 149 bytes with int32/uint8 tables and
    # form values, 169 with them in int64, and 292 when every digit product
    # made a (q, m) int64 array.
    # A new (q, m) int64 temporary adds 8m = 72 and fails the bound.
    F = ExtField(3, 9)
    an = FormAnalysis(preset_cor1(F, 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weight_distribution(defining_set(an, 1), "both")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / F.q < 220


@pytest.mark.parametrize("p,m", [(3, 8), (7, 4)])
def test_build_route_retained_bytes_per_element(p, m):
    # nbytes of what the field and the form's analysis keep after
    # defining_set and both weight routes, per element: int32 exp and log
    # (4 + 4), the doubled uint8 log-order traces (2), uint8 log_values
    # (1) and the class tables (int32 syndrome codes, int8 f(x_b) and
    # Q(X(b)): 6).  Build keeps no x_b table and no digit array.  Any one
    # of them in int64 adds 3 bytes or more.
    F = ExtField(p, m)
    f = preset_cor1(F, 1)
    an = FormAnalysis(f)
    weight_distribution(defining_set(an, 1), "both")
    assert an._xb_table is None
    kept = (F._exp, F._log, F._trace_powers,
            f.log_values(), an._f_xb_table, an._qx_table, an._syn_table)
    assert sum(table.nbytes for table in kept) <= 17 * F.q


def test_both_mode_raises_on_disagreement(monkeypatch):
    analytic = codes_mod._weights_analytic

    def off_by_one(ds):
        weights = analytic(ds)
        weights[5] += 1
        return weights

    monkeypatch.setattr(codes_mod, "_weights_analytic", off_by_one)
    with pytest.raises(QCodeError, match="disagree at beta=5"):
        weight_distribution(example1_set(), "both")


def test_analytic_route_evaluates_one_beta_per_class(monkeypatch):
    # at most p^2 + 1 closed-form evaluations per code, never one per beta
    real = codes_mod.predict_hyperplane_root_count
    calls = []

    def counted(an, alpha, beta):
        calls.append(beta)
        return real(an, alpha, beta)

    monkeypatch.setattr(codes_mod, "predict_hyperplane_root_count", counted)
    for p, m in [(3, 4), (3, 5), (5, 3), (7, 3)]:
        F = get_field(p, m)
        for f in small_forms(F):
            an = analyze(f)
            alphas = [1, next(a for a in F.nonzero_elements() if not an.in_image(a))
                      ] if an.rank < m else [1]
            for alpha in alphas:
                calls.clear()
                try:
                    weight_distribution(defining_set(an, alpha), "both")
                except DimensionCollapseError:
                    continue
                assert 0 < len(calls) <= p * p + 1 < F.q - 1
                assert len(set(calls)) == len(calls)


def test_proportional_pairs_match_direct_count():
    # {d, lambda d} inside D, counted with field multiplications; alpha = 0
    # gives a defining set closed under scaling, so P = n(p-2)/2
    rng = random.Random(5)
    positive = 0
    for p, m in [(3, 3), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2), (3, 6)]:
        for an in analysis_pool(p, m, rng, extra=2):
            F = an.ctx
            for alpha in (0, rng.randrange(1, F.q)):
                try:
                    ds = defining_set(an, alpha)
                except EmptyDefiningSetError:
                    continue
                members = set(ds.elements)
                ordered = sum(F.scalar_mul(lam, d) in members
                              for d in ds.elements for lam in range(2, p))
                assert proportional_pairs(ds) * 2 == ordered
                if alpha == 0:
                    assert ordered == ds.length * (p - 2)
                positive += ordered > 0
    assert positive


def test_second_pless_moment_rejects_a_wrong_pair_count():
    F = get_field(5, 3)
    ds = defining_set(analyze(preset_cor1(F, 1)), 0)
    wd = weight_distribution(ds, "naive")
    pairs = proportional_pairs(ds)
    assert pairs > 0
    wd.validate(F.p, pairs)
    for wrong in (pairs - 1, pairs + 1, 0):
        with pytest.raises(QCodeError, match="second power moment"):
            wd.validate(F.p, wrong)


def test_dimension_collapse_detected_with_witness():
    # anisotropic rank-2 at p=3 with nonzero special value: two nonzero
    # indices carry the zero codeword, so the dimension claim fails
    F = get_field(3, 2)
    ds = defining_set(analyze(preset_cor1(F, 1)), 1)
    with pytest.raises(DimensionCollapseError) as exc:
        weight_distribution(ds, "naive")
    witness = exc.value.witness
    assert witness and weight_of(witness, ds) == 0


def test_unknown_mode_rejected():
    with pytest.raises(PreconditionViolatedError):
        weight_distribution(example1_set(), "fast")


# ---------------------------------------------------------------------------
# enumerator text
# ---------------------------------------------------------------------------

def test_enumerator_string_examples():
    from qcode.codes import WeightDistribution

    wd = WeightDistribution(29, 4, {0: 1, 18: 44, 21: 30, 24: 6})
    assert enumerator_string(wd) == "1+44z^18+30z^21+6z^24"
    assert enumerator_string(WeightDistribution(0, 1, {0: 1})) == "1"


def test_enumerator_roundtrip_random():
    from qcode.codes import WeightDistribution

    rng = random.Random(8)
    for _ in range(40):
        counts = {0: 1}
        for _ in range(rng.randrange(1, 6)):
            counts[rng.randrange(1, 300)] = rng.randrange(1, 10**6)
        wd = WeightDistribution(300, 5, counts)
        assert parse_enumerator(enumerator_string(wd)) == counts


# ---------------------------------------------------------------------------
# generator matrices and exports
# ---------------------------------------------------------------------------

def test_generator_matrix_rank_and_row_additivity():
    F = get_field(3, 3)
    ds = defining_set(analyze(preset_cor1(F, 1)), 1)
    G = generator_matrix(ds)
    assert len(G) == 3 and len(G[0]) == 8
    # codeword of x^0 + x^1 is the row sum
    combined = [(a + b) % 3 for a, b in zip(G[0], G[1])]
    beta = F.add(pow_of_basis(F, 0), pow_of_basis(F, 1))
    direct = [F.trace(F.mul(beta, d)) for d in ds.elements]
    assert combined == direct


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2)])
def test_generator_matrix_rows_are_basis_codewords(p, m):
    # row j holds Tr(x^j d) for d in D, by field multiplication and trace
    F = get_field(p, m)
    ds = defining_set(analyze(preset_cor1(F, 1)), 1)
    assert generator_matrix(ds) == [
        [F.trace(F.mul(pow_of_basis(F, j), d)) for d in ds.elements]
        for j in range(m)]


def test_generator_matrix_rowspace_census_matches_enumerator():
    F = get_field(3, 3)
    ds = defining_set(analyze(preset_cor1(F, 1)), 1)
    G = np.asarray(generator_matrix(ds))
    census = {}
    for c0 in range(3):
        for c1 in range(3):
            for c2 in range(3):
                word = (c0 * G[0] + c1 * G[1] + c2 * G[2]) % 3
                w = int(np.count_nonzero(word))
                census[w] = census.get(w, 0) + 1
    assert census == weight_distribution(ds).counts


def test_generator_matrix_csv_shape():
    F = get_field(3, 3)
    ds = defining_set(analyze(preset_cor1(F, 1)), 1)
    text = generator_matrix_csv(ds)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert all(len(line.split()) == 8 for line in lines)


def test_code_json_schema():
    ds = example1_set()
    payload = code_json(ds, weight_distribution(ds))
    assert set(payload) == {"p", "m", "modulus", "coeffs", "alpha", "length",
                            "dimension", "min_distance",
                            "weight_distribution", "enumerator"}
    assert payload["alpha"] == "1"
    assert payload["weight_distribution"] == {"18": 44, "21": 30, "24": 6}
