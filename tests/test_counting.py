import gc
import itertools
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qcode.counting import (
    BRUTE_MAX_P,
    IDENTITY_IDS,
    REQUIRED_BRANCHES,
    LemmaParams,
    analysis_pool,
    brute_count,
    get_field,
    lemma_oracle,
    lemma_sweep,
    level_count,
    phase_sum,
    pool_size,
    predict_hyperplane_root_count,
    predict_root_count,
    sweep_one_lemma,
    unit_sum,
    _closed_18,
    _partition_closed,
    _pencil_closed,
    _s23_closed,
)
import qcode.counting as counting
from qcode.cyclotomic import (
    CycNum,
    gauss_sum_prime,
    pstar,
    pstar_fraction_power,
    sigma_unit_sum,
)
from qcode.errors import (
    MissingParamError,
    QCodeError,
    NonIntegralPredictionError,
    PreconditionViolatedError,
)
from qcode.field import eta_bar
from qcode.quadform import (
    QuadraticFunction,
    analyze,
    preset_cor1,
    preset_trace_square_minus,
)

from oracles import l_apply, trace_mul_all


def _brute_roots(an, alpha):
    F = an.ctx
    return brute_count(F, lambda x: (an.f.evaluate(x)
                                     - F.trace(F.mul(alpha, x))) % F.p == 0)


# ---------------------------------------------------------------------------
# the quadratic Gauss-sum helpers Phi, U and N
# ---------------------------------------------------------------------------

def test_unit_sum_matches_galois_sum_of_phase_sum():
    checks = 0
    for p in (3, 5, 7, 11):
        for k in range(7):
            m = max(k, 1)
            for s in (1, -1):
                phi = phase_sum(p, m, k, s)
                for z in range(p):
                    want = sigma_unit_sum(phi * CycNum.zeta_pow(p, z))
                    assert want.is_rational(), (p, k, s, z)
                    assert unit_sum(p, m, k, s, z) == want.rational_value(), \
                        (p, k, s, z)
                    checks += 1
    assert checks == 2 * 7 * (3 + 5 + 7 + 11)


def test_phase_sum_and_level_count_match_diagonal_forms():
    # Q = a_1 x_1^2 + ... + a_k x_k^2 on GF(p)^m has rank k and sign
    # eta_bar((-1)^k a_1 ... a_k); its value histogram is counted directly
    checks = 0
    for p, max_m in ((3, 4), (5, 3), (7, 2)):
        for m in range(1, max_m + 1):
            digits = np.indices((p,) * m).reshape(m, -1)
            for k in range(m + 1):
                for lead in range(1, p) if k else (1,):
                    coeffs = [lead] + [1] * (k - 1) if k else []
                    values = sum(a * digits[i] ** 2
                                 for i, a in enumerate(coeffs)) % p
                    counts = np.bincount(np.broadcast_to(values, (p**m,)),
                                         minlength=p).tolist()
                    s = eta_bar((-1) ** k * lead, p)
                    assert phase_sum(p, m, k, s) \
                        == CycNum.from_exponent_counts(p, counts)
                    for t in range(p):
                        assert level_count(p, m, k, s, t) == counts[t], \
                            (p, m, k, lead, t)
                        checks += 1
    assert checks > 300


# ---------------------------------------------------------------------------
# brute counting
# ---------------------------------------------------------------------------

def test_brute_count_whole_field():
    F = get_field(3, 3)
    assert brute_count(F, lambda x: True) == 27


def test_brute_count_hyperplane():
    F = get_field(3, 3)
    for beta in (1, 5, 20):
        assert brute_count(F, lambda x: F.trace(F.mul(beta, x)) == 0) == 9


def test_brute_count_form_zeros_matches_prediction():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    assert brute_count(F, lambda x: an.f.evaluate(x) == 0) \
        == predict_root_count(an, 0)


# ---------------------------------------------------------------------------
# the two closed-form counters the code builder consumes
# ---------------------------------------------------------------------------

def test_root_count_gf9_nonzero_special_value():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    assert predict_root_count(an, 1) == 2 == _brute_roots(an, 1)


def test_root_count_outside_image():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(F, 1))
    alpha = next(a for a in F.nonzero_elements() if not an.in_image(a))
    assert predict_root_count(an, alpha) == 27 == _brute_roots(an, alpha)


def test_root_count_odd_rank_zero_special_value():
    F = get_field(3, 3)
    an = analyze(preset_cor1(F, 1))  # f(x_alpha) = Tr(alpha^2)/4 = 0 for all
    assert predict_root_count(an, 1) == 9 == _brute_roots(an, 1)


def test_root_count_matches_brute_randomized():
    rng = random.Random(17)
    for p, m in [(3, 3), (3, 4), (5, 2)]:
        pool = analysis_pool(p, m, rng, extra=3)
        for an in pool:
            for _ in range(6):
                alpha = rng.randrange(an.ctx.q)
                assert predict_root_count(an, alpha) == _brute_roots(an, alpha)


def test_hyperplane_count_matches_brute_randomized():
    # every (alpha, beta) of small fields, degree 1 included, so that the
    # derived count meets every id-15 branch; I:en:zz (x_beta isotropic,
    # orthogonal to x_alpha, outside Ker(L)) needs even rank >= 4
    rng = random.Random(23)
    pool = [an for p, m in [(3, 1), (5, 1), (7, 1), (3, 3), (5, 2)]
            for an in analysis_pool(p, m, rng, extra=3)]
    pool.append(analyze(preset_cor1(get_field(3, 4), 1)))
    seen = set()
    for an in pool:
        F = an.ctx
        fv = an.f.values()
        for alpha in F.elements():
            roots = (fv - trace_mul_all(F, alpha)) % F.p == 0
            for beta in F.nonzero_elements():
                want = int(np.count_nonzero(roots & (trace_mul_all(F, beta) == 0)))
                assert predict_hyperplane_root_count(an, alpha, beta) == want
                res, = lemma_oracle(15, LemmaParams(analysis=an, alpha=alpha,
                                                    beta=beta))
                assert res.equal and res.closed == str(want)
                seen.add(res.branch)
    assert seen >= set(REQUIRED_BRANCHES[15])


def _s5_tree(p, m, r, s, fa, fb, tab, fprime):
    """S5 and its finest label by the case tree it was once transcribed
    as, kept as the oracle for the derivation c U(k, s', z) from S4."""
    even = r % 2 == 0
    u = s * p**m * pstar_fraction_power(
        p, -(r // 2) if even else -((r - 1) // 2))
    zero = Fraction(0)
    if fa is None:
        if fprime is None:
            return zero, "II:even:out" if even else "II:odd:out"
        if even:
            if fprime == 0:
                return (p - 1) * u, "II:even:f0"
            return -u, "II:even:fnz"
        if fprime == 0:
            return zero, "II:odd:f0"
        return eta_bar(-fprime, p) * u, "II:odd:fnz"
    bout = fb is None
    if not bout:
        e = (-fa + tab * tab * pow(4 * fb, -1, p)) % p if fb else 0
    if even and fa == 0:
        if bout:
            return (p - 1) * u, "I:ez:bout"
        if fb == 0 and tab == 0:
            return (p - 1) * p * u, "I:ez:zz"
        if fb == 0 or tab == 0:
            return zero, "I:ez:mixed"
        return eta_bar(-1, p) * pstar(p) * u, "I:ez:nznz"
    if even:
        if bout:
            return -u, "I:en:bout"
        if fb == 0 and tab == 0:
            return -p * u, "I:en:zz"
        if e == 0:
            return zero, "I:en:zeros"
        return eta_bar(-fb * e, p) * pstar(p) * u, "I:en:Enz"
    if fa == 0:
        if bout:
            return zero, "I:oz:bout"
        if fb == 0:
            return zero, "I:oz:fb0"
        if tab == 0:
            return eta_bar(-fb, p) * (p - 1) * u, "I:oz:tr0"
        return -eta_bar(-fb, p) * u, "I:oz:trnz"
    ea = eta_bar(-fa, p)
    if bout:
        return ea * u, "I:on:bout"
    if fb == 0 and tab == 0:
        return ea * p * u, "I:on:zz"
    if fb == 0:
        return zero, "I:on:znz"
    if e == 0:
        return ea * (p - 1) * u, "I:on:E0"
    return -eta_bar(-fb, p) * u, "I:on:Enz"


def _pair_invariant_tuples(p):
    """Every (fa, fb, tab, fprime) that _pair_invariants can return."""
    yield None, None, None, None
    for v in range(p):
        yield None, None, None, v
        yield v, None, None, None
        for fb in range(p):
            for tab in range(p):
                yield v, fb, tab, None


def test_s5_from_s4_terms_matches_the_case_tree():
    # S5 = c U(k, s', z) on S4's terms, with its label from the suffix
    # table, against the case tree on every invariant tuple, rank and sign
    derived = counting._pencil_case.__wrapped__
    labels = set()
    for p in (3, 5, 7, 11):
        tuples = list(_pair_invariant_tuples(p))
        for m in range(1, 5):
            for r in range(m + 1):
                for s in (1, -1):
                    for inv in tuples:
                        want = _s5_tree(p, m, r, s, *inv)
                        got = derived(p, m, r, s, *inv)[2:]
                        assert got == want and type(got[0]) is Fraction, (
                            p, m, r, s, inv)
                        labels.add(got[1])
    assert len(labels) == 23
    for lemma_id in (14, 15):
        reported = {counting._S5_LABELS[lemma_id].get(b, b) for b in labels}
        assert set(REQUIRED_BRANCHES[lemma_id]) <= reported


def _s23_tree(p, m, r, s, fb):
    """(S2, its branch, S3, its branch) by the case tree they were once
    transcribed as, kept as the oracle for S4 and S5 at alpha = 0."""
    if fb is None:
        k, s2, c, branch = r, s, 1, "outside"
    elif fb == 0:
        k, s2, c, branch = r, s, p, "in_zero"
    else:
        k, s2, c, branch = r - 1, s * eta_bar(-fb, p), 1, "in_nonzero"
    parity = "even" if r % 2 == 0 else "odd"
    return (phase_sum(p, m, k, s2).scale(c), f"S2:{branch}",
            c * unit_sum(p, m, k, s2, 0), f"{parity}:{branch}")


def test_s2_s3_from_the_pencil_at_alpha_zero_match_the_case_tree():
    # S2 = S4(0, beta) and S3 = S5(0, beta) with their labels, against the
    # case tree on every f(x_beta), rank and sign
    labels_10, labels_11 = {"S1"}, set()
    for p in (3, 5, 7, 11):
        for m in range(1, 5):
            for r in range(m + 1):
                for s in (1, -1):
                    for fb in (None, *range(p)):
                        want = _s23_tree(p, m, r, s, fb)
                        terms, *rest = counting._pencil_at_zero(p, m, r, s, fb)
                        got = (counting._s4_value(p, m, terms), *rest)
                        assert got == want, (p, m, r, s, fb)
                        assert type(got[0]) is CycNum, (p, m, r, s, fb)
                        assert type(got[2]) is Fraction, (p, m, r, s, fb)
                        labels_10 |= {got[1], f"S3:{got[3]}"}
                        labels_11.add(got[3])
    assert set(REQUIRED_BRANCHES[10]) <= labels_10
    assert set(REQUIRED_BRANCHES[11]) <= labels_11


def test_closed_forms_are_constant_on_beta_classes():
    # the class route and the branch-fill scan evaluate S5 (ids 14, 15)
    # and S4 (id 13) at one beta per class, and S3 (ids 10, 11) at one
    # beta per class of alpha = 0; every beta of a class must give the
    # same value and label, and S4 and S5 must be functions of the class
    # key across every alpha of a form, since the scan memoises labels on it
    # at p = 19 the key f(x_b) p + Tr(alpha x_b) reaches 360, past uint8;
    # there every 8th alpha is checked, against every beta
    rng = random.Random(43)
    pool = [an for p, m in [(3, 1), (5, 1), (3, 2), (3, 3), (5, 2), (19, 2)]
            for an in analysis_pool(p, m, rng, extra=2)]
    outside = 0
    for an in pool:
        F = an.ctx
        by_key = {}
        for alpha in range(0, F.q, 1 if F.q < 200 else 8):
            keys, cls, reps = an.beta_classes(alpha)
            s45 = [_pencil_closed(an, alpha, beta) for beta in reps.tolist()]
            for key, value in zip(keys.tolist(), s45):
                assert by_key.setdefault(key, value) == value
            for beta in F.nonzero_elements():
                c = cls[beta - 1]
                assert _pencil_closed(an, alpha, beta) == s45[c]
            outside += not an.in_image(alpha)
        _, cls, reps = an.beta_classes(0)
        s3 = [_s23_closed(an, beta)[2:] for beta in reps.tolist()]
        for beta in F.nonzero_elements():
            assert _s23_closed(an, beta)[2:] == s3[cls[beta - 1]]
    assert outside


# the fields on which the branch fill's streams are checked
_FILL_FIELDS = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]


@pytest.mark.parametrize("lemma_id", (5, 6, 7, 8, 9, 16, 17, 18, 19))
def test_fill_keys_fix_the_branches(lemma_id):
    # the branch fill runs closed() once per form and key of each stream
    # (_streams), so closed() must give every parameter set of a stream the
    # branches of its key's first one; ids 10, 11 and 13-15 are keyed by
    # beta_classes, whose premise the test above checks
    rng = random.Random(44)
    closed = counting._REGISTRY[lemma_id][0]

    def branches(params):
        return {branch for branch, _, _ in closed(params)}

    checked = 0
    for p, m in _FILL_FIELDS:
        pool = analysis_pool(p, m, rng)
        for an, key, firsts, make in counting._streams(lemma_id, pool):
            keys = key.tolist()
            assert firsts == {k: keys.index(k) for k in set(keys)}
            want = {k: branches(make(i)) for k, i in firsts.items()}
            for i, k in enumerate(keys):
                assert branches(make(i)) == want[k], (lemma_id, an, i)
            checked += len(keys)
    assert checked >= 300  # 44 622 parameter sets over the nine ids


def _plain_scan(lemma_id, pool):
    """(form, parameters) of the branch fill one at a time, in its order,
    with each image alpha drawn by image_draw."""
    if lemma_id == 6:
        p = pool[0].ctx.p
        for a, b, c in itertools.product(range(p), repeat=3):
            if (a * c - b * b) % p or a:
                yield None, {"p": p, "abc": (a, b, c)}
        return
    for an in pool:
        p, q = an.ctx.p, an.ctx.q
        if lemma_id in (5, 9):
            name = "beta" if lemma_id == 5 else "alpha"
            yield from ((an, {name: b}) for b in range(q))
        elif lemma_id == 7:
            yield from ((an, {"t": t}) for t in range(1, p))
        else:
            alphas, fw = an.image_tables()
            ts = {8: range(1, p), 17: range(p)}.get(lemma_id, [None])
            for w in range(q):
                if alphas[w] and (fw[w] == 0) == (lemma_id in (8, 19)):
                    alpha = an.image_draw(w)
                    yield from ((an, {"alpha": alpha, "t": t}) for t in ts)


@pytest.mark.parametrize("lemma_id", (5, 6, 7, 8, 9, 16, 17, 18, 19))
def test_fill_streams_visit_the_plain_scan_in_order(lemma_id):
    rng = random.Random(45)
    pool = [an for p, m in _FILL_FIELDS[:5]
            for an in analysis_pool(p, m, rng, extra=2)]
    got = []
    for _, key, _, make in counting._streams(lemma_id, pool):
        got += [make(i) for i in range(len(key))]
    assert got == [LemmaParams(analysis=an, **kw)
                   for an, kw in _plain_scan(lemma_id, pool)]
    # encodings stay Python ints, which a report's JSON needs
    assert all(type(v) is int for params in got
               for v in (params.alpha, params.beta, params.t) if v is not None)


def test_lemma_oracle_refuses_id_6_past_the_characteristic_cap():
    # id 6 carries p alone, no field; its p^2 brute loop is still capped
    t0 = time.perf_counter()
    with pytest.raises(PreconditionViolatedError, match="characteristic 4001"):
        lemma_oracle(6, LemmaParams(p=4001, abc=(1, 0, 1)))
    assert time.perf_counter() - t0 < 0.1
    res, = lemma_oracle(6, LemmaParams(p=BRUTE_MAX_P, abc=(1, 0, 1)))
    assert res.equal


def test_hyperplane_count_requires_nonzero_beta():
    F = get_field(3, 3)
    an = analyze(preset_cor1(F, 1))
    with pytest.raises(PreconditionViolatedError):
        predict_hyperplane_root_count(an, 1, 0)


# ---------------------------------------------------------------------------
# registry spot checks
# ---------------------------------------------------------------------------

def test_identity_5_full_sum_value():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    results = lemma_oracle(5, LemmaParams(analysis=an, beta=0))
    full = next(r for r in results if r.branch == "I")
    assert full.equal
    assert full.closed == CycNum.from_rational(3, 3).to_text()


def test_identity_6_degenerate_value():
    res, = lemma_oracle(6, LemmaParams(p=3, abc=(1, 0, 0)))
    assert res.branch == "degenerate" and res.equal
    assert res.closed == gauss_sum_prime(3).scale(3).to_text()


def test_identity_7_level_count_gf9():
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    res, = lemma_oracle(7, LemmaParams(analysis=an, t=1))
    assert res.branch == "even" and res.equal and res.brute == "2"


def test_identity_8_even_rank_uses_derived_variant():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))  # rank 4
    alpha = next(a for a in F.nonzero_elements() if an.f_at_xb(a) == 0)
    res, = lemma_oracle(8, LemmaParams(analysis=an, alpha=alpha, t=1))
    assert res.branch == "even_rank_derived_variant"
    assert res.equal and "irrational" in res.note


def test_identity_9_odd_nonzero_notes_printed_off_by_one():
    F = get_field(3, 3)
    an = analyze(preset_cor1(F, F.generator))
    alpha = next(a for a in F.nonzero_elements()
                 if an.f_at_xb(a) not in (None, 0))
    res, = lemma_oracle(9, LemmaParams(analysis=an, alpha=alpha))
    assert res.branch == "odd_nonzero" and res.equal
    assert "spurious +1" in res.note
    # the printed variant really is off by exactly one
    assert int(res.closed) + 1 == _brute_roots(an, alpha) + 1


def test_identity_13_records_companion_map_reading():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(F, 1))
    alpha = next(a for a in F.nonzero_elements() if not an.in_image(a))
    res, = lemma_oracle(13, LemmaParams(analysis=an, alpha=alpha,
                                        beta=F.scalar_mul(2, alpha)))
    assert res.branch == "II:in_union" and res.equal
    assert "L(x')" in res.note


def test_identity_18_flags_printed_e_sign():
    # find an instance where the two sign readings differ; the plus sign
    # must match and the note must record the failing minus value
    rng = random.Random(9)
    pool = analysis_pool(3, 4, rng) + analysis_pool(5, 2, rng)
    seen_diff = False
    for an in pool:
        if an.rank % 2 == 0:
            continue
        F = an.ctx
        for w in range(F.q):
            alpha = F.neg(F.scalar_mul(2, l_apply(an, w)))
            if alpha == 0 or an.f_at_xb(alpha) == 0:
                continue
            results = lemma_oracle(18, LemmaParams(analysis=an, alpha=alpha))
            assert all(r.equal for r in results)
            if any(r.note and "minus sign" in r.note for r in results):
                seen_diff = True
                break
        if seen_diff:
            break
    assert seen_diff


def _partition_tree(p, m, r, s, ea):
    """Id 18's case tree as it was once transcribed, in exact Fractions,
    kept as the oracle for the counts read off the closed histogram."""
    base = Fraction(p) ** (m - 2)
    if r % 2 == 0:
        x = s * p * pstar_fraction_power(p, -(r // 2))
        closed = {
            "I1": base,
            "I2": (p - 1) * base * (2 + x),
            "I3": Fraction(p - 1, 2) * Fraction(p) ** (m - 1) * (1 - x),
            "I4": Fraction((p - 1) * (p - 2), 2) * base * (1 + x),
        }
    else:
        w = s * ea * pstar_fraction_power(p, -((r - 1) // 2))
        closed = {
            "J1": (p - 1) * base * (1 + (p - 1) * w),
            "J2": Fraction((p - 1) * (p - 2), 2) * base * (1 - w),
            "J3": base + ea * s * (p - 1) * base
                  * pstar_fraction_power(p, -((r - 1) // 2)),
            "J4": (p - 1) * base * (1 - w),
            "J5": (p - 1) * base * (1 + (p - 1) * w),
            "J6": Fraction(p - 1, 2) * Fraction(p) ** (m - 1) * (1 - w),
        }
    return closed


def test_cached_partition_counts_match_the_case_tree():
    # the derived counts take f(x_alpha) itself, the tree only its square
    # class eta_bar(-f(x_alpha)), so every f(x_alpha) of a class must agree;
    # where the tree is no integer, the closed histogram has none either
    integral = 0
    for p in (3, 5, 7, 11, 13):
        for m in range(1, 7):
            for r in range(1, m + 1):
                for s in (1, -1):
                    for fa in range(1, p):
                        want = _partition_tree(p, m, r, s, eta_bar(-fa, p))
                        if any(v.denominator != 1 for v in want.values()):
                            with pytest.raises(NonIntegralPredictionError):
                                _partition_closed(p, m, r, s, fa)
                            continue
                        got = _partition_closed(p, m, r, s, fa)
                        assert got == [int(v) for v in want.values()], (
                            p, m, r, s, fa)
                        assert all(type(v) is int for v in got)
                        integral += 1
    assert integral > 400
    # _closed_18 reads those counts on the forms and alphas of real pools
    rng = random.Random(18)
    checked = 0
    for an in analysis_pool(3, 4, rng) + analysis_pool(5, 3, rng):
        F = an.ctx
        for alpha in range(1, F.q, 7):
            fa = an.f_at_xb(alpha)
            if not fa:
                continue
            ea = eta_bar(-fa, F.p)
            rows = _closed_18(LemmaParams(analysis=an, alpha=alpha))
            want = _partition_tree(F.p, F.m, an.rank, an.sign, ea)
            assert [(k, v) for k, v, _ in rows] == [
                (k, int(v)) for k, v in want.items()]
            checked += 1
    assert checked > 50


def test_identity_18_brute_reads_the_cached_counts(monkeypatch):
    an = analyze(preset_trace_square_minus(get_field(3, 4), 1))
    F = an.ctx
    alpha = next(a for a in F.nonzero_elements()
                 if an.f_at_xb(a) not in (None, 0))
    cached = counting._closed_histogram
    calls = []

    def counted(*key):
        calls.append(key)
        return cached(*key)

    monkeypatch.setattr(counting, "_closed_histogram", counted)
    cached.cache_clear()
    results = lemma_oracle(18, LemmaParams(analysis=an, alpha=alpha))
    assert all(r.equal for r in results)
    # closed() and brute() each read the closed histogram once; it was
    # built once
    assert len(calls) == 2 and calls[0] == calls[1]
    assert cached.cache_info().misses == 1


def _plane_level_tree(p, m, r, s, a):
    """Id 8's count as it was once transcribed, p^(m-2) + U(r, s, -a)/p in
    exact Fractions, kept as the oracle for the closed histogram."""
    return Fraction(p) ** (m - 2) + unit_sum(p, m, r, s, -a) / p


def _square_class_tree(p, m, r, s):
    """Id 19's (label, count, note) rows as they were once transcribed:
    the on-plane counts sum id 8's over the levels a of each square class
    of -a, and the off-plane counts are (p - 1)^2/2 p^(m-2) each."""
    onplane = [sum(_plane_level_tree(p, m, r, s, a) for a in range(1, p)
                   if eta_bar(-a, p) == sq) for sq in (1, -1)]
    offplane = Fraction((p - 1) ** 2, 2) * Fraction(p) ** (m - 2)
    if r % 2 == 1:
        return [("sq_tr0", onplane[0], None), ("nsq_tr0", onplane[1], None),
                ("sq_trnz", offplane, None), ("nsq_trnz", offplane, None)]
    note = ("printed closed forms are irrational for even rank; "
            "verified the Galois-sum variants instead")
    return [("even:sq_tr0", onplane[0], note),
            ("even:nsq_tr0", onplane[1], note),
            ("even:sq_trnz", offplane, note), ("even:nsq_trnz", offplane, note)]


def test_ids_8_and_19_from_the_closed_histogram_match_the_printed_rows():
    # H[a, 0] of the closed histogram at f(x_alpha) = 0 (id 8) and its
    # square-class cells (id 19), against the formulas once transcribed;
    # where those are no integers, the closed histogram has none either
    integral = 0
    for p in (3, 5, 7, 11, 13):
        for m in range(1, 7):
            for r in range(1, m + 1):
                for s in (1, -1):
                    want8 = [_plane_level_tree(p, m, r, s, a) for a in range(1, p)]
                    want19 = [v for _, v, _ in _square_class_tree(p, m, r, s)]
                    if any(v.denominator != 1 for v in want8 + want19):
                        with pytest.raises(NonIntegralPredictionError):
                            counting._closed_histogram(p, m, r, s, 0)
                        continue
                    h = counting._closed_histogram(p, m, r, s, 0)
                    assert [h[a, 0] for a in range(1, p)] == want8, (p, m, r, s)
                    assert counting._read_cells(
                        h, counting._square_class_cells) == want19, (p, m, r, s)
                    integral += 1
    assert integral > 100
    # _closed_8 and _closed_19 read them, labels and notes included, on the
    # forms and alphas of real pools
    rng = random.Random(19)
    checked = set()
    for an in analysis_pool(3, 4, rng) + analysis_pool(5, 3, rng):
        F = an.ctx
        alphas, fw = an.image_tables()
        for alpha in np.unique(alphas[(alphas != 0) & (fw == 0)]).tolist():
            rows = counting._closed_19(LemmaParams(analysis=an, alpha=alpha))
            want = _square_class_tree(F.p, F.m, an.rank, an.sign)
            assert rows == [(b, int(v), note) for b, v, note in want]
            for a in range(1, F.p):
                (branch, count, _), = counting._closed_8(
                    LemmaParams(analysis=an, alpha=alpha, t=a))
                assert count == _plane_level_tree(F.p, F.m, an.rank, an.sign, a)
                checked.add(branch)
    assert checked == set(REQUIRED_BRANCHES[8])


def test_closed_histogram_matches_the_enumerated_one():
    # H from Phi, U and N against _histogram(an, alpha) for every nonzero
    # alpha in Im(L) of each pool form, degree 1 included
    rng = random.Random(20)
    # f(x) p + Tr(alpha x) reaches 16 * 17 + 16 = 288 at p = 17, past the
    # uint8 range of log_values and trace_mul_log, so a site that combines
    # them without widening fails there
    specs = [(3, 1), (13, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
             (11, 2), (13, 2), (17, 2), (19, 2)]
    seen = {True: 0, False: 0}
    for p, m in specs:
        for an in analysis_pool(p, m, rng, extra=3):
            alphas, _ = an.image_tables()
            for alpha in np.unique(alphas[alphas != 0]).tolist():
                fa = an.f_at_xb(alpha)
                got = counting._closed_histogram(p, m, an.rank, an.sign, fa)
                assert np.array_equal(got, counting._histogram(an, alpha)), (
                    p, m, an.f.coeffs, alpha)
                seen[fa == 0] += 1
    assert seen[True] > 100 and seen[False] > 1000


def test_closed_sides_of_ids_8_18_and_19_enumerate_nothing(monkeypatch):
    # the two sides share _cell_map, so the closed side must read the
    # closed histogram, never f over the field nor an enumerated one
    rng = random.Random(21)
    pool = analysis_pool(3, 4, rng) + analysis_pool(5, 3, rng)
    draws = [(lemma_id, make(i)) for lemma_id in (8, 18, 19)
             for _, key, _, make in counting._streams(lemma_id, pool)
             for i in range(len(key))]
    for an in pool:
        an.solution_tables()

    def refuse(*_):
        raise AssertionError("a closed side enumerated the field")

    monkeypatch.setattr(counting, "_histogram", refuse)
    monkeypatch.setattr(QuadraticFunction, "log_values", refuse)
    monkeypatch.setattr(QuadraticFunction, "values", refuse)
    counting._closed_histogram.cache_clear()
    rows = {lemma_id: [] for lemma_id in (8, 18, 19)}
    for lemma_id, params in draws:
        rows[lemma_id].append(counting._REGISTRY[lemma_id][0](params))
    monkeypatch.undo()
    assert all(len(got) > 20 for got in rows.values())
    for lemma_id, params in draws[::5]:
        assert all(r.equal for r in lemma_oracle(lemma_id, params))


def test_identity_19_partition_of_offplane_counts():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(F, 1))  # rank 3
    alpha = next(a for a in F.nonzero_elements()
                 if an.in_image(a) and an.f_at_xb(a) == 0)
    results = lemma_oracle(19, LemmaParams(analysis=an, alpha=alpha))
    assert all(r.equal for r in results)
    got = {r.branch: int(r.brute) for r in results}
    # the four counts plus {f = 0} and {f != 0, Tr != 0 ...} tile GF(q)
    zeros = brute_count(F, lambda x: an.f.evaluate(x) == 0)
    total = sum(got.values()) + zeros
    assert total == F.q


def test_missing_and_invalid_params():
    F = get_field(3, 3)
    an = analyze(preset_cor1(F, 1))
    with pytest.raises(MissingParamError):
        lemma_oracle(7, LemmaParams(analysis=an))
    with pytest.raises(MissingParamError):
        lemma_oracle(12, LemmaParams(analysis=an))
    with pytest.raises(PreconditionViolatedError):
        lemma_oracle(7, LemmaParams(analysis=an, t=0))
    with pytest.raises(PreconditionViolatedError):
        lemma_oracle(16, LemmaParams(analysis=an, alpha=1))  # f(x_a) = 0 here


def test_lemma_oracle_refuses_out_of_range_alpha_and_beta():
    # beta = -1 once wrapped to 26 on 3^3 and reported a passing check
    F = get_field(3, 3)
    an = analyze(preset_cor1(F, 1))
    for bad in (-1, F.q, -F.q - 1):
        with pytest.raises(PreconditionViolatedError, match="beta encoding"):
            lemma_oracle(5, LemmaParams(analysis=an, beta=bad))
        with pytest.raises(PreconditionViolatedError, match="alpha encoding"):
            lemma_oracle(9, LemmaParams(analysis=an, alpha=bad))
        with pytest.raises(PreconditionViolatedError, match="alpha encoding"):
            lemma_oracle(14, LemmaParams(analysis=an, alpha=bad, beta=1))
        with pytest.raises(PreconditionViolatedError, match="beta encoding"):
            lemma_oracle(14, LemmaParams(analysis=an, alpha=1, beta=bad))


# ---------------------------------------------------------------------------
# cross-identity consistency ties
# ---------------------------------------------------------------------------

def test_level_counts_tile_the_field():
    # counts of f = t over all t, via identity 7 closed forms plus the
    # zero-level count from identity 9 at alpha = 0
    rng = random.Random(31)
    for p, m in [(3, 3), (5, 2)]:
        F = get_field(p, m)
        for _ in range(4):
            f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
            an = analyze(f)
            if an.rank == 0:
                continue
            total = predict_root_count(an, 0)
            for t in range(1, p):
                res, = lemma_oracle(7, LemmaParams(analysis=an, t=t))
                total += int(res.closed)
            assert total == F.q


def test_deflated_level_counts_tile_the_field():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    alpha = next(a for a in F.nonzero_elements()
                 if an.f_at_xb(a) not in (None, 0))
    total = 0
    for t in range(F.p):
        results = lemma_oracle(17, LemmaParams(analysis=an, alpha=alpha, t=t))
        level = next(r for r in results if r.branch != "gsum")
        assert level.equal
        total += int(level.closed)
    assert total == F.q


def test_even_partition_counts_tile_the_field():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    alpha = next(a for a in F.nonzero_elements()
                 if an.f_at_xb(a) not in (None, 0))
    results = lemma_oracle(18, LemmaParams(analysis=an, alpha=alpha))
    assert sum(int(r.closed) for r in results) == F.q


def test_odd_partition_counts_tile_the_field():
    # J3 + J4 + J5 + J2 + J6 partitions GF(q) once J2 carries its E != 0
    # restriction (J1 duplicates J5 and stays out of the sum)
    an, = [a for a in [analyze(preset_trace_square_minus(get_field(3, 4), 1))]]
    F = an.ctx
    assert an.rank % 2 == 1
    alpha = next(a for a in F.nonzero_elements()
                 if an.in_image(a) and an.f_at_xb(a) not in (None, 0))
    results = lemma_oracle(18, LemmaParams(analysis=an, alpha=alpha))
    got = {r.branch: int(r.closed) for r in results}
    total = got["J2"] + got["J3"] + got["J4"] + got["J5"] + got["J6"]
    assert total == F.q
    assert got["J1"] == got["J5"]


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------

def test_sweep_is_deterministic():
    a = lemma_sweep([(3, 3)], trials=6, seed=77, lemma_ids=(9, 11))
    b = lemma_sweep([(3, 3)], trials=6, seed=77, lemma_ids=(9, 11))
    assert a == b


def test_sweep_report_does_not_depend_on_workers(monkeypatch):
    # the worker pool sweeps each id in a process of its own, seeded per
    # id; its report must equal the one-process report.  Two CPUs are
    # reported so that the pool starts on any machine.
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    pooled = lemma_sweep([(3, 2), (3, 3)], trials=20, seed=5, workers=2)
    assert pooled == lemma_sweep([(3, 2), (3, 3)], trials=20, seed=5, workers=1)


def test_sweep_covers_required_branches():
    rep = lemma_sweep([(3, 3), (3, 4)], trials=10, seed=5, lemma_ids=(9,))
    branches = rep["lemmas"]["9"]["branches"]
    for b in REQUIRED_BRANCHES[9]:
        assert branches.get(b, 0) >= 3
    assert rep["all_equal"]


def test_sweep_notes_required_branches_the_fill_cannot_reach():
    # at 3^3 no form reaches I:en:zz of ids 14 and 15: each report names
    # the branch with its count, and every id notes exactly its required
    # branches left below min_branch; all_equal still holds
    rep = lemma_sweep([(3, 3)], trials=20, seed=1, min_branch=3)
    assert rep["all_equal"]
    for lemma_id in ("14", "15"):
        sub = rep["lemmas"][lemma_id]
        assert "I:en:zz" not in sub["branches"]
        assert ("required branch I:en:zz reached 0 of 3 checks; "
                "the branch fill found no more") in sub["notes"]
    for lemma_id, sub in rep["lemmas"].items():
        short = {f"{b} reached {sub['branches'].get(b, 0)}"
                 for b in REQUIRED_BRANCHES[int(lemma_id)]
                 if sub["branches"].get(b, 0) < 3}
        noted = {note.removeprefix("required branch ").split(" of ")[0]
                 for note in sub["notes"] if note.startswith("required branch ")}
        assert noted == short, lemma_id


def test_image_draws_and_scans_call_neither_l_nor_the_solver(monkeypatch):
    """Ids 8 and 16-19 read alpha in Im(L) and f(x_alpha) off the per-form
    tables, in random draws and in the branch-fill scan alike."""
    rng = random.Random(3)
    pool = [counting.FormAnalysis(an.f)  # fresh memos
            for an in analysis_pool(3, 3, rng) + analysis_pool(5, 2, rng)]

    def refuse(*_):
        raise AssertionError("called on an alpha in Im(L) draw")

    monkeypatch.setattr(counting.FormAnalysis, "solve_xb", refuse)
    for lemma_id in (8, 16, 17, 18, 19):
        drawn = sweep_one_lemma(lemma_id, pool, trials=40, seed=1)
        scanned = sweep_one_lemma(lemma_id, pool, trials=0, seed=1)
        assert drawn.trials >= 40 and scanned.trials > 0
        assert drawn.all_equal and scanned.all_equal


@pytest.mark.parametrize("lemma_id", (8, 16))
def test_branch_fill_refuses_an_image_stream_that_disagrees(lemma_id):
    """The fill checks f(w) against the class table's f(x_alpha) over a
    form's whole alpha stream, as image_draw checks one draw: a corrupt
    entry at the last alpha of the even-rank form, far past the three
    checks the fill makes there, still stops it."""
    F = get_field(3, 4)
    pool = [counting.FormAnalysis(preset_trace_square_minus(F, 1)),
            counting.FormAnalysis(preset_cor1(F, 1))]
    assert [an.rank for an in pool] == [3, 4]
    rep = sweep_one_lemma(lemma_id, pool, trials=0, seed=1)
    alphas = pool[1].image_alphas(vanishing=lemma_id == 8)
    assert rep.all_equal and rep.trials == 6 and len(alphas) >= 20
    fxb = pool[1].solution_tables()[1]  # the f_at_xb memo, one entry per b
    fxb[alphas[-1]] = (int(fxb[alphas[-1]]) + 1) % F.p
    with pytest.raises(QCodeError, match="disagrees"):
        sweep_one_lemma(lemma_id, pool, trials=0, seed=1)


def test_branch_fill_windows_do_not_change_the_witnesses(monkeypatch):
    # the fill searches each key array a window at a time; windows far
    # shorter than the streams must find the same witnesses in order
    grid = [(3, 4), (5, 3), (7, 2)]
    want = lemma_sweep(grid, trials=1, seed=1)
    for window in (1, 7):
        monkeypatch.setattr(counting, "_FILL_WINDOW", window)
        assert lemma_sweep(grid, trials=1, seed=1) == want


def test_solving_draws_and_scans_never_run_the_solver(monkeypatch):
    """Ids 5, 9-11 and 13-15 read x_b, f(x_b) and syndromes off the
    solution tables, which the sweep builds first, so the scalar
    per-element solve (a digit row times the solve matrix, _solve_row)
    never runs, in random draws and in the branch-fill scan alike."""

    def fresh_pool():
        rng = random.Random(3)
        return [counting.FormAnalysis(an.f)  # no tables
                for an in analysis_pool(3, 3, rng) + analysis_pool(5, 2, rng)]

    def refuse(*_):
        raise AssertionError("scalar solve called in a registry sweep")

    monkeypatch.setattr(counting.FormAnalysis, "_solve_row", refuse)
    # control: without tables, solve_xb and in_shifted_image run it
    an = fresh_pool()[2]
    outside = next(b for b in range(1, an.ctx.q) if an.solution_tables()[0][b] < 0)
    for call in (lambda: counting.FormAnalysis(an.f).solve_xb(1),
                 lambda: counting.FormAnalysis(an.f).in_shifted_image(outside, 1)):
        with pytest.raises(AssertionError, match="scalar solve"):
            call()
    for lemma_id in (5, 9, 10, 11, 13, 14, 15):
        drawn = sweep_one_lemma(lemma_id, fresh_pool(), trials=40, seed=1)
        scanned = sweep_one_lemma(lemma_id, fresh_pool(), trials=0, seed=1)
        assert drawn.trials >= 40 and scanned.trials > 0
        assert drawn.all_equal and scanned.all_equal


def test_readout_memo_keys_on_the_constants(monkeypatch):
    """Checks whose histograms are equal but whose constants differ get
    their own readouts: c = 1/(4 f(x_alpha)) for ids 16 and 17, t for id
    17 and f(x_alpha) for id 18."""
    F = get_field(5, 2)
    an = analyze(preset_cor1(F, 1))
    alpha_of = {}
    for a in F.nonzero_elements():
        alpha_of.setdefault(an.f_at_xb(a), a)
    a1, a2 = alpha_of[1], alpha_of[2]
    h = counting._histogram(an, a1)
    monkeypatch.setattr(counting, "_histogram", lambda *_: h.copy())
    cases = {
        16: [LemmaParams(analysis=an, alpha=a) for a in (a1, a2)],
        17: [LemmaParams(analysis=an, alpha=a1, t=0),
             LemmaParams(analysis=an, alpha=a2, t=0),
             LemmaParams(analysis=an, alpha=a1, t=1)],
        18: [LemmaParams(analysis=an, alpha=a) for a in (a1, a2)],
    }
    for lemma_id, draws in cases.items():
        brute = counting._REGISTRY[lemma_id][1]
        memo = counting._ReadoutMemo()
        shared = [brute(params, memo) for params in draws]
        alone = [brute(params) for params in draws]
        assert shared == alone, lemma_id
        # the constants change the readout of this histogram
        assert len({repr(values) for values in alone}) == len(draws), lemma_id
        assert memo


def test_readout_memos_die_with_their_sweep(monkeypatch):
    made = []

    class Tracked(counting._ReadoutMemo):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(counting, "_ReadoutMemo", Tracked)
    pool = analysis_pool(3, 3, random.Random(2))
    for lemma_id in (5, 10, 13, 14, 16, 17, 18, 19):
        made.clear()
        held = []
        monkeypatch.setattr(Tracked, "__setitem__", lambda self, k, v: (
            held.append(k), dict.__setitem__(self, k, v)))
        assert sweep_one_lemma(lemma_id, pool, trials=30, seed=3).all_equal
        assert len(made) == 1 and held, lemma_id  # one memo, and it was used
        gc.collect()
        assert made[0]() is None, lemma_id
    # a lone check reads with a memo of its own, gone when it returns
    made.clear()
    lemma_oracle(14, LemmaParams(analysis=pool[0], alpha=1, beta=2))
    gc.collect()
    assert made and all(ref() is None for ref in made)


def test_pool_size_clamps_to_tasks_and_cpus():
    assert pool_size(8, 14, 2) == 2
    assert pool_size(8, 1, 4) == 1
    assert pool_size(3, 14, 16) == 3
    assert pool_size(0, 14, 4) == 1
    assert pool_size(4, 14, None) == 1


def test_identity_ids_are_stable():
    assert IDENTITY_IDS == (5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19)
