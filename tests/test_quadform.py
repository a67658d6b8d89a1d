import random

import numpy as np
import pytest

from qcode import quadform
from qcode.counting import _rank_one_form, analysis_pool, get_field
from qcode.cyclotomic import exp_sum, pstar_half_power
from qcode.errors import AlphaInImageError, PreconditionViolatedError, QCodeError
from qcode.field import ExtField, eta_bar
from qcode.linalg import rank
from qcode.quadform import (
    FormAnalysis,
    QuadraticFunction,
    analyze,
    gram_matrix,
    preset_cor1,
    preset_trace_square_minus,
    rank_and_sign,
)

from oracles import embed_scalar, kernel_elements, l_apply, pow_of_basis, trace_mul_all


def random_invertible(n, p, rng):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if rank(m, p) == n:
            return m


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_cor1_evaluates_to_trace_of_square():
    F = get_field(3, 2)
    f = preset_cor1(F, 1)
    for x in F.elements():
        assert f.evaluate(x) == F.trace(F.mul(x, x))
    assert f.evaluate(1) == 2  # Tr(1) = m mod p


def test_evaluate_zero_and_scaling():
    F = get_field(5, 2)
    rng = random.Random(3)
    f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(F.m)])
    assert f.evaluate(0) == 0
    for x in list(F.elements())[::3]:
        for c in range(F.p):
            assert f.evaluate(F.scalar_mul(c, x)) == c * c * f.evaluate(x) % F.p


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4),
                                 (5, 2), (5, 3), (7, 2)])
def test_values_matches_evaluate(p, m):
    F = get_field(p, m)
    v = next(v for v in F.nonzero_elements() if F.trace(F.mul(v, v)))
    for f in (preset_cor1(F, 1), preset_cor1(F, F.generator),
              preset_trace_square_minus(F, v)):
        assert f.values().tolist() == [f.evaluate(x) for x in F.elements()]


def test_log_values_sum_terms_past_the_uint8_range():
    # p = 131: the digit dtype is uint8, but a sum of two terms below p
    # reaches 260, so the terms are summed in a wider dtype
    F = ExtField(131, 2)
    f = QuadraticFunction(F, [F.generator, 1])
    assert f.log_values().dtype == np.uint8
    rng = random.Random(131)
    xs = [rng.randrange(F.q) for _ in range(300)]
    assert f.values()[xs].tolist() == [f.evaluate(x) for x in xs]


# ---------------------------------------------------------------------------
# coordinate matrix
# ---------------------------------------------------------------------------

def test_gram_matrix_gf9_square_trace():
    F = get_field(3, 2)
    assert gram_matrix(preset_cor1(F, 1)).tolist() == [[2, 0], [0, 1]]


def test_gram_matrix_zero_form():
    F = get_field(3, 3)
    assert gram_matrix(QuadraticFunction(F, [0, 0, 0])).tolist() == [[0] * 3] * 3


def test_gram_reproduces_form_exhaustively_gf81():
    F = get_field(3, 4)
    rng = random.Random(81)
    for _ in range(3):
        f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(F.m)])
        h = gram_matrix(f)
        for x in F.elements():
            d = F.digits(x)
            val = sum(d[j] * h[j][k] * d[k]
                      for j in range(F.m) for k in range(F.m)) % F.p
            assert val == f.evaluate(x)


def _gram_by_elements(f):
    # the element-loop formula the matrix route replaced: H[j][k] is half
    # of sum_i Tr(a_i ((x^j)^(p^i) x^k + x^j (x^k)^(p^i)))
    F = f.ctx
    p, m = F.p, F.m
    inv2 = (p + 1) // 2
    h = [[0] * m for _ in range(m)]
    for j in range(m):
        for k in range(j, m):
            vj, vk = pow_of_basis(F, j), pow_of_basis(F, k)
            acc = 0
            for i, a in enumerate(f.coeffs):
                if a:
                    term = F.add(F.mul(F.frobenius(vj, i), vk), F.mul(vj, F.frobenius(vk, i)))
                    acc = (acc + F.trace(F.mul(a, term))) % p
            h[j][k] = h[k][j] = acc * inv2 % p
    return h


def _rank_deficient_forms(F, rng):
    # (Tr(v x))^2 = sum_j Tr(v^(p^j+1) x^(p^j+1)) has rank 1, a sum of two
    # such rank at most 2, and the zero form rank 0
    def square_of_trace(v):
        return [F.mul(F.frobenius(v, j), v) for j in range(F.m)]

    one = square_of_trace(rng.randrange(1, F.q))
    two = [F.add(a, b) for a, b in zip(one, square_of_trace(rng.randrange(1, F.q)))]
    return [QuadraticFunction(F, c) for c in (one, two, [0] * F.m)]


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
                                 (3, 8), (3, 9), (5, 3), (7, 4), (13, 3)])
def test_gram_matrix_matches_the_element_formula(p, m):
    F = get_field(p, m)
    rng = random.Random(p * 1000 + m)
    v = next(v for v in F.nonzero_elements() if F.trace(F.mul(v, v)))
    forms = [QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)]) for _ in range(4)]
    forms += [preset_cor1(F, 1), preset_cor1(F, F.generator),
              preset_trace_square_minus(F, v)]
    forms += _rank_deficient_forms(F, rng)
    ranks = set()
    for f in forms:
        h = gram_matrix(f)
        assert h.tolist() == _gram_by_elements(f), f.coeffs
        assert h.dtype == np.int64
        ranks.add(rank_and_sign(h, p)[0])
    assert {0, 1, m - 1, m} <= ranks


@pytest.mark.parametrize("p,m", [(3, 11), (11, 5)])
def test_gram_matrix_reproduces_evaluate_past_the_spot_check(p, m):
    # _spot_check compares the matrix with every f(x) only up to 5^6
    F = get_field(p, m)
    rng = random.Random(p * 1000 + m)
    forms = [QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)]),
             preset_cor1(F, F.generator)] + _rank_deficient_forms(F, rng)[:2]
    for f in forms:
        h = np.asarray(gram_matrix(f), dtype=np.int64)
        for x in [rng.randrange(F.q) for _ in range(50)]:
            d = np.asarray(F.digits(x), dtype=np.int64)
            assert int(d @ h @ d) % p == f.evaluate(x), (f.coeffs, x)


# ---------------------------------------------------------------------------
# rank and sign
# ---------------------------------------------------------------------------

def test_rank_and_sign_explicit_values():
    assert rank_and_sign(np.array([[2, 0], [0, 1]]), 3) == (2, -1)
    assert rank_and_sign(np.zeros((2, 2), dtype=np.int64), 3) == (0, 1)


def test_sign_invariant_under_random_congruence():
    rng = random.Random(11)
    for p, m in [(3, 3), (5, 3)]:
        F = get_field(p, m)
        f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
        h = gram_matrix(f)
        r0, s0 = rank_and_sign(h, p)
        for _ in range(50):
            mtx = random_invertible(m, p, rng)
            h2 = mtx @ h @ mtx.T % p
            r2, s2 = rank_and_sign(h2, p)
            assert (r2, s2) == (r0, s0)


def test_cor1_rank_and_sign_formulas():
    # rank m and sign (-1)^(m-1) eta(-u), for square and nonsquare u
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]:
        F = get_field(p, m)
        for u in (1, F.generator):
            an = analyze(preset_cor1(F, u))
            assert an.rank == m
            assert an.sign == (-1) ** (m - 1) * F.eta(F.neg(u))


def test_cor1_sign_flips_with_eta_u():
    F = get_field(3, 4)
    s1 = analyze(preset_cor1(F, 1)).sign
    sg = analyze(preset_cor1(F, F.generator)).sign
    assert sg == s1 * F.eta(F.generator)


def test_trmv_rank_and_sign_formulas():
    for p, m in [(3, 4), (3, 5), (5, 3)]:
        F = get_field(p, m)
        v = next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))
        an = analyze(preset_trace_square_minus(F, v))
        tv2 = F.trace(F.mul(v, v))
        assert an.rank == m - 1
        assert an.sign == ((-1) ** (m - 1) * F.eta(F.neg(1))
                           * eta_bar(-tv2, p))


def test_sign_matches_full_phase_sum():
    # the one identity that pins the sign convention:
    # sum_x zeta^f(x) = sign * p^m * (p*)^(-rank/2)
    rng = random.Random(99)
    for p, m in [(3, 2), (3, 3), (5, 2)]:
        F = get_field(p, m)
        for _ in range(4):
            coeffs = [rng.randrange(F.q) for _ in range(m)]
            f = QuadraticFunction(F, coeffs)
            an = analyze(f)
            closed = pstar_half_power(p, -an.rank).scale(an.sign * p**m)
            assert exp_sum(F, f.values()) == closed


# ---------------------------------------------------------------------------
# the companion linearized map
# ---------------------------------------------------------------------------

def test_l_map_cor1():
    F = get_field(3, 3)
    u = F.generator
    an = analyze(preset_cor1(F, u))
    for x in F.elements():
        assert l_apply(an, x) == F.mul(u, x)


def test_l_map_trmv():
    F = get_field(3, 5)
    an = analyze(preset_trace_square_minus(F, 1))
    tv2 = F.trace(1)
    coef = F.scalar_mul(pow(tv2, F.p - 2, F.p), 1)
    for x in list(F.elements())[::7]:
        want = F.sub(x, F.mul(coef, embed_scalar(F, F.trace(x))))
        assert l_apply(an, x) == want


def test_bilinear_identity_all_pairs_gf81():
    F = get_field(3, 4)
    rng = random.Random(7)
    f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(F.m)])
    an = analyze(f)
    for x in F.elements():
        fx = f.evaluate(x)
        lx = l_apply(an, x)
        for y in F.elements():
            lhs = f.evaluate(F.add(x, y))
            rhs = (fx + f.evaluate(y) + 2 * F.trace(F.mul(lx, y))) % F.p
            assert lhs == rhs


@pytest.mark.parametrize("p, m", [(3, 3), (5, 2), (3, 5), (7, 3)])
def test_spot_check_catches_a_corrupted_gram_entry_or_l_coefficient(p, m):
    # q <= 81 checks evaluate at every x, larger fields at 24 sampled x;
    # the Gram identity runs at every x on both.  A wrong entry of lmat
    # breaks T lmat = G, the bilinear identity for every pair.
    F = get_field(p, m)
    rng = random.Random(p * 100 + m)
    f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
    an = FormAnalysis(f)  # a private copy: analyze() would cache the corruption
    an._spot_check()
    for j, k in ((0, 0), (m - 1, 0)):
        saved = an.gram[j][k]
        an.gram[j][k] = (saved + 1) % p
        with pytest.raises(QCodeError, match="matrix does not reproduce"):
            an._spot_check()
        an.gram[j][k] = saved
    good = an.lmat.copy()
    for j, k in ((0, 0), (m - 1, 0), (0, m - 1)):
        an.lmat[j, k] = (good[j, k] + rng.randrange(1, p)) % p
        with pytest.raises(QCodeError, match="bilinear identity fails"):
            an._check_bilinear()
        an.lmat[:] = good
    an._check_bilinear()


@pytest.mark.parametrize("p, m", [(3, 11), (19, 4)])
def test_construction_checks_lmat_against_the_gram_matrix_past_the_spot_check(
        p, m, monkeypatch):
    # the spot check never runs at these sizes; T lmat = G does
    F = get_field(p, m)
    assert not quadform._spot_check_enabled(F)
    rng = random.Random(p * 100 + m)
    f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
    FormAnalysis(f)
    j, k = rng.randrange(m), rng.randrange(m)
    shift = rng.randrange(1, p)
    gram = quadform.gram_matrix

    def wrong_gram(form):
        h = gram(form)
        h[j, k] = (h[j, k] + shift) % p
        h[k, j] = h[j, k]
        return h

    monkeypatch.setattr(quadform, "gram_matrix", wrong_gram)
    with pytest.raises(QCodeError, match="bilinear identity fails"):
        FormAnalysis(f)
    monkeypatch.undo()
    # a wrong L: the multiplication matrix of one coefficient of L, off in
    # one entry
    mul_matrix = F._mul_matrix
    c0 = next(c for c in FormAnalysis(f).l_coeffs if c)

    def wrong_mul_matrix(c):
        out = mul_matrix(c)
        if c == c0:
            out[j, k] = (out[j, k] + shift) % p
        return out

    monkeypatch.setattr(F, "_mul_matrix", wrong_mul_matrix)
    with pytest.raises(QCodeError, match="bilinear identity fails"):
        FormAnalysis(f)


def test_rank_of_gram_equals_rank_of_map_sweep():
    rng = random.Random(2024)
    combos = [(p, m) for p in (3, 5, 7) for m in (2, 3, 4, 5, 6)
              if p**m <= 200_000]
    instances = 0
    while instances < 200:
        p, m = combos[rng.randrange(len(combos))]
        F = get_field(p, m)
        f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
        an = analyze(f)  # raises internally if the two ranks disagree
        assert rank(an.lmat, p) == an.rank
        instances += 1


def test_kernel_size_matches_rank():
    rng = random.Random(5)
    for p, m in [(3, 3), (3, 4), (5, 2)]:
        F = get_field(p, m)
        for _ in range(4):
            f = QuadraticFunction(F, [rng.randrange(F.q) for _ in range(m)])
            an = analyze(f)
            brute_kernel = [x for x in F.elements() if l_apply(an, x) == 0]
            assert len(brute_kernel) == p ** (m - an.rank)
            assert kernel_elements(an) == sorted(brute_kernel)


def test_form_vanishes_on_kernel_and_coset_invariance():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(
        F, next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))))
    assert an.rank < F.m
    kernel = kernel_elements(an)
    for k in kernel:
        assert an.f.evaluate(k) == 0
    for b in list(F.elements())[::5]:
        xb = an.solve_xb(b)
        if xb is None:
            continue
        vals = {an.f.evaluate(F.add(xb, k)) for k in kernel}
        assert vals == {an.f.evaluate(xb)}


# ---------------------------------------------------------------------------
# solving L(x) = -b/2
# ---------------------------------------------------------------------------

def test_solve_xb_cor1_closed_form():
    F = get_field(3, 4)
    for u in (1, F.generator):
        an = analyze(preset_cor1(F, u))
        inv2u = F.inv(F.scalar_mul(2, u))
        for alpha in list(F.nonzero_elements())[::5]:
            want = F.neg(F.mul(alpha, inv2u))
            assert an.solve_xb(alpha) == want
            quarter = pow(4, F.p - 2, F.p)
            fa = quarter * F.trace(F.mul(F.mul(alpha, alpha), F.inv(u))) % F.p
            assert an.f.evaluate(want) == fa


def test_solve_xb_zero_and_outside_image():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(F, 1))
    assert an.solve_xb(0) == 0
    outside = next(b for b in F.nonzero_elements() if not an.in_image(b))
    assert an.solve_xb(outside) is None


def test_solve_xb_minimal_representative():
    F = get_field(3, 4)
    an = analyze(preset_trace_square_minus(F, 1))
    neg_half = F.neg(embed_scalar(F, (F.p + 1) // 2))
    for b in list(F.elements())[::7]:
        xb = an.solve_xb(b)
        if xb is None:
            continue
        sols = [x for x in F.elements()
                if l_apply(an, x) == F.mul(neg_half, b)]
        assert xb == min(sols)
    # rank 1 (Ker(L) of dimension m - 1) and rank 2 over p in {5, 7}, every
    # b against the smallest x of its fibre
    for p, m in [(5, 2), (5, 3), (7, 3)]:
        F = get_field(p, m)
        v = next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))
        rank_one = _rank_one_form(F, v)
        forms = [rank_one]
        if m == 3:
            forms.append(preset_trace_square_minus(F, v))
        neg_half = F.neg(embed_scalar(F, (p + 1) // 2))
        for f in forms:
            an = FormAnalysis(f)
            assert an.rank == (1 if f is rank_one else 2)
            smallest = {}
            for x in F.elements():
                smallest.setdefault(l_apply(an, x), x)
            for b in F.elements():
                assert an.solve_xb(b) == smallest.get(F.mul(neg_half, b)), (p, m, b)


def test_analyze_build_and_predict_leave_image_tables_unbuilt(capsys):
    from qcode.cli import main

    analyze.cache_clear()
    argv = ["--p", "3", "--m", "4", "--preset", "trmv:v=1", "--alpha", "1"]
    for cmd in ("analyze", "predict"):
        assert main([cmd, *argv]) == 0
    an = analyze(preset_trace_square_minus(get_field(3, 4), 1))
    assert an._image_alpha is None and an._image_f is None
    assert an._xb_table is None and an._f_xb_table is None
    # build's analytic route reads its beta classes off the class tables
    # and leaves the x_b table unbuilt
    assert main(["build", *argv]) == 0
    assert analyze(an.f) is an
    assert an._image_alpha is None and an._image_f is None
    assert an._xb_table is None and an._f_xb_table is not None
    # control: a registry draw builds the image tables on the same analysis
    an.image_draw(1)
    assert an._image_alpha is not None
    # and a table read of solve_xb builds the x_b table
    assert an.solution_tables()[0] is an._xb_table is not None
    capsys.readouterr()


def test_image_draw_refuses_a_memo_that_disagrees_with_the_table():
    F = get_field(3, 4)
    an = FormAnalysis(preset_trace_square_minus(F, 1))
    alphas, fw = an.image_tables()
    w = next(w for w in range(F.q) if alphas[w])
    alpha = int(alphas[w])
    fxb = an.solution_tables()[1]  # the f_at_xb memo, one entry per b
    fxb[alpha] = (int(fw[w]) + 1) % F.p
    with pytest.raises(QCodeError, match="disagrees"):
        an.image_draw(w)
    fxb[alpha] = -1  # alpha recorded as outside Im(L)
    with pytest.raises(QCodeError, match="disagrees"):
        an.image_draw(w)
    fxb[alpha] = fw[w]
    assert an.image_draw(w) == alpha


# ---------------------------------------------------------------------------
# shifted-image search
# ---------------------------------------------------------------------------

def _deficient_analysis(F):
    return analyze(preset_trace_square_minus(
        F, next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))))


def _rank_one_analyses():
    # m - 1 = 2 syndrome columns, where a ratio read off one coordinate
    # alone would give a z0 for beta whose syndrome is not a multiple
    out = []
    for p, m in [(5, 3), (7, 3)]:
        F = get_field(p, m)
        v = next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))
        out.append(analyze(_rank_one_form(F, v)))
    return out


def _shifted_image_analyses():
    return [_deficient_analysis(get_field(3, 4))] + _rank_one_analyses()


def test_shifted_image_exact_multiple():
    for an in _shifted_image_analyses():
        F = an.ctx
        alpha = next(a for a in F.nonzero_elements() if not an.in_image(a))
        for zprime in range(1, F.p):
            beta = F.scalar_mul(zprime, alpha)
            z0 = an.in_shifted_image(alpha, beta)
            assert z0 == pow(zprime, F.p - 2, F.p)


def test_shifted_image_absent_for_image_beta():
    for an in _shifted_image_analyses():
        F = an.ctx
        alpha = next(a for a in F.nonzero_elements() if not an.in_image(a))
        beta = next(b for b in F.nonzero_elements() if an.in_image(b))
        assert an.in_shifted_image(alpha, beta) is None


def test_shifted_image_preconditions():
    F = get_field(3, 4)
    an = _deficient_analysis(F)
    inside = next(b for b in F.nonzero_elements() if an.in_image(b))
    with pytest.raises(AlphaInImageError):
        an.in_shifted_image(inside, 1)
    alpha = next(a for a in F.nonzero_elements() if not an.in_image(a))
    with pytest.raises(PreconditionViolatedError):
        an.in_shifted_image(alpha, 0)


@pytest.mark.parametrize("tables", [False, True])
def test_out_of_range_encodings_are_refused(tables):
    # -1 once wrapped to the last log-table entry (26 on 3^3) and q raised
    # a bare IndexError; numpy table reads would wrap the same way
    F = get_field(3, 3)
    an = FormAnalysis(_deficient_analysis(F).f)
    if tables:
        an.solution_tables()
    outside = next(a for a in F.nonzero_elements() if not an.in_image(a))
    for bad in (-1, F.q, -F.q - 1):
        for call in (an.solve_xb, an.f_at_xb, an.in_image, an.beta_classes):
            with pytest.raises(PreconditionViolatedError, match="outside"):
                call(bad)
        with pytest.raises(PreconditionViolatedError, match="outside"):
            an.in_shifted_image(bad, 1)
        with pytest.raises(PreconditionViolatedError, match="outside"):
            an.in_shifted_image(outside, bad)


def test_shifted_image_unique_z_seeded(brute):
    # hits from the search over GF(q), against a fresh analysis (syndromes
    # from one digit row) and one with tables (syndromes decoded from them)
    rng = random.Random(100)
    for base in _shifted_image_analyses():
        F = base.ctx
        ref = brute(base)
        fresh, tabled = FormAnalysis(base.f), FormAnalysis(base.f)
        tabled.solution_tables()
        outside = [a for a in F.nonzero_elements() if not ref.in_image(a)]
        for _ in range(100):
            alpha = outside[rng.randrange(len(outside))]
            beta = rng.randrange(1, F.q)
            hits = [z for z in range(1, F.p)
                    if ref.in_image(F.sub(alpha, F.scalar_mul(z, beta)))]
            assert len(hits) <= 1
            for an in (fresh, tabled):
                assert an.in_shifted_image(alpha, beta) == (hits[0] if hits else None)
        assert fresh._xb_table is None


# ---------------------------------------------------------------------------
# beta classes
# ---------------------------------------------------------------------------

def test_beta_classes_read_the_scalar_invariants(brute):
    # every (alpha, beta): the key is f(x_b) p + Tr(alpha x_b), or p^2, plus
    # (1 + f(x_alpha)) (p^2 + 1) for alpha in Im(L), and z0 p +
    # f(x_(alpha - z0 beta)), or p^2, outside it, as the search over GF(q)
    # gives them; the scalar solves of a fresh analysis, which builds no
    # tables, agree with the search; reps are each class's first beta
    rng = random.Random(41)
    pool = [an for p, m in [(3, 2), (3, 3), (5, 2), (3, 4)]
            for an in analysis_pool(p, m, rng, extra=1)]
    for an in pool:
        F = an.ctx
        p = F.p
        ref = brute(an)
        scalar = FormAnalysis(an.f)
        for alpha in F.elements():
            keys, cls, reps = an.beta_classes(alpha)
            assert len(keys) <= p * p + 1
            assert reps.tolist() == [1 + int(np.flatnonzero(cls == c)[0])
                                     for c in range(len(keys))]
            got = keys[cls].tolist()
            assert scalar.solve_xb(alpha) == ref.xb(alpha), (an, alpha)
            assert scalar.f_at_xb(alpha) == ref.f_xb(alpha), (an, alpha)
            for beta in F.nonzero_elements():
                if ref.in_image(alpha):
                    xb = ref.xb(beta)
                    want = (p * p if xb is None else
                            ref.f_xb(beta) * p + F.trace(F.mul(alpha, xb)))
                    want += (1 + ref.f_xb(alpha)) * (p * p + 1)
                else:
                    z0 = ref.z0(alpha, beta)
                    assert scalar.in_shifted_image(alpha, beta) == z0
                    want = (p * p if z0 is None else z0 * p + ref.f_xb(
                        F.sub(alpha, F.scalar_mul(z0, beta))))
                assert got[beta - 1] == want, (an, alpha, beta)
        assert scalar._xb_table is None


def test_beta_classes_outside_image_split_by_z0(brute):
    # alpha outside Im(L) reaches both the no-z0 class and classes with z0;
    # at p = 13 the key z0 p + f' reaches 168, past the int8 tables' range;
    # z0 and f' from the search over GF(q), which a fresh analysis's
    # scalar z0 matches
    cases = [_deficient_analysis(get_field(p, m))
             for p, m in [(3, 4), (5, 3), (7, 2), (13, 2)]]
    for an in cases + _rank_one_analyses():
        F = an.ctx
        p, m = F.p, F.m
        ref = brute(an)
        scalar = FormAnalysis(an.f)
        kinds = set()
        for alpha in (a for a in F.nonzero_elements() if not ref.in_image(a)):
            keys, _, reps = an.beta_classes(alpha)
            for key, beta in zip(keys.tolist(), reps.tolist()):
                z0 = ref.z0(alpha, beta)
                assert scalar.in_shifted_image(alpha, beta) == z0
                assert (z0 is None) == (key == p * p)
                if z0 is not None:
                    assert key // p == z0
                    assert key % p == ref.f_xb(
                        F.sub(alpha, F.scalar_mul(z0, beta)))
                kinds.add(z0 is None)
        assert kinds == {True, False}, (p, m)
        assert scalar._xb_table is None


# ---------------------------------------------------------------------------
# class and solution tables against the x-row formulas
# ---------------------------------------------------------------------------

def _form_of_rank(F, r, rng):
    """sum_{i<r} c_i (Tr(v_i x))^2 with v_1..v_r independent over GF(p)
    and c_i in GF(p)*: its Gram matrix is sum_i c_i t_i t_i^T with t_i the
    independent trace vectors of v_i, so its rank is r.  Every form is
    congruent to such a diagonal one, and random c_i give both signs."""
    p = F.p
    while True:
        vs = [rng.randrange(1, F.q) for _ in range(r)]
        if rank(np.array([F.digits(v) for v in vs]), p) == r:
            break
    coeffs = [0] * F.m
    for v in vs:
        c = rng.randrange(1, p)
        for j, a in enumerate(_rank_one_form(F, v).coeffs):
            coeffs[j] = F.add(coeffs[j], F.scalar_mul(c, a))
    return QuadraticFunction(F, coeffs)


def _x_row_tables(an, chunk=1 << 14):
    """Oracle (xb, fxb, qx, syn) by the x-row formulas, in int64 and by
    chunks of b: the digit rows of b times [S | Y] give X(b) and the
    syndrome digits; xb encodes X(b), qx is X(b) G X(b)^T, syn encodes the
    syndrome, and xb and fxb are -1 where syn != 0."""
    F = an.ctx
    p, m, q = F.p, F.m, F.q
    place = p ** np.arange(m, dtype=np.int64)
    parts = []
    for start in range(0, q, chunk):
        b = np.arange(start, min(q, start + chunk), dtype=np.int64)
        rows = (b[:, None] // place % p) @ an._solve % p
        x = rows[:, :m]
        syn = rows[:, m:] @ place[:m - an.rank]
        qx = np.einsum("ij,jk,ik->i", x, an.gram, x) % p
        xb = x @ place
        parts.append((np.where(syn != 0, -1, xb), np.where(syn != 0, -1, qx), qx, syn))
    return [np.concatenate(cols) for cols in zip(*parts)]


def _x_row_keys(an, alpha, xb, fxb, qx, syn):
    """Oracle beta class keys of alpha (for beta = 1..q-1) by the digit
    products the class tables replaced: Tr(x_alpha beta) by
    trace_mul_all, and the cross term B(X(alpha), X(beta)) as the digit
    rows of beta times S G X(alpha)^T; z0 by comparing syndrome digits."""
    F = an.ctx
    p, m, q = F.p, F.m, F.q
    outside = p * p
    if fxb[alpha] >= 0:
        tr = trace_mul_all(F, int(xb[alpha]))[1:]
        fx = fxb[1:]
        return np.where(fx < 0, outside, fx * p + tr) + (1 + fxb[alpha]) * (outside + 1)
    k = m - an.rank
    place = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // place % p
    sdig = syn[:, None] // place[:k] % p
    z0 = np.zeros(q, dtype=np.int64)
    for w in range(1, p):
        z0[(sdig == w * sdig[alpha] % p).all(axis=1)] = pow(w, -1, p)
    xa = digits[alpha] @ an._solve[:, :m] % p
    cross = digits @ (an._solve[:, :m] @ (an.gram @ xa % p) % p) % p
    fprime = (qx[alpha] - 2 * z0 * cross + z0 * z0 * qx) % p
    return np.where(z0 > 0, z0 * p + fprime, outside)[1:]


@pytest.mark.parametrize("p,m", [(3, 5), (5, 4), (7, 3), (11, 3), (19, 2),
                                 (3, 11), (19, 4)])
def test_class_and_solution_tables_match_the_x_row_formulas(p, m):
    # one random form of every rank 1..m: the class tables (one pass with
    # [S G S^T | Y]), then the lazily built x_b table, then the beta
    # class keys (trace windows) for an alpha on each side of Im(L),
    # all against the x-row formulas
    rng = random.Random(p * 1000 + m)
    F = get_field(p, m)
    for r in range(1, m + 1):
        an = FormAnalysis(_form_of_rank(F, r, rng))
        assert an.rank == r
        xb, fxb, qx, syn = _x_row_tables(an)
        inside = np.flatnonzero(syn == 0)
        assert inside.size == p**r
        got_fxb, got_qx, got_syn = an._class_tables()
        assert an._xb_table is None
        assert (got_fxb.dtype, got_qx.dtype, got_syn.dtype) == (np.int8, np.int8, np.int32)
        assert np.array_equal(got_qx, qx) and np.array_equal(got_syn, syn)
        assert np.array_equal(got_fxb, fxb)
        alphas = [int(inside[rng.randrange(inside.size)])]
        if r < m:
            outside = np.flatnonzero(syn != 0)
            alphas.append(int(outside[rng.randrange(outside.size)]))
        for alpha in alphas:
            keys, cls, _ = an.beta_classes(alpha)
            assert np.array_equal(keys[cls], _x_row_keys(an, alpha, xb, fxb, qx, syn)), (
                r, alpha)
        assert an._xb_table is None
        got_xb, got_fxb = an.solution_tables()
        assert got_xb.dtype == np.int32 and got_fxb is an._f_xb_table
        assert np.array_equal(got_xb, xb)
        for b in rng.sample(range(F.q), 20) + alphas:
            assert an.solve_xb(b) == (None if xb[b] < 0 else xb[b])
            assert an.f_at_xb(b) == (None if fxb[b] < 0 else fxb[b])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs", [[1.7, 0], [np.float64(1.0), 0], ["1", 0]])
def test_quadratic_function_rejects_non_integer_coefficients(coeffs):
    with pytest.raises(PreconditionViolatedError, match="integers"):
        QuadraticFunction(get_field(3, 2), coeffs)
    # integer types of any width are taken as they are
    assert QuadraticFunction(get_field(3, 2), [np.int64(1), 0]).coeffs == (1, 0)


def test_preset_cor1_rejects_zero():
    with pytest.raises(PreconditionViolatedError):
        preset_cor1(get_field(3, 2), 0)


def test_trmv_requires_nonzero_trace_of_square():
    F = get_field(3, 3)  # Tr(1) = 3 = 0 here
    with pytest.raises(PreconditionViolatedError):
        preset_trace_square_minus(F, 1)


def test_trmv_matches_direct_formula_everywhere():
    F = get_field(3, 5)
    f = preset_trace_square_minus(F, 1)
    tv2 = F.trace(1)
    inv_tv2 = pow(tv2, F.p - 2, F.p)
    for x in F.elements():
        tvx = F.trace(x)
        direct = (F.trace(F.mul(x, x)) - inv_tv2 * tvx * tvx) % F.p
        assert f.evaluate(x) == direct


def test_bent_criterion():
    # full rank iff the phase sum has squared magnitude p^m; exact check
    # via multiplication with the conjugate embedding sigma_{-1}
    for p, m in [(3, 3), (3, 4), (5, 2)]:
        F = get_field(p, m)
        bent = analyze(preset_cor1(F, 1))
        s = exp_sum(F, bent.f.values())
        assert bent.rank == m
        assert s * s.sigma(p - 1) == pstar_half_power(p, 0).scale(p**m)
        if m % p != 0:
            nonbent = analyze(preset_trace_square_minus(F, 1))
            s2 = exp_sum(F, nonbent.f.values())
            assert nonbent.rank < m
            assert s2 * s2.sigma(p - 1) != pstar_half_power(p, 0).scale(p**m)
