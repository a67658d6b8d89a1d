import itertools
import random

import numpy as np
import pytest

from qcode.field import eta_bar
from qcode.linalg import nullspace, rank, rref
from qcode.quadform import rank_and_sign


def _random_matrix(rng, rows, cols, p, rank_at_most=None):
    """A random rows x cols matrix over GF(p), of rank at most rank_at_most
    when given (a product through a rank_at_most-wide middle)."""
    if rank_at_most is None:
        return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                        dtype=np.int64).reshape(rows, cols)
    left = _random_matrix(rng, rows, rank_at_most, p)
    return left @ _random_matrix(rng, rank_at_most, cols, p) % p


def _in_row_space(vec, red, pivots, p):
    # a vector of the row space is the combination of the reduced rows
    # given by its entries at the pivot columns
    return np.array_equal(vec[pivots] @ red[:len(pivots)] % p, vec % p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_rref_is_the_canonical_form_with_the_same_row_space(p):
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
        a = _random_matrix(rng, rows, cols, p, rng.randrange(0, min(rows, cols) + 1))
        before = a.copy()
        red, pivots, _ = rref(a, p)
        r = len(pivots)
        assert np.array_equal(a, before)  # the input is left alone
        assert red.dtype == np.int64 and red.shape == a.shape
        assert ((red >= 0) & (red < p)).all()
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert red[i, c] == 1
            assert not red[i, :c].any()  # the pivot leads its row
            assert not np.delete(red[:, c], i).any()
        assert not red[r:].any()
        # the same row space: every row of a is in the span of red, and
        # both span r dimensions
        assert all(_in_row_space(row, red, pivots, p) for row in a)
        assert rank(np.vstack([a, red]), p) == r


def _det_by_permutations(a, p):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(a[i, j])
        total += term
    return total % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_det_is_the_permutation_expansion(p):
    rng = random.Random(100 + p)
    full = 0
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = _random_matrix(rng, n, n, p)
        _, pivots, det = rref(a, p)
        expansion = _det_by_permutations(a, p)
        if len(pivots) == n:
            full += 1
            assert det == expansion, a.tolist()
        else:
            assert expansion == 0, a.tolist()
    assert full >= 100
    # the empty matrix has determinant 1
    assert rref(np.zeros((0, 0), dtype=np.int64), p)[1:] == ([], 1)


@pytest.mark.parametrize("p", [3, 5, 11])
def test_nullspace_reads_the_reduced_form(p):
    rng = random.Random(200 + p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 8)
        a = _random_matrix(rng, rows, cols, p, rng.randrange(0, min(rows, cols) + 1))
        red, pivots, _ = rref(a, p)
        basis = nullspace(red, pivots, p)
        assert basis.shape == (cols - len(pivots), cols)
        assert not (a @ basis.T % p).any()
        assert rank(basis, p) == len(basis)


def _congruence_diagonalize(h, p):
    """(rank, delta, sign) by diagonalizing h by congruence: the
    elimination rank_and_sign replaced, kept as its oracle.  delta is
    the product of the nonzero diagonal entries (empty product 1) and
    sign = eta_bar((-1)^rank delta).  Pivoting: prefer the leftmost
    nonzero trailing diagonal entry (swap), else add the leftmost
    row+column with a nonzero entry in the pivot row, else skip the
    zero row."""
    a = [list(map(int, row)) for row in h]
    n = len(a)
    for i in range(n):
        if a[i][i] % p == 0:
            j = next((k for k in range(i + 1, n) if a[k][k] % p), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if a[i][k] % p), None)
                if j is None:
                    continue
                # both diagonals vanish here, so the new pivot 2*a[i][j] != 0
                for k in range(n):
                    a[i][k] = (a[i][k] + a[j][k]) % p
                for k in range(n):
                    a[k][i] = (a[k][i] + a[k][j]) % p
        inv_piv = pow(a[i][i] % p, p - 2, p)
        for r in range(i + 1, n):
            fct = a[r][i] * inv_piv % p
            if fct:
                for k in range(n):
                    a[r][k] = (a[r][k] - fct * a[i][k]) % p
                for k in range(n):
                    a[k][r] = (a[k][r] - fct * a[k][i]) % p
    diag = [a[i][i] % p for i in range(n)]
    r = sum(1 for d in diag if d)
    delta = 1
    for d in diag:
        if d:
            delta = delta * d % p
    return r, delta, eta_bar((-1) ** r * delta, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rank_and_sign_agree_with_congruence_diagonalization(p):
    rng = random.Random(300 + p)
    seen = set()
    for m in range(1, 7):
        for r in range(m + 1):
            for _ in range(12):
                # M D M^T with r nonzero diagonal entries has rank r for
                # an invertible M, less for a singular one; the
                # zero-diagonal pairs exercise the row+column pivot step
                d = np.diag([rng.randrange(1, p) for _ in range(r)] + [0] * (m - r))
                if r >= 2 and rng.random() < 0.3:
                    d[0, 0] = d[1, 1] = 0
                    d[0, 1] = d[1, 0] = rng.randrange(1, p)
                mtx = _random_matrix(rng, m, m, p)
                h = mtx @ d @ mtx.T % p
                got = rank_and_sign(h, p)
                rank_, _, sign = _congruence_diagonalize(h, p)
                assert got == (rank_, sign), h.tolist()
                seen.add(got)
    assert {(r, s) for r in range(1, 7) for s in (1, -1)} <= seen
    assert (0, 1) in seen
