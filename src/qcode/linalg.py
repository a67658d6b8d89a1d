"""Small exact linear algebra over GF(p) on int64 matrices.

One Gauss-Jordan elimination, rref, gives every rank, solve, kernel,
image and sign in the package.  Every matrix here has at most m rows,
m <= 11 under the field-size cap (m x m or m x 2m, and the m x n
generator matrix), so its loop runs on Python ints, which beats
per-pivot numpy calls at these sizes.  Whole-field work makes no
elimination: it reads each column of a form's solve matrix
(quadform.FormAnalysis) as a window of the field's trace array
(field.ExtField.digit_form and digit_codes).
"""

from __future__ import annotations

import numpy as np


def rref(a, p: int) -> tuple[np.ndarray, list[int], int]:
    """(red, pivots, det): the reduced row echelon form of a as an int64
    array, its pivot columns, and the product of the pivots times the
    sign of the row swaps, which is det(a) mod p for a square a of full
    rank."""
    a = np.asarray(a, dtype=np.int64) % p
    rows, cols = a.shape
    a = a.tolist()
    pivots = []
    det = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for pivot in range(r, rows):
            if a[pivot][c]:
                break
        else:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            det = -det
        det = det * a[r][c] % p
        inv = pow(a[r][c], p - 2, p)
        row = a[r] = [v * inv % p for v in a[r]]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
        pivots.append(c)
        r += 1
    return np.array(a, dtype=np.int64).reshape(rows, cols), pivots, det % p


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(red: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Basis of the right nullspace of a matrix with reduced form red and
    those pivot columns: one row per free column c, 1 at c and minus
    column c of red at the pivot columns."""
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red[:len(pivots), free].T % p
    return basis
