"""Small exact linear algebra over GF(p).

Matrices are lists of row lists of ints in [0, p).  Sizes here are tiny
(m x m, with m <= 11 under the field-size cap), so clarity beats
asymptotics; whole-field work multiplies the digit rows by a form's
solve matrix (quadform.FormAnalysis) with numpy instead.
"""

from __future__ import annotations


def mat_copy(a: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in a]


def mat_mul(a, b, p: int) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                rowb = b[k]
                rowo = out[i]
                for j in range(cols):
                    rowo[j] = (rowo[j] + aik * rowb[j]) % p
    return out


def mat_transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def rref(a, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = mat_copy(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] % p), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> list[list[int]]:
    """Basis of the right nullspace, one vector per free column."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis

