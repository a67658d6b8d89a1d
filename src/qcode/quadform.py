"""Homogeneous quadratic functions f(x) = sum_i Tr(a_i x^(p^i+1)) on GF(q).

Provides evaluation, the symmetric coordinate matrix of the form, its
rank and sign, the companion linearized map L with
f(x+y) = f(x) + f(y) + 2 Tr(L(x) y), kernel/image data, one m x m solve
matrix for L(x) = -b/2 with the syndromes that test b in Im(L), and the
two preset families Tr(u x^2) and Tr(x^2) - (Tr(vx))^2 / Tr(v^2).

The per-form tables over GF(q) are split by reader.  The class tables
(f(x_b), Q(X(b)) and the syndrome codes) come from one pass over the
digits of every element and are all that the beta classes of build's
analytic route read; the x_b encodings, which only the registry sweeps
read in bulk, are built on the first solution_tables() call.  The beta
classes take every beta-dependent GF(p)-linear term as a window of the
field's log-order trace array, so they make no (q, m) product.

Sign convention: the sign is eta_bar((-1)^r delta), r the rank and
delta the discriminant of the nondegenerate part: delta = det G[I, I],
the principal minor of the Gram matrix G on the pivot columns I of its
rref.  This is the unique choice under which
sum_x zeta^f(x) = sign * p^m * (p*)^(-r/2) holds exactly, and it
reproduces (-1)^(m-1) eta(-u) for f = Tr(u x^2).
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache

import numpy as np

from .errors import AlphaInImageError, PreconditionViolatedError, QCodeError
from .field import ExtField, eta_bar
from .linalg import nullspace, rref


class QuadraticFunction:
    """Coefficient list (a_0, ..., a_{m-1}) over GF(q) defining the form."""

    def __init__(self, ctx: ExtField, coeffs):
        try:
            coeffs = tuple(operator.index(c) for c in coeffs)
        except TypeError:
            raise PreconditionViolatedError(
                "coefficient encodings must be integers") from None
        if len(coeffs) != ctx.m:
            raise PreconditionViolatedError(
                f"need {ctx.m} coefficients, got {len(coeffs)}")
        if not all(0 <= c < ctx.q for c in coeffs):
            raise PreconditionViolatedError("coefficient encoding out of range")
        self.ctx = ctx
        self.coeffs = coeffs
        self._log_values: np.ndarray | None = None

    def evaluate(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a:
                acc = (acc + ctx.trace(ctx.mul(a, ctx.mul(ctx.frobenius(x, i), x)))) % ctx.p
        return acc

    def log_values(self) -> np.ndarray:
        """(q-1,) array of f(g^k), k = 0..q-2, in the field's digit dtype
        (uint8 for p <= 255): f at every nonzero x, in log order; cached
        and read-only.  Widen it before arithmetic that can pass the digit
        dtype, such as f p + t.

        The formula of evaluate, on log-order arrays: for x = g^k,
        Tr(a_i x^(p^i+1)) is entry k (p^i+1) mod (q-1) of
        trace_mul_log(a_i).  The terms are summed mod p in the smallest
        dtype that holds 2 (p - 1).
        """
        if self._log_values is None:
            ctx = self.ctx
            p, order = ctx.p, ctx.q - 1
            ks = np.arange(order, dtype=np.int64)
            acc = np.zeros(order, dtype=np.min_scalar_type(2 * (p - 1)))
            for i, a in enumerate(self.coeffs):
                if a:
                    idx = ks * ((p**i + 1) % order)
                    idx %= order
                    acc += ctx.trace_mul_log(a)[idx]
                    acc %= p
            acc = acc.astype(ctx._digit_dtype, copy=False)
            acc.flags.writeable = False
            self._log_values = acc
        return self._log_values

    def values(self) -> np.ndarray:
        """(q,) int64 array of f(x) for every element, indexed by encoding:
        log_values() scattered to the encodings g^k, a new array on each
        call, so a form retains only the log-order array."""
        return self.ctx._scatter(self.log_values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadraticFunction)
                and self.ctx == other.ctx and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        return f"QuadraticFunction({self.ctx!r}, coeffs={list(self.coeffs)})"


def gram_matrix(f: QuadraticFunction) -> np.ndarray:
    """Symmetric int64 matrix H over GF(p) with digits(x) H digits(x)^T = f(x).

    H = (B + B^T)/2 for the bilinear form B(x, y) = sum_i Tr(a_i x^(p^i) y)
    on the digit basis.  Row j of the Frobenius matrix F_i holds the
    digits of (x^j)^(p^i), multiplying by x^k is the matrix C^k, and
    Tr(a y) = digits(y) . t_a with t_a = trace_mul_vector(a); so
    B[j, k] = sum_i F_i[j] . (C^k t_(a_i)).
    """
    ctx = f.ctx
    p, m = ctx.p, ctx.m
    b = np.zeros((m, m), dtype=np.int64)
    for i, a in enumerate(f.coeffs):
        if a:
            b += ctx._frob[i] @ (ctx._mul_x @ ctx.trace_mul_vector(a)).T % p
    return (b + b.T) * ((p + 1) // 2) % p


def rank_and_sign(h: np.ndarray, p: int) -> tuple[int, int]:
    """(rank, sign) of a symmetric matrix h over GF(p), p odd.

    The rank r is the number of pivots of rref(h).  For a symmetric h the
    principal minor h[I, I] on the pivot columns I is nonsingular, and
    the coordinates I span a complement of the radical, so
    delta = det h[I, I] is the discriminant of the nondegenerate part
    (empty minor 1) and sign = eta_bar((-1)^r delta).
    """
    _, pivots, delta = rref(h, p)
    if len(pivots) < len(h):  # else the minor is h itself
        delta = rref(np.asarray(h)[np.ix_(pivots, pivots)], p)[2]
    return len(pivots), eta_bar((-1) ** len(pivots) * delta, p)


class FormAnalysis:
    """Cached structural data of a quadratic function.

    Attributes
    ----------
    gram : symmetric m x m int64 matrix over GF(p) representing the form.
    rank, sign : rank and sign of the form (see module docstring).
    l_coeffs : coefficients c_i of the companion linearized map
        L(x) = sum_i c_i x^(p^i).
    lmat : int64 matrix of L on the digit basis (columns are images of
        x^j).
    ker_basis, im_basis : element encodings spanning Ker(L) and Im(L).

    Every solve reads one m x (2m - rank) matrix [S | Y], built from the
    rref of [lmat | I]: digits(b) S is X(b), the digits of the smallest
    solution x_b of L(x) = -b/2 for b in Im(L), and digits(b) Y is the
    syndrome of b, which is 0 iff b lies in Im(L).  X is linear in b
    everywhere, so for alpha - z beta in Im(L) the solution is
    X(alpha) - z X(beta).  Without tables, solve_xb and f_at_xb read one
    row digits(b) [S | Y], and f(x_b) = X(b) G X(b)^T as in the tables.
    Construction checks lmat by T lmat = G at every field size
    (_check_bilinear), before the rank check.

    Per-form tables over every b in GF(q), which the analyze and predict
    paths never build:
      * the class tables (_class_tables): Q(X(b)) and f(x_b) (int8, -1
        outside Im(L)) and the syndrome codes (int32), from digit_form
        with M = S G S^T and codes Y; built by beta_classes, which
        build's analytic route and the branch-fill scans read, or when a
        registry sweep starts.  Once they exist, f_at_xb, in_image and
        in_shifted_image read them.
      * solution_tables(): the class tables' f(x_b) and x_b = solve_xb(b)
        (int32 encodings, digit_codes of S), which only a registry sweep
        builds; once x_b exists, solve_xb reads it.
      * image_tables(): alpha(w) = -2 L(w) (int32 encodings, digit_codes
        of lmat) and f(w) (int8, from f.values()), for every w; built on
        the first draw of alpha in Im(L) (image_draw, or image_alphas for
        the branch fill).  Since L(w) = -alpha/2, w is a solution x_alpha
        up to an element k of Ker(L), and f(w + k) = f(w) because
        f(k) = Tr(L(k) k) = 0; so f(w) is f(x_alpha), and image_draw and
        image_alphas check the coefficient formula against the class
        table's Gram formula.
    digit_form and digit_codes read every digit product off the field's
    log-order trace array, so no table makes a (q, m) array.
    """

    def __init__(self, f: QuadraticFunction):
        ctx = f.ctx
        p, m = ctx.p, ctx.m
        self.f = f
        self.ctx = ctx
        self.gram = gram_matrix(f)
        self.rank, self.sign = rank_and_sign(self.gram, p)

        inv2 = (p + 1) // 2
        self.l_coeffs = tuple(
            ctx.scalar_mul(inv2, ctx.add(f.coeffs[i],
                                         ctx.frobenius(f.coeffs[(m - i) % m], i)))
            for i in range(m))
        # row j of sum_i F_i M(c_i) holds the digits of L(x^j)
        lrows = np.zeros((m, m), dtype=np.int64)
        for i, c in enumerate(self.l_coeffs):
            if c:
                lrows += ctx._frob[i] @ ctx._mul_matrix(c) % p
        self.lmat = lrows.T % p
        self._check_bilinear()
        # rref([lmat | I]) = [R | T] with T lmat = R, so L(x) = c is
        # solvable iff T[l_rank:] c = 0 (Y), and then x = T[:l_rank] c at
        # R's pivot columns, 0 elsewhere (S, for c = -b/2); R is rref(lmat)
        # in its first l_rank rows and 0 below, which gives Ker(L)
        red, pivots, _ = rref(np.hstack([self.lmat, np.eye(m, dtype=np.int64)]), p)
        l_rank = sum(c < m for c in pivots)
        if l_rank != self.rank:
            raise QCodeError(
                f"rank disagreement: matrix {self.rank} vs linear map {l_rank}")
        transform = red[:, m:]
        solve = np.zeros((m, m), dtype=np.int64)
        solve[:, pivots[:l_rank]] = transform[:l_rank].T * ((p - 1) // 2) % p
        ker = nullspace(red[:, :m], pivots[:l_rank], p)
        # zero each pivot digit of the kernel echelon basis: the coset's
        # smallest encoding, since any other kernel shift first changes
        # the coset's digits at a pivot, from 0 to a nonzero digit
        for col, vec in _top_echelon(ker, p):
            solve = (solve - np.outer(solve[:, col], vec)) % p
        self._solve = np.hstack([solve, transform[l_rank:].T])
        # M = S G S^T: Q(X(b)) = digits(b) M digits(b)^T, and its polar
        # form B(X(a), X(b)) = digits(a) M digits(b)^T
        self._class_gram = solve @ self.gram % p @ solve.T % p
        self.ker_basis = tuple((ker @ ctx._place).tolist())
        image, image_pivots, _ = rref(self.lmat.T, p)
        self.im_basis = tuple((image[:len(image_pivots)] @ ctx._place).tolist())
        self._xb_table: np.ndarray | None = None
        self._f_xb_table: np.ndarray | None = None
        self._qx_table: np.ndarray | None = None
        self._syn_table: np.ndarray | None = None
        self._image_alpha: np.ndarray | None = None
        self._image_f: np.ndarray | None = None
        if _spot_check_enabled(ctx):
            self._spot_check()

    # -- the linearized companion map ---------------------------------------

    def in_image(self, b: int) -> bool:
        return self.f_at_xb(b) is not None

    def _check_element(self, b: int) -> None:
        # a negative encoding would wrap in the log and numpy tables
        if not 0 <= b < self.ctx.q:
            raise PreconditionViolatedError(
                f"element encoding {b} outside [0, {self.ctx.q})")

    def _solve_row(self, b: int) -> np.ndarray:
        """digits(b) [S | Y] (mod p): the m digits of X(b), then the
        syndrome of b."""
        return self.ctx._row(b) @ self._solve % self.ctx.p

    def _syndrome(self, b: int) -> list[int]:
        """The syndrome of b, zero iff b lies in Im(L); decoded from the
        class tables once they exist."""
        k = self.ctx.m - self.rank
        if self._syn_table is not None:
            p, code = self.ctx.p, int(self._syn_table[b])
            return [code // p**j % p for j in range(k)]
        return self._solve_row(b)[self.ctx.m:].tolist()

    def solve_xb(self, b: int) -> int | None:
        """Solution of L(x) = -b/2 with the smallest encoding, or None:
        a zero-syndrome test, then X(b) = digits(b) S.

        The value f(solve_xb(b)) does not depend on the coset
        representative (f vanishes on Ker(L) and Tr(b * Ker(L)) = 0 for
        b in Im(L)), but a deterministic representative keeps reports
        reproducible; S folds in the reduction to the smallest one (see
        __init__).  Read off solution_tables() once x_b exists.
        """
        self._check_element(b)
        if self._xb_table is not None:
            x = int(self._xb_table[b])
            return None if x < 0 else x
        row, m = self._solve_row(b), self.ctx.m
        return None if row[m:].any() else self.ctx._element(row[:m])

    def f_at_xb(self, b: int) -> int | None:
        """f(solve_xb(b)), or None when b lies outside Im(L): Q(X(b)) =
        X(b) G X(b)^T from the same solve row, the formula of the class
        tables (_class_tables), which it reads once they exist."""
        self._check_element(b)
        if self._f_xb_table is not None:
            fb = int(self._f_xb_table[b])
            return None if fb < 0 else fb
        row, m = self._solve_row(b), self.ctx.m
        if row[m:].any():
            return None
        p = self.ctx.p
        return int(row[:m] @ (self.gram @ row[:m] % p) % p)

    def _class_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fxb, qx, syn) for every b in GF(q), built on the first call:
        qx[b] = Q(X(b)) = X(b) G X(b)^T (int8), G the Gram matrix, which
        is f(x_b) for b in Im(L); syn[b], b's syndrome code (int32, 0 iff
        b is in Im(L)); and fxb = qx with -1 at b outside Im(L).

        Q(X(b)) = digits(b) M digits(b)^T with M = S G S^T, and the
        syndrome is digits(b) Y, so both come from digit_form with M and
        codes Y (no column at full rank, where every code is 0), which reads
        every digit product off the field's trace windows.  These are what
        beta_classes, f_at_xb, _syndrome and image_draw read.
        """
        if self._f_xb_table is None:
            qx, syn = self.ctx.digit_form(self._class_gram,
                                          codes=self._solve[:, self.ctx.m:])
            self._qx_table = qx.astype(np.int8)
            qx[syn != 0] = -1
            self._f_xb_table = qx.astype(np.int8)
            self._syn_table = syn.astype(np.int32)
        return self._f_xb_table, self._qx_table, self._syn_table

    def solution_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(xb, fxb): xb[b] = solve_xb(b) as an int32 encoding and
        fxb[b] = f(x_b) as int8, both -1 for b outside Im(L), for every b
        in GF(q).

        fxb is a class table (_class_tables).  xb is built on the first
        call, as digit_codes(S), the trace windows of S's columns;
        once it exists, solve_xb reads it.  Only the registry sweeps read
        x_b for many b, so build's route never makes it.
        """
        fxb, _, syn = self._class_tables()
        if self._xb_table is None:
            xb = self.ctx.digit_codes(self._solve[:, :self.ctx.m])
            xb[syn != 0] = -1
            self._xb_table = xb.astype(np.int32)
        return self._xb_table, fxb

    def beta_classes(self, alpha: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, cls, reps): the classes of nonzero beta on which
        S5(alpha, beta) is constant, read off the class tables
        (_class_tables).  cls[beta - 1] is the class of beta, reps[c] the
        smallest beta of class c, and keys[c] its invariants.

        For alpha in Im(L) a key is f(x_beta) p + Tr(alpha x_beta), or p^2
        for beta outside Im(L), plus (1 + f(x_alpha)) (p^2 + 1).
        For alpha outside Im(L) a key is z0 p + f(x_(alpha - z0 beta)), z0
        being the unique z in GF(p)* with alpha - z beta in Im(L), or p^2
        when no z0 exists.  There are at most p^2 + 1 classes, and
        S5(alpha, beta) is a function of the key alone, across every alpha
        of the form.

        Each beta-dependent GF(p)-linear term is Tr(c beta) for one
        element c, read as the window of the log-order trace array at c
        (ExtField.trace_mul_log) and scattered to the encodings beta
        through the exp table; so no (q, m) product is made.  For alpha
        in Im(L), Tr(L(x) y) is symmetric, so Tr(alpha x_beta) =
        Tr(beta x_alpha) for beta in Im(L): c = x_alpha = solve_xb(alpha),
        a scalar solve, or a read of the x_b table once it exists.

        Outside Im(L), z0 is the z with syn(beta) = syn(alpha)/z, read
        from a lookup indexed by syndrome code, and f' = Q(X(alpha) - z0
        X(beta)) = Q(X(alpha)) - 2 z0 B(X(alpha), X(beta)) + z0^2 Q(X(beta))
        with B(u, v) = u G v^T.  B(X(alpha), X(beta)) = digits(beta) . v
        with v = digits(alpha) M, M = S G S^T, so c = ExtField.trace_dual(v).
        """
        self._check_element(alpha)
        ctx = self.ctx
        p = ctx.p
        fxb, qx, syn = self._class_tables()
        outside = p * p
        # Tr(c beta) at every nonzero beta, scattered from log order
        # (ExtField._scatter)
        fa = int(fxb[alpha])
        if fa >= 0:
            key = ctx._scatter(ctx.trace_mul_log(self.solve_xb(alpha)))[1:]
            fx = fxb[1:].astype(np.int64)  # z p + f' passes the int8 range past p = 11
            fx *= p
            key += fx
            key[fx < 0] = outside
            key += (1 + fa) * (outside + 1)
        else:
            sa = np.asarray(self._syndrome(alpha), dtype=np.int64)
            # w syn(alpha) is syn(beta) for z0 = 1/w
            ws = np.arange(1, p, dtype=np.int64)
            lookup = np.zeros(p ** sa.size, dtype=np.int64)
            lookup[np.outer(ws, sa) % p @ ctx._place[:sa.size]] = [
                pow(w, -1, p) for w in range(1, p)]
            z0 = lookup[syn[1:]]
            v = ctx._row(alpha) @ self._class_gram % p
            lin = ctx._scatter(ctx.trace_mul_log(ctx.trace_dual(v)))[1:]
            fprime = (int(qx[alpha]) - 2 * z0 * lin + z0 * z0 * qx[1:]) % p
            key = np.where(z0 > 0, z0 * p + fprime, outside)
        # every key is below (p + 1)(p^2 + 1), so a dense table of first
        # occurrences gives the sorted keys and reps without sorting q keys
        n = len(key)
        first = np.full((p + 1) * (outside + 1), n)
        np.minimum.at(first, key, np.arange(n))
        keys = np.flatnonzero(first < n)
        remap = np.zeros(len(first), dtype=np.int64)
        remap[keys] = np.arange(len(keys))
        return keys, remap[key], first[keys] + 1

    def image_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, fw): alpha[w] = -2 L(w) as an int32 encoding and
        fw[w] = f(w) as int8, for every w in GF(q); built on the first
        call from lmat, by digit_codes, and from f.values(),
        the coefficient formula rather than the Gram matrix."""
        if self._image_alpha is None:
            ctx = self.ctx
            p = ctx.p
            # -2 L(w) = (p - 2) L(w), folded into lmat
            self._image_alpha = ctx.digit_codes(self.lmat.T * (p - 2) % p
                                                ).astype(np.int32)
            self._image_f = self.f.values().astype(np.int8)
        return self._image_alpha, self._image_f

    def image_draw(self, w: int) -> int:
        """alpha = -2 L(w), read off image_tables(), after checking that
        f(w) equals the class table's f(x_alpha) (see the class
        docstring)."""
        alphas, fw = self.image_tables()
        fxb = self._class_tables()[0]
        alpha, fa = int(alphas[w]), int(fw[w])
        known = int(fxb[alpha])
        if known != fa:
            raise QCodeError(
                f"f(x_alpha) disagrees at alpha={alpha}: "
                f"class table {known}, f(w) = {fa} for w={w}")
        return alpha

    def image_alphas(self, vanishing: bool) -> np.ndarray:
        """alpha = -2 L(w) for every w, ascending, with alpha != 0 and
        f(w) = 0 (vanishing) or f(w) != 0: each alpha in Im(L) whose
        f(x_alpha) vanishes, or does not, once per such w.  image_draw's
        check runs over all of them at once, before any is returned."""
        alphas, fw = self.image_tables()
        ws = np.flatnonzero((alphas != 0) & ((fw == 0) == vanishing))
        bad = np.flatnonzero(self._class_tables()[0][alphas[ws]] != fw[ws])
        if bad.size:
            self.image_draw(int(ws[bad[0]]))  # raises on the first mismatch
        return alphas[ws]

    def in_shifted_image(self, alpha: int, beta: int) -> int | None:
        """The unique z in GF(p)* with alpha - z*beta in Im(L), if any.

        Requires alpha outside Im(L) and beta nonzero.  z is the ratio
        syn(alpha) = z syn(beta), which is unique since syn(alpha) != 0;
        the caller may then solve L(x') = -(alpha - z*beta)/2.
        """
        p = self.ctx.p
        self._check_element(beta)
        self._check_element(alpha)
        sa = self._syndrome(alpha)
        if not any(sa):
            raise AlphaInImageError("alpha lies in Im(L); no shifted search applies")
        if beta == 0:
            raise PreconditionViolatedError("beta must be nonzero")
        sb = self._syndrome(beta)
        i = next(j for j, s in enumerate(sa) if s)
        if not sb[i]:
            return None
        z = sa[i] * pow(sb[i], -1, p) % p
        return z if all(s == z * t % p for s, t in zip(sa, sb)) else None

    def __repr__(self) -> str:
        return (f"FormAnalysis(rank={self.rank}, sign={self.sign}, "
                f"coeffs={list(self.f.coeffs)})")

    def _check_bilinear(self) -> None:
        """f(x + y) = f(x) + f(y) + 2 Tr(L(x) y) for every x and y, which
        is Tr(L(x) y) = digits(x) G digits(y)^T.  The left side is
        digits(x) lmat^T T digits(y)^T, T[j, k] = Tr(x^j x^k) the trace
        form, so the identity is T lmat = G (mod p); T is invertible, so
        every wrong entry of lmat breaks it."""
        ctx = self.ctx
        bad = np.argwhere(ctx._trace_form @ self.lmat % ctx.p != self.gram)
        if bad.size:
            j, k = bad[0]
            raise QCodeError(
                f"bilinear identity fails at (x^{int(k)}, x^{int(j)})")

    def _spot_check(self) -> None:
        """Identity checks, once per (field, coeffs) since analyze() is
        memoised: the matrix reproduces f.values() at every x, and
        evaluate agrees with values() on sampled x.  The bilinear identity
        is _check_bilinear, at every field size."""
        ctx = self.ctx
        fv = self.f.values()
        bad = np.flatnonzero(ctx.digit_form(self.gram) != fv)
        if bad.size:
            raise QCodeError(
                f"matrix does not reproduce the form at x={int(bad[0])}")
        if ctx.q <= 81:
            xs = list(ctx.elements())
        else:
            rng = random.Random(0xC0DE)
            xs = [rng.randrange(ctx.q) for _ in range(24)]
        for x in xs:
            if self.f.evaluate(x) != fv[x]:
                raise QCodeError(f"evaluate disagrees with values() at x={x}")


def _spot_check_enabled(ctx: ExtField) -> bool:
    """Whether analyze runs the form spot check, which builds the tables;
    it refuses no input, and past 5^6 it keeps predict table-free."""
    return ctx.q <= 5**6


def _top_echelon(vecs: np.ndarray, p: int) -> list[tuple[int, np.ndarray]]:
    """(pivot, vector) pairs of a reduced echelon basis of the span of the
    rows of vecs whose pivots are the most significant digits: each
    vector is 1 at its pivot, 0 above it and 0 at every other vector's
    pivot."""
    m = vecs.shape[1]
    red, pivots, _ = rref(vecs[:, ::-1], p)
    return [(m - 1 - c, red[i, ::-1]) for i, c in enumerate(pivots)]


@lru_cache(maxsize=None)
def analyze(f: QuadraticFunction) -> FormAnalysis:
    """The form's analysis, shared by every equal QuadraticFunction."""
    return FormAnalysis(f)


def preset_cor1(ctx: ExtField, u: int) -> QuadraticFunction:
    """f(x) = Tr(u x^2), u nonzero: full rank m, companion map x -> u x."""
    if u == 0:
        raise PreconditionViolatedError("u must be nonzero")
    return QuadraticFunction(ctx, (u,) + (0,) * (ctx.m - 1))


def preset_trace_square_minus(ctx: ExtField, v: int) -> QuadraticFunction:
    """f(x) = Tr(x^2) - (Tr(vx))^2 / Tr(v^2), for v with Tr(v^2) != 0.

    Expanded onto the coefficient basis through
    (Tr(vx))^2 = sum_j Tr(v^(p^j+1) x^(p^j+1)): rank m-1, companion map
    x -> x - (v / Tr(v^2)) Tr(vx).
    """
    if v == 0:
        raise PreconditionViolatedError("v must be nonzero")
    tv2 = ctx.trace(ctx.mul(v, v))
    if tv2 == 0:
        raise PreconditionViolatedError("Tr(v^2) must be nonzero")
    inv_tv2 = pow(tv2, ctx.p - 2, ctx.p)
    coeffs = []
    for j in range(ctx.m):
        vpj1 = ctx.mul(ctx.frobenius(v, j), v)
        cj = ctx.neg(ctx.scalar_mul(inv_tv2, vpj1))
        if j == 0:
            cj = ctx.add(1, cj)
        coeffs.append(cj)
    return QuadraticFunction(ctx, coeffs)


def parse_preset(ctx: ExtField, spec: str) -> QuadraticFunction:
    """Preset selector text: "cor1:u=<elt>" or "trmv:v=<elt>"."""
    name, _, arg = spec.partition(":")
    key, _, val = arg.partition("=")
    if name == "cor1" and key == "u":
        return preset_cor1(ctx, ctx.parse_element(val))
    if name == "trmv" and key == "v":
        return preset_trace_square_minus(ctx, ctx.parse_element(val))
    raise PreconditionViolatedError(f"unknown preset spec: {spec!r}")
