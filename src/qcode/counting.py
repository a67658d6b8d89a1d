"""Brute-force counters over GF(q) and their closed-form counterparts.

Every counting or phase-sum identity used by the weight-distribution
predictor lives in a registry keyed by a stable integer id (5..19,
excluding 12 whose content is the shifted-image search in quadform).
Each entry pairs a cheap closed form (rationals, or cyclotomic numbers
for phase sums) with an independent exhaustive computation, and the
oracle reports per-branch equality, so any transcription error surfaces
as a flagged mismatch instead of silently propagating.

The exhaustive side of every field-backed id enumerates GF(q) once per
check, into the joint histogram of (f(x), Tr(alpha x), Tr(beta x)), or of
the part of that tuple the id reads.  x = g^j runs in log order, where
f(x) is QuadraticFunction.log_values() and Tr(e x) a window of one doubled
trace array, and x = 0 adds one more count.  The id's phase sums and counts
are then read off the histogram through small integer maps cached per p
and constant.  Every x is still counted once, in integers, and nothing on
this side reads the closed forms, the Gram matrix, L or its solve matrix, only
the coefficient formula of f and the field tables.  A readout is a pure
integer function of the histogram, so a sweep memoises the readouts, and
the phase and Galois-unit sums built on them, on (builder, constants,
histogram bytes), in a memo that lives for one id's sweep (_Readout).

Each closed form has one source.  Most are instances of one quadratic
Gauss-sum evaluation: a rank-k, sign-s form on GF(p)^m has phase sum
Phi(k, s) = s p^m (p*)^(-k/2) (phase_sum), rational Galois-unit sums
U(k, s, z) (unit_sum), and level counts N(k, s, t) = p^(m-1) + U(k, s, -t)/p
(level_count).  Phi gives ids 5 and 6; N gives id 7 and root_count_closed
(id 9, predict_root_count, predict_length); ids 16 and 17 are Phi, U and N
of the deflated form (rank r - 1, sign s eta_bar(-f(x_alpha))), and so is
the closed histogram of (f(x), Tr(alpha x)) (_closed_histogram), which ids
8, 18 and 19 read through the cell maps their brute sides apply to the
enumerated one.  The sums over the pencil alpha - z beta have
one case tree (_s4_terms): S4 (id 13) is c Phi(k, s') zeta^z on every
branch, and S5 (id 14), its Galois-unit sum, is c U(k, s', z).  S2 and S3
(id 10) are S4 and S5 at alpha = 0.  A count on the hyperplane
Tr(beta x) = 0 is p^(m-2) + S/p^2 for a Galois-unit sum S: S3 for id 11,
and S5 for id 15 and predict_hyperplane_root_count, which build evaluates
once per beta class (FormAnalysis.beta_classes), not once per beta.

Every closed side is split in two: reading the invariants of its draw,
f(x_alpha), f(x_beta), Tr(alpha x_beta), z0 and f' (FormAnalysis.f_at_xb,
solve_xb and in_shifted_image, which a sweep reads off the form's solution
tables: x_b, f(x_b) and the syndromes whose ratio is z0), and a function
of those plain integers and (p, m, rank, sign), memoised so that a sweep
evaluates each case once: phase_sum, unit_sum, level_count,
_closed_histogram and _pencil_case (S4's terms and S5, and at alpha = 0
S2's terms and S3).

A branch a sweep's draws leave short is filled by a deterministic scan
(_fill_missing_branches) of each form's parameters in a fixed order.  Every
parameter set carries an integer key, read off the form's class or image
tables, on which closed()'s branches are constant; so closed() runs once per
form and key, and the witnesses come from a vectorised search of the keys.
A required branch that no key of the pool reaches often enough stays
short; the report notes it with its count and keeps all_equal as it is.

Two printed-formula discrepancies are tracked explicitly rather than
silently fixed (see the registry notes):
  * id 9, odd rank with nonzero special value: the printed count carries
    a spurious +1; the implemented form is the one brute force confirms.
  * id 18: the auxiliary quantity E is implemented with the +(...)^2/4f
    sign (as in id 15); the printed -(...) variant is also counted and
    reported when it disagrees.
Ids 8 and 19 carry closed forms that are rational only for odd rank;
for even rank the registry verifies the Galois-sum variants instead and
labels those branches as derived.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclotomic import (
    CycNum,
    pstar_fraction_power,
    pstar_half_power,
    sigma_unit_sum,
)
from .errors import (
    MissingParamError,
    NonIntegralPredictionError,
    PreconditionViolatedError,
)
from .field import ExtField, eta_bar
from .quadform import (
    FormAnalysis,
    QuadraticFunction,
    analyze,
    preset_cor1,
    preset_trace_square_minus,
)

IDENTITY_IDS = (5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19)

# the exhaustive routes refuse characteristics past BRUTE_MAX_P, since their
# cost grows with p beyond q (the naive transform, field.hyperplane_counts,
# does m matrix products of O(p^3 q) flops; the registry's oracles do Python
# work in p^2 to p^3 per draw); the field-size cap of field.ExtField bounds q
# for every route
BRUTE_MAX_P = 19


def check_brute_cap(ctx: ExtField) -> None:
    """Refuse an exhaustive route over the field ctx past BRUTE_MAX_P."""
    _check_cap(ctx.p)


def _check_cap(p: int) -> None:
    """The one guard of every exhaustive route: refuse characteristic p
    past BRUTE_MAX_P.  A field past the field-size cap is never built."""
    if p > BRUTE_MAX_P:
        raise PreconditionViolatedError(
            f"characteristic {p} exceeds the brute-force cap "
            f"p <= {BRUTE_MAX_P}")


def brute_count(ctx: ExtField, predicate) -> int:
    """Exhaustive count of elements satisfying a total predicate."""
    check_brute_cap(ctx)
    return sum(1 for x in ctx.elements() if predicate(x))


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise NonIntegralPredictionError(f"count resolved to {value}")
    return int(value)


# --- the quadratic Gauss-sum evaluation: Phi, U and N -----------------------


@lru_cache(maxsize=None)
def phase_sum(p: int, m: int, k: int, s: int) -> CycNum:
    """Phi(k, s) = s p^m (p*)^(-k/2), the phase sum sum_x zeta^Q(x) of a
    rank-k, sign-s quadratic form Q on GF(p)^m."""
    return pstar_half_power(p, -k).scale(s * p**m)


@lru_cache(maxsize=None)
def unit_sum(p: int, m: int, k: int, s: int, z: int) -> Fraction:
    """U(k, s, z) = sum over y in GF(p)* of sigma_y(Phi(k, s) zeta^z).

    Always rational: for even k it is (p-1)c at z = 0 and -c otherwise,
    with c = Phi(k, s); for odd k it is 0 at z = 0 and
    eta_bar(z) s p^m (p*)^(-(k-1)/2) otherwise.
    """
    z %= p
    if k % 2 == 0:
        c = s * p**m * pstar_fraction_power(p, -(k // 2))
        return (p - 1) * c if z == 0 else -c
    if z == 0:
        return Fraction(0)
    return eta_bar(z, p) * s * p**m * pstar_fraction_power(p, -((k - 1) // 2))


@lru_cache(maxsize=None)
def level_count(p: int, m: int, k: int, s: int, t: int) -> int:
    """N(k, s, t) = p^(m-1) + U(k, s, -t)/p, the number of x in GF(p)^m
    with Q(x) = t."""
    return _as_int(Fraction(p) ** (m - 1) + unit_sum(p, m, k, s, -t) / p)


@lru_cache(maxsize=None)
def _closed_histogram(p: int, m: int, r: int, s: int, fa: int) -> np.ndarray:
    """H[v, t] = #{x : f(x) = v, Tr(alpha x) = t} for f of rank r, sign s
    and a nonzero alpha in Im(L) with f(x_alpha) = fa, as a read-only
    (p, p) int64 array from U and N alone, never by enumeration.  For
    fa != 0, f = g + Tr(alpha x)^2/(4 fa) with g deflated (rank r - 1, sign
    s eta_bar(-fa)): N of g on GF(p)^(m-1) at v - t^2/(4 fa).  For fa = 0,
    H[v, 0] = p^(m-2) + U(r, s, -v)/p, and H[v, t] = p^(m-2) off the plane."""
    if fa:
        s_g, inv = s * eta_bar(-fa, p), pow(4 * fa, -1, p)
        rows = [[level_count(p, m - 1, r - 1, s_g, (v - t * t * inv) % p)
                 for t in range(p)] for v in range(p)]
    else:
        plane = Fraction(p) ** (m - 2)
        rows = [[_as_int(plane + unit_sum(p, m, r, s, -v) / p if t == 0
                         else plane) for t in range(p)] for v in range(p)]
    out = np.asarray(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


# --- closed-form counts feeding the code predictor --------------------------


def root_count_closed(p: int, m: int, rank: int, sign: int,
                      fa: int | None) -> tuple[int, str]:
    """Number of x with f(x) - Tr(alpha x) = 0, and its id-9 branch.

    fa is the special value f(x_alpha), None when alpha is outside Im(L).
    Inside, the count is N(rank, sign, fa).  Odd rank with nonzero special
    value: the printed formula's extra +1 is dropped; brute force (and the
    code-length identity n = count - 1) confirm the form without it.
    """
    if fa is None:
        return p ** (m - 1), "outside_image"
    parity = "even" if rank % 2 == 0 else "odd"
    return (level_count(p, m, rank, sign, fa),
            f"{parity}_{'nonzero' if fa else 'zero'}")


def _root_count(an: FormAnalysis, alpha: int) -> tuple[int, str]:
    return root_count_closed(an.ctx.p, an.ctx.m, an.rank, an.sign,
                             an.f_at_xb(alpha))


def predict_root_count(an: FormAnalysis, alpha: int) -> int:
    """Number of x with f(x) - Tr(alpha x) = 0, in closed form."""
    return _root_count(an, alpha)[0]


def predict_hyperplane_root_count(an: FormAnalysis, alpha: int, beta: int) -> int:
    """Number of x with f(x) - Tr(alpha x) = 0 and Tr(beta x) = 0:
    p^(m-2) + S5/p^2, with S5 = c U(k, s', z) from S4's terms."""
    return _count_from_sum(an.ctx.p, an.ctx.m, _pencil_closed(an, alpha, beta)[2])


def _count_from_sum(p: int, m: int, total: Fraction) -> int:
    """p^(m-2) + total/p^2: a count on the hyperplane Tr(beta x) = 0 from
    the Galois-unit sum (S3 or S5) of its phase sums."""
    return _as_int((total + p**m) / p**2)


def _pair_invariants(an: FormAnalysis, alpha: int, beta: int) -> tuple:
    """What S4 and S5 see of (alpha, beta), as plain integers
    (fa, fb, tab, fprime): for alpha in Im(L), fa = f(x_alpha),
    fb = f(x_beta) and tab = Tr(alpha x_beta), the last two None for beta
    outside Im(L); for alpha outside Im(L), fa = fb = tab = None and
    fprime = f(x_(alpha - z0 beta)) for the z0 of in_shifted_image, None
    when there is none."""
    if beta == 0:
        raise PreconditionViolatedError("beta must be nonzero")
    ctx = an.ctx
    fa = an.f_at_xb(alpha)
    if fa is None:
        z0 = an.in_shifted_image(alpha, beta)
        if z0 is None:
            return None, None, None, None
        return None, None, None, an.f_at_xb(ctx.sub(alpha, ctx.scalar_mul(z0, beta)))
    xb = an.solve_xb(beta)
    if xb is None:
        return fa, None, None, None
    return fa, an.f_at_xb(beta), ctx.trace(ctx.mul(alpha, xb)), None


def _pencil_closed(an: FormAnalysis, alpha: int,
                   beta: int) -> tuple[tuple | None, str, Fraction, str]:
    """S4's terms and branch, S5 and its finest label (_pencil_case), for
    sum_z sum_x zeta^(f(x) - Tr((alpha - beta z) x)) and its Galois-unit
    sum."""
    return _pencil_case(an.ctx.p, an.ctx.m, an.rank, an.sign,
                        *_pair_invariants(an, alpha, beta))


@lru_cache(maxsize=None)
def _pencil_case(p: int, m: int, r: int, s: int, fa: int | None,
                 fb: int | None, tab: int | None,
                 fprime: int | None) -> tuple[tuple | None, str, Fraction, str]:
    """(S4's terms, S4's branch, S5, S5's finest label) from _s4_terms:
    S5 = sum_y sigma_y(S4) = c U(k, s', z), zero where the terms are None.
    Only ids 10 and 13 read S4 itself, which _s4_value forms from the
    terms.  Ids 14 and 15 coarsen the label through _S5_LABELS."""
    branch, terms = _s4_terms(p, r, s, fa, fb, tab, fprime)
    s5, z = Fraction(0), None
    if terms is not None:
        c, k, s_k, z = terms
        s5 = c * unit_sum(p, m, k, s_k, z)
    if fa is None:
        end = "out" if z is None else "fnz" if z else "f0"
        return terms, branch, s5, ("II:even:", "II:odd:")[r % 2] + end
    row = branch + ":z0" if branch == "I:in:nonzero" and z == 0 else branch
    col = 2 * (r % 2) + (fa != 0)
    return (terms, branch, s5,
            f"I:{('ez', 'en', 'oz', 'on')[col]}:{_S5_SUFFIX[row][col]}")


def _s4_value(p: int, m: int, terms: tuple | None) -> CycNum:
    """S4 = c Phi(k, s') zeta^z from its terms (c, k, s', z), zero where
    they are None; zeta^z is a rotation of Phi's coordinates, none where
    z = 0, as on every S2."""
    if terms is None:
        return CycNum.zero(p)
    c, k, s_k, z = terms
    s4 = phase_sum(p, m, k, s_k).scale(c)
    return s4.mul_zeta_pow(z)


def _s4_terms(p: int, r: int, s: int, fa: int | None, fb: int | None,
              tab: int | None, fprime: int | None) -> tuple[str, tuple | None]:
    """S4's branch and its terms (c, k, s', z), with S4 = c Phi(k, s') zeta^z,
    from the rank r and sign s of f and the invariants of _pair_invariants;
    None for the terms where S4 is zero."""
    if fa is None:
        if fprime is None:
            return "II:outside_union", None
        return "II:in_union", (1, r, s, -fprime % p)
    if fb is None:
        return "I:outside_beta", (1, r, s, -fa % p)
    if fb == 0 and tab == 0:
        return "I:in:zero_zero", (p, r, s, -fa % p)
    if fb == 0:
        return "I:in:zero_nonzero", None
    return "I:in:nonzero", (1, r - 1, s * eta_bar(-fb, p), _aux_e(p, fa, fb, tab))


# S5's finest label for alpha in Im(L) is I:<e|o><z|n>:<suffix>, for the
# rank parity and whether f(x_alpha) = 0; the suffix follows S4's branch,
# and on I:in:nonzero whether its z is 0
_S5_SUFFIX = {  # S4 branch: suffix for ez, en, oz, on
    "I:outside_beta": ("bout", "bout", "bout", "bout"),
    "I:in:zero_zero": ("zz", "zz", "fb0", "zz"),
    "I:in:zero_nonzero": ("mixed", "zeros", "fb0", "znz"),
    "I:in:nonzero:z0": ("mixed", "zeros", "tr0", "E0"),
    "I:in:nonzero": ("nznz", "Enz", "trnz", "Enz"),
}

# id -> {finest S5 label: the label that id reports}
_S5_LABELS = {
    14: {"I:oz:fb0": "I:oz:fb0_or_bout", "I:oz:bout": "I:oz:fb0_or_bout"},
    15: {"II:even:out": "II:outside_union", "II:odd:out": "II:outside_union"},
}


def _aux_e(p: int, fa: int, fb: int, tab: int) -> int:
    """E = -f(x_a) + Tr(alpha x_b)^2 / (4 f(x_b)) as a GF(p) value."""
    inv = pow(4 * fb % p, p - 2, p)
    return (-fa + tab * tab * inv) % p


# --- the brute side: one joint value histogram per check --------------------
#
# Every field-backed oracle sees x only through f(x) and Tr(e x) for one or
# two fixed elements e.  _histogram enumerates GF(q) once into the joint
# counts H of that tuple; an oracle then reads its level counts off H by
# indexing, or its exponent and partition counts through a small integer
# matrix (_cell_map), cached per p, builder and constant.  Every x is
# counted once, in integers, so the work after the pass does not grow with
# q.  A readout, and the phase sum and Galois-unit sum built on it, is a
# pure function of (builder, constants, H), so _Readout memoises them on
# that key in a _ReadoutMemo, which one id's sweep (or one lone check)
# owns and drops when it ends; H itself is enumerated for every check.


def _histogram(an: FormAnalysis, *elems: int) -> np.ndarray:
    """Joint counts over every x in GF(q) of (f(x), Tr(e x) for e in
    elems): H[f, t_1, ..., t_k] is the number of x with those values.

    x = g^j runs in log order, so Tr(e x) is a window of one doubled array
    (ExtField.trace_mul_log); x = 0 adds one to H[0, ..., 0].
    """
    ctx = an.ctx
    p = ctx.p
    # log_values and trace_mul_log are in the digit dtype, where v p + t
    # would wrap: widen once, then combine in place
    cell = an.f.log_values().astype(np.int64)
    for e in elems:
        cell *= p
        cell += ctx.trace_mul_log(e)
    counts = np.bincount(cell, minlength=p ** (len(elems) + 1))
    counts[0] += 1
    return counts.reshape((p,) * (len(elems) + 1))


@lru_cache(maxsize=None)
def _cell_map(p: int, k: int, build, *args) -> np.ndarray:
    """build(p, *coords, *args) on the coordinate arrays of the p^k cells
    of a k-way histogram: a (p^k, width) integer matrix, cached and
    read-only."""
    out = np.asarray(build(p, *np.indices((p,) * k).reshape(k, -1), *args),
                     dtype=np.int64)
    out.flags.writeable = False
    return out


def _read_cells(h: np.ndarray, build, *args) -> list[int]:
    """H @ M for the cached map M of build over h's cells: the counts that
    build's columns read off the histogram h, enumerated or closed."""
    return (h.ravel() @ _cell_map(h.shape[0], h.ndim, build, *args)).tolist()


class _ReadoutMemo(dict):
    """Readouts of histograms, keyed on (kind, builder, constants, H's
    int32 bytes, whose length p^k fixes p and H's k axes); see _Readout."""


class _Readout:
    """One check's joint histogram h and its readouts, memoised in memo
    (a fresh _ReadoutMemo when None).  Each kind of readout is made from
    h on a miss, so a memo holds only what its checks asked for."""

    __slots__ = ("h", "_memo", "_key")

    def __init__(self, h: np.ndarray, memo: _ReadoutMemo | None):
        self.h = h
        self._memo = _ReadoutMemo() if memo is None else memo
        # counts stay below q < 2^31: int32 bytes halve the memo's keys
        self._key = h.astype(np.int32).tobytes()

    def _get(self, kind: str, build, args: tuple, make):
        key = (kind, build, args, self._key)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = make(_read_cells(self.h, build, *args))
        return out

    def read(self, build, *args) -> tuple[int, ...]:
        """The counts that build's map reads off h."""
        return self._get("read", build, args, tuple)

    def phase(self, build, *args) -> CycNum:
        """The phase sum whose exponent map build gives."""
        return self._get("phase", build, args, self._cyc)

    def unit_sum(self, build, *args) -> CycNum:
        """The Galois-unit sum of phase(build, *args)."""
        return self._get("unit_sum", build, args,
                         lambda counts: sigma_unit_sum(self._cyc(counts)))

    def _cyc(self, counts: list[int]) -> CycNum:
        return CycNum.from_exponent_counts(self.h.shape[0], counts)


def _exponents(p: int, *terms: np.ndarray) -> np.ndarray:
    """(cells, p) matrix whose entry (c, e) counts the terms equal to
    e mod p at cell c: read off H, the exponent counts of the sum of
    zeta^term over every x and every term."""
    out = np.zeros((len(terms[0]), p), dtype=np.int64)
    rows = np.arange(len(out))
    for term in terms:
        out[rows, term % p] += 1
    return out


def _eta_bar_table(p: int) -> np.ndarray:
    return np.asarray([eta_bar(v, p) for v in range(p)], dtype=np.int64)


# --- registry plumbing -------------------------------------------------------


@dataclass
class LemmaParams:
    """Arguments of a registry check; unused slots stay None."""

    analysis: FormAnalysis | None = None
    alpha: int | None = None
    beta: int | None = None
    t: int | None = None
    abc: tuple[int, int, int] | None = None
    p: int | None = None

    def describe(self) -> dict:
        out = {}
        if self.analysis is not None:
            ctx = self.analysis.ctx
            out.update(p=ctx.p, m=ctx.m, modulus=list(ctx.modulus),
                       coeffs=list(self.analysis.f.coeffs),
                       rank=self.analysis.rank, sign=self.analysis.sign)
        if self.p is not None:
            out["p"] = self.p
        for name in ("alpha", "beta", "t"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.abc is not None:
            out["abc"] = list(self.abc)
        return out


@dataclass
class CheckResult:
    """One compared row of a registry check.  The text forms closed, brute
    and params are rendered when read: a sweep keeps only its failures."""

    lemma_id: int
    branch: str
    closed_value: object
    brute_value: object
    equal: bool
    lemma_params: LemmaParams
    note: str | None = None

    @property
    def closed(self) -> str:
        return _render(self.closed_value)

    @property
    def brute(self) -> str:
        return _render(self.brute_value)

    @property
    def params(self) -> dict:
        return self.lemma_params.describe()

    def to_json(self) -> dict:
        out = {"lemma": self.lemma_id, "branch": self.branch,
               "closed": self.closed, "brute": self.brute,
               "equal": self.equal, "params": self.params}
        if self.note:
            out["note"] = self.note
        return out


def _render(v) -> str:
    if isinstance(v, CycNum):
        return v.to_text()
    return str(v)


def _result(lemma_id, branch, closed, brute, params, note=None) -> CheckResult:
    if type(closed) is not type(brute):
        # a rational against a CycNum compares in Q(zeta_p)
        if isinstance(brute, CycNum):
            closed = CycNum.from_rational(brute.p, closed)
        elif isinstance(closed, CycNum):
            brute = CycNum.from_rational(closed.p, brute)
    return CheckResult(lemma_id, branch, closed, brute, closed == brute,
                       params, note)


def _need(params: LemmaParams, *names) -> None:
    for name in names:
        if getattr(params, name) is None:
            raise MissingParamError(f"parameter {name!r} is required")


# --- the registry: a cheap closed form and a brute oracle per id ------------
#
# closed(params) validates the parameters and returns (branch, value, note)
# rows; brute(params, memo) returns the exhaustively computed values in the
# same order, with its readouts memoised in memo (a _ReadoutMemo, or None
# for one of its own).  A brute value may come as (value, note) when the
# brute reading itself has something to report.


def _closed_5(params: LemmaParams) -> list:
    """Full-space phase sums of f and of f - Tr(bx): Phi(r, s), and
    Phi(r, s) zeta^(-f(x_b)) for b in Im(L), a rotation of Phi's
    coordinates that f(x_b) = 0 skips."""
    _need(params, "analysis", "beta")
    an = params.analysis
    p = an.ctx.p
    full = phase_sum(p, an.ctx.m, an.rank, an.sign)
    fb = an.f_at_xb(params.beta)
    if fb is None:
        return [("I", full, None), ("II:outside_image", CycNum.zero(p), None)]
    return [("I", full, None),
            ("II:in_image", full.mul_zeta_pow(-fb), None)]


def _brute_5(params: LemmaParams, memo=None) -> list:
    rd = _Readout(_histogram(params.analysis, params.beta), memo)
    return [rd.phase(_form_exponents), rd.phase(_shift_exponents)]


def _form_exponents(p: int, f, t) -> np.ndarray:
    """f(x)."""
    return _exponents(p, f)


def _shift_exponents(p: int, f, t) -> np.ndarray:
    """f(x) - Tr(beta x)."""
    return _exponents(p, f - t)


def _closed_6(params: LemmaParams) -> list:
    """Two-variable quadratic phase sum over GF(p) x GF(p): Phi of rank 2
    and sign eta_bar(det), or of rank 1 and sign eta_bar(-a)."""
    _need(params, "p", "abc")
    p = params.p
    a, b, c = params.abc
    det = (a * c - b * b) % p
    if det != 0:
        return [("nondegenerate", phase_sum(p, 2, 2, eta_bar(det, p)), None)]
    if a % p == 0:
        raise PreconditionViolatedError("degenerate case requires a != 0")
    return [("degenerate", phase_sum(p, 2, 1, eta_bar(-a, p)), None)]


def _brute_6(params: LemmaParams, memo=None) -> list:
    p = params.p
    a, b, c = params.abc
    counts = [0] * p
    for z in range(p):
        for w in range(p):
            counts[(a * z * z + 2 * b * z * w + c * w * w) % p] += 1
    return [CycNum.from_exponent_counts(p, counts)]


def _closed_7(params: LemmaParams) -> list:
    """Level-set count of a homogeneous quadratic at a nonzero level:
    N(r, s, t)."""
    _need(params, "analysis", "t")
    an, t = params.analysis, params.t
    p = an.ctx.p
    if t % p == 0:
        raise PreconditionViolatedError("level t must be nonzero")
    return [("even" if an.rank % 2 == 0 else "odd",
             level_count(p, an.ctx.m, an.rank, an.sign, t), None)]


def _brute_7(params: LemmaParams, memo=None) -> list:
    h = _histogram(params.analysis)
    return [int(h[params.t % h.shape[0]])]


def _closed_8(params: LemmaParams) -> list:
    """Count of f(x) = a on the hyperplane Tr(alpha x) = 0, given
    alpha in Im(L) with vanishing special value."""
    _need(params, "analysis", "alpha", "t")
    an, a = params.analysis, params.t
    p = an.ctx.p
    if a % p == 0:
        raise PreconditionViolatedError("level a must be nonzero")
    _require_vanishing_special_value(an, params.alpha)
    count = int(_closed_histogram(p, an.ctx.m, an.rank, an.sign, 0)[a % p, 0])
    if an.rank % 2 == 1:
        return [("odd_rank", count, None)]
    return [("even_rank_derived_variant", count,
             "printed closed form is irrational for even rank; "
             "verified the Galois-sum variant instead")]


def _brute_8(params: LemmaParams, memo=None) -> list:
    h = _histogram(params.analysis, params.alpha)
    return [int(h[params.t % h.shape[0], 0])]


def _closed_9(params: LemmaParams) -> list:
    """Solution count of f(x) - Tr(alpha x) = 0."""
    _need(params, "analysis", "alpha")
    count, branch = _root_count(params.analysis, params.alpha)
    note = None
    if branch == "odd_nonzero":
        note = (f"printed form gives {count + 1} (spurious +1); "
                f"implemented form matches brute force")
    return [(branch, count, note)]


def _brute_9(params: LemmaParams, memo=None) -> list:
    # the diagonal f(x) = Tr(alpha x)
    return [int(np.trace(_histogram(params.analysis, params.alpha)))]


# S4's branches at alpha = 0, where f(x_alpha) = Tr(alpha x_beta) = 0, as
# the labels of S2 = S4(0, beta) and S3 = S5(0, beta) (ids 10 and 11)
_S23_LABELS = {"I:outside_beta": "outside", "I:in:zero_zero": "in_zero",
               "I:in:nonzero": "in_nonzero"}


def _s23_closed(an: FormAnalysis,
                beta: int) -> tuple[tuple | None, str, Fraction, str]:
    """S2's terms, S3 and their branches (_pencil_at_zero), from f(x_beta)."""
    if beta == 0:
        raise PreconditionViolatedError("beta must be nonzero")
    return _pencil_at_zero(an.ctx.p, an.ctx.m, an.rank, an.sign,
                           an.f_at_xb(beta))


def _pencil_at_zero(p: int, m: int, r: int, s: int,
                    fb: int | None) -> tuple[tuple | None, str, Fraction, str]:
    """(S2's terms, S2's branch, S3, S3's branch) as S4 and S5 at alpha = 0,
    for f of rank r and sign s.  There f(x_alpha) = Tr(alpha x_beta) = 0,
    so beta enters only through fb = f(x_beta), None outside Im(L)."""
    terms, branch, s3, _ = _pencil_case(p, m, r, s, 0, fb,
                                        None if fb is None else 0, None)
    label = _S23_LABELS[branch]
    parity = "even" if r % 2 == 0 else "odd"
    return terms, f"S2:{label}", s3, f"{parity}:{label}"


def _closed_10(params: LemmaParams) -> list:
    """The three sums S1, S2, S3 over scalar multiples of Tr(beta x)."""
    _need(params, "analysis", "beta")
    an = params.analysis
    terms, s2_branch, s3, s3_branch = _s23_closed(an, params.beta)
    return [("S1", an.ctx.q, None),
            (s2_branch, _s4_value(an.ctx.p, an.ctx.m, terms), None),
            (f"S3:{s3_branch}", s3, None)]


def _brute_10(params: LemmaParams, memo=None) -> list:
    rd = _Readout(_histogram(params.analysis, params.beta), memo)
    return [rd.phase(_s1_exponents), rd.phase(_s2_exponents),
            rd.unit_sum(_s2_exponents)]


def _s1_exponents(p: int, f, t) -> np.ndarray:
    """-z Tr(beta x) for z in GF(p)."""
    return _exponents(p, *(-z * t for z in range(p)))


def _s2_exponents(p: int, f, t) -> np.ndarray:
    """f(x) - z Tr(beta x) for z in GF(p)."""
    return _exponents(p, *(f - z * t for z in range(p)))


def _closed_11(params: LemmaParams) -> list:
    """Count of f(x) = 0 on the hyperplane Tr(beta x) = 0:
    p^(m-2) + S3/p^2, with S3 from id 10."""
    _need(params, "analysis", "beta")
    an = params.analysis
    _, _, s3, branch = _s23_closed(an, params.beta)
    return [(branch, _count_from_sum(an.ctx.p, an.ctx.m, s3), None)]


def _brute_11(params: LemmaParams, memo=None) -> list:
    return [int(_histogram(params.analysis, params.beta)[0, 0])]


def _s4_exponents(p: int, f, a, b) -> np.ndarray:
    """f(x) - Tr(alpha x) + z Tr(beta x) for z in GF(p)."""
    return _exponents(p, *(f - a + z * b for z in range(p)))


def _closed_13(params: LemmaParams) -> list:
    """The sum S4 over the pencil of shifts alpha - beta z."""
    _need(params, "analysis", "alpha", "beta")
    an = params.analysis
    terms, branch, _, _ = _pencil_closed(an, params.alpha, params.beta)
    note = None
    if branch == "II:in_union":
        note = ("x' read as the solution of L(x') = -(alpha - beta z0)/2; "
                "this reading matches brute force")
    return [(branch, _s4_value(an.ctx.p, an.ctx.m, terms), note)]


def _brute_13(params: LemmaParams, memo=None) -> list:
    return [_s4_readout(params, memo).phase(_s4_exponents)]


def _s4_readout(params: LemmaParams, memo) -> _Readout:
    return _Readout(_histogram(params.analysis, params.alpha, params.beta), memo)


def _closed_14(params: LemmaParams) -> list:
    """S5: the Galois-unit sum of S4."""
    _need(params, "analysis", "alpha", "beta")
    _, _, s5, label = _pencil_closed(params.analysis, params.alpha, params.beta)
    return [(_S5_LABELS[14].get(label, label), s5, None)]


def _brute_14(params: LemmaParams, memo=None) -> list:
    return [_s4_readout(params, memo).unit_sum(_s4_exponents)]


def _closed_15(params: LemmaParams) -> list:
    """Hyperplane-restricted solution counts of f(x) - Tr(alpha x) = 0:
    p^(m-2) + S5/p^2, with S5 as id 14 evaluates it."""
    _need(params, "analysis", "alpha", "beta")
    an = params.analysis
    _, _, s5, label = _pencil_closed(an, params.alpha, params.beta)
    return [(_S5_LABELS[15].get(label, label),
             _count_from_sum(an.ctx.p, an.ctx.m, s5), None)]


def _brute_15(params: LemmaParams, memo=None) -> list:
    # f(x) = Tr(alpha x) on the plane Tr(beta x) = 0
    h = _histogram(params.analysis, params.alpha, params.beta)
    return [int(np.trace(h[:, :, 0]))]


def _require_vanishing_special_value(an: FormAnalysis, alpha: int) -> None:
    if alpha == 0 or an.f_at_xb(alpha) != 0:
        raise PreconditionViolatedError(
            "requires nonzero alpha in Im(L) with vanishing special value")


def _nonzero_special_value(an: FormAnalysis, alpha: int) -> int:
    """f(x_alpha), required to exist and be nonzero."""
    fa = an.f_at_xb(alpha)
    if fa is None:
        raise PreconditionViolatedError("alpha must lie in Im(L)")
    if fa == 0:
        raise PreconditionViolatedError("special value must be nonzero")
    return fa


def _deflated(an: FormAnalysis, alpha: int) -> tuple[int, int]:
    """(rank, sign) of g = f - Tr(alpha x)^2/(4 f(x_alpha)):
    (r - 1, s eta_bar(-f(x_alpha)))."""
    fa = _nonzero_special_value(an, alpha)
    return an.rank - 1, an.sign * eta_bar(-fa, an.ctx.p)


def _closed_16(params: LemmaParams) -> list:
    """Triple phase sum S6 = p Phi(k, s'), its Galois-unit sum
    p U(k, s', 0), and the count N_E = N(k, s', 0), for the deflated
    (k, s')."""
    _need(params, "analysis", "alpha")
    an = params.analysis
    p, m = an.ctx.p, an.ctx.m
    k, s = _deflated(an, params.alpha)
    parity = "even" if an.rank % 2 == 0 else "odd"
    return [("S6", phase_sum(p, m, k, s).scale(p), None),
            (f"sigma:{parity}", p * unit_sum(p, m, k, s, 0), None),
            (f"NE:{parity}", level_count(p, m, k, s, 0), None)]


def _inv4(an: FormAnalysis, alpha: int) -> int:
    """1/(4 f(x_alpha)) in GF(p)."""
    return pow(4 * an.f_at_xb(alpha), -1, an.ctx.p)


def _brute_16(params: LemmaParams, memo=None) -> list:
    c = _inv4(params.analysis, params.alpha)
    rd = _Readout(_histogram(params.analysis, params.alpha), memo)
    return [rd.phase(_s6_exponents, c), rd.unit_sum(_s6_exponents, c),
            rd.read(_deflated_exponents, c)[0]]


def _s6_exponents(p: int, f, a, c: int) -> np.ndarray:
    """f(x) - w Tr(alpha x) - c z^2 + w z for w, z in GF(p), with
    c = 1/(4 f(x_alpha)): the triple sum S6 over x, w and z."""
    return _exponents(p, *(f - w * a - c * z * z + w * z
                           for w in range(p) for z in range(p)))


def _deflated_exponents(p: int, f, a, c: int) -> np.ndarray:
    """g(x) = f(x) - c Tr(alpha x)^2, c = 1/(4 f(x_alpha))."""
    return _exponents(p, f - c * a * a)


def _closed_17(params: LemmaParams) -> list:
    """The deflated form g = f - Tr(alpha x)^2/(4 f(x_alpha)): its phase
    sum Phi(k, s') and level-set counts N(k, s', t)."""
    _need(params, "analysis", "alpha", "t")
    an, t = params.analysis, params.t
    p, m = an.ctx.p, an.ctx.m
    k, s = _deflated(an, params.alpha)
    parity = "even" if an.rank % 2 == 0 else "odd"
    branch = f"{parity}:{'t0' if t % p == 0 else 'tnz'}"
    return [("gsum", phase_sum(p, m, k, s), None),
            (branch, level_count(p, m, k, s, t), None)]


def _brute_17(params: LemmaParams, memo=None) -> list:
    an = params.analysis
    c = _inv4(an, params.alpha)
    rd = _Readout(_histogram(an, params.alpha), memo)
    return [rd.phase(_deflated_exponents, c),
            rd.read(_deflated_exponents, c)[params.t % an.ctx.p]]


def _closed_18(params: LemmaParams) -> list:
    """Partition counts of GF(q) by f, Tr(alpha x), and the auxiliary E."""
    _need(params, "analysis", "alpha")
    an = params.analysis
    fa = _nonzero_special_value(an, params.alpha)
    counts = _partition_closed(an.ctx.p, an.ctx.m, an.rank, an.sign, fa)
    keys = ("J1", "J2", "J3", "J4", "J5", "J6") if an.rank % 2 else (
        "I1", "I2", "I3", "I4")
    return [(key, count,
             "definition restricted to E != 0 (the closed form excludes "
             "the E = 0 slice)" if key == "J2" else None)
            for key, count in zip(keys, counts)]


def _partition_closed(p: int, m: int, r: int, s: int, fa: int) -> list[int]:
    """Id 18's counts for rank r, sign s and f(x_alpha) = fa: the plus-sign
    classes of _partition_cells, read off the closed histogram."""
    return _read_cells(_closed_histogram(p, m, r, s, fa), _partition_cells,
                       r % 2 == 1, fa, 1)


def _brute_18(params: LemmaParams, memo=None) -> list:
    """The partition counts under the plus-sign E, each with a note when
    the printed minus sign counts differently."""
    an, alpha = params.analysis, params.alpha
    ctx = an.ctx
    p, r = ctx.p, an.rank
    fa = an.f_at_xb(alpha)
    wants = _partition_closed(p, ctx.m, r, an.sign, fa)
    rd = _Readout(_histogram(an, alpha), memo)
    odd = r % 2 == 1
    out = []
    for want, plus, minus in zip(wants, rd.read(_partition_cells, odd, fa, 1),
                                 rd.read(_partition_cells, odd, fa, -1)):
        note = None
        if minus != plus:
            verdict = "matches" if minus == want else "fails"
            note = (f"E with the printed minus sign gives {minus}, "
                    f"which {verdict}; the plus-sign reading gives {plus}")
        out.append((plus, note))
    return out


def _partition_cells(p: int, f, a, odd: bool, fa: int, sign: int) -> np.ndarray:
    """Id 18's classes as 0/1 columns over the cells (f(x), Tr(alpha x)):
    I1-I4 for even rank, J1-J6 for odd, with
    E = -f(x_alpha) + sign Tr(alpha x)^2 / (4 f(x)) where f(x) != 0."""
    nz = f != 0
    inv4f = np.asarray([pow(4 * v, -1, p) if v else 0 for v in range(p)])
    e = (-fa + sign * a * a * inv4f[f]) % p
    etab = _eta_bar_table(p)
    if not odd:
        fe = etab[f * e % p]
        cols = [~nz & (a == 0),
                (~nz & (a != 0)) | (nz & (e == 0)),
                nz & (e != 0) & (fe == -1),
                nz & (e != 0) & (fe == 1)]
    else:
        same = etab[f] == eta_bar(fa, p)
        cols = [nz & same & (e == 0), nz & same & (e != 0),
                ~nz & (a == 0), ~nz & (a != 0),
                nz & (e == 0), nz & (e != 0) & ~same]
    return np.stack(cols, axis=1)


def _closed_19(params: LemmaParams) -> list:
    """Square-class counts of -f on and off the hyperplane Tr(alpha x)=0,
    given alpha in Im(L) with vanishing special value: the cells of
    _square_class_cells read off the closed histogram, so the on-plane
    counts sum the id-8 counts over the levels a of each class of -a."""
    _need(params, "analysis", "alpha")
    an = params.analysis
    _require_vanishing_special_value(an, params.alpha)
    counts = _read_cells(_closed_histogram(an.ctx.p, an.ctx.m, an.rank,
                                           an.sign, 0), _square_class_cells)
    odd = an.rank % 2 == 1
    note = None if odd else ("printed closed forms are irrational for even "
                             "rank; verified the Galois-sum variants instead")
    return [(("" if odd else "even:") + label, count, note) for label, count
            in zip(("sq_tr0", "nsq_tr0", "sq_trnz", "nsq_trnz"), counts)]


def _brute_19(params: LemmaParams, memo=None) -> list:
    rd = _Readout(_histogram(params.analysis, params.alpha), memo)
    return list(rd.read(_square_class_cells))


def _square_class_cells(p: int, f, a) -> np.ndarray:
    """0/1 columns over the cells (f(x), Tr(alpha x)): f(x) != 0 with
    -f(x) a square or a non-square, on and off the plane Tr(alpha x) = 0."""
    negf = _eta_bar_table(p)[-f % p]
    return np.stack([(f != 0) & on & (negf == sq)
                     for on in (a == 0, a != 0) for sq in (1, -1)], axis=1)


_REGISTRY = {
    5: (_closed_5, _brute_5), 6: (_closed_6, _brute_6),
    7: (_closed_7, _brute_7), 8: (_closed_8, _brute_8),
    9: (_closed_9, _brute_9), 10: (_closed_10, _brute_10),
    11: (_closed_11, _brute_11), 13: (_closed_13, _brute_13),
    14: (_closed_14, _brute_14), 15: (_closed_15, _brute_15),
    16: (_closed_16, _brute_16), 17: (_closed_17, _brute_17),
    18: (_closed_18, _brute_18), 19: (_closed_19, _brute_19),
}


def lemma_oracle(lemma_id: int, params: LemmaParams, *,
                 _memo: _ReadoutMemo | None = None) -> list[CheckResult]:
    """Evaluate one registry identity head-to-head on given parameters.

    _memo is internal: the readout memo of the sweep that makes the call
    (sweep_one_lemma); a lone call reads with a memo of its own.
    """
    if lemma_id not in _REGISTRY:
        raise MissingParamError(f"unknown registry id {lemma_id}")
    if params.analysis is not None:
        q = params.analysis.ctx.q
        check_brute_cap(params.analysis.ctx)
        for name, v in (("alpha", params.alpha), ("beta", params.beta)):
            if v is not None and not 0 <= v < q:
                raise PreconditionViolatedError(
                    f"{name} encoding {v} outside [0, {q})")
    if params.p is not None:
        _check_cap(params.p)
    closed, brute = _REGISTRY[lemma_id]
    rows = closed(params)
    out = []
    for (branch, value, note), seen in zip(rows, brute(params, _memo), strict=True):
        if isinstance(seen, tuple):
            seen, reading = seen
            note = "; ".join(n for n in (reading, note) if n) or None
        out.append(_result(lemma_id, branch, value, seen, params, note))
    return out


# --- sweep machinery ----------------------------------------------------------


@lru_cache(maxsize=None)
def _field(p: int, m: int, modulus: tuple | None) -> ExtField:
    return ExtField(p, m, list(modulus) if modulus else None)


def get_field(p: int, m: int, modulus=None) -> ExtField:
    """The process-wide GF(p^m); an omitted or None modulus, and a list or
    tuple of the same coefficients, share one cache entry."""
    return _field(p, m, tuple(modulus) if modulus else None)


get_field.cache_clear = _field.cache_clear
get_field.cache_info = _field.cache_info


def _rank_one_form(ctx: ExtField, v: int) -> QuadraticFunction:
    """(Tr(vx))^2 as a coefficient form; rank 1 when Tr(v * x^j) not all 0."""
    coeffs = [ctx.mul(ctx.frobenius(v, j), v) for j in range(ctx.m)]
    return QuadraticFunction(ctx, coeffs)


def analysis_pool(p: int, m: int, rng: random.Random, extra: int = 6
                  ) -> list[FormAnalysis]:
    """A deterministic mix of preset and random forms with varied rank,
    over a field the exhaustive routes accept."""
    ctx = get_field(p, m)
    check_brute_cap(ctx)
    pool = [analyze(preset_cor1(ctx, 1))]
    if m > 1:
        pool.append(analyze(preset_cor1(ctx, ctx.generator)))
        v = next(x for x in ctx.nonzero_elements()
                 if ctx.trace(ctx.mul(x, x)) != 0)
        pool.append(analyze(preset_trace_square_minus(ctx, v)))
        pool.append(analyze(_rank_one_form(ctx, v)))
    for _ in range(extra):
        while True:
            coeffs = [rng.randrange(ctx.q) for _ in range(m)]
            if any(coeffs):
                f = QuadraticFunction(ctx, coeffs)
                an = analyze(f)
                if an.rank >= 1:
                    pool.append(an)
                    break
    return pool


def sample_params(lemma_id: int, pool, rng: random.Random) -> LemmaParams | None:
    """One random parameter set satisfying the lemma's preconditions.

    Returns None when the drawn configuration misses them; the sweep
    simply redraws.
    """
    an = rng.choice(pool)
    ctx = an.ctx
    p, q = ctx.p, ctx.q
    if lemma_id == 5:
        return LemmaParams(analysis=an, beta=rng.randrange(q))
    if lemma_id == 6:
        a, b, c = (rng.randrange(p) for _ in range(3))
        if (a * c - b * b) % p == 0 and a % p == 0:
            return None
        return LemmaParams(p=p, abc=(a, b, c))
    if lemma_id == 7:
        return LemmaParams(analysis=an, t=rng.randrange(1, p))
    if lemma_id in (8, 19):
        alpha = an.image_draw(rng.randrange(q))
        if alpha == 0 or an.f_at_xb(alpha) != 0:
            return None
        t = rng.randrange(1, p) if lemma_id == 8 else None
        return LemmaParams(analysis=an, alpha=alpha, t=t)
    if lemma_id == 9:
        return LemmaParams(analysis=an, alpha=rng.randrange(q))
    if lemma_id in (10, 11):
        return LemmaParams(analysis=an, beta=rng.randrange(1, q))
    if lemma_id in (13, 14, 15):
        return LemmaParams(analysis=an, alpha=rng.randrange(q),
                           beta=rng.randrange(1, q))
    if lemma_id in (16, 17, 18):
        alpha = an.image_draw(rng.randrange(q))
        if alpha == 0 or an.f_at_xb(alpha) == 0:
            return None
        t = rng.randrange(p) if lemma_id == 17 else None
        return LemmaParams(analysis=an, alpha=alpha, t=t)
    raise MissingParamError(f"unknown registry id {lemma_id}")


# Branch labels a sweep is expected to reach on the default field mix;
# the fill scan targets exactly these.
REQUIRED_BRANCHES = {
    5: ["I", "II:in_image", "II:outside_image"],
    6: ["nondegenerate", "degenerate"],
    7: ["even", "odd"],
    8: ["odd_rank", "even_rank_derived_variant"],
    9: ["outside_image", "even_zero", "even_nonzero", "odd_zero",
        "odd_nonzero"],
    10: ["S1", "S2:in_zero", "S2:in_nonzero", "S2:outside",
         "S3:even:in_zero", "S3:even:in_nonzero", "S3:even:outside",
         "S3:odd:in_zero", "S3:odd:in_nonzero", "S3:odd:outside"],
    11: ["even:in_zero", "even:in_nonzero", "even:outside",
         "odd:in_zero", "odd:in_nonzero", "odd:outside"],
    13: ["I:in:zero_zero", "I:in:zero_nonzero", "I:in:nonzero",
         "I:outside_beta", "II:in_union", "II:outside_union"],
    14: ["I:ez:zz", "I:ez:mixed", "I:ez:nznz", "I:ez:bout",
         "I:en:zz", "I:en:zeros", "I:en:Enz", "I:en:bout",
         "I:oz:fb0_or_bout", "I:oz:tr0", "I:oz:trnz",
         "I:on:zz", "I:on:znz", "I:on:E0", "I:on:Enz", "I:on:bout",
         "II:even:fnz", "II:even:f0", "II:even:out",
         "II:odd:fnz", "II:odd:out"],
    15: ["I:ez:zz", "I:ez:mixed", "I:ez:nznz", "I:ez:bout",
         "I:en:zz", "I:en:zeros", "I:en:Enz", "I:en:bout",
         "I:oz:fb0", "I:oz:tr0", "I:oz:trnz", "I:oz:bout",
         "I:on:zz", "I:on:znz", "I:on:E0", "I:on:Enz", "I:on:bout",
         "II:even:fnz", "II:even:f0", "II:odd:fnz", "II:outside_union"],
    16: ["S6", "sigma:even", "sigma:odd", "NE:even", "NE:odd"],
    17: ["gsum", "even:t0", "even:tnz", "odd:t0", "odd:tnz"],
    18: ["I1", "I2", "I3", "I4", "J1", "J2", "J3", "J4", "J5", "J6"],
    19: ["sq_tr0", "nsq_tr0", "sq_trnz", "nsq_trnz",
         "even:sq_tr0", "even:nsq_tr0", "even:sq_trnz", "even:nsq_trnz"],
}


@dataclass
class LemmaSweepReport:
    lemma_id: int
    trials: int
    branches: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def all_equal(self) -> bool:
        """True when checks ran and none failed; a sweep of no checks
        shows nothing, so it is not reported as agreement."""
        return self.trials > 0 and not self.failures

    def to_json(self) -> dict:
        return {"lemma": self.lemma_id, "trials": self.trials,
                "branches": dict(sorted(self.branches.items())),
                "all_equal": self.all_equal,
                "counterexamples": self.failures,
                "notes": sorted(set(self.notes))}


def build_pool(field_specs, seed: int) -> list[FormAnalysis]:
    """The deterministic analysis mix a sweep draws from."""
    pool_rng = random.Random(seed * 10007 + 9999991)
    pool_all = []
    for p, m in field_specs:
        pool_all.extend(analysis_pool(p, m, pool_rng))
    return pool_all


def sweep_one_lemma(lemma_id: int, pool_all, trials: int, seed: int,
                    min_branch: int = 3) -> "LemmaSweepReport":
    """Sweep a single identity; seeded independently per id, so runs can
    be distributed across workers without changing the report."""
    rng = random.Random(seed * 10007 + lemma_id)
    rep = LemmaSweepReport(lemma_id=lemma_id, trials=0)
    memo = _ReadoutMemo()  # this sweep's, dropped on return
    for an in pool_all:
        an.solution_tables()  # x_b, f(x_b) and syndromes for the closed sides
    draws = 0
    attempts = 0
    while draws < trials and attempts < 80 * trials:
        attempts += 1
        params = sample_params(lemma_id, pool_all, rng)
        if params is None:
            continue
        _run_check(rep, lemma_id, params, memo)
        draws += 1
    rep.trials = draws
    _fill_missing_branches(rep, lemma_id, pool_all, min_branch, memo)
    for branch in sorted(REQUIRED_BRANCHES[lemma_id]):
        hits = rep.branches.get(branch, 0)
        if hits < min_branch:
            rep.notes.append(f"required branch {branch} reached {hits} of "
                             f"{min_branch} checks; the branch fill found no more")
    if not rep.trials:
        rep.notes.append("no parameters were drawn, so nothing was checked")
    return rep


def lemma_sweep(field_specs, trials: int, seed: int,
                lemma_ids=None, min_branch: int = 3, workers: int = 1) -> dict:
    """Head-to-head sweep of registry identities on random parameters.

    field_specs is a list of (p, m) pairs.  After `trials` random draws
    per identity, reachable branches still below `min_branch` hits are
    filled by a deterministic scan; each required branch the scan leaves
    short gets a note with its count.  Fully deterministic for a fixed
    seed, with or without workers.
    """
    ids = tuple(lemma_ids) if lemma_ids else IDENTITY_IDS
    field_specs = [tuple(fs) for fs in field_specs]
    workers = pool_size(workers, len(ids), os.cpu_count())
    if workers > 1:
        import concurrent.futures

        payload = [(lemma_id, field_specs, trials, seed, min_branch)
                   for lemma_id in ids]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            sub = list(pool.map(_sweep_lemma_payload, payload))
        reports = dict(zip(ids, sub))
    else:
        pool_all = build_pool(field_specs, seed)
        reports = {lemma_id: sweep_one_lemma(lemma_id, pool_all, trials,
                                             seed, min_branch).to_json()
                   for lemma_id in ids}
    return {
        "trials": trials,
        "seed": seed,
        "fields": [list(fs) for fs in field_specs],
        "lemmas": {str(k): reports[k] for k in ids},
        "all_equal": all(v["all_equal"] for v in reports.values()),
    }


def pool_size(workers: int, tasks: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than were asked for, than
    there are tasks to share out, or than the machine has CPUs."""
    return max(1, min(workers, tasks, cpus or 1))


def _sweep_lemma_payload(payload) -> dict:
    lemma_id, field_specs, trials, seed, min_branch = payload
    pool_all = build_pool(field_specs, seed)
    return sweep_one_lemma(lemma_id, pool_all, trials, seed, min_branch).to_json()


def _run_check(rep: LemmaSweepReport, lemma_id: int, params: LemmaParams,
               memo: _ReadoutMemo):
    for res in lemma_oracle(lemma_id, params, _memo=memo):
        rep.branches[res.branch] = rep.branches.get(res.branch, 0) + 1
        if res.note:
            rep.notes.append(res.note)
        if not res.equal:
            rep.failures.append(res.to_json())


# stream keys the branch fill compares at once: np.isin's transients grow
# to about 13 bytes a key, and id 17's stream has p q keys
_FILL_WINDOW = 1 << 16


def _fill_missing_branches(rep: LemmaSweepReport, lemma_id: int,
                           pool, min_branch: int, memo: _ReadoutMemo) -> None:
    """Deterministic scan for parameters hitting under-covered branches:
    in each stream of _streams, in order, every parameter set whose
    branches include one still below min_branch when the scan reaches it.
    The branches are a function of the form and the stream's key, so
    closed() runs once per (form, key), and each witness is found by
    np.isin over the key array."""

    def missing() -> set:
        return {b for b in REQUIRED_BRANCHES[lemma_id]
                if rep.branches.get(b, 0) < min_branch}

    wanted = missing()
    if not wanted:
        return
    closed = _REGISTRY[lemma_id][0]
    form = None
    for an, key, firsts, make in _streams(lemma_id, pool):
        if an is not form:
            form, labels_of = an, {}  # {key: branches} of this form's streams
        for k, i in firsts.items():
            if k not in labels_of:
                labels_of[k] = {branch for branch, _, _ in closed(make(i))}
        i = 0
        while i < len(key):
            hit = [k for k in firsts if labels_of[k] & wanted]
            if not hit:
                break
            ahead = np.isin(key[i:i + _FILL_WINDOW], hit)
            if not ahead.any():
                i += _FILL_WINDOW
                continue
            i += int(ahead.argmax())
            _run_check(rep, lemma_id, make(i), memo)
            rep.trials += 1
            wanted = missing()
            if not wanted:
                return
            i += 1


def _streams(lemma_id: int, pool):
    """The branch fill's parameter streams in scan order, as (form, key,
    firsts, make): make(i) is the i-th parameter set, key[i] an integer
    that fixes its branches together with the form (a premise tested for
    every id), and firsts[k] the first i with key k.  make reads this
    generator's state, so it holds until the next stream is drawn.

    Id 5 scans beta in GF(q), keyed by whether beta is in Im(L); id 9
    alpha in GF(q), by f(x_alpha): outside Im(L), zero or nonzero; id 6
    the (a, b, c) in GF(p)^3 with ac - b^2 or a nonzero, for the first
    form's p, by whether ac - b^2 != 0; id 7 t in GF(p)*.  Ids 8 and 19
    scan image_alphas(vanishing=True) and 16-18 image_alphas(vanishing=
    False), each alpha with every t in GF(p)* for id 8 and in GF(p) for
    id 17, by whether t = 0.  Ids 10 and 11 scan beta in GF(q)*, and
    13-15 the same for every (q // 48)-th alpha, by the beta_classes key.
    """
    if lemma_id == 6:
        p = pool[0].ctx.p
        a, b, c = np.indices((p, p, p)).reshape(3, -1)
        nondegenerate = (a * c - b * b) % p != 0
        keep = nondegenerate | (a != 0)
        abc = np.stack([a, b, c], axis=1)[keep]
        key = nondegenerate[keep]
        yield pool[0], key, _firsts(key), lambda i: LemmaParams(
            p=p, abc=tuple(abc[i].tolist()))
        return
    for an in pool:
        p, q = an.ctx.p, an.ctx.q
        if lemma_id in (10, 11, 13, 14, 15):
            for alpha in [None] if lemma_id < 13 else range(0, q, max(1, q // 48)):
                keys, cls, reps = an.beta_classes(alpha or 0)
                yield (an, keys[cls], dict(zip(keys.tolist(), (reps - 1).tolist())),
                       lambda i: LemmaParams(analysis=an, alpha=alpha, beta=i + 1))
        elif lemma_id in (5, 9):
            fxb = an.solution_tables()[1]
            key = fxb >= 0 if lemma_id == 5 else np.sign(fxb)
            name = "beta" if lemma_id == 5 else "alpha"
            yield an, key, _firsts(key), lambda i: LemmaParams(
                analysis=an, **{name: i})
        elif lemma_id == 7:
            key = np.zeros(p - 1, dtype=np.int8)
            yield an, key, {0: 0}, lambda i: LemmaParams(analysis=an, t=i + 1)
        else:
            alphas = an.image_alphas(vanishing=lemma_id in (8, 19))
            ts = {8: range(1, p), 17: range(p)}.get(lemma_id, [None])
            key = np.tile([t == 0 for t in ts], len(alphas))
            yield an, key, _firsts(key), lambda i: LemmaParams(
                analysis=an, alpha=int(alphas[i // len(ts)]), t=ts[i % len(ts)])


def _firsts(key: np.ndarray) -> dict:
    """{k: the first i with key[i] = k} for each value k of a key array
    whose values span a short range."""
    firsts = {}
    for k in range(int(key.min(initial=0)), int(key.max(initial=0)) + 1):
        at = key == k
        if at.any():
            firsts[k] = int(at.argmax())
    return firsts
