"""Linear codes from inhomogeneous quadratic level sets.

The defining set D collects the nonzero solutions of
f(x) - Tr(alpha x) = 0; the code's codewords are
(Tr(beta d) for d in D), one per beta in GF(q), and
wt(c_beta) = |D| - #{d in D : Tr(beta d) = 0}.  Weight data comes from
two independent routes.  The naive one counts the zeros of every
codeword at once by the hyperplane-count transform of the indicator of
D's trace-dual coordinates over the digit space GF(p)^m
(field.hyperplane_counts: one float32 matrix product per digit axis,
exact on these integer counts); it reads only the traces Tr(x^j d), as
windows of the log-order trace array.  The analytic one evaluates the
closed-form solution counters once per class of beta
(FormAnalysis.beta_classes), at most p^2 + 1 times, since they see beta
only through a few quadratic invariants.  "both" mode insists the
routes agree before returning; validation then checks the first and
second power moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counting import (
    check_brute_cap,
    predict_hyperplane_root_count,
    predict_root_count,
)
from .errors import (
    DimensionCollapseError,
    EmptyDefiningSetError,
    PreconditionViolatedError,
    QCodeError,
)
from .field import horner, hyperplane_counts
from .linalg import rank as gf_rank
from .quadform import FormAnalysis


@dataclass(frozen=True)
class DefiningSet:
    """Sorted nonzero solutions of f(x) - Tr(alpha x) = 0, held as one
    read-only int64 array of encodings; (analysis, alpha) determines it."""

    analysis: FormAnalysis
    alpha: int
    indices: np.ndarray = field(repr=False, compare=False)

    @property
    def elements(self) -> tuple[int, ...]:
        """D as a sorted tuple of Python ints, made on each call."""
        return tuple(self.indices.tolist())

    @property
    def ctx(self):
        return self.analysis.ctx

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def homogeneous(self) -> bool:
        return self.alpha == 0


@dataclass(frozen=True)
class WeightDistribution:
    """Exact weight data of a code: length, dimension, weight counts."""

    n: int
    k: int
    counts: dict[int, int]

    @property
    def d_min(self) -> int:
        return min(w for w in self.counts if w > 0)

    def validate(self, p: int, pairs: int) -> None:
        """Structural identities every constructed code satisfies.

        pairs is the number of unordered pairs {d, lambda d} inside D with
        lambda in GF(p)* other than 1 (proportional_pairs).  Coordinates
        i != j hold the pair (c_i, c_j) nonzero on (p-1)^2 p^(k-2)
        codewords when d_i, d_j are independent, and on (p-1) p^(k-1)
        when proportional; the second Pless moment sums this
        (MacWilliams-Sloane ch. 5 §6).
        """
        n, k = self.n, self.k
        total = sum(self.counts.values())
        if total != p**k:
            raise QCodeError(f"multiplicities sum to {total}, not p^k")
        if self.counts.get(0) != 1:
            raise QCodeError("weight 0 must have multiplicity exactly 1")
        moment = sum(w * c for w, c in self.counts.items())
        if moment != n * (p - 1) * p ** (k - 1):
            raise QCodeError("first power moment fails")
        # both sides times p^2, so that p^(k-2) stays integral at k = 1
        second = sum(w * w * c for w, c in self.counts.items())
        if p * p * second != ((n + 2 * pairs) * (p - 1) * p ** (k + 1)
                              + (n * (n - 1) - 2 * pairs) * (p - 1) ** 2 * p**k):
            raise QCodeError("second power moment fails")
        for w, c in self.counts.items():
            if w and c % (p - 1):
                raise QCodeError(f"multiplicity {c} at weight {w} not divisible by p-1")

    def to_json(self) -> dict:
        return {
            "length": self.n,
            "dimension": self.k,
            "min_distance": self.d_min,
            "weight_distribution": {str(w): c for w, c in sorted(self.counts.items())
                                    if w > 0},
            "enumerator": enumerator_string(self),
        }


def defining_set(analysis: FormAnalysis, alpha: int) -> DefiningSet:
    """Materialize D, sorted ascending, with its size cross-checked
    against the closed-form solution count.

    D is read in log order, where x = g^j is nonzero by construction:
    the j with f(g^j) = Tr(alpha g^j), from log_values() against
    trace_mul_log(alpha), both in the digit dtype, mapped to g^j by the
    exp table."""
    check_brute_cap(analysis.ctx)
    ctx = analysis.ctx
    hits = np.flatnonzero(analysis.f.log_values() == ctx.trace_mul_log(alpha))
    indices = ctx._exp[hits].astype(np.int64)
    indices.sort()
    indices.flags.writeable = False
    if not indices.size:
        raise EmptyDefiningSetError("defining set is empty; code undefined")
    expected = predict_root_count(analysis, alpha) - 1
    if indices.size != expected:
        raise QCodeError(
            f"defining set size {indices.size} != predicted {expected}")
    return DefiningSet(analysis, alpha, indices)


def proportional_pairs(ds: DefiningSet) -> int:
    """Number of unordered pairs {d, lambda d} inside D, lambda in
    GF(p)* other than 1.  For d in D, f(lambda d) - Tr(alpha lambda d) =
    (lambda^2 - lambda) f(d), so lambda d lies in D iff f(d) = 0: each d
    with f(d) = 0 (read from log_values()) gives p - 2 ordered pairs, and
    each pair is met under lambda and under 1/lambda."""
    ctx = ds.ctx
    zeros = np.count_nonzero(ds.analysis.f.log_values()[ctx._log[ds.indices]] == 0)
    return (ctx.p - 2) * int(zeros) // 2


def weight_of(beta: int, ds: DefiningSet) -> int:
    """Hamming weight of the codeword indexed by beta: the nonzero
    Tr(beta d), read off the log-order window of beta at log d."""
    ctx = ds.ctx
    return int(np.count_nonzero(ctx.trace_mul_log(beta)[ctx._log[ds.indices]]))


def _trace_dual(ds: DefiningSet) -> list[np.ndarray]:
    """The m columns w_j, in the digit dtype, of D's trace-dual
    coordinates w(d), with w(d)_j = Tr(x^j d).  Column j is the codeword
    of the basis index x^j, whose encoding is p^j: the log-order window of
    p^j read at log d.  Tr(beta d) = digits(beta) . w(d) (mod p) for every
    beta, since Tr is GF(p)-linear."""
    ctx = ds.ctx
    logs = ctx._log[ds.indices]
    return [ctx.trace_mul_log(ctx.p**j)[logs] for j in range(ctx.m)]


def _weights_naive(ds: DefiningSet) -> np.ndarray:
    """Weights of all q codewords from exact hyperplane counts, on the
    trace-dual coordinates w(d) of D (_trace_dual).

    The zeros of c_beta number #{d in D : digits(beta) . w(d) = 0}:
    hyperplane_counts on the indicator of w(D), marked at the encodings
    sum_j w(d)_j p^j (field.horner), gives that count at t = digits(beta),
    which is indexed by beta itself.  w is injective (the trace form is
    nondegenerate), so the indicator holds |D| ones.
    """
    ctx = ds.ctx
    member = np.zeros((1, ctx.q), dtype=bool)
    member[0, horner(_trace_dual(ds), ctx.p, ds.length)] = True
    zeros = hyperplane_counts(ctx.p, ctx.m, member)[0, :, 0]
    return ds.length - zeros.astype(np.int64)


def _weights_analytic(ds: DefiningSet) -> np.ndarray:
    """Weights via wt(c_beta) = N - N_beta from the closed-form counters.

    N_beta depends on beta only through its class
    (FormAnalysis.beta_classes), so S5 is evaluated once per class, at
    most p^2 + 1 times, and the counts are gathered back onto every beta.
    """
    an = ds.analysis
    _, cls, reps = an.beta_classes(ds.alpha)
    n_full = predict_root_count(an, ds.alpha)
    per_class = np.asarray(
        [n_full - predict_hyperplane_root_count(an, ds.alpha, int(beta))
         for beta in reps], dtype=np.int64)
    weights = np.zeros(an.ctx.q, dtype=np.int64)
    weights[1:] = per_class[cls]
    return weights


def weight_distribution(ds: DefiningSet, mode: str = "both") -> WeightDistribution:
    """Exact weight distribution; mode selects the computation route.

    naive counts every codeword's zeros by the hyperplane-count
    transform; analytic evaluates the closed-form counters once per beta
    class; both runs the two and requires exact agreement.
    The dimension claim k = m is asserted: a zero weight at a nonzero
    index raises DimensionCollapse with the witness.
    """
    ctx = ds.ctx
    if mode not in ("naive", "analytic", "both"):
        raise PreconditionViolatedError(f"unknown mode {mode!r}")
    weights = None
    if mode in ("naive", "both"):
        weights = _weights_naive(ds)
    if mode in ("analytic", "both"):
        analytic = _weights_analytic(ds)
        if weights is None:
            weights = analytic
        elif not np.array_equal(weights, analytic):
            bad = int(np.flatnonzero(weights != analytic)[0])
            raise QCodeError(
                f"naive and analytic weights disagree at beta={bad}: "
                f"{int(weights[bad])} vs {int(analytic[bad])}")
    zero_hits = np.flatnonzero(weights[1:] == 0)
    if zero_hits.size:
        witness = int(zero_hits[0]) + 1
        raise DimensionCollapseError(
            f"codeword index {witness} has weight 0", witness=witness)
    values, multiplicities = np.unique(weights, return_counts=True)
    counts = {int(w): int(c) for w, c in zip(values, multiplicities)}
    wd = WeightDistribution(n=ds.length, k=ctx.m, counts=counts)
    wd.validate(ctx.p, proportional_pairs(ds))
    return wd


def enumerator_string(wd: WeightDistribution) -> str:
    """1 + A_w1 z^w1 + ... in ascending weight order."""
    parts = ["1"]
    for w in sorted(wd.counts):
        if w == 0:
            continue
        parts.append(f"{wd.counts[w]}z^{w}")
    return "+".join(parts)


def parse_enumerator(text: str) -> dict[int, int]:
    """Inverse of enumerator_string; returns the weight -> count map."""
    counts: dict[int, int] = {}
    for term in text.replace(" ", "").split("+"):
        if "z" not in term:
            counts[0] = counts.get(0, 0) + int(term)
            continue
        coeff, _, power = term.partition("z^")
        counts[int(power)] = counts.get(int(power), 0) + int(coeff or 1)
    return counts


def generator_matrix(ds: DefiningSet) -> list[list[int]]:
    """m x n matrix whose row j is the codeword of the basis index x^j,
    Tr(x^j d) for d in D: the transposed trace-dual coordinates.

    Every codeword is the digit-combination of these rows; the rank over
    GF(p) must be m (checked).
    """
    rows = np.stack(_trace_dual(ds))
    if gf_rank(rows, ds.ctx.p) != ds.ctx.m:
        raise DimensionCollapseError("generator matrix is rank-deficient")
    return rows.tolist()


def generator_matrix_csv(ds: DefiningSet) -> str:
    return "\n".join(" ".join(str(v) for v in row)
                     for row in generator_matrix(ds)) + "\n"


def code_json(ds: DefiningSet, wd: WeightDistribution) -> dict:
    ctx = ds.ctx
    out = {
        "p": ctx.p,
        "m": ctx.m,
        "modulus": ctx.modulus_text(),
        "coeffs": ",".join(ctx.element_text(c) for c in ds.analysis.f.coeffs),
        "alpha": ctx.element_text(ds.alpha),
    }
    out.update(wd.to_json())
    return out
