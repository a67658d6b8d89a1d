"""Test-side oracles: direct spellings of field, form and cyclotomic
quantities that no package route computes, kept apart from the code they
check."""

import cmath

import numpy as np


def pow_of_basis(F, j):
    """Encoding of the basis element x^j."""
    return F.p**j


def embed_scalar(F, t):
    """GF(p) value as a field element (digit 0)."""
    return t % F.p


def trace_mul_all(F, b):
    """(q,) int64 array of Tr(b x) for every element x, in encoding order:
    every element's digits, read by integer division, times the
    trace-form row of b, with no exp, log or trace table."""
    x = np.arange(F.q, dtype=np.int64)[:, None]
    digits = x // F.p ** np.arange(F.m, dtype=np.int64) % F.p
    return digits @ F.trace_mul_vector(b) % F.p


def trace_table(F):
    """(q,) traces in encoding order, in the dtype of the field's trace
    array: its log-order Tr(g^j) placed at g^j, and 0 at 0."""
    window = F.trace_mul_log(1)
    table = np.zeros(F.q, dtype=window.dtype)
    table[F._exp] = window
    return table


def l_apply(an, x):
    """L(x) = sum_i l_i x^(p^i), one scalar Frobenius power per nonzero
    coefficient of the form's companion map."""
    F = an.ctx
    acc = 0
    for i, c in enumerate(an.l_coeffs):
        if c:
            acc = F.add(acc, F.mul(c, F.frobenius(x, i)))
    return acc


def kernel_elements(an):
    """All of Ker(L), sorted, enumerated from the analysis's kernel basis."""
    F = an.ctx
    elems = [0]
    for b in an.ker_basis:
        new = []
        for e in elems:
            cur = e
            for _ in range(F.p - 1):
                cur = F.add(cur, b)
                new.append(cur)
        elems.extend(new)
    return sorted(elems)


def is_zero(x):
    """A CycNum is zero iff every numerator is."""
    return not any(x.num)


def complex_value(x):
    """Numeric embedding zeta -> e^(2 pi i / p) of a CycNum."""
    zeta = cmath.exp(2j * cmath.pi / x.p)
    return sum(n / x.den * zeta**k for k, n in enumerate(x.num))
