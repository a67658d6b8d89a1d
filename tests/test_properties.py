"""Property tests: the weight routes agree on drawn codes, and integer
CycNum arithmetic agrees with a Fraction-coordinate reference."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcode.codes import _weights_analytic, _weights_naive, defining_set  # noqa: E402
from qcode.counting import get_field  # noqa: E402
from qcode.cyclotomic import CycNum, gauss_sum_prime  # noqa: E402
from qcode.errors import EmptyDefiningSetError  # noqa: E402
from qcode.field import is_irreducible  # noqa: E402
from qcode.quadform import (  # noqa: E402
    QuadraticFunction,
    analyze,
    preset_cor1,
    preset_trace_square_minus,
)

# every (p, m) with q <= 5^3
FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
          (7, 1), (7, 2), (11, 1), (11, 2)]


@st.composite
def codes(draw):
    p, m = draw(st.sampled_from(FIELDS))
    F = get_field(p, m)
    elt = draw(st.integers(1, F.q - 1))
    if draw(st.sampled_from(("cor1", "trmv"))) == "cor1":
        f = preset_cor1(F, elt)
    else:
        assume(F.trace(F.mul(elt, elt)) != 0)
        f = preset_trace_square_minus(F, elt)
    alpha = draw(st.integers(0, F.q - 1))
    try:
        return defining_set(analyze(f), alpha)
    except EmptyDefiningSetError:
        reject()


@settings(max_examples=60, deadline=None, database=None)
@given(codes())
def test_naive_and_analytic_weights_agree(ds):
    assert _weights_naive(ds).tolist() == _weights_analytic(ds).tolist()


@st.composite
def codes_over_drawn_moduli(draw):
    """A code over GF(p^m) with a drawn irreducible modulus, from a
    preset or raw coefficients, with alpha forced outside Im(L) on about
    half the draws where that is possible."""
    p, m = draw(st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (7, 3), (11, 2), (13, 2)]))
    low = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    assume(is_irreducible(low + [1], p))
    F = get_field(p, m, low + [1])
    kind = draw(st.sampled_from(("cor1", "trmv", "coeffs")))
    if kind == "cor1":
        f = preset_cor1(F, draw(st.integers(1, F.q - 1)))
    elif kind == "trmv":
        v = draw(st.integers(1, F.q - 1))
        assume(F.trace(F.mul(v, v)) != 0)
        f = preset_trace_square_minus(F, v)
    else:
        coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=m, max_size=m))
        assume(any(coeffs))
        f = QuadraticFunction(F, coeffs)
    an = analyze(f)
    alpha = draw(st.integers(0, F.q - 1))
    if an.rank < m and draw(st.booleans()):
        # alpha + c for c outside Im(L) in the direction of the first
        # basis vector the image misses
        outside = next(F.pow_of_basis(j) for j in range(m)
                       if not an.in_image(F.pow_of_basis(j)))
        if an.in_image(alpha):
            alpha = F.add(alpha, outside)
    try:
        return defining_set(an, alpha)
    except EmptyDefiningSetError:
        reject()


@settings(max_examples=80, deadline=None, database=None)
@given(codes_over_drawn_moduli())
def test_class_route_matches_naive_transform(ds):
    assert _weights_analytic(ds).tolist() == _weights_naive(ds).tolist()


class FracCyc:
    """Reference element of Q(zeta_p): p-1 Fraction coordinates on
    {zeta^0, ..., zeta^(p-2)}, each operation written out on them."""

    def __init__(self, p, coords):
        self.p = p
        self.coords = tuple(Fraction(c) for c in coords)

    def _fold(self, acc):
        top = acc[self.p - 1]
        return FracCyc(self.p, [c - top for c in acc[: self.p - 1]])

    def __add__(self, other):
        return FracCyc(self.p, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return FracCyc(self.p, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FracCyc(self.p, [-a for a in self.coords])

    def __mul__(self, other):
        acc = [Fraction(0)] * self.p
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                acc[(i + j) % self.p] += a * b
        return self._fold(acc)

    def __pow__(self, e):
        out = FracCyc(self.p, [1] + [0] * (self.p - 2))
        for _ in range(e):
            out = out * self
        return out

    def scale(self, c):
        return FracCyc(self.p, [a * c for a in self.coords])

    def sigma(self, a):
        acc = [Fraction(0)] * self.p
        for e, c in enumerate(self.coords):
            acc[a * e % self.p] += c
        return self._fold(acc)

    def to_text(self):
        parts = []
        for k, c in enumerate(self.coords):
            num = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            parts.append(num if k == 0 else f"{num}*z^{k}" if k > 1 else f"{num}*z")
        return " + ".join(parts)


PRIMES = (3, 5, 7, 11, 13)
# powers of the primes in use, and denominators that are not powers of p
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 25, 27, 49, 121, 169)


def fractions_over(denominators):
    return st.builds(Fraction, st.integers(-30, 30), st.sampled_from(denominators))


@st.composite
def elements(draw, p):
    coords = draw(st.lists(fractions_over(DENOMINATORS), min_size=p - 1,
                           max_size=p - 1))
    return CycNum(p, coords), FracCyc(p, coords)


def assert_agrees(x, ref):
    p = ref.p
    # canonical: integer numerators over one positive denominator, coprime
    assert type(x.den) is int and x.den > 0
    assert len(x.num) == p - 1 and all(type(n) is int for n in x.num)
    assert gcd(x.den, *x.num) == 1
    assert x.coords == ref.coords
    assert x.to_text() == ref.to_text()
    assert x.is_zero() == all(c == 0 for c in ref.coords)
    assert x.is_rational() == all(c == 0 for c in ref.coords[1:])
    if x.is_rational():
        assert x.rational_value() == ref.coords[0]
        assert x == ref.coords[0]
    twin = CycNum(p, ref.coords)
    assert x == twin and hash(x) == hash(twin)


@st.composite
def programs(draw):
    """A prime, a start element and up to six operations on it."""
    p = draw(st.sampled_from(PRIMES))
    start = draw(elements(p))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(("add", "sub", "neg", "mul", "scale",
                                   "sigma", "pow")))
        if op in ("add", "sub", "mul"):
            arg = draw(elements(p))
        elif op == "scale":
            arg = draw(fractions_over((1, 2, 4, 6, 10, 14, 15, 22, 26)))
        elif op == "sigma":
            arg = draw(st.integers(1, p - 1))
        elif op == "pow":
            arg = draw(st.integers(0, 3))
        else:
            arg = None
        ops.append((op, arg))
    return p, start, ops


@settings(max_examples=100, deadline=None, database=None)
@given(programs())
def test_integer_cycnum_matches_fraction_reference(program):
    p, (x, ref), ops = program
    assert_agrees(x, ref)
    for op, arg in ops:
        if op == "add":
            x, ref = x + arg[0], ref + arg[1]
        elif op == "sub":
            x, ref = x - arg[0], ref - arg[1]
        elif op == "mul":
            x, ref = x * arg[0], ref * arg[1]
        elif op == "neg":
            x, ref = -x, -ref
        elif op == "scale":
            x, ref = x.scale(arg), ref.scale(arg)
        elif op == "sigma":
            x, ref = x.sigma(arg), ref.sigma(arg)
        else:
            x, ref = x**arg, ref**arg
        assert_agrees(x, ref)
        if op in ("add", "sub", "mul"):
            # the same value reached through a different denominator
            assert (x - arg[0] + arg[0]) == x
            assert hash(x - arg[0] + arg[0]) == hash(x)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(PRIMES), st.integers(1, 60))
def test_equal_values_hash_equal(p, d):
    g = gauss_sum_prime(p)
    back = g.scale(Fraction(1, d)).scale(d)
    assert back == g and hash(back) == hash(g)
    assert back.num == g.num and back.den == g.den == 1
