"""Exact arithmetic in the cyclotomic field Q(zeta_p).

A CycNum stores p-1 integer numerators on the integral basis
{zeta^0, ..., zeta^(p-2)} over one shared positive denominator, with
zeta^(p-1) eliminated through 1 + zeta + ... + zeta^(p-1) = 0.  The ring
operations run on integers only; Fractions appear at the API edge (the
constructor, coords, rational_value and scale).  Every identity in this
package is checked by exact equality here; no routine in this module
uses floating point.

The square root of p* = (-1)^((p-1)/2) p is *defined* as the prime-field
Gauss sum sum_{c in GF(p)*} eta_bar(c) zeta^c, which fixes the branch
for odd half-powers of p*.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral

from .errors import NonUnitError, ZeroLeadCoefficientError
from .field import ExtField, eta_bar


class CycNum:
    """Element of Q(zeta_p) in canonical form: num, a tuple of p-1 integer
    numerators on {zeta^0, ..., zeta^(p-2)}, over den > 0 with
    gcd(den, *num) = 1, so equal elements have equal (num, den).

    Every value the registry makes has a power of p as its denominator;
    any positive denominator is accepted.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coords):
        values = [_rational(c) for c in coords]
        if len(values) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates, got {len(values)}")
        den = lcm(*(v.denominator for v in values))
        num = [v.numerator * (den // v.denominator) for v in values]
        self.p = p
        self.num, self.den = _reduce(num, den)

    @property
    def coords(self) -> tuple:
        """The p-1 rational coordinates, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> CycNum:
        return _new(p, (0,) * (p - 1), 1)

    @classmethod
    def from_rational(cls, p: int, value) -> CycNum:
        value = _rational(value)
        return _new(p, (value.numerator,) + (0,) * (p - 2), value.denominator)

    @classmethod
    def zeta_pow(cls, p: int, k: int) -> CycNum:
        k %= p
        if k == p - 1:
            return _new(p, (-1,) * (p - 1), 1)
        num = [0] * (p - 1)
        num[k] = 1
        return _new(p, num, 1)

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> CycNum:
        """Sum of counts[k] * zeta^k over k in [0, p)."""
        if len(counts) != p:
            raise ValueError(f"expected {p} exponent counts")
        top = counts[p - 1]
        return cls(p, [c - top for c in counts[: p - 1]])

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: CycNum) -> CycNum:
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _new(self.p, [x * a + y * b for x, y in zip(self.num, other.num)], den)

    def __sub__(self, other: CycNum) -> CycNum:
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _new(self.p, [x * a - y * b for x, y in zip(self.num, other.num)], den)

    def __neg__(self) -> CycNum:
        return _new(self.p, [-x for x in self.num], self.den)

    def __mul__(self, other: CycNum) -> CycNum:
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return _new(p, [c - top for c in acc[: p - 1]], self.den * other.den)

    def mul_zeta_pow(self, k: int) -> CycNum:
        """self * zeta^k: the numerator of zeta^i moves to exponent
        i + k mod p, and the one that lands on zeta^(p-1) is eliminated;
        p - 1 subtractions where __mul__ does (p - 1)^2 products."""
        p = self.p
        k %= p
        if k == 0:
            return self
        acc = self.num + (0,)  # exponents 0..p-1
        rotated = acc[-k:] + acc[:-k]  # rotated[j] = acc[(j - k) mod p]
        top = rotated[p - 1]
        return _new(p, [c - top for c in rotated[: p - 1]], self.den)

    def scale(self, c) -> CycNum:
        c = _rational(c)
        return _new(self.p, [x * c.numerator for x in self.num],
                    self.den * c.denominator)

    def __pow__(self, e: int) -> CycNum:
        if e < 0:
            raise ValueError("negative powers are not defined for CycNum")
        result = CycNum.from_rational(self.p, 1)
        cur = self
        while e:
            if e & 1:
                result = result * cur
            cur = cur * cur
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.p, other)
        return isinstance(other, CycNum) and (
            (self.p, self.den, self.num) == (other.p, other.den, other.num))

    def __hash__(self):
        return hash((self.p, self.den, self.num))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def sigma(self, a: int) -> CycNum:
        """Galois automorphism determined by zeta -> zeta^a, gcd(a, p) = 1."""
        p = self.p
        if a % p == 0:
            raise NonUnitError(f"sigma index {a} is not a unit mod {p}")
        acc = [0] * p
        for e, c in enumerate(self.num):
            if c:
                acc[a * e % p] += c
        top = acc[p - 1]
        return _new(p, [c - top for c in acc[: p - 1]], self.den)

    def to_text(self) -> str:
        den = self.den
        parts = []
        for k, n in enumerate(self.num):
            g = gcd(n, den)
            text = f"{n // g}" if g == den else f"{n // g}/{den // g}"
            parts.append(text if k == 0 else f"{text}*z^{k}" if k > 1 else f"{text}*z")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CycNum(p={self.p}, {self.to_text()})"


def _rational(value):
    """value as a Python int or a Fraction, either of which has numerator
    and denominator."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, Integral):  # numpy integers, say
        return int(value)
    return Fraction(value)


def _reduce(num, den: int) -> tuple[tuple, int]:
    """Numerators and denominator divided by gcd(den, *num)."""
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(n // g for n in num), den // g


def _new(p: int, num, den: int) -> CycNum:
    """The CycNum num/den with den > 0, put in canonical form."""
    x = object.__new__(CycNum)
    x.p = p
    x.num, x.den = _reduce(num, den)
    return x


def pstar(p: int) -> int:
    """(-1)^((p-1)/2) * p."""
    return (-1) ** ((p - 1) // 2) * p


def pstar_fraction_power(p: int, e: int) -> Fraction:
    """(p*)^e as an exact rational, e any integer."""
    return Fraction(pstar(p)) ** e


def gauss_sum_prime(p: int) -> CycNum:
    """sum over GF(p)* of eta_bar(c) * zeta^c; its square is p*."""
    counts = [0] * p
    for c in range(1, p):
        counts[c] = eta_bar(c, p)
    return CycNum.from_exponent_counts(p, counts)


def pstar_half_power(p: int, e: int) -> CycNum:
    """(p*)^(e/2): rational for even e, a Gauss-sum multiple for odd e."""
    if e % 2 == 0:
        return CycNum.from_rational(p, pstar_fraction_power(p, e // 2))
    return gauss_sum_prime(p).scale(pstar_fraction_power(p, (e - 1) // 2))


def gauss_sum_ext(p: int, m: int) -> CycNum:
    """Gauss sum of the quadratic character of GF(p^m) with the canonical
    additive character, written in Q(zeta_p): (-1)^(m-1) times the m-th
    power of the prime-field Gauss sum."""
    g = gauss_sum_prime(p) ** m
    return g if m % 2 == 1 else -g


def exp_sum(ctx: ExtField, phase) -> CycNum:
    """Exact sum of zeta^phase(x) over all x in GF(q).

    phase is a callable on element encodings or a length-q sequence of
    GF(p) values.
    """
    counts = [0] * ctx.p
    if callable(phase):
        for x in ctx.elements():
            counts[phase(x) % ctx.p] += 1
    else:
        if len(phase) != ctx.q:
            raise ValueError("phase sequence must cover the whole field")
        for v in phase:
            counts[v % ctx.p] += 1
    return CycNum.from_exponent_counts(ctx.p, counts)


def sigma_unit_sum(x: CycNum) -> CycNum:
    """Sum of sigma_y(x) over the units y = 1..p-1."""
    acc = CycNum.zero(x.p)
    for y in range(1, x.p):
        acc = acc + x.sigma(y)
    return acc


def verify_sigma_power_sums(p: int, r: int, z: int | None = None) -> dict:
    """Check the two closed forms for sum_y sigma_y((p*)^(-r/2) [zeta^z]).

    Without z: 0 for odd r, (p*)^(-r/2)(p-1) for even r.  With a unit z:
    eta_bar(z)(p*)^(-(r-1)/2) for odd r, -(p*)^(-r/2) for even r.  The
    left side is the Galois sum computed term by term; the right side is
    counting.unit_sum, U(r, 1, z) on GF(p)^0.
    """
    from .counting import unit_sum  # counting builds on this module

    if z is not None and z % p == 0:
        raise NonUnitError("z must be a unit mod p")
    base = pstar_half_power(p, -r)
    if z is not None:
        base = base * CycNum.zeta_pow(p, z)
    lhs = sigma_unit_sum(base)
    rhs = CycNum.from_rational(p, unit_sum(p, 0, r, 1, z or 0))
    return {
        "p": p,
        "r": r,
        "z": z,
        "lhs": lhs.to_text(),
        "rhs": rhs.to_text(),
        "equal": lhs == rhs,
    }


def verify_quadratic_gauss(ctx: ExtField, a2: int, a1: int, a0: int) -> dict:
    """Check sum_c chi(a2 c^2 + a1 c + a0) against its closed form.

    chi is the canonical additive character.  The closed form is
    chi(a0 - a1^2/(4 a2)) eta(a2) G, where G is the field's quadratic
    Gauss sum, computed by brute summation and cross-checked against its
    expression as a signed power of the prime-field Gauss sum.
    """
    if a2 == 0:
        raise ZeroLeadCoefficientError("leading coefficient must be nonzero")
    p = ctx.p

    def phase(c: int) -> int:
        val = ctx.add(ctx.mul(a2, ctx.mul(c, c)), ctx.add(ctx.mul(a1, c), a0))
        return ctx.trace(val)

    lhs = exp_sum(ctx, phase)

    gauss_brute = CycNum.from_exponent_counts(p, _eta_weighted_counts(ctx))
    gauss_closed = gauss_sum_ext(p, ctx.m)
    shift = ctx.sub(a0, ctx.mul(ctx.mul(a1, a1),
                                ctx.inv(ctx.scalar_mul(4, a2))))
    rhs = gauss_brute.scale(ctx.eta(a2)) * CycNum.zeta_pow(p, ctx.trace(shift))
    return {
        "p": p,
        "m": ctx.m,
        "a2": a2,
        "a1": a1,
        "a0": a0,
        "lhs": lhs.to_text(),
        "rhs": rhs.to_text(),
        "equal": lhs == rhs,
        "gauss_brute_equals_closed": gauss_brute == gauss_closed,
    }


def _eta_weighted_counts(ctx: ExtField) -> list:
    counts = [0] * ctx.p
    for c in ctx.nonzero_elements():
        counts[ctx.trace(c)] += ctx.eta(c)
    return counts
