"""Exact arithmetic in GF(p) and GF(p^m) for odd primes p.

Field elements are plain Python ints in [0, p^m) under the base-p
little-endian digit encoding: digit i is the coefficient of x^i on the
polynomial basis {1, x, ..., x^(m-1)} of GF(p)[x] modulo the field
modulus.  The encoding round-trips through text as a decimal integer,
so every CLI value is bit-exact.

ExtField is immutable after construction, apart from the digit matrix and
the log-order trace array it fills on first use, and safe to share between
workers; every operation is a pure function of its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EvenPrimeError,
    NonPrimeError,
    PreconditionViolatedError,
    ReducibleModulusError,
)

# The exp/log tables are 2q Python ints and the trace table q int64s, filled
# by O(sqrt q) Python multiplications and O(q m) numpy work; the cap keeps
# q at desk scale (covers 5^7, 7^6 and 3^11).  counting.check_brute_cap
# adds smaller caps on q and p for the exhaustive routes.
_MAX_FIELD_SIZE = 200_000


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def eta_bar(t: int, p: int) -> int:
    """Quadratic character of GF(p), extended by eta_bar(0) = 0."""
    t %= p
    if t == 0:
        return 0
    return 1 if pow(t, (p - 1) // 2, p) == 1 else -1


# --- polynomial arithmetic over GF(p) on coefficient lists -----------------
# Coefficients little-endian, trailing zeros trimmed; [] is the zero poly.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(prod, mod, p)[1]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    quo = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lb % p
        shift = len(a) - 1 - db
        quo[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        a.pop()
    return _poly_trim(quo), _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    cur = _poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        e >>= 1
    return result


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Uses the distinct-degree criterion: f of degree m is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/l)) - x, f) = 1 for every prime l
    dividing m.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    # frob[i] = x^(p^i) mod f, built by repeated p-th powers
    frob = [x]
    for _ in range(m):
        frob.append(_poly_powmod(frob[-1], p, coeffs, p))
    if _poly_sub(frob[m], x, p):
        return False
    for ell in prime_factors(m):
        g = _poly_gcd(list(coeffs), _poly_sub(frob[m // ell], x, p), p)
        if len(g) - 1 != 0:
            return False
    return True


class ExtField:
    """Arithmetic context for GF(p^m), p an odd prime.

    Parameters
    ----------
    p : odd prime characteristic.
    m : extension degree >= 1.
    modulus : optional list of m+1 coefficients (little-endian, monic) of
        an irreducible polynomial over GF(p).  When omitted, the monic
        irreducible polynomial whose constant-through-degree-(m-1)
        coefficients have the smallest base-p encoding is selected, so
        two constructions with the same (p, m) are identical.

    Elements are ints in [0, p^m).  Multiplication, inversion, powers and
    Frobenius run on discrete-log tables built once at construction, with
    g the smallest primitive element and B = isqrt(q - 1) + 1: g^0..g^(B-1)
    come from polynomial multiplication, and every later block of B powers
    is that block's digit rows times a power of the m x m GF(p)-matrix of
    multiplication by g^B.  The trace table is also built at construction;
    the (q, m) digit matrix is built on the first digits_matrix() call, and
    the doubled array of Tr(g^j) on the first trace_mul_log() call.
    """

    def __init__(self, p: int, m: int, modulus: list[int] | None = None):
        if p > _MAX_FIELD_SIZE:
            # before is_prime, whose trial division is unbounded in p
            raise PreconditionViolatedError(
                f"characteristic {p} exceeds the field-size cap {_MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise NonPrimeError(f"characteristic {p} is not prime")
        if p == 2:
            raise EvenPrimeError("characteristic must be odd")
        if m < 1:
            raise PreconditionViolatedError(f"extension degree must be >= 1, got {m}")
        # p >= 3, so the degree bound keeps p**m small whatever m is given
        if m >= _MAX_FIELD_SIZE.bit_length() or p**m > _MAX_FIELD_SIZE:
            raise PreconditionViolatedError(
                f"field size {p}^{m} exceeds the desk-scale cap {_MAX_FIELD_SIZE}")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = self._default_modulus(p, m)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulusError(
                    f"modulus must be monic of degree {m}: {modulus}")
            if not is_irreducible(modulus, p):
                raise ReducibleModulusError(
                    f"modulus {modulus} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._build_tables()

    @staticmethod
    def _default_modulus(p: int, m: int) -> list[int]:
        for enc in range(p**m):
            coeffs = []
            e = enc
            for _ in range(m):
                coeffs.append(e % p)
                e //= p
            coeffs.append(1)
            if is_irreducible(coeffs, p):
                return coeffs
        raise ReducibleModulusError(f"no irreducible polynomial found for ({p}, {m})")

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        # x^(m+i) mod modulus, i = 0..m-2, as encodings; drives raw multiply
        red = []
        cur = [(-c) % p for c in self.modulus[:m]]
        for _ in range(max(m - 1, 0)):
            red.append(self._encode(cur))
            cur = [0] + cur
            lead = cur.pop()
            if lead:
                for j in range(m):
                    cur[j] = (cur[j] - lead * self.modulus[j]) % p
        self._reduction = red

        self.generator = self._find_generator()
        # x -> x * g^width is GF(p)-linear on digit rows, so block s of the
        # exp table is the first block times step^s, with step the m x m
        # matrix of that map; transients stay O(width * m).
        n = q - 1
        width = math.isqrt(n) + 1
        first = [1]
        for _ in range(width - 1):
            first.append(self._raw_mul(first[-1], self.generator))
        g_width = self._raw_mul(first[-1], self.generator)
        base = self._digit_rows(np.asarray(first, dtype=np.int64))
        step = self._digit_rows(np.asarray(
            [self._raw_mul(p**j, g_width) for j in range(m)], dtype=np.int64))
        place = p ** np.arange(m, dtype=np.int64)
        exp = np.empty(n, dtype=np.int64)
        power = np.eye(m, dtype=np.int64)
        for start in range(0, n, width):
            block = (base @ power % p) @ place
            exp[start:start + width] = block[:n - start]
            power = power @ step % p
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        # Python ints: the scalar hot path and the JSON output index these
        self._exp = exp.tolist()
        self._log = log.tolist()

        self._digits_matrix = None
        self._trace_powers = None
        tr_basis = [self._trace_slow(p**j) for j in range(m)]
        # Tr is GF(p)-linear: Tr(x) = sum_j digit_j(x) Tr(x^j)
        vals = np.arange(q, dtype=np.int64)
        trace_table = np.zeros(q, dtype=np.int64)
        for j, t in enumerate(tr_basis):
            if t:
                trace_table += vals // p**j % p * t
        self._trace_table = trace_table % p

    def _digit_rows(self, vals: np.ndarray) -> np.ndarray:
        """(len(vals), m) int64 array: row i holds the digits of vals[i]."""
        rows = vals[:, None] // self.p ** np.arange(self.m, dtype=np.int64)
        rows %= self.p  # in place: a second (len, m) temporary raises peak RSS
        return rows

    def _encode(self, coeffs: list[int]) -> int:
        enc = 0
        for c in reversed(coeffs):
            enc = enc * self.p + c % self.p
        return enc

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        enc = self._encode(prod[:m])
        for i in range(m - 1):
            if prod[m + i]:
                enc = self.add(enc, self.scalar_mul(prod[m + i], self._reduction[i]))
        return enc

    def _raw_pow(self, a: int, e: int) -> int:
        result, cur = 1, a
        while e:
            if e & 1:
                result = self._raw_mul(result, cur)
            cur = self._raw_mul(cur, cur)
            e >>= 1
        return result

    def _order_is_maximal(self, a: int) -> bool:
        n = self.q - 1
        if self._raw_pow(a, n) != 1:
            return False
        return all(self._raw_pow(a, n // ell) != 1 for ell in prime_factors(n))

    def _find_generator(self) -> int:
        for a in range(1, self.q):
            if self._order_is_maximal(a):
                return a
        raise RuntimeError("no primitive element found; tables are inconsistent")

    def _trace_slow(self, x: int) -> int:
        acc = 0
        cur = x
        for _ in range(self.m):
            acc = self.add(acc, cur)
            cur = self._raw_pow(cur, self.p)
        assert acc < self.p, "trace left the prime subfield"
        return acc

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        out, mul = 0, 1
        for _ in range(self.m):
            out += (a % p + b % p) % p * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out, mul = 0, 1
        for _ in range(self.m):
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def scalar_mul(self, c: int, a: int) -> int:
        c %= self.p
        p = self.p
        out, mul = 0, 1
        for _ in range(self.m):
            out += a % p * c % p * mul
            a //= p
            mul *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def frobenius(self, x: int, i: int) -> int:
        """x^(p^i) for 0 <= i < m."""
        if not 0 <= i < self.m:
            raise PreconditionViolatedError(f"frobenius index {i} outside [0, {self.m})")
        if x == 0:
            return 0
        return self._exp[self._log[x] * pow(self.p, i, self.q - 1) % (self.q - 1)]

    def trace(self, x: int) -> int:
        return int(self._trace_table[x])

    def eta(self, x: int) -> int:
        """Quadratic character of GF(q), extended by eta(0) = 0."""
        if x == 0:
            return 0
        return 1 if self._log[x] % 2 == 0 else -1

    def embed_scalar(self, t: int) -> int:
        """GF(p) value as a field element (digit 0)."""
        return t % self.p

    # -- bulk helpers for scan-heavy callers --------------------------------

    def digits_matrix(self) -> np.ndarray:
        """(q, m) int64 array: row x holds the digits of element x.

        Built on the first call; most commands never read it.
        """
        if self._digits_matrix is None:
            self._digits_matrix = self._digit_rows(np.arange(self.q, dtype=np.int64))
        return self._digits_matrix

    def trace_table(self) -> np.ndarray:
        """(q,) int64 array of traces."""
        return self._trace_table

    def trace_mul_vector(self, b: int) -> np.ndarray:
        """(m,) int64 array t with Tr(b*x) = digits(x) . t  (mod p)."""
        return np.asarray(
            [self.trace(self.mul(self.pow_of_basis(j), b)) for j in range(self.m)],
            dtype=np.int64)

    def trace_mul_all(self, b: int) -> np.ndarray:
        """(q,) int64 array of Tr(b*x) for every element x."""
        return (self.digits_matrix() @ self.trace_mul_vector(b)) % self.p

    def trace_mul_log(self, b: int) -> np.ndarray:
        """(q-1,) int64 array of Tr(b g^j), j = 0..q-2: Tr(b x) for every
        nonzero x, in log order.

        For b = g^k it is the window [k, k + q - 1) of the doubled array of
        Tr(g^j), built on the first call; the window is a read-only view.
        """
        n = self.q - 1
        if b == 0:
            return np.zeros(n, dtype=np.int64)
        if self._trace_powers is None:
            powers = self._trace_table[np.asarray(self._exp, dtype=np.int64)]
            self._trace_powers = np.concatenate([powers, powers])
            self._trace_powers.flags.writeable = False
        start = self._log[b]
        return self._trace_powers[start:start + n]

    def pow_of_basis(self, j: int) -> int:
        """Encoding of the basis element x^j."""
        return self.p**j

    # -- text forms ----------------------------------------------------------

    def parse_element(self, text: str) -> int:
        """Decimal encoding, or g^k in terms of the cached generator."""
        text = text.strip()
        if text.startswith("g^"):
            return self.pow(self.generator, int(text[2:]))
        if text == "g":
            return self.generator
        x = int(text)
        if not 0 <= x < self.q:
            raise PreconditionViolatedError(
                f"element encoding {x} outside [0, {self.q})")
        return x

    def element_text(self, x: int) -> str:
        return str(x)

    def modulus_text(self) -> str:
        return ",".join(str(c) for c in self.modulus)

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtField)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


def parse_modulus(text: str) -> list[int]:
    """Comma-separated coefficients c_0,...,c_m."""
    return [int(part) for part in text.split(",")]
