"""Exact arithmetic in GF(p) and GF(p^m) for odd primes p.

Field elements are plain Python ints in [0, p^m) under the base-p
little-endian digit encoding: digit i is the coefficient of x^i on the
polynomial basis {1, x, ..., x^(m-1)} of GF(p)[x] modulo the field
modulus.  The encoding round-trips through text as a decimal integer,
so every CLI value is bit-exact.

Construction keeps only m x m GF(p)-matrices: multiplication by x^j,
the Frobenius powers y -> y^(p^i) and the trace vector, all on digit
rows (the regular representation; Lidl-Niederreiter, Finite Fields,
ch. 2).  The modulus is tested in the same algebra: is_irreducible runs
Rabin's test, reading x^(p^k) off the Frobenius orbit of x.  The
generator is found on its first read.  The exp, log and trace tables
are read-only arrays that a few batched numpy products over those
matrices fill on the first bulk use (trace_mul_log, a form's values or
log_values, or a read of _exp or _log): exp and log in int32 and the
traces Tr(g^j), in log order and doubled, in the digit dtype below, 10
bytes per element for p <= 255.
Until then the scalar methods compute on digit rows; afterwards they
read the tables through memoryviews.  Both paths return the same Python
ints and raise the same errors.

Every operation is a pure function of its arguments, but an ExtField is
not immutable: the tables are caches filled on first use.  The lemma
pool's workers are processes, so no two threads fill one field's
caches.

Digits are held in the smallest unsigned dtype that holds p - 1 (uint8
for every p the characteristic cap counting.BRUTE_MAX_P admits).  A
GF(p)-linear functional of x is Tr(c x) for one element c (trace_dual;
Lidl-Niederreiter, Thm 2.24), so every whole-field digit product is read
off windows of the log-order trace array (trace_mul_log): digit_codes
(the encodings of digits(x) mat mod p) sums the windows of mat's columns
by Horner's rule (horner), and digit_form (the quadratic form
digits(x) G digits(x)^T of every element) sums the products of the
windows of the unit columns and of G's columns.  No (q, m) array is
made.  The codes' trace-dual coordinates Tr(x^j d) are the windows of
c = x^j.

hyperplane_counts is the exact transform over the digit space GF(p)^m
that counts a stack of weighted point sets on every hyperplane
digits(x) . t = s at once; the naive weight route of codes reads it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    EvenPrimeError,
    NonPrimeError,
    PreconditionViolatedError,
    ReducibleModulusError,
)
from .linalg import rank, rref

# The one bound on q for every route.  Once built, the exp, log and trace
# tables are two int32 arrays and the doubled traces in the digit dtype,
# 10 bytes per element for p <= 255 (about 14 at the construction peak at
# 3^11 and 19^4; the fixed block transients make it 27 at 3^9); predict
# and analyze build them only for the form spot check, which stops at
# 5^6.
# The cap keeps q at desk scale for the routes that build them and
# enumerate GF(q) (covers 5^7, 7^6 and 3^11), below 2^31, so encodings and
# logs fit in int32, and below 2^24, where hyperplane_counts' float32
# counts of subsets of GF(q) are exact.  It also bounds p for
# is_irreducible, whose int64 matrix products (_mat_pow, _vec_mat) are
# exact only while m (p - 1)^2 < 2^63.
# counting.check_brute_cap adds a cap on p for the exhaustive routes.
_MAX_FIELD_SIZE = 200_000

# rows per float64 block of the table fill: 16 KB per column of a block,
# under 200 KB for the m <= 11 digit columns the field-size cap admits,
# whatever q is; blocks of 8192 rows ran about twice as slow
_BLOCK_ROWS = 1 << 11


def _mod_p(block: np.ndarray, p: int) -> np.ndarray:
    """block mod p in place, for a float64 block of the table fill holding
    non-negative integers x < 2^53 - p: x - p floor(x / p).  For
    x = k p + r, x / p is k exactly when r = 0, and otherwise lies at
    least 1/p away from an integer, more than the rounding error
    (k + 1) 2^-53 since (k + 1) p < 2^53; so the floor is k.  Several
    times faster than int64 %."""
    quot = block / p
    np.floor(quot, out=quot)
    quot *= p
    block -= quot
    return block


def horner(columns, p: int, size: int) -> np.ndarray:
    """(size,) int32 array of sum_j columns[j] p^j by Horner's rule, for a
    sequence of digit columns of length size, lowest digit first: the
    encodings of the digit rows they form, below q < 2^31."""
    out = np.zeros(size, dtype=np.int32)
    for column in columns[::-1]:
        out *= p
        out += column
    return out


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


def _companion(low: np.ndarray, p: int) -> np.ndarray:
    """Matrix C of y -> y x modulo the monic polynomial with low
    coefficients c_0..c_(m-1), on digit rows: digits(y) @ C = digits(y x).
    For a stack of coefficient rows, a stack of matrices."""
    m = low.shape[-1]
    c = np.zeros(low.shape + (m,), dtype=np.int64)
    c[..., np.arange(m - 1), np.arange(1, m)] = 1
    c[..., m - 1, :] = -low % p
    return c


def _mat_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by binary powering, for an m x m int64 matrix or a stack
    of them.  Entries stay below p, so a product entry is a sum of m terms
    below p^2: exact while m (p - 1)^2 < 2^63, which the characteristic
    bound of ExtField and is_irreducible (p <= _MAX_FIELD_SIZE) keeps for
    any m x m matrix that fits in memory.  The modulus tests raise the
    companion matrix to the power p only, and read x^(p^k) off the
    Frobenius orbit (_frobenius_orbit), so e stays small there."""
    out = np.eye(a.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        e >>= 1
        if e:
            a = a @ a % p
    return out


def _vec_mat(v: np.ndarray, a: np.ndarray, p: int) -> np.ndarray:
    """v a mod p for a digit row v and an m x m matrix a, or for stacks of
    both; the same int64 exactness bound as _mat_pow."""
    return (v[..., None, :] @ a)[..., 0, :] % p


def _frobenius_matrix(comp: np.ndarray, p: int) -> np.ndarray:
    """Matrix F of y -> y^p on digit rows modulo the f whose companion
    matrix is comp (Berlekamp's Q-matrix), or a stack of them: row j holds
    the digits of x^(p j) mod f, that is e_0 (C^p)^j, so one matrix power
    with exponent p and m - 1 vector-matrix products."""
    m = comp.shape[-1]
    step = _mat_pow(comp, p, p)
    frob = np.zeros(comp.shape, dtype=np.int64)
    frob[..., 0, 0] = 1
    for j in range(1, m):
        frob[..., j, :] = _vec_mat(frob[..., j - 1, :], step, p)
    return frob


def _frobenius_orbit(comp: np.ndarray, p: int) -> np.ndarray:
    """Digits of x^(p^k) mod f for k = 0..m, as an (m + 1, m) array (a
    stack of them for a stack of companion matrices): y -> y^p is
    GF(p)-linear, so each row is the one before times the Frobenius
    matrix, m vector-matrix products in all.  Row 0 is row 0 of C, the
    digits of x (e_1 for m > 1)."""
    m = comp.shape[-1]
    frob = _frobenius_matrix(comp, p)
    orbit = np.empty(comp.shape[:-2] + (m + 1, m), dtype=np.int64)
    orbit[..., 0, :] = comp[..., 0, :]
    for k in range(m):
        orbit[..., k + 1, :] = _vec_mat(orbit[..., k, :], frob, p)
    return orbit


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p); False for a
    non-monic one or one of degree < 1.

    Rabin's test (SIAM J. Comput. 9, 1980): f of degree m is irreducible
    iff x^(p^m) = x mod f and gcd(x^(p^(m/l)) - x, f) = 1 for every prime
    l dividing m.  Every x^(p^k) comes from the Frobenius orbit of x
    (_frobenius_orbit): one matrix power of the companion matrix C with
    exponent p, then m vector-matrix products with the Frobenius matrix;
    the gcd condition is the rank step (_rank_step).  p past the
    field-size cap raises PreconditionViolatedError, since the int64
    products are exact only inside it, and a p that is not prime raises
    NonPrimeError.
    """
    if p > _MAX_FIELD_SIZE:
        raise PreconditionViolatedError(
            f"characteristic {p} exceeds the field-size cap {_MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise NonPrimeError(f"characteristic {p} is not prime")
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    comp = _companion(np.asarray([c % p for c in coeffs[:m]], dtype=np.int64), p)
    orbit = _frobenius_orbit(comp, p)
    return np.array_equal(orbit[m], orbit[0]) and _rank_step(comp, orbit, p)


def _rank_step(comp: np.ndarray, orbit: np.ndarray, p: int) -> bool:
    """The gcd half of Rabin's test, for the companion matrix C of an f of
    degree m with x^(p^m) = x mod f and its Frobenius orbit.
    Multiplication by h in GF(p)[x]/(f) is h(C) (Lidl-Niederreiter,
    ch. 2), whose row i holds the digits of x^i h; for h = x^(p^(m/l)),
    row m/l of the orbit, that matrix is C^(p^(m/l)).  So
    gcd(x^(p^(m/l)) - x, f) = 1 iff h(C) - C has rank m over GF(p); this
    checks it for every prime l dividing m."""
    m = len(comp)
    for ell in prime_factors(m):
        mul_h = np.empty((m, m), dtype=np.int64)
        mul_h[0] = orbit[m // ell]
        for i in range(1, m):
            mul_h[i] = _vec_mat(mul_h[i - 1], comp, p)
        if rank(mul_h - comp, p) < m:
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

    Elements are ints in [0, p^m).  Construction, in order: tests or
    finds the modulus by Rabin's test on the Frobenius orbit of x
    (is_irreducible, _default_modulus), then keeps the m x m
    GF(p)-matrices of y -> y x^j and of y -> y^(p^i) (powers of the
    Frobenius matrix, built by the helper the modulus test uses) on digit
    rows, with the vector of Tr(x^j), which Newton's identities give from
    the modulus.
    The scalar methods compute on those matrices: a b is digits(a) times
    the matrix of b, powers, inverses and eta (by Euler's criterion) take
    matrix powers, Frobenius and trace are one vector-matrix product.

    The generator g, the smallest primitive element, is found on the
    first read of .generator (by matrix powers of each candidate's
    multiplication matrix): the tables, the g^k spellings of
    parse_element and the lemma pool read it, so a command that spells
    every element as an integer and builds no table never searches.

    The exp, log and trace tables are built on the first bulk use
    (trace_mul_log, or a read of _exp or _log), after which the scalar
    methods read them instead.
    With B = isqrt(q-1) + 1, the rows of g^0..g^(B-1) come from repeated
    doubling, and every later block of B powers is those rows times a
    power of the matrix of multiplication by g^B.  One batched product
    forms about _BLOCK_ROWS rows at a time, from a stack of consecutive
    such powers, and the same product's reduced rows give the encodings
    and the traces Tr(g^j), both in log order.  The tables are read-only:
    exp and log in int32, since encodings and logs stay below q < 2^31,
    and the traces doubled, so that every Tr(b g^j) is one window, in the
    digit dtype (uint8 up to p = 251): 10 bytes per element for p <= 255.
    The scalar methods return Python ints.  No (q, m) digit array is made:
    digit_codes and digit_form read every digit product as a window of
    the trace array (_windows) and scatter their result to encoding order
    once through the exp table (_scatter).
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
        # mul_x[j] = C^j, with C the matrix of y -> y x on digit rows
        # (digits(y) @ C = digits(y x)); multiplication by a is then
        # sum_j digit_j(a) C^j
        c = _companion(np.asarray(modulus[:m], dtype=np.int64), p)
        mul_x = np.empty((m, m, m), dtype=np.int64)
        mul_x[0] = np.eye(m, dtype=np.int64)
        for j in range(1, m):
            mul_x[j] = mul_x[j - 1] @ c % p
        self._mul_x = mul_x
        # frob[i] = F^i, F the matrix of y -> y^p (_frobenius_matrix)
        frob = np.empty((m, m, m), dtype=np.int64)
        frob[0] = mul_x[0]
        if m > 1:
            frob[1] = _frobenius_matrix(c, p)
            for i in range(2, m):
                frob[i] = frob[i - 1] @ frob[1] % p
        self._frob = frob
        # Tr is GF(p)-linear: Tr(y) = digits(y) . tr, tr[j] = Tr(x^j); the
        # trace form holds Tr(x^j x^k) = (C^j tr)[k]
        self._tr = np.asarray(self._trace_basis(), dtype=np.int64)
        self._trace_form = mul_x @ self._tr % p
        self._place = p ** np.arange(m, dtype=np.int64)
        self._digit_dtype = np.min_scalar_type(p - 1)
        # caches filled on first use; the tables through _build_tables
        self._generator = None
        self._exp_array = self._log_array = self._trace_powers = None
        self._exp_at = self._log_at = self._trace_at = None
        self._trace_form_inv = None

    @staticmethod
    def _default_modulus(p: int, m: int) -> list[int]:
        if m == 1:
            return [0, 1]  # every monic linear polynomial is irreducible
        # Rabin's test of is_irreducible, a chunk of candidates at a time
        # in encoding order.  A polynomial of degree > 1 with a root in
        # GF(p) is reducible: one product with the table of x^i (i = 0..m,
        # x in GF(p)) rules most candidates out.  One stacked Frobenius
        # orbit gives x^(p^k) mod f for the rest; those with x^(p^m) = x
        # take the rank step in order.
        q = p**m
        powers = np.arange(p, dtype=np.int64) ** np.arange(m + 1, dtype=np.int64)[:, None] % p
        lo, size = 0, 8
        while lo < q:
            low = np.arange(lo, min(lo + size, q), dtype=np.int64)[:, None] // (
                p ** np.arange(m, dtype=np.int64)) % p
            low = low[((low @ powers[:m] + powers[m]) % p).all(axis=1)]
            comps = _companion(low, p)
            orbits = _frobenius_orbit(comps, p)
            fixed = (orbits[:, m] == orbits[:, 0]).all(axis=1)
            for coeffs, comp, orbit in zip(low[fixed].tolist(), comps[fixed], orbits[fixed]):
                if _rank_step(comp, orbit, p):
                    return coeffs + [1]
            lo, size = lo + size, 2 * size
        raise ReducibleModulusError(f"no irreducible polynomial found for ({p}, {m})")

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        n = q - 1
        mul_g = self._mul_matrix(self.generator)
        # y -> y g^width is GF(p)-linear on digit rows, so block s of the
        # exp table is the first block g^0..g^(width-1) times step^s, with
        # step the m x m matrix of that map; transients stay
        # O(_BLOCK_ROWS m).
        # The first block comes from doubling: rows of g^0..g^(2^k - 1)
        # times the matrix of g^(2^k) are the rows of the next 2^k powers.
        width = math.isqrt(n) + 1
        rows = np.zeros((1, m), dtype=np.int64)
        rows[0, 0] = 1
        double = mul_g
        while len(rows) < width:
            rows = np.vstack([rows, rows @ double % p])
            double = double @ double % p
        # float64 products are exact (an entry is a sum of m products of
        # digits below p, under 2^53 at the field-size cap) and run several
        # times faster than int64 ones
        base = rows[:width].astype(np.float64)
        step = _mat_pow(mul_g, width, p)
        # one batched product forms `group` blocks of width powers at once,
        # from the stack of step^s, s = 0..group-1, which step^group advances
        group = max(1, min(_BLOCK_ROWS // width, -(-n // width)))
        powers = np.empty((group, m, m), dtype=np.int64)
        powers[0] = np.eye(m, dtype=np.int64)
        for s in range(1, group):
            powers[s] = powers[s - 1] @ step % p
        leap = powers[-1] @ step % p
        # a reduced digit row times [place | tr] gives the encoding and the
        # unreduced trace, exact in float64 as above
        place_tr = np.column_stack([self._place, self._tr]).astype(np.float64)
        # encodings and logs stay below q <= _MAX_FIELD_SIZE < 2^31, and a
        # trace is a digit; both are written in log order
        exp = np.empty(n, dtype=np.int32)
        traces = np.empty(n, dtype=self._digit_dtype)
        for start in range(0, n, group * width):
            block = np.matmul(base, powers.astype(np.float64)).reshape(-1, m)[:n - start]
            enc_tr = _mod_p(block, p) @ place_tr
            stop = start + len(enc_tr)
            exp[start:stop] = enc_tr[:, 0]
            traces[start:stop] = _mod_p(enc_tr[:, 1], p)
            powers = powers @ leap % p
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        # doubled only now, after log's arange transient is freed, so the
        # copy does not raise the construction peak; Tr(g^k g^j) for
        # j = 0..q-2 is then the window [k, k + q - 1)
        traces = np.concatenate([traces, traces])
        for table in (exp, log, traces):
            table.flags.writeable = False
        self._exp_array, self._log_array, self._trace_powers = exp, log, traces
        # zero-copy views for the scalar methods: indexing one gives a
        # Python int, so no numpy scalar reaches callers or json.dumps
        self._exp_at = memoryview(exp)
        self._log_at = memoryview(log)
        self._trace_at = memoryview(traces)

    @property
    def _exp(self) -> np.ndarray:
        """(q-1,) exp table: g^k at k; built on first read."""
        if self._exp_array is None:
            self._build_tables()
        return self._exp_array

    @property
    def _log(self) -> np.ndarray:
        """(q,) log table: k at g^k, 0 at 0; built on first read."""
        if self._log_array is None:
            self._build_tables()
        return self._log_array

    def _trace_basis(self) -> list[int]:
        """Tr(x^j) for j = 0..m-1: the power sums of the modulus's roots,
        by Newton's identities on its coefficients c_0..c_(m-1), 1:
        s_k = -(k c_(m-k) + sum_{i<k} c_(m-i) s_(k-i)), s_0 = m."""
        p, m, c = self.p, self.m, self.modulus
        s = [m % p]
        for k in range(1, m):
            acc = k * c[m - k] + sum(c[m - i] * s[k - i] for i in range(1, k))
            s.append(-acc % p)
        return s

    def _mul_matrix(self, a) -> np.ndarray:
        """m x m matrix of y -> y a on digit rows; for an array of
        elements, a stack of them."""
        m = self.m
        if np.ndim(a) == 0:
            a = self._index(a)
        rows = self._digit_rows(np.asarray(a, dtype=np.int64))
        return (rows @ self._mul_x.reshape(m, m * m)).reshape(
            rows.shape[:-1] + (m, m)) % self.p

    @property
    def generator(self) -> int:
        """The smallest primitive element g, which the exp and log tables
        and the g^k spellings are written in; found on first read."""
        if self._generator is None:
            self._generator = self._find_generator()
        return self._generator

    def _find_generator(self) -> int:
        """Smallest primitive element: the first a with a^(n/l) != 1 for
        each prime l dividing n = q - 1, tested on stacked multiplication
        matrices a chunk of candidates at a time."""
        p, m, q = self.p, self.m, self.q
        n = q - 1
        identity = np.eye(m, dtype=np.int64)
        # GF(p)* has order p - 1 < n, so for m > 1 the search starts at x
        lo, size = (p if m > 1 else 1), 8
        while lo < q:
            cands = np.arange(lo, min(lo + size, q), dtype=np.int64)
            mats = self._mul_matrix(cands)
            primitive = np.ones(len(cands), dtype=bool)
            for ell in prime_factors(n):
                primitive &= ~(_mat_pow(mats, n // ell, p) == identity).all(axis=(1, 2))
            if primitive.any():
                return int(cands[primitive.argmax()])
            lo, size = lo + size, 2 * size
        raise RuntimeError("no primitive element found; tables are inconsistent")

    def _digit_rows(self, vals: np.ndarray) -> np.ndarray:
        """int64 array of shape vals.shape + (m,): the digits of each value.
        For the few rows of the scalar methods; the whole-field routes
        read digits as trace windows (_windows)."""
        rows = vals[..., None] // self._place
        rows %= self.p  # in place: a second (len, m) temporary raises peak RSS
        return rows

    def _row(self, x: int) -> np.ndarray:
        """(m,) int64 digits of one element."""
        return np.array(self.digits(self._index(x)), dtype=np.int64)

    def _index(self, x) -> int:
        """x as the tables would index it: TypeError for a non-integer,
        IndexError outside [-q, q), as the tables' memoryviews raise."""
        x = operator.index(x)
        if not -self.q <= x < self.q:
            raise IndexError(f"element {x} outside [-{self.q}, {self.q})")
        return x

    def _element(self, row: np.ndarray) -> int:
        """Encoding of a reduced digit row, as a Python int."""
        return int(row @ self._place)

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

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

    # Each scalar method reads the tables inside a try, which costs the
    # table path nothing; while the tables are unbuilt, indexing None
    # raises TypeError and the method answers on digit rows instead.  A
    # TypeError with the tables built comes from the arguments and is
    # re-raised.  The digit rows take an element as the tables index it
    # (_index), so both paths raise the same errors on a bad argument.
    # The zero guards come first and take -q too, which both paths wrap to
    # the element 0 but the log table reads as 0, the log of 1.

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0 or a == -self.q or b == -self.q:
            return 0
        try:
            return self._exp_at[(self._log_at[a] + self._log_at[b]) % (self.q - 1)]
        except TypeError:
            if self._log_at is not None:
                raise
        return self._element(self._row(a) @ self._mul_matrix(b) % self.p)

    def inv(self, a: int) -> int:
        if a == 0 or a == -self.q:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        try:
            return self._exp_at[-self._log_at[a] % (self.q - 1)]
        except TypeError:
            if self._log_at is not None:
                raise
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0 or a == -self.q:
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0 if e else 1
        try:
            return self._exp_at[self._log_at[a] * e % (self.q - 1)]
        except TypeError:
            if self._log_at is not None:
                raise
        # row 0 of M(a)^e holds the digits of 1 * a^e; a^(q-1) = 1
        return self._element(_mat_pow(self._mul_matrix(a), e % (self.q - 1), self.p)[0])

    def frobenius(self, x: int, i: int) -> int:
        """x^(p^i) for 0 <= i < m."""
        if not 0 <= i < self.m:
            raise PreconditionViolatedError(f"frobenius index {i} outside [0, {self.m})")
        if x == 0 or x == -self.q:
            return 0
        try:
            return self._exp_at[self._log_at[x] * pow(self.p, i, self.q - 1) % (self.q - 1)]
        except TypeError:
            if self._log_at is not None:
                raise
        return self._element(self._row(x) @ self._frob[i] % self.p)

    def trace(self, x: int) -> int:
        if x == 0 or x == -self.q:
            return 0
        try:
            return self._trace_at[self._log_at[x]]
        except TypeError:
            if self._log_at is not None:
                raise
        return int(self._row(x) @ self._tr % self.p)

    def eta(self, x: int) -> int:
        """Quadratic character of GF(q), extended by eta(0) = 0."""
        if x == 0 or x == -self.q:
            return 0
        try:
            return 1 if self._log_at[x] % 2 == 0 else -1
        except TypeError:
            if self._log_at is not None:
                raise
        # Euler's criterion: x^((q-1)/2) is 1 on squares, -1 otherwise
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1

    # -- bulk helpers for scan-heavy callers --------------------------------

    def trace_mul_vector(self, b: int) -> np.ndarray:
        """(m,) int64 array t with Tr(b*x) = digits(x) . t  (mod p):
        t_j = Tr(b x^j) = sum_k digit_k(b) Tr(x^k x^j), a row of the
        trace form."""
        return self._row(b) @ self._trace_form % self.p

    def trace_dual(self, v) -> int:
        """The element c with Tr(c x) = digits(x) . v (mod p) for every x,
        for an (m,) vector v of integers (_trace_duals)."""
        return self._trace_duals(np.asarray(v)[:, None])[0]

    def _trace_duals(self, mat) -> list[int]:
        """The elements c_j with Tr(c_j x) = digits(x) . mat[:, j] (mod p)
        for every x, for an (m, k) matrix mat of integers:
        trace_mul_vector(c) = digits(c) T, T the trace form, which is
        invertible (the trace form of GF(q) over GF(p) is nondegenerate),
        so the digit rows of every c_j are mat^T T^-1, one product.  T^-1
        is the right block of rref([T | I]), cached."""
        if self._trace_form_inv is None:
            m = self.m
            red = rref(np.hstack([self._trace_form, np.eye(m, dtype=np.int64)]), self.p)[0]
            self._trace_form_inv = red[:, m:]
        rows = np.asarray(mat, dtype=np.int64).T @ self._trace_form_inv % self.p
        return (rows @ self._place).tolist()

    def _windows(self, mat) -> list[np.ndarray]:
        """trace_mul_log(c_j) for each column j of an (m, k) integer matrix
        mat, c_j = trace_dual(mat[:, j]): window j at log x is column j of
        digits(x) mat mod p, a read-only view unless c_j = 0."""
        return [self.trace_mul_log(c) for c in self._trace_duals(mat)]

    def _scatter(self, log_order: np.ndarray) -> np.ndarray:
        """(q,) int64 array holding log_order[j] at g^j and 0 at 0."""
        out = np.zeros(self.q, dtype=np.int64)
        out[self._exp] = log_order
        return out

    def digit_codes(self, mat) -> np.ndarray:
        """(q,) int64 array of the encodings of digits(x) mat mod p for every
        element x, for an (m, k) matrix mat of integers and k <= m: column
        j is the log-order window of c_j = trace_dual(mat[:, j])
        (_windows), so the encodings are their horner sum, scattered to
        encoding order once."""
        return self._scatter(horner(self._windows(mat), self.p, self.q - 1))

    def digit_form(self, gram, codes=None):
        """(q,) int64 array of r G r^T mod p for the digit row r of every
        element, G an m x m matrix of integers.  r G r^T is
        sum_j r_j (r G)_j, and both factors are log-order windows
        (_windows): r_j of the column e_j, (r G)_j of column j of G.  The m
        products of the windows sum in the smallest unsigned dtype that
        holds m (p - 1)^2, are reduced mod p once and scattered to
        encoding order.

        Given an (m, k) matrix codes, the result is the pair
        (forms, digit_codes(codes)).
        """
        m = self.m
        wide = np.min_scalar_type(m * (self.p - 1) ** 2)
        acc = np.zeros(self.q - 1, dtype=wide)
        term = np.empty_like(acc)
        for digit, lin in zip(self._windows(np.eye(m, dtype=np.int64)),
                              self._windows(gram)):
            np.multiply(digit, lin, out=term, dtype=wide)
            acc += term
        acc %= self.p
        forms = self._scatter(acc)
        return forms if codes is None else (forms, self.digit_codes(codes))

    def trace_mul_log(self, b: int) -> np.ndarray:
        """(q-1,) array of Tr(b g^j), j = 0..q-2, in the digit dtype:
        Tr(b x) for every nonzero x, in log order.

        For b = g^k it is the window [k, k + q - 1) of the doubled trace
        table, a read-only view; the first call builds the tables.  Widen
        it before arithmetic that can pass the digit dtype, such as
        t p + t'.
        """
        n = self.q - 1
        if b == 0 or b == -self.q:
            return np.zeros(n, dtype=self._digit_dtype)
        start = self._log[b]
        return self._trace_powers[start:start + n]

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


def hyperplane_counts(p: int, m: int, rows: np.ndarray) -> np.ndarray:
    """Counts over every digit vector t of every row's points on the
    hyperplanes digits(x) . t = s.

    rows is a (k, p^m) stack of non-negative integer weights on the
    points x of GF(p)^m, indexed by the base-p little-endian encoding;
    the result is the (k, p^m, p) int32 array
    C[i, t, s] = sum of rows[i, x] over x with digits(x) . t = s (mod p),
    with t in the same encoding.

    It starts from each row on a running-sum axis s (all weight at s = 0)
    and swaps one digit axis at a time for its dual coordinate,
    new[.., t_j, .., s] = sum_{d_j} old[.., d_j, .., s - d_j t_j],
    as one product of the (d_j, s) pairs with the p^2 x p^2 0/1 matrix
    K[(d, u), (t, s)] = [u + d t = s (mod p)] (MacWilliams-Sloane
    ch. 5): m products of a (k p^(m-1), p^2) matrix, O(m k p^3 q) flops.
    The products run in float32, which is exact while every partial sum
    stays below 2^24: each is a sum of one row's weights, so a row whose
    total weight reaches 2^24 raises PreconditionViolatedError.  A 0/1 row
    weighs at most q, below the field-size cap of 200 000.  Each step
    multiplies one float32 buffer into a second and copies the transposed
    product back, and the exact counts are cast into the second buffer
    as int32: 8p bytes per point and row in all.  Only the digits of x
    are read, no field table and no closed form, so the counts are an
    independent oracle.
    """
    k = rows.shape[0]
    if (rows.sum(axis=1, dtype=np.int64) >= 1 << 24).any():
        raise PreconditionViolatedError(
            "a row's total weight reaches 2^24, past exact float32 counts")
    d, u, t, s = np.indices((p,) * 4).reshape(4, p * p, p * p)
    kernel = ((u + d * t - s) % p == 0).astype(np.float32)
    count = np.zeros((k, p**m, p), dtype=np.float32)
    count[:, :, 0] = rows
    spare = np.empty_like(count)
    for _ in range(m):
        # the lowest digit axis becomes t and moves to the top, so after m
        # steps t is in the encoding order of x
        np.matmul(count.reshape(-1, p * p), kernel, out=spare.reshape(-1, p * p))
        np.copyto(count.reshape(k, p, p ** (m - 1), p),
                  spare.reshape(k, p ** (m - 1), p, p).transpose(0, 2, 1, 3))
    out = spare.view(np.int32)
    np.copyto(out, count, casting="unsafe")
    return out
