"""Exact arithmetic for prime-power fields, finite abelian groups and their
group algebras.

All field arithmetic happens inside one ambient field K = F_p[x]/(modulus).
The base field F_q (q = p^b) and every intermediate extension of F_q are
realized as Frobenius-fixed subsets of K, never as standalone fields.  A
field element is encoded as an integer in [0, p^n): its base-p digits are
the polynomial coefficients, lowest degree first.  The field is bootstrapped
on one companion matrix: multiplication by an element is an F_p-linear map
on digit vectors, a polynomial in the companion matrix of the modulus, and
the irreducibility test, the default modulus, the generator and the exp
table are all computed from powers of such matrices.  Vectorized table lookups
on these integer codes are what the linear-algebra kernels run on: `vadd`
and `vmul` (pair tables up to a size limit, digit-wise addition and
log/exp multiplication above it), `vpow`, and one field sum, `vsum`, a
digit-wise sum mod p on either presentation.  Every dot product over the
field -- matrix products, projections, lifts, traces, polynomial
evaluation -- is `vdot` or `vtrace`, built on `vsum`; when both operands
hold only prime-field codes (0..p-1 in any tower), `vdot` is the integer
matmul reduced mod p instead.  `FieldElement` is
the one scalar interface: each of its operations is one of these array ops
on its code.  Element text is one array codec too: `to_text` writes codes of
any shape as strings of base-p digits and `from_text` reads them back in one
grammar, with `element_str` and `from_string` as their scalar fronts.

Group elements are coordinate tuples ordered mixed-radix lexicographically
with the rightmost coordinate varying fastest; that single ordering fixes
every coefficient-vector layout downstream.  The group-algebra product is
one function, `convolve`, on stacks of coefficient vectors, through the
group's difference table; the characters are one table, the designated root
of unity raised to the group's matrix of character exponents.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError

# Full pairwise add/mul tables are built only for fields up to this size;
# larger fields fall back to digit-wise addition and log/exp multiplication.
_PAIR_TABLE_LIMIT = 1024


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (desk-scale inputs only)."""
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


def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, b) with q = p**b and p prime."""
    if q < 2:
        raise ValueError(f"field size must be at least 2, got {q}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    b = 0
    m = q
    while m > 1:
        m //= p
        b += 1
    return p, b


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n (n = 1 counts as order 1)."""
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    e = 1
    x = a % n
    while x != 1:
        x = x * a % n
        e += 1
    return e


# ---------------------------------------------------------------------------
# the bootstrap, on one companion matrix: multiplication by an element of
# F_p[x]/(modulus) is a matrix acting on row vectors of base-p digits, and
# every such matrix is a polynomial in the companion matrix C (the matrix of
# multiplication by x).  Only FieldSpec construction runs this code.

def _companion(modulus: Sequence[int], p: int) -> np.ndarray:
    """Matrix of multiplication by x: row j holds the digits of x^(j+1)."""
    n = len(modulus) - 1
    C = np.eye(n, k=1, dtype=np.int64)
    C[-1] = [-c % p for c in modulus[:n]]
    return C


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p by square-and-multiply."""
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _has_order(M: np.ndarray, N: int, p: int) -> bool:
    """Whether M has exact multiplicative order N mod p."""
    one = np.eye(len(M), dtype=np.int64)
    if not np.array_equal(_mat_pow(M, N, p), one):
        return False
    return not any(np.array_equal(_mat_pow(M, N // r, p), one) for r in _prime_factors(N))


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial f over F_p, on
    powers of the companion matrix C: C^(p^n) = C, and x^(p^(n/r)) - x is a
    unit for every prime r | n.  Once the first holds, F_p[x]/(f) is a
    product of fields whose unit groups have orders dividing p^n - 1, so an
    element is a unit exactly when its (p^n - 1)-th power is 1."""
    mod = [c % p for c in modulus]
    n = len(mod) - 1
    if n < 1 or mod[-1] != 1:
        raise ValueError("modulus must be monic of degree at least 1")
    C = _companion(mod, p)
    if not np.array_equal(_mat_pow(C, p ** n, p), C):
        return False
    one = np.eye(n, dtype=np.int64)
    for r in _prime_factors(n):
        x_pd_minus_x = (_mat_pow(C, p ** (n // r), p) - C) % p
        if not np.array_equal(_mat_pow(x_pd_minus_x, p ** n - 1, p), one):
            return False
    return True


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^n}: the first monic degree-n
    polynomial (coefficients read as a base-p integer, low digits first) in
    which x has multiplicative order p^n - 1.  Then the p^n - 1 powers of x
    are all the nonzero residues, so the polynomial is irreducible.

    For p = 2, n = 4 this yields x^4 + x + 1.
    """
    for low in range(p ** n):
        poly = [low // p ** j % p for j in range(n)] + [1]
        if _has_order(_companion(poly, p), p ** n - 1, p):
            return tuple(poly)
    raise InvariantError(f"no primitive polynomial of degree {n} over F_{p}")


def modulus_str(modulus: Sequence[int]) -> str:
    """Human form of a coefficient vector, e.g. (1,1,0,0,1) -> 'x^4 + x + 1'."""
    terms = []
    for i in range(len(modulus) - 1, -1, -1):
        c = modulus[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            terms.append(xpow if c == 1 else f"{c}{xpow}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# element text: the base-p digits of a code, lowest degree first, written as
# ASCII digits ("0110") or as comma-separated decimal numbers ("0,1,1,0"),
# the comma form being the only one when p > 10

def _scan_text(strings: list[str], p: int):
    """One array pass of the element grammar over a list of strings: per
    string whether it is malformed (a character other than an ASCII digit or
    a comma, an empty number, or a number with a leading zero), its digit
    count and whether a digit is p or more; and the digit values of all the
    strings in row-major order."""
    m = len(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=m)
    # the code points of all strings, each followed by a NUL that ends its
    # last number
    cp = np.frombuffer("\0".join([*strings, ""]).encode("utf-32-le", "surrogatepass"),
                       dtype=np.uint32)
    row = np.repeat(np.arange(m), lengths + 1)
    digit = cp - ord("0") < 10
    comma = cp == ord(",")
    commas = np.bincount(row[comma], minlength=m)
    # in the comma form a run of digits is one number, otherwise each digit is
    joined = (commas > 0) | (p > 10)
    cut = np.ones(len(cp) + 1, dtype=bool)  # whether a number ends before each position
    cut[1:-1] = ~(digit[:-1] & digit[1:] & joined[row[:-1]])
    first = np.flatnonzero(digit & cut[:-1])
    size = np.flatnonzero(digit & cut[1:]) - first + 1
    width = len(str(p - 1))
    values = cp[first].astype(np.int64) - ord("0")
    for k in range(1, width):
        values = np.where(k < size, 10 * values + cp[np.minimum(first + k, len(cp) - 1)] - ord("0"),
                          values)
    # out of place: a character other than a digit or a comma, besides the
    # NUL, and the leading zero of a number
    other = ~(digit | comma)
    other[first[(size > 1) & (cp[first] == ord("0"))]] = True
    count = np.where(joined, commas + 1, lengths)
    rows = row[first]
    malformed = (np.bincount(row[other], minlength=m) > 1) | (np.bincount(rows, minlength=m) != count)
    high = np.bincount(rows[(size > width) | (values >= p)], minlength=m) > 0
    return malformed, count, high, values


def _malformed(s: str, p: int) -> str:
    form = (f"ASCII digits below {p}, with or without commas between them" if p <= 10 else
            f"comma-separated decimal numbers below {p} with no leading zero")
    return f"element string {s!r} is malformed: write {form}"


def element_width(s: str, p: int) -> int:
    """Digit count of one element string in characteristic p; a malformed
    string is refused."""
    malformed, count, _, _ = _scan_text([s], p)
    if malformed[0]:
        raise ValueError(_malformed(s, p))
    return int(count[0])


# ---------------------------------------------------------------------------
# the ambient field


class FieldSpec:
    """The field K = F_p[x]/(modulus) together with a designated base field
    F_q (q = p^base_degree) and, optionally, a designated primitive root of
    unity of a given order.

    Element codes are integers in [0, size); code digits in base p are the
    polynomial coefficients, lowest degree first.
    """

    def __init__(self, q: int, tower_degree: int, modulus: Sequence[int] | None = None,
                 root_order: int = 1, pair_tables: bool | None = None):
        p, b = prime_power(q)
        if tower_degree < 1:
            raise ValueError("tower degree must be positive")
        self.p = p
        self.base_degree = b
        self.q = q
        self.tower_degree = tower_degree
        self.n = b * tower_degree
        self.size = p ** self.n

        if modulus is None:
            modulus = default_modulus(p, self.n)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != self.n + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {self.n}")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus_str(modulus)} is reducible over F_{p}")
        self.modulus = modulus

        N = self.size - 1
        if root_order < 1 or (root_order > 1 and N % root_order != 0):
            raise ValueError(
                f"a field of size {self.size} has no primitive {root_order}-th root of unity")
        self.root_order = root_order

        # digit table: digits[c] = base-p coefficient vector of code c, in a
        # dtype that holds the sum 2(p - 1) of two digits
        codes = np.arange(self.size, dtype=np.int64)
        digits = np.empty((self.size, self.n), dtype=np.min_scalar_type(2 * (p - 1)))
        for j in range(self.n):
            digits[:, j] = codes % p
            codes //= p
        self._digits = digits
        self._powvec = p ** np.arange(self.n, dtype=np.int64)
        # the text of each digit: row 0 for the first, row 1, with the
        # separator in front, for every later one
        sep = "" if p <= 10 else ","
        self._digit_text = np.array([[str(d) for d in range(p)], [sep + str(d) for d in range(p)]])

        # multiplication by code c as an F_p-linear map on digit vectors: row
        # j holds the digits of c * x^j, the previous row times the companion
        C = _companion(modulus, p)

        def mul_matrix(c: int) -> np.ndarray:
            rows = [digits[c].astype(np.int64)]
            for _ in range(1, self.n):
                rows.append(rows[-1] @ C % p)
            return np.stack(rows)

        # canonical generator of K^*: smallest code of full multiplicative order;
        # when n > 1 the constants 1..p-1 (codes below p) lie in F_p^* and
        # cannot have it
        first = p if self.n > 1 else 1
        gen = next(g for g in range(first, self.size) if _has_order(mul_matrix(g), N, p))
        self.generator = gen

        # exp by doubling: exp[s:2s] = exp[:s] * gen^s, and the matrix of
        # gen^2s is the square of that of gen^s
        step = mul_matrix(gen)
        exp = np.ones(1, dtype=np.int32)
        while len(exp) < N:
            exp = np.concatenate([exp, self._from_digits(digits[exp] @ step % p)])
            step = step @ step % p
        exp = exp[:N]
        log = np.zeros(self.size, dtype=np.int64)
        log[exp] = np.arange(N)
        self._exp = exp
        self._log = log

        self._neg = self._from_digits((p - digits) % p)
        # inverse codes, with 0 for 0, so that a stack of pivots scales at once
        self._inv = np.where(np.arange(self.size) == 0, 0, exp[(N - log) % N]).astype(np.int32)

        if pair_tables is None:
            pair_tables = self.size <= _PAIR_TABLE_LIMIT
        if pair_tables:
            # one digit place at a time, so no size x size x n temporary
            self._add = np.zeros((self.size, self.size), dtype=np.int32)
            for j in range(self.n):
                self._add += np.add.outer(digits[:, j], digits[:, j]) % p * np.int32(p ** j)
            lg = log.astype(np.int32)
            self._mul = exp[np.add.outer(lg, lg) % N]
            self._mul[0, :] = self._mul[:, 0] = 0
        else:
            self._add = None
            self._mul = None

        # designated root of unity: generator**e for the smallest exponent e
        # of exact order root_order, which is N // root_order
        self.xi_code = int(exp[N // root_order % N])

        self._subfield_cache: dict[int, np.ndarray] = {}

    def _from_digits(self, d) -> np.ndarray:
        """Codes of base-p digit vectors (last axis), each digit in [0, p)."""
        return (d @ self._powvec).astype(np.int32)

    def subfield_codes(self, k: int) -> np.ndarray:
        """Sorted codes of the degree-k extension of F_q inside K."""
        if self.tower_degree % k != 0:
            raise ValueError(
                f"no subfield of degree {k} over F_{self.q} inside a degree-{self.tower_degree} tower")
        cached = self._subfield_cache.get(k)
        if cached is None:
            a = np.arange(self.size)
            cached = a[self.vin_subfield(a, k)].astype(np.int32)
            self._subfield_cache[k] = cached
        return cached

    # -- vectorized arithmetic on arrays of codes ---------------------------

    def vadd(self, A, B):
        A = np.asarray(A, dtype=np.int32)
        B = np.asarray(B, dtype=np.int32)
        if self._add is not None:
            return self._add[A, B]
        return self._from_digits((self._digits[A] + self._digits[B]) % self.p)

    def vneg(self, A):
        return self._neg[np.asarray(A, dtype=np.int32)]

    def vmul(self, A, B):
        A = np.asarray(A, dtype=np.int32)
        B = np.asarray(B, dtype=np.int32)
        if self._mul is not None:
            return self._mul[A, B]
        N = self.size - 1
        prod = self._exp[(self._log[A] + self._log[B]) % N].astype(np.int32)
        return np.where((A == 0) | (B == 0), 0, prod)

    def vpow(self, A, e):
        """Powers A**e by log/exp; the integer exponent e may be an array
        broadcast against A, and 0**0 = 1."""
        A = np.asarray(A, dtype=np.int32)
        e = np.asarray(e, dtype=np.int64)
        if ((A == 0) & (e < 0)).any():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        N = self.size - 1
        return np.where(A == 0, e == 0, self._exp[self._log[A] * (e % N) % N])

    def vsum(self, A, axis: int = -1):
        """Field sum of A along one axis: the digits summed mod p (for p = 2,
        the XOR of the codes), so it needs no pair tables."""
        A = np.asarray(A, dtype=np.int32)
        axis = np.lib.array_utils.normalize_axis_index(axis, A.ndim)
        if self.p == 2:
            return np.bitwise_xor.reduce(A, axis=axis)  # the codes are bit vectors
        return self._from_digits(self._digits[A].sum(axis=axis, dtype=np.int64) % self.p)

    def vdot(self, A, B):
        """Matrix product over the field, with the shapes of numpy's matmul.
        When every code of both operands lies in [0, p), the prime field in
        any presentation, it is the int64 matmul reduced mod p.  Otherwise
        it is the vsum of the vmul products, taken in blocks of about 2^22
        products along the summed axis so that memory stays bounded."""
        A = np.asarray(A, dtype=np.int32)
        B = np.asarray(B, dtype=np.int32)
        if A.ndim == 0 or B.ndim == 0:
            raise ValueError("vdot operands need at least one axis")
        a = A[None] if A.ndim == 1 else A
        b = B[:, None] if B.ndim == 1 else B
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"vdot: inner dimensions {a.shape[-1]} and {b.shape[-2]} differ")
        p = self.p
        # as uint32 a negative code is huge, so one max bounds both ends
        if (a.shape[-1] * (p - 1) ** 2 < 2 ** 63
                and all(x.size == 0 or x.view(np.uint32).max() < p for x in (a, b))):
            out = (np.matmul(a, b, dtype=np.int64) % p).astype(np.int32)
        else:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
            step = max(1, 2 ** 22 // max(1, math.prod(shape)))
            out = functools.reduce(self.vadd, (
                self.vsum(self.vmul(a[..., j:j + step, None], b[..., None, j:j + step, :]),
                          axis=-2)
                for j in range(0, max(a.shape[-1], 1), step)))
        # drop the axis a 1-d operand gained
        return out.reshape(out.shape[:-2] + out.shape[-2:-1] * (A.ndim > 1)
                           + out.shape[-1:] * (B.ndim > 1))

    def vtrace(self, A, k: int):
        """Relative trace sum_{j<k} A^(q^j) of the degree-k extension of F_q."""
        return self.vsum([self.vpow(A, self.q ** j) for j in range(k)], axis=0)

    def vin_subfield(self, A, k: int):
        A = np.asarray(A, dtype=np.int64)
        N = self.size - 1
        if N == 0:
            return np.ones_like(A, dtype=bool)
        shift = (self.q ** k - 1) % N
        return (A == 0) | ((self._log[A] * shift) % N == 0)

    def vdegree(self, A):
        """Degree over F_q of the smallest subfield holding each code of A:
        the least k dividing the tower degree with `vin_subfield(A, k)`
        (zero has degree 1)."""
        t = self.tower_degree
        out = np.full(np.shape(A), t, dtype=np.int64)
        for k in range(t - 1, 0, -1):
            if t % k == 0:
                out[self.vin_subfield(A, k)] = k
        return out

    def basis_coordinates(self, basis) -> np.ndarray | None:
        """Coordinates over F_q in `basis` of every element of its F_q-span:
        row c holds those of code c, or -1s where c lies outside the span.
        None when the basis elements are dependent over F_q."""
        k = len(basis)
        base = self.subfield_codes(1)
        # every combination, the first coordinate varying slowest
        combos = np.stack(np.meshgrid(*[base] * k, indexing="ij"), axis=-1).reshape(-1, k)
        values = self.vdot(combos, basis)
        table = np.full((self.size, k), -1, dtype=np.int32)
        table[values] = combos
        if np.count_nonzero(table[:, 0] >= 0) != len(values):
            return None  # two combinations share a value
        return table

    # -- element factories ---------------------------------------------------

    def element(self, code: int) -> "FieldElement":
        if not 0 <= code < self.size:
            raise ValueError(f"element code {code} out of range for field of size {self.size}")
        return FieldElement(self, int(code))

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.n:
            raise ValueError(f"too many coefficients for degree {self.n}")
        return FieldElement(self, sum(int(c) % self.p * int(w)
                                      for c, w in zip(coeffs, self._powvec)))

    def from_string(self, s: str) -> "FieldElement":
        """Parse a coefficient string, lowest degree first ('0110' = x + x^2),
        with exactly one digit per degree of the presentation."""
        return FieldElement(self, int(self.from_text(s)))

    def element_str(self, code: int) -> str:
        return self.to_text(code)

    # -- element text ----------------------------------------------------------

    def to_text(self, codes):
        """Element strings of codes of any shape, as nested lists (one str
        for one code): the base-p digits, lowest degree first, each through
        a table of digit strings and joined with "" when p <= 10 and with ","
        otherwise."""
        digits = self._digits.T[:, np.asarray(codes, dtype=np.int32)]
        first, later = self._digit_text
        # np.add is np.strings.add; naming it so spares importing numpy.strings
        return functools.reduce(np.add, later[digits[1:]], first[digits[0]]).tolist()

    def from_text(self, strings) -> np.ndarray:
        """Codes of element strings (one str, or nested lists of str) in the
        one grammar: n ASCII digits below p (only when p <= 10), or n
        comma-separated decimal numbers below p with no leading zero.  Refuses
        the first other string in row-major order, with its own message."""
        texts = np.array(strings, dtype=object)
        flat = texts.ravel().tolist()
        malformed, count, high, values = _scan_text(flat, self.p)
        bad = malformed | (count != self.n) | high
        if bad.any():
            raise ValueError(self._text_error(flat[bad.argmax()]))
        return self._from_digits(values.reshape(len(flat), self.n)).reshape(texts.shape)

    def _text_error(self, s: str) -> str:
        malformed, count, _, _ = _scan_text([s], self.p)
        if malformed[0]:
            return _malformed(s, self.p)
        if count[0] != self.n:
            return (f"element string {s!r} has {count[0]} digits; the "
                    f"F_{self.size} presentation needs {self.n}")
        return f"digits of {s!r} out of range for characteristic {self.p}"

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def xi(self) -> "FieldElement":
        """The designated primitive root of unity of order root_order."""
        return FieldElement(self, self.xi_code)

    @property
    def field_key(self) -> tuple:
        return (self.p, self.base_degree, self.modulus)

    def subfield(self, degree: int) -> "Subfield":
        return Subfield(self, degree)

    def same_presentation(self, other: "FieldSpec") -> bool:
        return self.field_key == other.field_key

    def __repr__(self):
        return (f"FieldSpec(q={self.q}, [K:F_q]={self.tower_degree}, "
                f"modulus={modulus_str(self.modulus)})")


class FieldElement:
    """An element of a FieldSpec's ambient field K (or any subfield of it)."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected a field element, got {type(other).__name__}")
        if not self.spec.same_presentation(other.spec):
            raise ValueError("field elements come from different field presentations")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.spec, int(self.spec.vadd(self.code, other.code)))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return FieldElement(self.spec, int(self.spec.vneg(self.code)))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.spec, int(self.spec.vmul(self.code, other.code)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        # a nonzero base needs only e mod |K| - 1 and zero only the sign of
        # e, so any Python int fits vpow's int64 exponent
        e = e % (self.spec.size - 1) if self.code else min(max(e, -1), 1)
        return FieldElement(self.spec, int(self.spec.vpow(self.code, e)))

    def inverse(self) -> "FieldElement":
        return self ** -1

    def frobenius(self, times: int = 1) -> "FieldElement":
        # the Frobenius of F_q has order [K:F_q] on K
        return self ** self.spec.q ** (times % self.spec.tower_degree)

    def multiplicative_order(self) -> int:
        if not self.code:
            raise ValueError("zero has no multiplicative order")
        N = self.spec.size - 1
        return N // math.gcd(int(self.spec._log[self.code]), N)

    def in_subfield(self, k: int) -> bool:
        return bool(self.spec.vin_subfield(self.code, k))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.spec._digits[self.code])

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.spec.same_presentation(other.spec)
                and self.code == other.code)

    def __hash__(self):
        return hash((self.spec.field_key, self.code))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        return self.spec.element_str(self.code)

    def __repr__(self):
        return f"FieldElement({self.spec.element_str(self.code)!r})"


class Subfield:
    """The degree-k extension of the base field F_q inside a FieldSpec."""

    __slots__ = ("spec", "degree")

    def __init__(self, spec: FieldSpec, degree: int):
        if degree < 1 or spec.tower_degree % degree != 0:
            raise ValueError(
                f"degree {degree} does not divide the tower degree {spec.tower_degree}")
        self.spec = spec
        self.degree = degree

    @property
    def size(self) -> int:
        return self.spec.q ** self.degree

    @property
    def elements(self) -> np.ndarray:
        return self.spec.subfield_codes(self.degree)

    def __eq__(self, other):
        return (isinstance(other, Subfield)
                and self.spec.same_presentation(other.spec)
                and self.degree == other.degree)

    def __hash__(self):
        return hash((self.spec.field_key, self.degree))

    def __repr__(self):
        return f"Subfield(q={self.spec.q}, degree={self.degree})"


# ---------------------------------------------------------------------------
# abelian groups

class AbelianGroup:
    """A finite abelian group presented as C_{m_1} x ... x C_{m_s}.

    Elements are indexed in mixed-radix lexicographic order with the
    rightmost coordinate varying fastest.
    """

    def __init__(self, orders: Iterable[int]):
        t = tuple(int(m) for m in orders)
        if not t or any(m < 1 for m in t):
            raise ValueError("cyclic factor orders must be positive integers")
        self.orders = t

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        s = [1] * len(self.orders)
        for i in range(len(self.orders) - 2, -1, -1):
            s[i] = s[i + 1] * self.orders[i + 1]
        return tuple(s)

    @cached_property
    def elements(self) -> tuple["GroupElement", ...]:
        return tuple(GroupElement(self, coords)
                     for coords in itertools.product(*(range(m) for m in self.orders)))

    @property
    def zero(self) -> "GroupElement":
        return self.elements[0]

    def element(self, coords: Sequence[int]) -> "GroupElement":
        if len(coords) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} coordinates, got {len(coords)}")
        return GroupElement(self, tuple(int(c) % m for c, m in zip(coords, self.orders)))

    def index(self, g: "GroupElement") -> int:
        return sum(c * s for c, s in zip(g.coords, self._strides))

    def at(self, i: int) -> "GroupElement":
        return self.elements[i]

    @cached_property
    def _coord_matrix(self) -> np.ndarray:
        return np.array([g.coords for g in self.elements], dtype=np.int64)

    def _encode(self, coords: np.ndarray) -> np.ndarray:
        """Indices of the elements with coordinates `coords` (last axis),
        each reduced mod its order."""
        orders = np.array(self.orders, dtype=np.int64)
        return ((coords % orders) @ np.array(self._strides, dtype=np.int64)).astype(np.int32)

    @cached_property
    def add_table(self) -> np.ndarray:
        """add_table[i, j] = index of elements[i] + elements[j]."""
        return self._encode(self._coord_matrix[:, None, :] + self._coord_matrix[None, :, :])

    @cached_property
    def neg_table(self) -> np.ndarray:
        return self._encode(-self._coord_matrix)

    @cached_property
    def diff_table(self) -> np.ndarray:
        """diff_table[g, h] = index of elements[h] - elements[g]; row g is the
        coefficient permutation of multiplication by the monomial at g."""
        return self.add_table[self.neg_table]

    @cached_property
    def character_exponents(self) -> np.ndarray:
        """E[a, h] = sum_i a_i h_i M/m_i mod M for the exponent M: the value
        of the character indexed by a at h is xi^E[a, h] for a primitive
        M-th root of unity xi."""
        cm = self._coord_matrix
        weights = np.array([self.exponent // m for m in self.orders], dtype=np.int64)
        return (cm * weights) @ cm.T % self.exponent

    def scalar_table(self, c: int) -> np.ndarray:
        """Index permutation of h -> c*h."""
        return self._encode(c * self._coord_matrix)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return " x ".join(f"C{m}" for m in self.orders)


class GroupElement:
    """An element of an AbelianGroup, held as a normalized coordinate tuple."""

    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianGroup, coords: tuple[int, ...]):
        self.group = group
        self.coords = coords

    def _check(self, other: "GroupElement"):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise ValueError("group elements come from different groups")

    def __add__(self, other):
        self._check(other)
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self.group.element([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.group.element([-a for a in self.coords])

    def __rmul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        return self.group.element([c * a for a in self.coords])

    @property
    def index(self) -> int:
        return self.group.index(self)

    def order(self) -> int:
        return math.lcm(*(m // math.gcd(m, c) if c else 1 for c, m in zip(self.coords, self.group.orders)))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group == other.group and self.coords == other.coords)

    def __hash__(self):
        return hash((self.group.orders, self.coords))

    def __repr__(self):
        return f"GroupElement{self.coords}"


# ---------------------------------------------------------------------------
# towers and characters

def build_tower(q: int, group: AbelianGroup, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Field containing a primitive root of unity of order exponent(group),
    i.e. the splitting field of the group algebra over F_q.
    """
    prime_power(q)
    if math.gcd(q, group.size) != 1:
        raise ValueError(
            f"gcd({q}, {group.size}) != 1: non-semisimple case out of scope")
    M = group.exponent
    t = multiplicative_order(q % M if M > 1 else 1, M)
    return FieldSpec(q, t, modulus=modulus, root_order=M)


def _check_root_order(group: AbelianGroup, spec: FieldSpec) -> None:
    if spec.root_order != group.exponent:
        raise ValueError(f"field was built for root order {spec.root_order}, "
                         f"group has exponent {group.exponent}")


def character_table(group: AbelianGroup, spec: FieldSpec) -> np.ndarray:
    """table[a, h] = value of the character indexed by a at h: the field's
    designated root of unity raised to the group's character exponents."""
    _check_root_order(group, spec)
    return spec.vpow(spec.xi_code, group.character_exponents)


def character(a: GroupElement, h: GroupElement, spec: FieldSpec) -> FieldElement:
    """Value of the character indexed by a at the group element h: one entry
    of the character table."""
    if a.group != h.group:
        raise ValueError("character index and argument live in different groups")
    _check_root_order(a.group, spec)
    return spec.xi ** int(a.group.character_exponents[a.index, h.index])


def subfield_trace(x: FieldElement, k: int) -> FieldElement:
    """Trace from the degree-k extension of F_q down to F_q."""
    spec = x.spec
    if not x.in_subfield(k):
        raise ValueError(f"element {x} is not in the degree-{k} extension of F_{spec.q}")
    out = int(spec.vtrace(x.code, k))
    if not spec.vin_subfield(out, 1):
        raise InvariantError("trace value fell outside the base field")
    return FieldElement(spec, out)


# ---------------------------------------------------------------------------
# group algebra

def convolve(spec: FieldSpec, group: AbelianGroup, a, b) -> np.ndarray:
    """The group-algebra product of coefficient stacks: the group on the
    last axis, leading axes broadcast as in numpy.  The coefficient at h is
    the sum over g of a[..., g] * b[..., h - g], one `vdot` against the
    gather of b through the group's difference table."""
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    if a.shape[-1:] != (group.size,) or b.shape[-1:] != (group.size,):
        raise ValueError(f"group-algebra operands need {group.size} coefficients "
                         f"on the last axis, got shapes {a.shape} and {b.shape}")
    return spec.vdot(a[..., None, :], b[..., group.diff_table])[..., 0, :]


class GroupAlgebraElement:
    """An element of the group algebra: one field coefficient per group
    element, stored densely in the group's element order.
    """

    __slots__ = ("group", "spec", "coeffs")

    def __init__(self, group: AbelianGroup, spec: FieldSpec, coeffs):
        arr = np.array(coeffs, dtype=np.int32, copy=True)
        if arr.shape != (group.size,):
            raise ValueError(f"expected {group.size} coefficients, got {arr.shape}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= spec.size:
            raise ValueError("coefficient codes out of range for the field")
        arr.setflags(write=False)
        self.group = group
        self.spec = spec
        self.coeffs = arr

    # -- factories -----------------------------------------------------------

    @classmethod
    def zero(cls, group, spec):
        return cls(group, spec, np.zeros(group.size, dtype=np.int32))

    @classmethod
    def one(cls, group, spec):
        c = np.zeros(group.size, dtype=np.int32)
        c[0] = 1
        return cls(group, spec, c)

    @classmethod
    def monomial(cls, group, spec, g: GroupElement, coeff: int = 1):
        c = np.zeros(group.size, dtype=np.int32)
        c[g.index] = coeff
        return cls(group, spec, c)

    # -- structure -----------------------------------------------------------

    def weight(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def in_base_field(self) -> bool:
        return bool(self.spec.vin_subfield(self.coeffs, 1).all())

    def _check(self, other: "GroupAlgebraElement"):
        if not isinstance(other, GroupAlgebraElement):
            raise TypeError(f"expected a group algebra element, got {type(other).__name__}")
        if other.group != self.group:
            raise ValueError("group mismatch")
        if not self.spec.same_presentation(other.spec):
            raise ValueError("field presentation mismatch")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement(self.group, self.spec, self.spec.vadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return GroupAlgebraElement(
            self.group, self.spec, self.spec.vadd(self.coeffs, self.spec.vneg(other.coeffs)))

    def __neg__(self):
        return GroupAlgebraElement(self.group, self.spec, self.spec.vneg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other.code)
        self._check(other)
        return GroupAlgebraElement(self.group, self.spec,
                                   convolve(self.spec, self.group, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other.code)
        return NotImplemented

    def scale(self, code: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group, self.spec, self.spec.vmul(code, self.coeffs))

    def translate(self, g: GroupElement) -> "GroupAlgebraElement":
        """Multiplication by the monomial at g (a coefficient permutation)."""
        return GroupAlgebraElement(self.group, self.spec,
                                   self.coeffs[self.group.diff_table[g.index]])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in the group algebra")
        result = GroupAlgebraElement.one(self.group, self.spec)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.group == other.group
                and self.spec.same_presentation(other.spec)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.group.orders, self.spec.field_key, self.coeffs.tobytes()))

    def __repr__(self):
        terms = [f"({text})Y{self.group.at(i).coords}"
                 for i, text in enumerate(self.spec.to_text(self.coeffs)) if self.coeffs[i]]
        return " + ".join(terms) if terms else "0"
