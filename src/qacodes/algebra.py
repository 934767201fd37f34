"""Exact arithmetic for prime-power fields, finite abelian groups and their
group algebras.

All field arithmetic happens inside one ambient field K = F_p[x]/(modulus).
The base field F_q (q = p^b) and every intermediate extension of F_q are
realized as Frobenius-fixed subsets of K, never as standalone fields.  A
field element is encoded as an integer in [0, p^n): its base-p digits are
the polynomial coefficients, lowest degree first.  Vectorized table lookups
on these integer codes are what the linear-algebra kernels run on.

Group elements are coordinate tuples ordered mixed-radix lexicographically
with the rightmost coordinate varying fastest; that single ordering fixes
every coefficient-vector layout downstream.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
# dense polynomial arithmetic over the prime field (bootstrap only)

def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod."""
    n = len(mod) - 1
    res = [c % p for c in a]
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            for j in range(n + 1):
                res[i - n + j] = (res[i - n + j] - c * mod[j]) % p
    res = res[:n] + [0] * max(0, n - len(res))
    return res


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_mod(res, mod, p)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = _poly_mod([1], mod, p)
    base = _poly_mod(a, mod, p)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _poly_trim([c % p for c in a])
    b = _poly_trim([c % p for c in b])
    while b != [0]:
        # reduce a modulo b (b made monic first)
        inv_lead = pow(b[-1], -1, p)
        b_monic = [c * inv_lead % p for c in b]
        r = [c % p for c in a]
        while len(r) >= len(b_monic) and _poly_trim(list(r)) != [0]:
            r = _poly_trim(r)
            if len(r) < len(b_monic):
                break
            c = r[-1]
            shift = len(r) - len(b_monic)
            for j, bj in enumerate(b_monic):
                r[shift + j] = (r[shift + j] - c * bj) % p
            r = _poly_trim(r)
        a, b = b_monic, _poly_trim(r)
    return a


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    mod = [c % p for c in modulus]
    n = len(mod) - 1
    if n < 1 or mod[-1] != 1:
        raise ValueError("modulus must be monic of degree at least 1")
    if n == 1:
        return True
    x = [0, 1]
    xq = _poly_powmod(x, p ** n, mod, p)
    if _poly_trim(list(xq)) != _poly_trim(_poly_mod(x, mod, p)):
        return False
    for r in _prime_factors(n):
        d = n // r
        xd = _poly_powmod(x, p ** d, mod, p)
        diff = [(xd[i] - (1 if i == 1 and len(xd) > 1 else 0)) % p for i in range(len(xd))]
        g = _poly_gcd(diff, mod, p)
        if len(_poly_trim(list(g))) > 1:
            return False
    return True


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^n}: the first monic degree-n
    polynomial (coefficients read as a base-p integer, low digits first) that
    is irreducible and has x as a multiplicative generator.

    For p = 2, n = 4 this yields x^4 + x + 1.
    """
    N = p ** n - 1
    prime_divs = _prime_factors(N) if N > 1 else []
    for low in range(p ** n):
        digits = []
        m = low
        for _ in range(n):
            digits.append(m % p)
            m //= p
        poly = digits + [1]
        if not is_irreducible(poly, p):
            continue
        x = _poly_mod([0, 1], poly, p)
        if _poly_trim(list(x)) == [0]:
            continue
        if all(_poly_trim(_poly_powmod(x, N // r, poly, p)) != [1] for r in prime_divs):
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

        # digit table: digits[c] = base-p coefficient vector of code c
        codes = np.arange(self.size, dtype=np.int64)
        digits = np.empty((self.size, self.n), dtype=np.uint8)
        for j in range(self.n):
            digits[:, j] = codes % p
            codes //= p
        self._digits = digits
        self._powvec = (p ** np.arange(self.n, dtype=np.int64)).astype(np.int64)

        # canonical generator of K^*: smallest code of full multiplicative order
        prime_divs = _prime_factors(N) if N > 1 else []
        gen = None
        for g in range(1, self.size):
            if all(self._raw_pow(g, N // r) != 1 for r in prime_divs):
                gen = g
                break
        if gen is None:
            raise InvariantError("multiplicative group has no generator")
        self.generator = gen

        exp = np.empty(max(N, 1), dtype=np.int32)
        exp[0] = 1
        for i in range(1, N):
            exp[i] = self._raw_mul(int(exp[i - 1]), gen)
        log = np.zeros(self.size, dtype=np.int64)
        log[exp] = np.arange(max(N, 1))
        self._exp = exp
        self._log = log

        neg = ((p - digits) % p).astype(np.int64) @ self._powvec
        self._neg = neg.astype(np.int32)

        if pair_tables is None:
            pair_tables = self.size <= _PAIR_TABLE_LIMIT
        if pair_tables:
            d = digits.astype(np.int16)
            add = ((d[:, None, :] + d[None, :, :]) % p).astype(np.int64)
            self._add = (add @ self._powvec).astype(np.int32)
            a = np.arange(self.size)
            lg = log[a]
            prod = exp[(lg[:, None] + lg[None, :]) % N] if N > 0 else np.ones((1, 1), np.int32)
            prod = np.where((a[:, None] == 0) | (a[None, :] == 0), 0, prod)
            self._mul = prod.astype(np.int32)
        else:
            self._add = None
            self._mul = None

        # designated root of unity: smallest exponent e such that generator**e
        # has exact order root_order
        xi = None
        for e in range(max(N, 1)):
            order = N // math.gcd(e, N) if N > 0 else 1
            if order == root_order:
                xi = int(exp[e]) if N > 0 else 1
                break
        if xi is None:
            raise InvariantError(f"no element of order {root_order} found")
        self.xi_code = xi

        self._subfield_cache: dict[int, np.ndarray] = {}

    # -- bootstrap arithmetic on codes (used before tables exist) ----------

    def _code_to_poly(self, c: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(c % self.p)
            c //= self.p
        return out

    def _poly_to_code(self, poly: Sequence[int]) -> int:
        c = 0
        for d in reversed(list(poly[: self.n])):
            c = c * self.p + (d % self.p)
        return c

    def _raw_mul(self, a: int, b: int) -> int:
        return self._poly_to_code(
            _poly_mulmod(self._code_to_poly(a), self._code_to_poly(b), self.modulus, self.p))

    def _raw_pow(self, a: int, e: int) -> int:
        return self._poly_to_code(
            _poly_powmod(self._code_to_poly(a), e, self.modulus, self.p))

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return int(self._add[a, b])
        d = (self._digits[a].astype(np.int64) + self._digits[b]) % self.p
        return int(d @ self._powvec)

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._mul is not None:
            return int(self._mul[a, b])
        N = self.size - 1
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % N])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        N = self.size - 1
        return int(self._exp[(N - int(self._log[a])) % N])

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            return 1 if e == 0 else 0
        N = self.size - 1
        if N == 0:
            return 1
        return int(self._exp[(int(self._log[a]) * (e % N)) % N])

    def frob(self, a: int, times: int = 1) -> int:
        """times-fold base-field Frobenius x -> x^(q^times)."""
        return self.pow_(a, self.q ** times)

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        N = self.size - 1
        if N == 0:
            return 1
        return N // math.gcd(int(self._log[a]), N)

    def exact_degree(self, a: int) -> int:
        """Degree over F_q of the smallest subfield holding a: the least
        k >= 1 with a^(q^k) == a."""
        x = self.frob(a)
        k = 1
        while x != a:
            x = self.frob(x)
            k += 1
        return k

    def in_subfield(self, a: int, k: int) -> bool:
        """Frobenius fixed-point test: a^(q^k) == a."""
        return self.pow_(a, self.q ** k) == a

    def trace_code(self, a: int, k: int) -> int:
        """Relative trace sum_{j<k} a^(q^j) of the degree-k extension of F_q."""
        acc = 0
        x = a
        for _ in range(k):
            acc = self.add(acc, x)
            x = self.frob(x)
        return acc

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
        A, B = np.broadcast_arrays(A, B)
        d = (self._digits[A].astype(np.int16) + self._digits[B]) % self.p
        return (d.astype(np.int64) @ self._powvec).astype(np.int32)

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

    def vscale(self, s: int, A):
        """Scalar multiple s * A for a single code s."""
        A = np.asarray(A, dtype=np.int32)
        if s == 0:
            return np.zeros_like(A)
        if s == 1:
            return A.copy()
        if self._mul is not None:
            return self._mul[s, A]
        N = self.size - 1
        out = self._exp[(int(self._log[s]) + self._log[A]) % N].astype(np.int32)
        return np.where(A == 0, 0, out)

    def vin_subfield(self, A, k: int):
        A = np.asarray(A, dtype=np.int64)
        N = self.size - 1
        if N == 0:
            return np.ones_like(A, dtype=bool)
        shift = (self.q ** k - 1) % N
        return (A == 0) | ((self._log[A] * shift) % N == 0)

    def basis_coordinates(self, basis) -> np.ndarray | None:
        """Coordinates over F_q in `basis` of every element of its F_q-span:
        row c holds those of code c, or -1s where c lies outside the span.
        None when the basis elements are dependent over F_q."""
        k = len(basis)
        base = self.subfield_codes(1)
        # every combination, the first coordinate varying slowest
        combos = np.stack(np.meshgrid(*[base] * k, indexing="ij"), axis=-1).reshape(-1, k)
        values = np.zeros(len(combos), dtype=np.int32)
        for j, b in enumerate(basis):
            values = self.vadd(values, self.vmul(combos[:, j], int(b)))
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
        return FieldElement(self, self._poly_to_code([c % self.p for c in coeffs]))

    def from_string(self, s: str) -> "FieldElement":
        """Parse a coefficient string, lowest degree first ('0110' = x + x^2),
        with exactly one digit per degree of the presentation."""
        digits = [int(ch) for ch in s.split(",")] if "," in s else [int(ch) for ch in s.strip()]
        if len(digits) != self.n:
            raise ValueError(f"element string {s!r} has {len(digits)} digits; the "
                             f"F_{self.size} presentation needs {self.n}")
        if any(d < 0 or d >= self.p for d in digits):
            raise ValueError(f"digits of {s!r} out of range for characteristic {self.p}")
        return self.from_coeffs(digits)

    def element_str(self, code: int) -> str:
        digits = self._digits[code]
        if self.p <= 10:
            return "".join(str(int(d)) for d in digits)
        return ",".join(str(int(d)) for d in digits)

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
        return FieldElement(self.spec, self.spec.add(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.sub(self.code, other.code))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.code))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.code, self.spec.inv(other.code)))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.code))

    def frobenius(self, times: int = 1) -> "FieldElement":
        return FieldElement(self.spec, self.spec.frob(self.code, times))

    def multiplicative_order(self) -> int:
        return self.spec.element_order(self.code)

    def in_subfield(self, k: int) -> bool:
        return self.spec.in_subfield(self.code, k)

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

    def contains_code(self, code: int) -> bool:
        return self.spec.in_subfield(code, self.degree)

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

    @cached_property
    def add_table(self) -> np.ndarray:
        """add_table[i, j] = index of elements[i] + elements[j]."""
        cm = self._coord_matrix
        orders = np.array(self.orders, dtype=np.int64)
        summed = (cm[:, None, :] + cm[None, :, :]) % orders
        return (summed @ np.array(self._strides, dtype=np.int64)).astype(np.int32)

    @cached_property
    def neg_table(self) -> np.ndarray:
        cm = self._coord_matrix
        orders = np.array(self.orders, dtype=np.int64)
        return (((-cm) % orders) @ np.array(self._strides, dtype=np.int64)).astype(np.int32)

    def scalar_table(self, c: int) -> np.ndarray:
        """Index permutation of h -> c*h."""
        cm = self._coord_matrix
        orders = np.array(self.orders, dtype=np.int64)
        return (((c * cm) % orders) @ np.array(self._strides, dtype=np.int64)).astype(np.int32)

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
    if math.gcd(q, group.size) != 1:
        raise ValueError(
            f"gcd({q}, {group.size}) != 1: non-semisimple case out of scope")
    M = group.exponent
    t = multiplicative_order(q % M if M > 1 else 1, M)
    return FieldSpec(q, t, modulus=modulus, root_order=M)


def character(a: GroupElement, h: GroupElement, spec: FieldSpec) -> FieldElement:
    """Value of the character indexed by a at the group element h, computed
    as the designated root of unity raised to sum_i a_i h_i M/m_i.
    """
    if a.group != h.group:
        raise ValueError("character index and argument live in different groups")
    M = a.group.exponent
    if spec.root_order != M:
        raise ValueError(
            f"field was built for root order {spec.root_order}, group has exponent {M}")
    e = sum(ai * hi * (M // m) for ai, hi, m in zip(a.coords, h.coords, a.group.orders)) % M
    return spec.xi ** e


def subfield_trace(x: FieldElement, k: int) -> FieldElement:
    """Trace from the degree-k extension of F_q down to F_q."""
    spec = x.spec
    if not spec.in_subfield(x.code, k):
        raise ValueError(f"element {x} is not in the degree-{k} extension of F_{spec.q}")
    out = spec.trace_code(x.code, k)
    if not spec.in_subfield(out, 1):
        raise InvariantError("trace value fell outside the base field")
    return FieldElement(spec, out)


# ---------------------------------------------------------------------------
# group algebra

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

    @classmethod
    def from_items(cls, group, spec, items: Mapping[GroupElement, FieldElement]):
        c = np.zeros(group.size, dtype=np.int32)
        for g, v in items.items():
            c[g.index] = spec.add(int(c[g.index]), v.code)
        return cls(group, spec, c)

    # -- structure -----------------------------------------------------------

    def coeff(self, g: GroupElement) -> FieldElement:
        return FieldElement(self.spec, int(self.coeffs[g.index]))

    def support(self) -> list[GroupElement]:
        return [self.group.at(int(i)) for i in np.nonzero(self.coeffs)[0]]

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
        table = self.group.add_table
        out = np.zeros(self.group.size, dtype=np.int32)
        for i in np.nonzero(self.coeffs)[0]:
            idx = table[i]
            out[idx] = self.spec.vadd(out[idx], self.spec.vscale(int(self.coeffs[i]), other.coeffs))
        return GroupAlgebraElement(self.group, self.spec, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other.code)
        return NotImplemented

    def scale(self, code: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group, self.spec, self.spec.vscale(code, self.coeffs))

    def translate(self, g: GroupElement) -> "GroupAlgebraElement":
        """Multiplication by the monomial at g (a coefficient permutation)."""
        perm = self.group.add_table[self.group.neg_table[g.index]]
        return GroupAlgebraElement(self.group, self.spec, self.coeffs[perm])

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
        terms = [f"({self.spec.element_str(int(c))})Y{self.group.at(i).coords}"
                 for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"
