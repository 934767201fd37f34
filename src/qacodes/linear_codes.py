"""Linear-code machinery over any subfield of the tower.

Generator matrices are held in reduced row echelon form, which makes them a
canonical representative of the row space: two codes are equal iff their
matrices are identical.  Minimum distance and weight distribution are found
by full message-space enumeration, guarded by a cap; no cleverer distance
algorithm is attempted.  Codewords are enumerated as packed words
(`WordLayout`): the span of the last generator rows is built once by
broadcast field sums, every prefix of the remaining rows is added to it, and
weights are popcounts, in blocks of at most 2^16 codewords.  The search
weighs its direct sums with the same layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .algebra import FieldSpec, Subfield
from .errors import CapExceededError, InvariantError

DEFAULT_CODEWORD_CAP = 2 ** 24
DEFAULT_SUBSPACE_CAP = 10 ** 7

# codewords are materialized and weighed at most this many at a time
_BLOCK_CODEWORDS = 2 ** 16


@dataclass(frozen=True)
class CodeParams:
    """Length / dimension / distance triple; the distance slot may hold an
    exact value, only a lower bound, or (for the zero code) neither."""

    length: int
    dim: int
    distance: int | None = None
    distance_lower_bound: int | None = None

    def __post_init__(self):
        if self.length < 1 or self.dim < 0 or self.dim > self.length:
            raise ValueError(f"inconsistent parameters [{self.length},{self.dim}]")
        if self.distance is not None:
            if not 1 <= self.distance <= self.length - self.dim + 1:
                raise ValueError(
                    f"distance {self.distance} violates the Singleton bound for "
                    f"[{self.length},{self.dim}]")
        if self.distance_lower_bound is not None and self.distance_lower_bound < 1:
            raise ValueError("distance lower bound must be positive")

    def __str__(self):
        if self.distance is not None:
            return f"[{self.length},{self.dim},{self.distance}]"
        if self.distance_lower_bound is not None:
            return f"[{self.length},{self.dim},>={self.distance_lower_bound}]"
        return f"[{self.length},{self.dim}]"


# ---------------------------------------------------------------------------
# Gaussian elimination

def rref(field: Subfield, matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the given field.

    Returns the nonzero rows and the pivot column list.
    """
    spec = field.spec
    R = np.array(matrix, dtype=np.int32, copy=True)
    if R.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    rows, n = R.shape
    pivots: list[int] = []
    pr = 0
    for col in range(n):
        piv = None
        for r in range(pr, rows):
            if R[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != pr:
            R[[pr, piv]] = R[[piv, pr]]
        lead = int(R[pr, col])
        if lead != 1:
            R[pr] = spec.vscale(spec.inv(lead), R[pr])
        for r in range(rows):
            if r != pr and R[r, col]:
                R[r] = spec.vadd(R[r], spec.vscale(spec.neg(int(R[r, col])), R[pr]))
        pivots.append(col)
        pr += 1
        if pr == rows:
            break
    return R[:pr], pivots


def rank(field: Subfield, matrix) -> int:
    return len(rref(field, matrix)[1])


def reduce_vector(field: Subfield, R: np.ndarray, pivots: Sequence[int], v) -> np.ndarray:
    """Residual of v after elimination against an RREF matrix."""
    spec = field.spec
    out = np.array(v, dtype=np.int32, copy=True)
    for r, c in enumerate(pivots):
        if out[c]:
            out = spec.vadd(out, spec.vscale(spec.neg(int(out[c])), R[r]))
    return out


# ---------------------------------------------------------------------------
# packed codewords

class WordLayout:
    """Codewords of one length over one field as rows of uint64 words.

    A coordinate takes g = d*w bits: its d base-p digits (the digit places
    the field's element codes use), w bits each, where w = 1 when p = 2 and
    otherwise the least width with 2(p - 1) < 2^w, so that a digit sum never
    carries into the next digit.  A word holds 64 // g whole coordinates.
    Field addition is XOR when p = 2 and otherwise a digit-wise add that
    subtracts p from every digit that reached it, done on all digits of a
    word at once (SWAR).  A weight ORs the bits of each coordinate onto its
    low bit and counts the low bits.
    """

    def __init__(self, field: Subfield, length: int):
        spec = field.spec
        p = self.p = spec.p
        self.places = p ** np.flatnonzero(spec._digits[field.elements].any(axis=0))
        w = 1 if p == 2 else (2 * p - 2).bit_length()
        g = len(self.places) * w
        per_word = 64 // g
        self.words = -(-length // per_word)
        # bit offset of digit k of the c-th coordinate of a word: c*g + k*w
        self.shifts = (np.arange(per_word)[:, None] * g
                       + np.arange(len(self.places)) * w).astype(np.uint64)
        low = ((1 << (g * per_word)) - 1) // ((1 << g) - 1)  # bit 0 of each coordinate
        ones = low * (((1 << g) - 1) // ((1 << w) - 1))  # bit 0 of each digit
        self.low = np.uint64(low)
        self.ones = np.uint64(ones)
        self.offset = np.uint64((2 ** (w - 1) - p) * ones) if p > 2 else None
        self.top = np.uint64(w - 1)
        # shifts that OR bits i..i+g-1 onto bit i
        self.folds = []
        covered = 1
        while 2 * covered <= g:
            self.folds.append(covered)
            covered *= 2
        if covered < g:
            self.folds.append(g - covered)

    def pack(self, codes: np.ndarray) -> np.ndarray:
        """Packed words of rows of element codes (last axis: the coordinates)."""
        per_word = len(self.shifts)
        lead = codes.shape[:-1]
        padded = np.zeros(lead + (self.words * per_word,), dtype=np.int64)
        padded[..., :codes.shape[-1]] = codes
        digits = padded.reshape(lead + (self.words, per_word, 1)) // self.places % self.p
        return (digits.astype(np.uint64) << self.shifts).sum(axis=(-2, -1), dtype=np.uint64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field sum of packed words, broadcast; a new array."""
        op = np.bitwise_xor if self.p == 2 else np.add
        if self.words == 1:
            s = op(a, b)
        else:
            # word by word: numpy broadcasts slowly over a short last axis
            s = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
            for j in range(self.words):
                op(a[..., j], b[..., j], out=s[..., j])
        if self.p == 2:
            return s
        ge = s + self.offset  # bit w-1 of a digit is set iff its sum is >= p
        ge >>= self.top
        ge &= self.ones
        ge *= np.uint64(self.p)
        s -= ge
        return s

    def weights(self, words: np.ndarray) -> np.ndarray:
        """Hamming weights of packed codewords (last axis: the words of one
        codeword); overwrites `words`."""
        for shift in self.folds:
            words |= words >> np.uint64(shift)
        if self.folds:
            words &= self.low
        counts = np.bitwise_count(words)
        # word by word: numpy reduces a short last axis slowly
        out = counts[..., 0].astype(np.intp)
        for j in range(1, counts.shape[-1]):
            out += counts[..., j]
        return out

    def sum_span(self, spans) -> np.ndarray:
        """Span of a direct sum from the spans of its summands, each listing
        the zero word first; the first summand varies slowest."""
        # built from the last summand back, so the long axis is innermost
        out = spans[-1]
        for s in spans[-2::-1]:
            out = self.add(s[:, None, :], out[None, :, :]).reshape(-1, self.words)
        return out


@lru_cache(maxsize=64)
def word_layout(field: Subfield, length: int) -> WordLayout:
    """The layout of length-`length` codewords over `field`, built once."""
    return WordLayout(field, length)


# ---------------------------------------------------------------------------
# codes

class LinearCode:
    """A linear code over a subfield of the tower, canonicalized to RREF."""

    __slots__ = ("field", "length", "gens", "pivots")

    def __init__(self, field: Subfield, length: int, rows=None, *, _canonical=False):
        self.field = field
        self.length = int(length)
        if self.length < 1:
            raise ValueError("code length must be positive")
        if rows is None:
            rows = np.zeros((0, self.length), dtype=np.int32)
        arr = np.array(rows, dtype=np.int32)
        if arr.size == 0:
            arr = arr.reshape(0, self.length)
        if arr.ndim != 2 or arr.shape[1] != self.length:
            raise ValueError(f"generator rows must have length {self.length}")
        if arr.size and not field.spec.vin_subfield(arr, field.degree).all():
            raise ValueError("generator entries fall outside the declared field")
        if _canonical:
            gens = arr
            pivots = [int(np.argmax(row != 0)) for row in arr]
        else:
            gens, pivots = rref(field, arr)
        gens.setflags(write=False)
        self.gens = gens
        self.pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        return self.gens.shape[0]

    @property
    def field_size(self) -> int:
        return self.field.size

    @property
    def codeword_count(self) -> int:
        return self.field.size ** self.dim

    # -- enumeration kernel ----------------------------------------------------

    def _message_weights(self, cap: int) -> Iterator[np.ndarray]:
        """Hamming weights of the codewords, in blocks covering the message
        space exactly once, in lexicographic message order over the field's
        element ordering (so message 0 comes first)."""
        n = self.length
        k = self.dim
        Q = self.field.size
        if self.codeword_count > cap:
            raise CapExceededError(
                f"codeword enumeration for [{n},{k}] over a size-{Q} field",
                self.codeword_count, cap)
        layout = word_layout(self.field, n)
        zero = np.zeros((1, layout.words), dtype=np.uint64)
        if k == 0:
            yield layout.weights(zero)
            return
        # the field multiples of each generator row, packed: lines[r][c]
        elems = self.field.elements
        lines = layout.pack(self.field.spec.vmul(elems[None, :, None], self.gens[:, None, :]))
        low = 1
        while low < k and Q ** (low + 1) <= _BLOCK_CODEWORDS:
            low += 1
        block = layout.sum_span(lines[k - low:])
        prefixes = layout.sum_span(lines[:k - low]) if k > low else zero
        step = max(1, _BLOCK_CODEWORDS // len(block))
        for start in range(0, len(prefixes), step):
            # no name holds the sums, so they are freed before the next block
            yield layout.weights(layout.add(prefixes[start:start + step, None, :],
                                            block[None, :, :])).ravel()

    def min_distance(self, cap: int = DEFAULT_CODEWORD_CAP) -> int:
        """Exact minimum Hamming weight over all nonzero codewords."""
        if self.dim == 0:
            raise ValueError("minimum distance is undefined for the zero code")
        best = self.length + 1
        first = True
        for w in self._message_weights(cap):
            if first:
                w = w[1:]  # message 0 comes first by construction
                first = False
            if w.size:
                m = int(w.min())
                if m < best:
                    best = m
                    if best == 1:
                        break
        return best

    def weight_distribution(self, cap: int = DEFAULT_CODEWORD_CAP) -> np.ndarray:
        """Codeword counts by Hamming weight, indices 0..length."""
        counts = np.zeros(self.length + 1, dtype=np.int64)
        for w in self._message_weights(cap):
            counts += np.bincount(w, minlength=self.length + 1)
        if counts[0] != 1 or int(counts.sum()) != self.codeword_count:
            raise InvariantError("weight distribution failed its sanity checks")
        return counts

    # -- duality ----------------------------------------------------------------

    def dual(self) -> "LinearCode":
        """The Euclidean dual code."""
        spec = self.field.spec
        n = self.length
        free = [c for c in range(n) if c not in self.pivots]
        H = np.zeros((len(free), n), dtype=np.int32)
        for i, f in enumerate(free):
            H[i, f] = 1
            for r, pc in enumerate(self.pivots):
                H[i, pc] = spec.neg(int(self.gens[r, f]))
        out = LinearCode(self.field, n, H)
        for hrow in out.gens:
            for grow in self.gens:
                acc = 0
                for c in range(n):
                    acc = spec.add(acc, spec.mul(int(grow[c]), int(hrow[c])))
                if acc:
                    raise InvariantError("dual construction is not orthogonal")
        return out

    def gram_matrix(self) -> np.ndarray:
        """G * G^T over the field."""
        spec = self.field.spec
        k = self.dim
        out = np.zeros((k, k), dtype=np.int32)
        for c in range(self.length):
            col = self.gens[:, c]
            out = spec.vadd(out, spec.vmul(col[:, None], col[None, :]))
        return out

    def hull_dimension(self) -> int:
        """Dimension of the intersection with the dual; 0 means the code is
        linear complementary dual."""
        if self.dim == 0:
            return 0
        return self.dim - rank(self.field, self.gram_matrix())

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    # -- membership ----------------------------------------------------------------

    def contains(self, v) -> bool:
        res = reduce_vector(self.field, self.gens, self.pivots, v)
        return not res.any()

    def contains_code(self, other: "LinearCode") -> bool:
        return all(self.contains(row) for row in other.gens)

    def params(self, cap: int = DEFAULT_CODEWORD_CAP) -> CodeParams:
        return CodeParams(self.length, self.dim, distance=self.min_distance(cap))

    def __eq__(self, other):
        return (isinstance(other, LinearCode)
                and self.field == other.field
                and self.length == other.length
                and np.array_equal(self.gens, other.gens))

    def __hash__(self):
        return hash((self.field, self.length, self.gens.tobytes()))

    def __repr__(self):
        return (f"LinearCode([{self.length},{self.dim}] over "
                f"F_{self.field.size})")


def rref_canonicalize(field: Subfield, matrix) -> LinearCode:
    """Canonical code for an arbitrary generator matrix (zero rows dropped)."""
    arr = np.array(matrix, dtype=np.int32)
    if arr.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    return LinearCode(field, arr.shape[1], arr)


# ---------------------------------------------------------------------------
# subspace census

def gaussian_binomial(n: int, k: int, size: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a size-`size` field."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= size ** (n - i) - 1
        den *= size ** (i + 1) - 1
    return num // den


def subspace_count(size: int, length: int) -> int:
    return sum(gaussian_binomial(length, k, size) for k in range(length + 1))


def enumerate_codes(field: Subfield, length: int,
                    cap: int = DEFAULT_SUBSPACE_CAP) -> Iterator[LinearCode]:
    """Every linear code of the given length over the field, exactly once.

    Codes are produced dimension-ascending; within a dimension, by pivot
    pattern and then by free-entry assignment, so the stream order is a
    frozen, reproducible contract.
    """
    total = subspace_count(field.size, length)
    if total > cap:
        raise CapExceededError(
            f"subspace enumeration of length {length} over a size-{field.size} field",
            total, cap)
    elems = field.elements.tolist()
    yield LinearCode(field, length)
    for k in range(1, length + 1):
        for pivots in itertools.combinations(range(length), k):
            free = [(r, c) for r in range(k) for c in range(length)
                    if c > pivots[r] and c not in pivots]
            base = np.zeros((k, length), dtype=np.int32)
            for r, pc in enumerate(pivots):
                base[r, pc] = 1
            for assign in itertools.product(elems, repeat=len(free)):
                mat = base.copy()
                for (r, c), v in zip(free, assign):
                    mat[r, c] = v
                yield LinearCode(field, length, mat, _canonical=True)


def frobenius_twist(code: LinearCode, times: int = 1) -> LinearCode:
    """Image of a code under the entrywise base-field Frobenius x -> x^(q^times).

    A field automorphism maps linear codes to linear codes of identical
    weight structure, so parameters are preserved.
    """
    spec = code.field.spec
    t = times % code.field.degree
    if t == 0:
        return code
    table = np.array([spec.frob(c, t) for c in range(spec.size)], dtype=np.int32)
    return LinearCode(code.field, code.length, table[code.gens])


# ---------------------------------------------------------------------------
# embeddings between presentations

def embed_code(code: LinearCode, target: Subfield) -> LinearCode:
    """Re-express a code inside another field presentation.

    The source field F_{q^degree} must embed into the target tower; the
    embedding sends the source presentation's x to the smallest root of the
    source modulus in the target field (deterministic).
    """
    src = code.field.spec
    dst = target.spec
    if src.same_presentation(dst):
        if code.field.degree != target.degree:
            raise ValueError("field degree mismatch between code and target")
        return LinearCode(target, code.length, code.gens, _canonical=True)
    if src.p != dst.p or src.base_degree != dst.base_degree:
        raise ValueError("codes can only be embedded over the same base field")
    if dst.n % src.n != 0:
        raise ValueError(
            f"no embedding of a degree-{src.n} field into a degree-{dst.n} field")
    root = None
    for c in range(dst.size):
        acc = 0
        for coeff in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, c), coeff % dst.p)
        if acc == 0:
            root = c
            break
    if root is None:
        raise InvariantError("source modulus has no root in the target field")
    table = np.empty(src.size, dtype=np.int32)
    for a in range(src.size):
        acc = 0
        for coeff in reversed(src._digits[a].tolist()):
            acc = dst.add(dst.mul(acc, root), int(coeff))
        table[a] = acc
    return LinearCode(target, code.length, table[code.gens])


# ---------------------------------------------------------------------------
# descriptors

def code_to_descriptor(code: LinearCode) -> dict:
    spec = code.field.spec
    return {
        "q": spec.q,
        "modulus": list(spec.modulus),
        "field_degree": code.field.degree,
        "length": code.length,
        "generators": [[spec.element_str(int(v)) for v in row] for row in code.gens],
    }


def code_from_descriptor(obj: dict, spec: FieldSpec | None = None) -> LinearCode:
    """Rebuild a code from its JSON form.

    If no ambient field is supplied, one is derived from the descriptor's
    "q"/"modulus" keys (written by code_to_descriptor) or, failing that, from
    the element string widths.
    """
    if not isinstance(obj, dict):
        raise ValueError("descriptor must be a JSON object")
    degree = int(obj["field_degree"])
    length = int(obj["length"])
    gens = obj.get("generators", [])
    if spec is None:
        q = int(obj["q"])
        if "modulus" in obj:
            modulus = [int(c) for c in obj["modulus"]]
            from .algebra import prime_power
            _, b = prime_power(q)
            spec = FieldSpec(q, (len(modulus) - 1) // b, modulus=modulus)
        else:
            from .algebra import prime_power
            _, b = prime_power(q)
            width = len(gens[0][0].split(",")) if gens and "," in gens[0][0] else (
                len(gens[0][0]) if gens else b * degree)
            if width % b != 0:
                raise ValueError("element string width does not match the base field")
            spec = FieldSpec(q, width // b)
    field = spec.subfield(degree)
    rows = [[spec.from_string(s).code for s in row] for row in gens]
    return LinearCode(field, length, np.array(rows, dtype=np.int32).reshape(len(rows), length))
