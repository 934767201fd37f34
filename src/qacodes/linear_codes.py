"""Linear-code machinery over any subfield of the tower.

Generator matrices are held in reduced row echelon form, which makes them a
canonical representative of the row space: two codes are equal iff their
matrices are identical, and a vector lies in the code iff it equals its
pivot entries times the generators (`contains` tests a stack at once).
Codes of one shape can also be handled as a stack of generator matrices:
`rref`, `rank`, `hull_dimensions` and `weight_distributions` treat a whole
stack in one pass, and `census_stacks` lists every code of a length that way.
One matrix over a prime field (the codes 0..p-1 of any tower) is reduced
instead on packed rows, one Python int each at `WordLayout`'s bit places,
added by XOR for p = 2 and by the layout's SWAR digit add otherwise.
Weight distributions are found by full message-space enumeration, guarded
by a cap.  So is the minimum distance of a code whose codewords fit in one
block; a larger code gets its exact distance from information sets
(Brouwer–Zimmermann), which weigh the words of low-weight messages only and
never more words than enumeration would.
`WordLayout` is the one weigher.  It holds packed codewords word-major: a
list of S codewords of w packed words each has shape (..., w, S), so numpy
runs along the codewords, never along the few words of one codeword.  A
span lists the nonzero words of a space: `span` packs every nonzero
combination of some rows, and `distributions` sums, for each of many
candidates, one span from each of several stacks, so it counts the
prod(Q^k_i - 1) sums in which every summand is nonzero, in blocks of at
most 2^16 codewords.  It weighs one sum of each projective point,
prod(Q^k_i - 1)/(Q - 1) words: those whose first summand has leading
coefficient 1 (`span` lists these words first), each counted Q - 1 times.
That is exact, since a nonzero scalar maps the sums onto themselves and
keeps every weight; a weight-0 sum, a dependency, is still refused, since
its multiples all weigh 0 and one of them is weighed.  The last addition
of each sum is not carried out: the weight of f + r is the number of
coordinates where r differs from -f, so the weigher counts those of
-f XOR r.  A direct sum's codewords are the zero word and these sums for
each nonempty set of its summands: a code is weighed as the sums of its
first generator rows, of its last rows and of both, and the search weighs
its direct sums the same way.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Iterator

import numpy as np

from .algebra import FieldSpec, Subfield, element_width, prime_power
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

def rref(field: Subfield, matrix) -> np.ndarray:
    """Reduced row echelon form over the given field.

    A two-dimensional matrix gives its nonzero rows.  Over a prime field
    (the codes 0..p-1 of any tower) it is reduced on packed rows, one
    Python int each (`_packed_rref`), and unpacked once.  Leading axes
    make a stack, and one loop on element codes reduces every matrix of
    it: the result is the reduced stack, in the input's shape with each
    matrix's zero rows last.  `pivot_columns` reads the pivots off the
    rows.
    """
    spec = field.spec
    R = np.asarray(matrix, dtype=np.int32)
    if R.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices")
    layout = _prime_layout(field, R)
    if layout is not None:
        rows = _packed_rref(layout, R)
        words = np.frombuffer(b"".join(r.to_bytes(8 * layout.words, "little") for r in rows),
                              dtype="<u8").reshape(len(rows), layout.words, 1)
        # a prime-field code is its one digit
        digits = (words >> layout.shifts) & np.uint64((2 << int(layout.top)) - 1)
        digits = digits.reshape(len(rows), layout.words * len(layout.shifts))
        return digits[:, :R.shape[1]].astype(np.int32)
    shape = R.shape
    rows, n = shape[-2:]
    R = R.reshape(math.prod(shape[:-2]), rows, n).copy()
    at = np.arange(len(R))
    steps = 0  # the steps that found a pivot in some matrix
    for t in range(min(rows, n)):
        # rows t.. are zero left of the last pivot, so the next pivot of a
        # matrix is the first nonzero entry of those rows in column-major
        # order; a matrix with none is done (its lead is 0), and the steps
        # below leave it as it is
        first = np.not_equal(R[:, t:].transpose(0, 2, 1), 0, order="C").reshape(
            len(R), -1).argmax(axis=1)
        col, below = np.divmod(first, rows - t)
        lead = R[at, t + below, col]
        leads = lead.tolist()
        if not any(leads):
            break
        steps = t + 1
        row = R[:, t]
        if np.count_nonzero(below):  # swap the pivot row into row t
            src = t + below
            row = R[at, src]
            R[at, src] = R[:, t]
            R[:, t] = row
        if any(c > 1 for c in leads):
            row = spec.vmul(spec._inv[lead][:, None], row)
            R[:, t] = row
        if rows > 1:
            # the other rows lose their multiple of the pivot row in `col`
            factor = R[at, :, col]
            factor[:, t] = 0
            if np.count_nonzero(factor):
                R = spec.vadd(R, spec.vmul(spec.vneg(factor)[:, :, None], row[:, None, :]))
    if len(shape) == 2:
        return R[0, :steps]
    return R.reshape(shape)


def _prime_layout(field: Subfield, R: np.ndarray) -> "WordLayout | None":
    """The packed layout of a nonempty 2-D matrix whose codes all lie in
    the prime field `field`, or None when `R` is reduced on element codes."""
    # as uint32 a negative code is huge, so one max bounds both ends
    if (R.ndim != 2 or field.size != field.spec.p or not R.size
            or R.view(np.uint32).max() >= field.size):
        return None
    return word_layout(field, R.shape[1])


def _packed_rref(layout: "WordLayout", R: np.ndarray) -> list[int]:
    """The nonzero RREF rows of the matrix R over the prime field F_p, in
    pivot order, each packed into one Python int: word j of `layout.pack`
    at bit 64 j, so a coordinate's digit sits at its layout bits and a
    lower column at lower bits.  F_2 adds rows by XOR; an odd p adds them
    digit-wise by the layout's SWAR step (`WordLayout._reduce`), with its
    constants repeated in every word.  The next pivot is the lowest set bit
    of the remaining rows, the first of them that holds it is the pivot
    row, and its p - 1 multiples are formed by repeated addition."""
    p, width, nbytes = layout.p, int(layout.top) + 1, 8 * layout.words
    buf = layout.pack(R).T.tobytes()
    rows = [int.from_bytes(buf[i:i + nbytes], "little") for i in range(0, len(buf), nbytes)]
    mask = (1 << width) - 1
    every_word = ((1 << 64 * layout.words) - 1) // ((1 << 64) - 1)
    ones, top = int(layout.ones) * every_word, width - 1
    offset = int(layout.offset or 0) * every_word

    def add(a: int, b: int) -> int:
        s = a + b
        return s - ((s + offset) >> top & ones) * p

    done = 0  # rows[:done] are the reduced pivot rows so far
    while low := reduce(or_, rows[done:], 0):
        bit = (low & -low).bit_length() - 1
        at = bit - bit % 64 % width  # the pivot digit's first bit
        i = next(i for i in range(done, len(rows)) if rows[i] >> at & mask)
        rows[i], rows[done] = rows[done], rows[i]
        pivot = rows[done]
        # every row, the pivot row too, loses its multiple of the pivot row
        if p == 2:
            rows = [r ^ pivot if r >> at & 1 else r for r in rows]
        else:
            # multiples[c] = c * pivot, and c * inv turns its lead c into 1,
            # so a row with digit d loses d * inv * pivot = multiples[(p - d) * inv]
            multiples = [0, pivot]
            for _ in range(p - 2):
                multiples.append(add(multiples[-1], pivot))
            inv = pow(pivot >> at & mask, -1, p)
            rows = [add(r, multiples[(p - d) * inv % p]) if (d := r >> at & mask) else r
                    for r in rows]
            pivot = multiples[inv]
        rows[done] = pivot
        done += 1
    return rows[:done]


def pivot_columns(rows) -> np.ndarray:
    """The column of each row's first nonzero entry (last axis): the pivots
    of RREF rows.  A zero row gives 0."""
    return np.argmax(np.not_equal(rows, 0), axis=-1)


def rank(field: Subfield, matrix) -> int | np.ndarray:
    """The rank of a matrix, or an int array of the ranks of a stack of
    them (leading axes): the nonzero rows of one `rref` call, or for one
    matrix over a prime field the packed rows of `_packed_rref`, counted
    without unpacking them."""
    R = np.asarray(matrix, dtype=np.int32)
    layout = _prime_layout(field, R)
    if layout is not None:
        return len(_packed_rref(layout, R))
    nonzero = np.count_nonzero(rref(field, R).any(axis=-1), axis=-1)
    return nonzero if np.ndim(nonzero) else int(nonzero)


# ---------------------------------------------------------------------------
# packed codewords

class WordLayout:
    """Codewords of one length over one field as packed uint64 words, held
    word-major: a list of S codewords has shape (..., words, S), so the
    j-th words of all its codewords are contiguous and every numpy op runs
    along the codewords.

    A coordinate takes g = d*w bits: its d base-p digits (the digit places
    the field's element codes use), w bits each, where w = 1 when p = 2 and
    otherwise the least width with 2(p - 1) < 2^w, so that a digit sum never
    carries into the next digit.  A word holds 64 // g whole coordinates.
    Field addition is XOR when p = 2 and otherwise a digit-wise add that
    subtracts p from every digit that reached it, done on all digits of a
    word at once (SWAR).  A weight flags each nonzero digit in its top bit
    (the digit's one bit when p = 2), ORs the flags of a coordinate onto
    its first digit's and counts them.  The weight of a sum a + b is that
    of a XOR -b, as a coordinate of a + b is zero iff a and -b agree there.
    """

    def __init__(self, field: Subfield, length: int):
        self.field = field
        self.length = length
        spec = field.spec
        p = self.p = spec.p
        used = np.flatnonzero(spec._digits[field.elements].any(axis=0))  # digit places
        w = 1 if p == 2 else (2 * p - 2).bit_length()
        g = len(used) * w
        per_word = 64 // g
        self.words = -(-length // per_word)
        # bits[c]: element code c as one coordinate, its k-th used digit at bit k*w
        self.bits = (spec._digits[:, used].astype(np.uint64)
                     << (np.arange(len(used)) * w).astype(np.uint64)).sum(axis=1, dtype=np.uint64)
        # bit offset of the c-th coordinate of a word
        self.shifts = (np.arange(per_word) * g).astype(np.uint64)
        low = ((1 << (g * per_word)) - 1) // ((1 << g) - 1)  # bit 0 of each coordinate
        ones = low * (((1 << g) - 1) // ((1 << w) - 1))  # bit 0 of each digit
        self.ones = np.uint64(ones)
        self.offset = np.uint64((2 ** (w - 1) - p) * ones) if p > 2 else None
        self.full = np.uint64(p * ones) if p > 2 else None  # p in every digit
        self.top = np.uint64(w - 1)
        # a digit of a word, or of the XOR of two words, is below 2^(w-1), so
        # adding 2^(w-1) - 1 (p > 2) sets its top bit iff it is nonzero and
        # never carries; `tops` keeps those bits
        self.fill = np.uint64((2 ** (w - 1) - 1) * ones) if p > 2 else None
        self.tops = np.uint64(ones << (w - 1))
        # shifts that OR the top bits of a coordinate's d digits onto the
        # first one's, which `flags` keeps
        self.flags = np.uint64(low << (w - 1))
        d = len(used)
        self.folds = []
        covered = 1
        while 2 * covered <= d:
            self.folds.append(np.uint64(covered * w))
            covered *= 2
        if covered < d:
            self.folds.append(np.uint64((d - covered) * w))

    def pack(self, codes: np.ndarray) -> np.ndarray:
        """Packed words of rows of element codes (last two axes: the rows
        and their coordinates) as a word list: codes of shape (..., S, n)
        give words of shape (..., words, S), each code's `bits` shifted to
        its coordinate's place in a word."""
        per_word = len(self.shifts)
        lead = codes.shape[:-1]
        padded = np.zeros(lead + (self.words * per_word,), dtype=np.uint64)
        padded[..., :codes.shape[-1]] = self.bits[codes]
        # summed along the coordinates of a word, then laid out word-major
        packed = (padded.reshape(lead + (self.words, per_word)) << self.shifts).sum(
            axis=-1, dtype=np.uint64)
        return np.ascontiguousarray(np.swapaxes(packed, -1, -2))

    def _reduce(self, s: np.ndarray) -> np.ndarray:
        """`s` with p subtracted from every digit that is p or more (each is
        below 2p), in place."""
        ge = s + self.offset  # bit w-1 of a digit is set iff it is >= p
        ge >>= self.top
        ge &= self.ones
        ge *= np.uint64(self.p)
        s -= ge
        return s

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field sum of packed words, broadcast; a new array."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._reduce(np.add(a, b))

    def negate(self, a: np.ndarray) -> np.ndarray:
        """Field negation of packed words: `a` itself when p = 2, otherwise
        a new array (p minus each digit, then p taken off where that is p)."""
        if self.p == 2:
            return a
        return self._reduce(self.full - a)

    def weights(self, words: np.ndarray) -> np.ndarray:
        """Hamming weights of packed codewords (..., words, S), as int64 of
        shape (..., S); overwrites `words` and may return a view of it."""
        if self.fill is not None:
            words += self.fill
            words &= self.tops
        if self.folds:
            shifted = np.empty_like(words)
            for shift in self.folds:
                np.right_shift(words, shift, out=shifted)
                words |= shifted
            words &= self.flags
        np.bitwise_count(words, out=words)
        out = words[..., 0, :] if words.shape[-2] == 1 else words.sum(axis=-2)
        return out.view(np.int64)

    def sum_span(self, spans) -> np.ndarray:
        """Every sum of one word from each of the word lists `spans`; the
        first list varies slowest.  Leading axes broadcast: a stack of lists
        gives a stack of sums."""
        out = spans[-1]
        for s in spans[-2::-1]:
            out = self.add(s[..., :, None], out[..., None, :])
            out = out.reshape(out.shape[:-2] + (-1,))
        return out

    def span(self, rows) -> np.ndarray:
        """Every nonzero combination of `rows` (element codes, last two axes)
        over the layout's field, packed: the nonzero words of their row
        space if the rows are independent, as a word list (..., words,
        Q^r - 1).  The (Q^r - 1)/(Q - 1) combinations of r rows whose
        leading (first nonzero) coefficient is 1 come first, one for each
        projective point, and their other nonzero multiples follow, so that
        `distributions` can take the first ones as a prefix (for Q = 2 the
        prefix is the whole span).  No rows give an empty span."""
        rows = np.asarray(rows, dtype=np.int32)
        if rows.ndim < 2 or not rows.shape[-2]:
            return np.zeros(rows.shape[:-2] + (self.words, 0), dtype=np.uint64)
        # the multiples of each row, coefficient 1 first and 0 second (the
        # codes are sorted): lines[..., r, :, c] = c-th coefficient * row r
        coefficients = self.field.elements[[1, 0, *range(2, self.field.size)]]
        lines = self.pack(self.field.spec.vmul(coefficients[:, None], rows[..., :, None, :]))
        # with the first row varying slowest, the combinations whose leading
        # coefficient is 1 come first and the all-zero one right after them
        full = self.sum_span([lines[..., r, :, :] for r in range(rows.shape[-2])])
        if self.field.size == 2:  # the all-zero combination comes last
            return full[..., :-1]
        zero = (full.shape[-1] - 1) // (self.field.size - 1)
        return np.concatenate((full[..., :zero], full[..., zero + 1:]), axis=-1)

    @property
    def batch(self) -> int:
        """How many weight distributions one block of counters holds."""
        return max(1, _BLOCK_CODEWORDS // (self.length + 1))

    def distributions(self, stacks, rows) -> np.ndarray:
        """Weight distributions of the sums of stacks[t][rows[c, t]] over t,
        one row per candidate c: `stacks` holds word lists, one stack
        (m_t, words, S_t) of spans per summand, and every candidate draws
        one span from each.

        A span lists nonzero words, so these are the sums in which every
        summand is nonzero, prod(Q^k_t - 1) of them for summands of
        dimension k_t.  Only the (Q^k_0 - 1)/(Q - 1) words of the first
        summand's span whose leading coefficient is 1 (the prefix `span`
        lists first) are summed, and every count is multiplied by Q - 1.
        That is exact: a nonzero scalar maps the all-nonzero sums onto
        themselves and keeps every weight, and exactly one of the Q - 1
        multiples of a sum has a first summand with leading coefficient 1.
        The last addition is fused into the weighing: the weight of f + r,
        for f the first summands and r the others, is that of -f XOR r.
        The sums are streamed in blocks of at most `_BLOCK_CODEWORDS`
        codewords, read at each call, through one block buffer of fused
        sums that the call allocates once and lets go at its end; the spans
        of a block are gathered for it alone.  None of the sums may have weight
        0: one that does is a dependency among the generators of its
        summands (a span holding the zero word, or spans that meet).  The
        multiples of a weight-0 sum weigh 0 too, and one of them is summed,
        so none escapes.
        """
        n1 = self.length + 1
        Q = self.field.size
        if Q > 2:  # one sum for each projective point
            stacks = [stacks[0][..., :stacks[0].shape[-1] // (Q - 1)], *stacks[1:]]
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, len(stacks))
        m = len(rows)
        sizes = [s.shape[-1] for s in stacks]
        block = _BLOCK_CODEWORDS
        out = np.zeros((m, n1), dtype=np.int64)
        # the trailing summands from `inner` on fit in one block together
        inner, size = len(stacks), 1
        while inner and size * sizes[inner - 1] <= block:
            inner -= 1
            size *= sizes[inner]
        step = block // max(size, 1)  # an empty span makes size 0
        words = self.words
        # the block buffer of the fused sums, for the most one block holds
        fused_buffer = None
        if len(stacks) > max(inner, 1):  # some block has a last addition
            fused_buffer = np.empty(words * size * (step if inner else min(m, step)),
                                    dtype=np.uint64)

        def fuse(first, rest):
            """The sums first[:, a] + rest[:, b] of word lists (words, A, k)
            and (words, B, k) of k candidates each, candidates last, as
            -first XOR rest in the block buffer: (words, A * B * k)."""
            a, b, k = first.shape[1], rest.shape[1], first.shape[2]
            fused = fused_buffer[:words * a * b * k]
            np.bitwise_xor(self.negate(first)[:, :, None], rest[:, None],
                           out=fused.reshape(words, a, b, k))
            return fused.reshape(words, -1)

        def gather(stack, r):
            """The spans stack[r] as a new (words, S, k) array: the k
            candidates last, so that numpy's inner loops run along them.
            One candidate's span is copied as it lies: `take` along the
            last axis copies it one word at a time."""
            if len(r) == 1:
                return stack[r[0], :, :, None].copy()
            return np.take(stack.transpose(1, 2, 0), r, axis=-1)

        def total(terms):
            """The sums of one word from each of `terms`, word lists
            (words, S_t, k) of k candidates each, the first varying slowest."""
            out = terms[-1]
            for t in terms[-2::-1]:
                out = self.add(t[:, :, None], out[:, None]).reshape(words, -1, t.shape[2])
            return out

        def count(fused, k):
            """The weight distributions of word lists (words, S * k) whose
            last axis runs over k candidates; overwrites them."""
            w = self.weights(fused).reshape(-1, k)
            if k > 1:  # bincount keys: weight + (n + 1) * candidate
                w += n1 * np.arange(k)
            return np.bincount(w.ravel(), minlength=k * n1).reshape(k, n1)

        if not inner:  # whole candidates, `step` to a block
            # the last addition joins the sums of the summands before and
            # from `split`, which together hold the fewest words
            split = min(range(1, len(stacks)), default=None,
                        key=lambda t: math.prod(sizes[:t]) + math.prod(sizes[t:]))
            for j in range(0, m, step):
                part = rows[j:j + step]
                k = len(part)
                terms = [gather(s, r) for s, r in zip(stacks, part.T)]
                if len(terms) == 1:
                    fused = terms[0].reshape(words, -1)
                else:
                    fused = fuse(total(terms[:split]), total(terms[split:]))
                del terms  # freed before the block is weighed
                out[j:j + k] = count(fused, k)
        else:  # one candidate in several blocks, `step` spans of summand h in each
            h = inner - 1
            for c, r in enumerate(rows):
                # the sums of the trailing summands, formed once per candidate
                tails = [s[i] for s, i in zip(stacks[inner:], r[inner:])]
                tail = self.sum_span(tails)[..., None] if tails else None
                for head in itertools.product(*map(range, sizes[:h])):
                    lead = np.zeros((words, 1), dtype=np.uint64)
                    for s, i, k in zip(stacks, r, head):
                        lead = self.add(lead, s[i, :, k:k + 1])
                    for a in range(0, sizes[h], step):
                        part = self.add(lead, stacks[h][r[h], :, a:a + step])
                        fused = part if tail is None else fuse(part[..., None], tail)
                        out[c] += count(fused, 1)[0]
        if np.count_nonzero(out[:, 0]):
            raise InvariantError("direct sum generators are not independent")
        if Q > 2:
            out *= Q - 1
        return out


@lru_cache(maxsize=64)
def word_layout(field: Subfield, length: int) -> WordLayout:
    """The layout of length-`length` codewords over `field`, built once."""
    return WordLayout(field, length)


def least_weight(wd) -> int:
    """The least nonzero weight of a weight distribution: the distance of
    its code."""
    return int(np.flatnonzero(wd[1:])[0]) + 1


def weight_distributions(field: Subfield, gens) -> np.ndarray:
    """Codeword counts by Hamming weight (indices 0..n) of the code spanned
    by each generator matrix of a stack (last two axes; a single matrix
    gives a single distribution): the zero word plus D*(H) + D*(T) +
    D*(H, T), where D* weighs the sums in which every summand is nonzero, T
    spans the last rows (at most one block of codewords) and H the others,
    if any.  The rows must be independent: the weigher refuses a weight-0
    sum, and each distribution must count Q^k words.  The stack is weighed
    a part at a time, with at most about one block of spans of T in each."""
    gens = np.asarray(gens, dtype=np.int32)
    lead, (k, n) = gens.shape[:-2], gens.shape[-2:]
    gens = gens.reshape(math.prod(lead), k, n)
    Q = field.size
    layout = word_layout(field, n)
    # the last `low` rows (one at least, if any) span at most one block
    low = min(k, 1)
    while low < k and Q ** (low + 1) <= _BLOCK_CODEWORDS:
        low += 1
    step = max(1, _BLOCK_CODEWORDS // Q ** low)
    parts = []
    for a in range(0, len(gens), step):
        part = gens[a:a + step]
        every = np.arange(len(part))
        tail = layout.span(part[:, k - low:])
        if k > low:
            head = layout.span(part[:, :k - low])
            parts.append(layout.distributions([head], every)
                         + layout.distributions([tail], every)
                         + layout.distributions([head, tail], np.repeat(every, 2)))
        else:
            parts.append(layout.distributions([tail], every))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    out[:, 0] = 1  # the zero word
    if np.count_nonzero(out.sum(axis=1) - Q ** k):
        raise InvariantError("weight distribution failed its sanity checks")
    return out.reshape(lead + (n + 1,))


# ---------------------------------------------------------------------------
# codes

class LinearCode:
    """A linear code over a subfield of the tower, canonicalized to RREF."""

    __slots__ = ("field", "length", "gens", "pivots", "_sets")

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
        gens = arr if _canonical else rref(field, arr)
        gens.setflags(write=False)
        self.gens = gens
        self.pivots = tuple(pivot_columns(gens).tolist())
        self._sets = None  # the information sets, found at their first use

    @property
    def dim(self) -> int:
        return self.gens.shape[0]

    @property
    def codeword_count(self) -> int:
        return self.field.size ** self.dim

    # -- enumeration ----------------------------------------------------------

    def _codeword_count(self, cap: int) -> int:
        """q^k, refused with `CapExceededError` when it exceeds the cap."""
        count = self.field.size ** self.dim
        if count > cap:
            raise CapExceededError(
                f"codeword enumeration for [{self.length},{self.dim}] over a "
                f"size-{self.field.size} field", count, cap)
        return count

    def _information_sets(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Generator matrices of the code, each systematic on an information
        set, with the columns of that set that no earlier set holds; found
        at the first call and kept with the code.

        The first is the RREF.  Each next one is the RREF on a column order
        that puts the columns no earlier set holds first; the sets end when
        it finds no new pivot.  So the new columns are disjoint and cover
        every column on which the code is not zero.
        """
        if self._sets is not None:
            return self._sets
        k = self.dim
        sets = [(self.gens, np.array(self.pivots, dtype=np.intp))]
        used = np.zeros(self.length, dtype=bool)
        used[list(self.pivots)] = True
        while True:
            order = np.argsort(used, kind="stable")  # unused columns first
            R = rref(self.field, self.gens[:, order])
            if len(R) != k:
                raise InvariantError("an information set does not have full rank")
            new = order[pivot_columns(R)]
            new = new[~used[new]]
            if not len(new):
                self._sets = tuple(sets)
                return self._sets
            G = np.empty_like(R)
            G[:, order] = R
            sets.append((G, new))
            used[new] = True

    def _information_set_distance(self, budget: float) -> int | None:
        """Exact minimum distance from information sets (Brouwer–Zimmermann;
        Grassl 2006), or None when the next message weight would take the
        words weighed past `budget`.

        At message weight w every set weighs the sums of w of its rows, the
        last of them times 1 and the others times any nonzero scalar.  A
        codeword none of them has found yet has weight above w on each
        information set, so at least w + 1 - (k - r) on the r columns that
        set adds; once those bounds add up to the least weight found, that
        weight is the distance.
        """
        k, Q = self.dim, self.field.size
        layout = word_layout(self.field, self.length)
        sets = self._information_sets()
        # multiples[j][:, r * (Q - 1) + s]: row r of set j times the s-th
        # nonzero element (the codes are sorted, so 1 comes first), packed
        scalars = self.field.elements[1:, None]
        multiples = [layout.pack(self.field.spec.vmul(scalars, G[:, None, :]).reshape(
            -1, self.length)) for G, _ in sets]
        # binom[t][c] = C(c, t), to unrank t-subsets of the rows in colex order
        binom = [np.array([math.comb(c, t) for c in range(k)], dtype=np.int64)
                 for t in range(k + 1)]
        best, weighed = self.length + 1, 0
        for w in range(1, k + 1):
            scalings = (Q - 1) ** (w - 1)
            per_set = math.comb(k, w) * scalings
            weighed += len(sets) * per_set
            if weighed > budget:
                return None
            for rows in multiples:
                for a in range(0, per_set, _BLOCK_CODEWORDS):
                    subset, scale = np.divmod(
                        np.arange(a, min(a + _BLOCK_CODEWORDS, per_set), dtype=np.int64),
                        scalings)
                    for t in range(w, 0, -1):
                        r = np.searchsorted(binom[t], subset, side="right") - 1
                        subset -= binom[t][r]
                        if t == w:
                            total = rows[:, r * (Q - 1)]
                        else:
                            scale, s = np.divmod(scale, Q - 1)
                            total = layout.add(total, rows[:, r * (Q - 1) + s])
                    best = min(best, int(layout.weights(total).min()))
            if sum(max(0, w + 1 - (k - len(new))) for _, new in sets) >= best:
                return best
        return None

    def min_distance(self, cap: int = DEFAULT_CODEWORD_CAP) -> int:
        """Exact minimum Hamming weight over all nonzero codewords: from the
        weight distribution when the codewords fit in one block, otherwise
        from information sets unless they would weigh more words."""
        if self.dim == 0:
            raise ValueError("minimum distance is undefined for the zero code")
        count = self._codeword_count(cap)
        if count > _BLOCK_CODEWORDS:
            d = self._information_set_distance(count)
            if d is not None:
                return d
        return least_weight(weight_distributions(self.field, self.gens))

    def weight_distribution(self, cap: int = DEFAULT_CODEWORD_CAP) -> np.ndarray:
        """Codeword counts by Hamming weight, indices 0..length, refused past
        the cap."""
        self._codeword_count(cap)
        return weight_distributions(self.field, self.gens)

    # -- duality ----------------------------------------------------------------

    def dual(self) -> "LinearCode":
        """The Euclidean dual code."""
        spec = self.field.spec
        n = self.length
        free = [c for c in range(n) if c not in self.pivots]
        H = np.zeros((len(free), n), dtype=np.int32)
        H[range(len(free)), free] = 1
        H[:, list(self.pivots)] = spec.vneg(self.gens[:, free].T)
        out = LinearCode(self.field, n, H)
        if spec.vdot(out.gens, self.gens.T).any():
            raise InvariantError("dual construction is not orthogonal")
        return out

    def hull_dimension(self) -> int:
        """Dimension of the intersection with the dual; 0 means the code is
        linear complementary dual."""
        return hull_dimensions(self.field, self.gens)

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    # -- membership ----------------------------------------------------------------

    def contains(self, V) -> bool:
        """Whether the vector V, or every row of the stack V, lies in the code.
        The generators are in RREF, so a codeword v equals v[pivots] * G."""
        V = np.asarray(V, dtype=np.int32)
        return np.array_equal(V, self.field.spec.vdot(V[..., list(self.pivots)], self.gens))

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


def hull_dimensions(field: Subfield, gens) -> int | np.ndarray:
    """Hull dimension k - rank(G G^T) of the code spanned by each generator
    matrix G of a stack (last two axes, k independent rows), or of a single
    one: all Gram matrices are formed by one `vdot` and ranked by one
    `rank`.  0 means the code is linear complementary dual."""
    gens = np.asarray(gens, dtype=np.int32)
    gram = field.spec.vdot(gens, np.swapaxes(gens, -1, -2))
    return gens.shape[-2] - rank(field, gram)


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


def census_stacks(field: Subfield, length: int,
                  cap: int = DEFAULT_SUBSPACE_CAP) -> Iterator[np.ndarray]:
    """The RREF generator matrices of every linear code of the given length
    over the field, exactly once: one (m, k, length) int32 stack for each
    dimension k = 0..length, ascending.

    Within a stack, codes come by pivot pattern and then by free-entry
    assignment (the first free entry varying slowest), so the census order
    is a frozen, reproducible contract.
    """
    total = subspace_count(field.size, length)
    if total > cap:
        raise CapExceededError(
            f"subspace enumeration of length {length} over a size-{field.size} field",
            total, cap)
    Q = field.size
    yield np.zeros((1, 0, length), dtype=np.int32)
    for k in range(1, length + 1):
        parts = []
        for pivots in itertools.combinations(range(length), k):
            free = [(r, c) for r in range(k) for c in range(length)
                    if c > pivots[r] and c not in pivots]
            # the digits of 0..Q^f - 1, the first free entry the highest
            digits = (np.arange(Q ** len(free))[:, None]
                      // Q ** np.arange(len(free) - 1, -1, -1)) % Q
            mats = np.zeros((len(digits), k, length), dtype=np.int32)
            mats[:, range(k), pivots] = 1
            if free:
                r, c = zip(*free)
                mats[:, r, c] = field.elements[digits]
            parts.append(mats)
        yield np.concatenate(parts)


def enumerate_codes(field: Subfield, length: int,
                    cap: int = DEFAULT_SUBSPACE_CAP) -> Iterator[LinearCode]:
    """Every linear code of the given length over the field, exactly once,
    in the order of `census_stacks`: dimension-ascending, then by pivot
    pattern and free-entry assignment."""
    for stack in census_stacks(field, length, cap):
        for gens in stack:
            yield LinearCode(field, length, gens, _canonical=True)


def frobenius_twist(code: LinearCode, times: int = 1) -> LinearCode:
    """Image of a code under the entrywise base-field Frobenius x -> x^(q^times).

    A field automorphism maps linear codes to linear codes of identical
    weight structure, so parameters are preserved.  Frobenius fixes 0 and 1,
    so it maps an RREF matrix to an RREF matrix.
    """
    spec = code.field.spec
    t = times % code.field.degree
    if t == 0:
        return code
    table = spec.vpow(np.arange(spec.size), spec.q ** t)
    return LinearCode(code.field, code.length, table[code.gens], _canonical=True)


# ---------------------------------------------------------------------------
# embeddings between presentations

@lru_cache(maxsize=64)
def _embedding_table(src: Subfield, dst: Subfield) -> np.ndarray:
    """Codes in dst's presentation of every element code of src's: x goes
    to the smallest root of src's modulus.  Keyed by the base fields of the
    two presentations, so it is built once for each pair of them."""
    src, dst = src.spec, dst.spec
    # prime-field digits and coefficients are their own codes in any presentation
    powers = dst.vpow(np.arange(dst.size)[:, None], np.arange(src.n + 1))
    roots = np.flatnonzero(dst.vdot(powers, src.modulus) == 0)
    if not len(roots):
        raise InvariantError("source modulus has no root in the target field")
    table = dst.vdot(src._digits, powers[roots[0], :src.n])
    table.setflags(write=False)
    return table


def embed_rows(rows, source: Subfield, target: Subfield) -> np.ndarray:
    """Element codes of `rows` (any shape) over `source`, re-expressed in
    `target`'s presentation.

    The source field F_{q^degree} must embed into the target tower; the
    embedding sends the source presentation's x to the smallest root of the
    source modulus in the target field (deterministic).  Its table of images
    is found once per pair of presentations (`_embedding_table`).  Rows
    already in the target's presentation are returned as they are.  An
    embedding fixes 0 and 1, so it maps RREF matrices to RREF matrices.
    """
    src = source.spec
    dst = target.spec
    if src.same_presentation(dst):
        if source.degree != target.degree:
            raise ValueError("field degree mismatch between code and target")
        return np.asarray(rows, dtype=np.int32)
    if src.p != dst.p or src.base_degree != dst.base_degree:
        raise ValueError("codes can only be embedded over the same base field")
    if dst.n % src.n != 0:
        raise ValueError(
            f"no embedding of a degree-{src.n} field into a degree-{dst.n} field")
    return _embedding_table(src.subfield(1), dst.subfield(1))[rows]


def embed_code(code: LinearCode, target: Subfield) -> LinearCode:
    """Re-express a code inside another field presentation (`embed_rows`)."""
    return LinearCode(target, code.length, embed_rows(code.gens, code.field, target),
                      _canonical=True)


# ---------------------------------------------------------------------------
# descriptors

def _check_row_lengths(rows: list[list[str]], length: int) -> list[list[str]]:
    """The type-checked "generators" rows, once each is seen to hold `length` entries."""
    for r, row in enumerate(rows):
        if len(row) != length:
            raise ValueError(f"generator row {r} has {len(row)} entries; expected {length}")
    return rows


def code_to_descriptor(code: LinearCode) -> dict:
    spec = code.field.spec
    return {
        "q": spec.q,
        "modulus": list(spec.modulus),
        "field_degree": code.field.degree,
        "length": code.length,
        "generators": spec.to_text(code.gens),
    }


_JSON_KINDS = {int: "an integer", list: "a list", str: "a string", dict: "an object"}


def _json_value(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (a bool is no integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"descriptor {what} must be {_JSON_KINDS[kind]}, "
                         f"got {json.dumps(value)}")
    return value


def _json_ints(value, what: str) -> list[int]:
    return [_json_value(c, int, f"{what} entry") for c in _json_value(value, list, what)]


def _json_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...] = (),
               what: str = "descriptor") -> None:
    """Reject a JSON object that lacks a required key or holds a key outside
    required + optional, naming the first such key."""
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks required key {missing[0]!r}")


def _json_rows(value) -> list[list[str]]:
    rows = _json_value(value, list, "generators")
    for row in rows:
        for s in _json_value(row, list, "generator row"):
            _json_value(s, str, "generator entry")
    return rows


def code_from_descriptor(obj: dict, spec: FieldSpec | None = None) -> LinearCode:
    """Rebuild a code from its JSON form.

    The keys are those code_to_descriptor writes; only "modulus" may be
    left out.  If no ambient field is supplied, one is derived from the
    "q"/"modulus" keys or, without "modulus", from the element string widths.
    """
    if not isinstance(obj, dict):
        raise ValueError("descriptor must be a JSON object")
    _json_keys(obj, ("q", "field_degree", "length", "generators"), ("modulus",))
    degree = _json_value(obj["field_degree"], int, "field_degree")
    length = _json_value(obj["length"], int, "length")
    gens = _json_rows(obj["generators"])
    if spec is None:
        q = _json_value(obj["q"], int, "q")
        p, b = prime_power(q)
        if "modulus" in obj:
            modulus = _json_ints(obj["modulus"], "modulus")
            spec = FieldSpec(q, (len(modulus) - 1) // b, modulus=modulus)
        else:
            width = element_width(gens[0][0], p) if gens and gens[0] else b * degree
            if width % b != 0:
                raise ValueError("element string width does not match the base field")
            spec = FieldSpec(q, width // b)
    rows = spec.from_text(_check_row_lengths(gens, length)).reshape(len(gens), length)
    return LinearCode(spec.subfield(degree), length, rows)
