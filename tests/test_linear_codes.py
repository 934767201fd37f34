"""Linear code machinery: canonical forms, duality, hulls, enumeration."""

import functools
import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qacodes
from qacodes import linear_codes
from qacodes.algebra import FieldSpec, build_tower, AbelianGroup
from qacodes.errors import CapExceededError, InvariantError
from qacodes.linear_codes import (CodeParams, LinearCode, WordLayout, census_stacks,
                                  code_from_descriptor, code_to_descriptor, embed_code,
                                  enumerate_codes, frobenius_twist, gaussian_binomial,
                                  hull_dimensions, pivot_columns, rank, rref,
                                  subspace_count)

F2 = FieldSpec(2, 1).subfield(1)
F3 = FieldSpec(3, 1).subfield(1)


def test_code_params_singleton():
    CodeParams(10, 5, distance=6)
    with pytest.raises(ValueError):
        CodeParams(10, 5, distance=7)
    with pytest.raises(ValueError):
        CodeParams(10, 11)
    assert str(CodeParams(10, 5, distance=6)) == "[10,5,6]"
    assert str(CodeParams(10, 5, distance_lower_bound=4)) == "[10,5,>=4]"


def test_rref_canonical():
    ident = LinearCode(F2, 3, np.eye(3, dtype=int))
    assert np.array_equal(ident.gens, np.eye(3, dtype=int))
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    f16 = spec16.subfield(4)
    a7 = (spec16.from_string("0100") ** 7).code
    c = LinearCode(f16, 2, [[1, a7]])
    assert c.dim == 1 and c.gens.tolist() == [[1, a7]]
    # row-equivalent matrices canonicalize identically
    rng = random.Random(5)
    base = np.array([[1, 0, 2, 1], [0, 1, 1, 2]], dtype=np.int32)
    c0 = LinearCode(F3, 4, base)
    spec3 = F3.spec
    for _ in range(25):
        m = base.copy()
        r = rng.randrange(2)
        s = rng.randrange(1, 3)
        m[r] = spec3.vadd(m[r], spec3.vmul(s, m[1 - r]))
        s2 = rng.randrange(1, 3)
        m[r] = spec3.vmul(s2, m[r])
        assert LinearCode(F3, 4, m) == c0
    # zero matrix gives the zero code
    z = LinearCode(F2, 4, np.zeros((2, 4), dtype=int))
    assert z.dim == 0


def _assert_rref_of(field, rows, pivots, matrix):
    """`rows` with `pivots` is the reduced row echelon form of `matrix`:
    each pivot entry is 1, the only nonzero entry of its column and the
    first of its row, and the pivots ascend (so the rows are independent);
    the rows span every row of `matrix`, and the row space of `matrix`,
    closed here by brute force, has Q^len(rows) vectors."""
    assert pivots == sorted(set(pivots)) and len(pivots) == len(rows)
    for i, c in enumerate(pivots):
        assert rows[i, c] == 1 and not rows[i, :c].any()
        assert np.count_nonzero(rows[:, c]) == 1
    assert LinearCode(field, matrix.shape[1], rows, _canonical=True).contains(matrix)
    spec = field.spec
    space = np.zeros((1, matrix.shape[1]), dtype=np.int32)
    for row in matrix:
        multiples = spec.vmul(field.elements[:, None], row)
        space = np.unique(spec.vadd(space[:, None], multiples[None]).reshape(-1, len(row)),
                          axis=0)
    assert len(space) == field.size ** len(rows)


@pytest.mark.parametrize("shape", [(3, 4, 4, 6), (9, 7, 3), (5, 1, 5)],
                         ids=["two-stack-axes", "tall", "one-row"])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_of_a_stack_matches_each_matrix(q, shape):
    """One `rref` call on a stack reduces every matrix as the 2-D call does:
    the same rows, then zero rows, whose `pivot_columns` are those of the
    RREF; `rank` gives every rank at once.  The stack mixes a zero matrix, rank-deficient
    matrices and full-rank ones whose pivots fall in different columns."""
    field = FieldSpec(q, 1).subfield(1)
    spec = field.spec
    rng = np.random.default_rng(q * 100 + len(shape))
    flat = field.elements[rng.integers(0, q, (math.prod(shape[:-2]),) + shape[-2:])]
    flat[0] = 0
    flat[1, :, :2] = 0  # the pivots start late
    flat[2, -1] = flat[2, 0]  # a repeated row
    flat[3, -1] = spec.vadd(flat[3, 0], spec.vmul(flat[3, -1, :1], flat[3, 0]))
    flat[4, :, 1] = spec.vmul(2 % q or 1, flat[4, :, 0])  # column 1 a multiple of column 0
    stack = flat.reshape(shape)
    R = rref(field, stack)
    assert R.shape == stack.shape
    ranks = rank(field, stack)
    assert ranks.shape == shape[:-2]
    patterns = set()
    for idx in np.ndindex(*shape[:-2]):
        rows = rref(field, stack[idx])
        piv = pivot_columns(rows).tolist()
        _assert_rref_of(field, rows, piv, stack[idx])
        r = len(piv)
        assert np.array_equal(R[idx][:r], rows) and not R[idx][r:].any()
        assert ranks[idx] == r == rank(field, stack[idx])
        patterns.add(tuple(piv))
    assert len(patterns) > 2


def test_a_code_is_its_rref_rows():
    """`rref` returns the reduced rows alone, for a matrix and for a stack;
    a code's pivots are read off them, and the package neither unpacks a
    second `rref` output nor keeps a second code constructor or weigher."""
    matrix = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.int32)
    for m in (matrix, np.stack([matrix, matrix[::-1]])):
        assert type(rref(F2, m)) is np.ndarray
    assert rref(F2, matrix).tolist() == [[1, 1, 0]]
    assert LinearCode(F2, 3, [[0, 1, 1], [0, 0, 1]]).pivots == (1, 2)
    assert not hasattr(linear_codes, "rref_canonicalize")
    assert not hasattr(LinearCode, "_distribution")
    unpack = re.compile(r"^\s*\w+\s*,\s*\w+\s*=\s*(\w+\.)*rref\(", re.M)
    assert [path.name for path in Path(qacodes.__file__).parent.glob("*.py")
            if unpack.search(path.read_text(encoding="utf-8"))] == []


def test_entries_validated_against_declared_field():
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    with pytest.raises(ValueError):
        LinearCode(spec16.subfield(2), 2, [[1, 2]])  # x is not in F_4 inside F_16


def test_min_distance_examples():
    rep = LinearCode(F2, 3, [[1, 1, 1]])
    assert rep.min_distance() == 3
    full = LinearCode(F2, 4, np.eye(4, dtype=int))
    assert full.min_distance() == 1
    with pytest.raises(ValueError):
        LinearCode(F2, 3).min_distance()
    with pytest.raises(CapExceededError):
        LinearCode(F2, 5, np.eye(5, dtype=int)).min_distance(cap=16)


def _naive_span_weights(code):
    spec = code.field.spec
    elems = code.field.elements.tolist()
    counts = {}
    for msg in itertools.product(elems, repeat=code.dim):
        w = np.zeros(code.length, dtype=np.int32)
        for c, row in zip(msg, code.gens):
            if c:
                w = spec.vadd(w, spec.vmul(int(c), row))
        wt = int(np.count_nonzero(w))
        counts[wt] = counts.get(wt, 0) + 1
    return [counts.get(i, 0) for i in range(code.length + 1)]


def _field(q, tower=1, degree=1):
    """The degree-`degree` extension of F_q inside a degree-`tower` presentation."""
    return FieldSpec(q, tower).subfield(degree)


def _random_code(field, n, k, seed):
    rng = np.random.default_rng(seed)
    return LinearCode(field, n, rng.choice(field.elements, size=(k, n)))


# (q, tower, degree, n, k, packed words per codeword); a word holds 64 // g
# coordinates of g bits (see WordLayout), so the second case of each
# characteristic spans several words
NAIVE_CASES = [
    (2, 1, 1, 7, 4, 1), (2, 1, 1, 70, 6, 2),
    (3, 1, 1, 7, 4, 1), (3, 1, 1, 23, 4, 2),
    (4, 1, 1, 6, 3, 1), (4, 1, 1, 33, 3, 2),
    (5, 1, 1, 6, 3, 1), (5, 1, 1, 17, 3, 2),
    (7, 1, 1, 5, 3, 1), (7, 1, 1, 17, 2, 2),
    (8, 1, 1, 5, 3, 1), (8, 1, 1, 22, 2, 2),
    (9, 1, 1, 5, 3, 1), (9, 1, 1, 11, 2, 2),
    (4, 2, 1, 25, 3, 2),   # F_4 inside the F_16 presentation: 3 of 4 digit places
    (2, 4, 2, 8, 3, 1),    # F_4 inside F_16 over F_2
    (2, 11, 1, 12, 6, 1),  # F_2 inside F_2048, which has no pair tables
    (2, 11, 11, 6, 1, 2),  # all of F_2048: 11 bits per coordinate
    (3, 1, 1, 50, 5, 3), (2, 1, 1, 130, 8, 3),  # three words: 21 and 64 coordinates each
]


@pytest.mark.parametrize("case", range(len(NAIVE_CASES)))
def test_weight_distribution_against_naive(case):
    q, tower, degree, n, k, words = NAIVE_CASES[case]
    field = _field(q, tower, degree)
    assert WordLayout(field, n).words == words
    for seed in (2 * case, 2 * case + 1):
        code = _random_code(field, n, k, seed)
        wd = code.weight_distribution()
        assert wd.tolist() == _naive_span_weights(code)
        if code.dim:
            assert code.min_distance() == next(i for i in range(1, n + 1) if wd[i])


def _krawtchouk(j, i, n, Q):
    return sum((-1) ** s * (Q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
               for s in range(j + 1))


@pytest.mark.parametrize("q,tower,degree,n", [
    (2, 1, 1, 12), (3, 1, 1, 8), (4, 1, 1, 6), (5, 1, 1, 5), (7, 1, 1, 4),
    (8, 1, 1, 4), (9, 1, 1, 4), (4, 2, 1, 6), (2, 11, 1, 10)])
def test_weight_distribution_obeys_macwilliams(q, tower, degree, n):
    """|C| B_j = sum_i A_i K_j(i), in exact integers, where A and B are the
    weight distributions of C and of its dual and K_j is the Krawtchouk
    polynomial of the field size."""
    field = _field(q, tower, degree)
    Q = field.size
    for seed, k in enumerate(range(1, n)):
        code = _random_code(field, n, k, seed)
        A = [int(a) for a in code.weight_distribution()]
        B = [int(b) for b in code.dual().weight_distribution()]
        for j in range(n + 1):
            assert code.codeword_count * B[j] == sum(
                A[i] * _krawtchouk(j, i, n, Q) for i in range(n + 1))


@pytest.mark.parametrize("block", [3, 100])
def test_enumeration_streams_small_blocks(monkeypatch, block):
    """Blocks far smaller than the span, one prefix or several prefixes per
    block, give the same distances and distributions."""
    codes = [_random_code(_field(q, tower, degree), n, k, 7)
             for q, tower, degree, n, k, _ in NAIVE_CASES]
    codes.append(LinearCode(F2, 9, np.eye(9, dtype=int)))  # distance 1
    codes.append(_random_code(_field(2, 4, 4), 3, 3, 7))   # F_16: 16 prefixes of 256
    want = [(c.weight_distribution().tolist(), c.min_distance()) for c in codes]
    monkeypatch.setattr(linear_codes, "_BLOCK_CODEWORDS", block)
    assert [(c.weight_distribution().tolist(), c.min_distance()) for c in codes] == want


# (q, tower, degree) of the information-set property test: prime and
# extension fields, F_4 inside the F_16 presentation over F_4 and over F_2,
# and F_2 inside F_2048, which has no pair tables
IS_FIELDS = [(2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (7, 1, 1), (8, 1, 1),
             (9, 1, 1), (4, 2, 1), (2, 4, 2), (2, 11, 1)]


@functools.cache
def _cached_field(q, tower, degree):
    return _field(q, tower, degree)


@st.composite
def _generator_matrices(draw):
    """A field of IS_FIELDS and k rows of element indices of length n, with
    at most 2^9 messages; each column is random, zero or a copy of an
    earlier one, and k may be near n, so information sets overlap."""
    case = draw(st.integers(0, len(IS_FIELDS) - 1))
    q, _, degree = IS_FIELDS[case]
    Q = q ** degree
    n = draw(st.integers(1, 24))
    k_max = 1
    while Q ** (k_max + 1) <= 2 ** 9:
        k_max += 1
    k = draw(st.integers(1, min(n, k_max)))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "zero", "copy")))
        if kind == "zero":
            columns.append([0] * k)
        elif kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        else:
            columns.append(draw(st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)))
    return case, [list(row) for row in zip(*columns)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_generator_matrices(), st.sampled_from([2, 7, 64]))
@example((0, np.eye(6, dtype=int).tolist()), 7)                      # distance 1
@example((1, [[1, 0, 1, 2, 1, 0], [0, 1, 1, 1, 0, 0]]), 2)            # zero, repeated
@example((2, [[1, 0, 0, 1, 2], [0, 1, 0, 3, 3], [0, 0, 1, 2, 1]]), 7)  # n < 2k
# no weight-1 message gives a minimum-weight word, and the bound after
# message weight 1 equals the distance: [10,3,6] over F_7 (sets of 3, 3, 3
# and 1 new columns) and [12,8,2] over F_2 (8 and 4)
@example((4, [[1, 2, 5, 3, 2, 1, 5, 5, 2, 4], [2, 4, 5, 4, 6, 3, 6, 2, 4, 6],
              [5, 2, 0, 4, 2, 4, 2, 3, 0, 4]]), 64)
@example((0, [[1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0], [1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0],
              [1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1],
              [1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0], [1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0],
              [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
              [1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0]]), 7)
def test_information_set_distance_matches_enumeration(matrix, block):
    """The information-set distance equals the first nonzero weight of the
    enumerated distribution, run alone, streamed in small blocks, and through
    `min_distance` when a small block routes every code to it; the sets'
    new columns are disjoint unit columns that cover the code's support."""
    case, rows = matrix
    field = _cached_field(*IS_FIELDS[case])
    code = LinearCode(field, len(rows[0]), field.elements[np.array(rows)])
    assume(code.dim)
    want = int(np.flatnonzero(code.weight_distribution()[1:])[0]) + 1
    sets = code._information_sets()
    new = np.concatenate([cols for _, cols in sets]).tolist()
    assert sorted(new) == np.flatnonzero(code.gens.any(axis=0)).tolist()
    units = {tuple(e) for e in np.eye(code.dim, dtype=int).tolist()}
    for G, cols in sets:
        assert LinearCode(field, code.length, G) == code
        got = {tuple(c) for c in G[:, cols].T.tolist()}
        assert got <= units and len(got) == len(cols)
    assert code._information_set_distance(math.inf) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear_codes, "_BLOCK_CODEWORDS", block)
        assert code._information_set_distance(math.inf) == want
        assert code.min_distance() == want


def test_information_sets_of_the_ternary_ideal_sum():
    """The ternary [25,12,6] nested ideal sum over C5 x C5 has 3^12 codewords,
    more than one block, so min_distance takes it from three information
    sets of 12, 11 and 2 new columns."""
    dec = qacodes.decompose_algebra(AbelianGroup((5, 5)), 3)
    idx = [dec.class_index(t) for t in ((1, 0), (0, 1), (1, 1))]
    code = dec.ideal_sum_code(idx)
    assert code.codeword_count > linear_codes._BLOCK_CODEWORDS
    assert [len(cols) for _, cols in code._information_sets()] == [12, 11, 2]
    assert code.min_distance() == code._information_set_distance(math.inf) == 6


def test_information_sets_are_kept_with_the_code(monkeypatch):
    """A second min_distance call reuses the code's information sets: it
    runs no rref."""
    dec = qacodes.decompose_algebra(AbelianGroup((5, 5)), 3)
    code = dec.ideal_sum_code([dec.class_index(t) for t in ((1, 0), (0, 1), (1, 1))])
    calls = []

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linear_codes, "rref", counted)
    assert code.min_distance() == 6
    assert calls
    first = len(calls)
    assert code.min_distance() == 6
    assert len(calls) == first


@pytest.mark.parametrize("q,tower,degree", [(2, 1, 1), (3, 1, 1), (4, 1, 1), (9, 1, 1),
                                             (2, 11, 1)],
                         ids=["F2", "F3", "F4", "F9", "F2-in-F2048"])
def test_span_lists_the_nonzero_words(q, tower, degree):
    """The span of r independent rows is the Q^r - 1 nonzero words of their
    row space, each once; no rows give an empty span, and a stack of row
    sets spans to the stack of their spans."""
    field = _field(q, tower, degree)
    Q, n = field.size, 7
    layout = linear_codes.word_layout(field, n)
    rng = np.random.default_rng(Q)
    for r in range(1, 4):
        codes = [_random_code(field, n, r, seed) for seed in range(r * 10, r * 10 + 12)]
        codes = [c for c in codes if c.dim == r][:3]
        for code in codes:
            span = layout.span(code.gens)
            assert span.shape == (Q ** r - 1, layout.words)
            assert span.any(axis=1).all()
            messages = np.array(list(itertools.product(field.elements.tolist(), repeat=r)))
            words = layout.pack(field.spec.vdot(messages[1:], code.gens))
            assert sorted(map(tuple, span.tolist())) == sorted(map(tuple, words.tolist()))
            assert len(set(map(tuple, span.tolist()))) == Q ** r - 1
        rows = np.stack([rng.permutation(c.gens) for c in codes])
        assert np.array_equal(layout.span(rows), np.stack([layout.span(g) for g in rows]))
    assert layout.span(np.zeros((0, n), dtype=np.int32)).shape == (0, layout.words)
    assert layout.span(np.zeros((3, 0, n), dtype=np.int32)).shape == (3, 0, layout.words)


@pytest.mark.parametrize("q,tower,degree", [(3, 1, 1), (4, 1, 1), (5, 1, 1), (7, 1, 1),
                                             (8, 1, 1), (9, 1, 1), (2, 4, 2)],
                         ids=["F3", "F4", "F5", "F7", "F8", "F9", "F4-in-F16"])
def test_distributions_weigh_one_word_per_projective_point(q, tower, degree):
    """The weigher sums only the words of the first summand's span whose
    leading coefficient is 1 (the span lists them first) and counts each
    sum Q - 1 times.  On 1, 2 and 3 stacked spans of random independent
    rows that equals a naive count of every sum in which each summand is a
    nonzero combination of its rows, built from vadd and vmul alone."""
    field = _field(q, tower, degree)
    spec, Q, n = field.spec, field.size, 6
    layout = linear_codes.word_layout(field, n)
    one = int(field.elements[1])
    rng = np.random.default_rng(Q)

    def combinations(rows):
        """(leading coefficient, word) of every nonzero combination of rows."""
        out = []
        for msg in itertools.product(field.elements.tolist(), repeat=len(rows)):
            if any(msg):
                w = np.zeros(n, dtype=np.int32)
                for c, row in zip(msg, rows):
                    w = spec.vadd(w, spec.vmul(c, row))
                out.append((next(c for c in msg if c), w))
        return out

    def naive(summands):
        counts = [0] * (n + 1)
        for words in itertools.product(*(combinations(rows) for rows in summands)):
            total = np.zeros(n, dtype=np.int32)
            for _, w in words:
                total = spec.vadd(total, w)
            counts[int(np.count_nonzero(total))] += 1
        return counts

    for dims in ([2], [2, 1], [1, 1, 1]):
        # three candidates, each with independent rows split among the summands
        candidates = []
        while len(candidates) < 3:
            rows = rng.choice(field.elements, size=(sum(dims), n)).astype(np.int32)
            if LinearCode(field, n, rows).dim == sum(dims):
                candidates.append(np.split(rows, np.cumsum(dims)[:-1]))
        # each stack holds the candidates' spans in its own order
        orders = [rng.permutation(3) for _ in dims]
        stacks = [layout.span(np.stack([candidates[c][t] for c in order]))
                  for t, order in enumerate(orders)]
        rows = [[int(np.flatnonzero(order == c)[0]) for order in orders] for c in range(3)]
        got = layout.distributions(stacks, rows)
        assert (got % (Q - 1) == 0).all()
        for c, summands in enumerate(candidates):
            assert got[c].tolist() == naive(summands)
            # the span's prefix: its combinations with leading coefficient 1
            span = layout.span(summands[0])
            prefix = [w for lead, w in combinations(summands[0]) if lead == one]
            assert sorted(map(tuple, span[:len(span) // (Q - 1)].tolist())) == \
                sorted(map(tuple, layout.pack(np.array(prefix)).tolist()))


def test_distributions_reject_dependent_spans():
    """A weight-0 sum is a dependency among the generators: two spans that
    share a word, or a span that holds the zero word.  The weigher refuses
    it rather than miscount."""
    layout = linear_codes.word_layout(F3, 5)
    rows = [[1, 2, 0, 0, 1], [0, 1, 1, 2, 0]]
    with pytest.raises(InvariantError):
        layout.distributions([layout.span(rows)[None], layout.span(rows[1:])[None]], [0, 0])
    # one shared binary word gives a single weight-0 sum
    binary = linear_codes.word_layout(F2, 3)
    rows2 = [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(InvariantError):
        binary.distributions([binary.span(rows2)[None], binary.span(rows2[1:])[None]], [0, 0])
    # dependent rows span the zero word
    with pytest.raises(InvariantError):
        binary.distributions([binary.span(rows2 + [[1, 1, 0]])[None]], [0])
    with_zero = np.vstack([np.zeros((1, 1), dtype=np.uint64), binary.span(rows2)])
    with pytest.raises(InvariantError):
        binary.distributions([with_zero[None]], [0])
    # over F_4 = {0, 1, a, a^2} the first summand's prefix is weighed alone:
    # r0 + a^2 r1 (leading coefficient 1) meets the span of a r0 + r1 only at
    # its multiple a^2 (a r0 + r1), so the shared word is found at a non-unit
    # multiple of both summands' second rows
    F4 = linear_codes.word_layout(_field(4), 4)
    spec4, a = F4.field.spec, 2
    r0, r1 = np.array([1, 0, 1, a]), np.array([0, 1, a, 1])
    shared = spec4.vadd(spec4.vmul(a, r0), r1)
    with pytest.raises(InvariantError):
        F4.distributions([F4.span([r0, r1])[None], F4.span([shared])[None]], [0, 0])
    # dependent rows over F_4 span the zero word
    with pytest.raises(InvariantError):
        F4.distributions([F4.span([r0, r1, shared])[None]], [0])
    # independent spans: the zero word plus the sums of each nonempty sub-sum
    head, tail = layout.span(rows[:1])[None], layout.span(rows[1:])[None]
    got = sum(layout.distributions(sub, [0] * len(sub))[0]
              for sub in ([head], [tail], [head, tail]))
    got[0] += 1
    assert got.tolist() == LinearCode(F3, 5, rows).weight_distribution().tolist()


@pytest.mark.parametrize("q,n,k,sizes", [
    (2, 6, 0, [(0,)]),
    (3, 8, 5, [(3 ** 5 - 1,)]),
    (2, 20, 18, [(3,), (2 ** 16 - 1,), (3, 2 ** 16 - 1)]),
], ids=["zero-code", "one-block", "head-and-tail"])
def test_distribution_weighs_every_nonempty_sub_sum(monkeypatch, q, n, k, sizes):
    """A code's weight distribution is one weigher call on its span when its
    codewords fit in one block, and otherwise D*(H) + D*(T) + D*(H, T) for
    a head H and a tail T of its generator rows."""
    code = LinearCode(_field(q), n, np.eye(k, n, dtype=int))
    weighed = []
    distributions = WordLayout.distributions

    def counted(self, stacks, rows):
        weighed.append(tuple(s.shape[1] for s in stacks))
        return distributions(self, stacks, rows)

    monkeypatch.setattr(WordLayout, "distributions", counted)
    wd = code.weight_distribution()
    assert weighed == sizes
    assert wd.tolist() == [math.comb(k, w) * (q - 1) ** w for w in range(n + 1)]


@pytest.mark.parametrize("q,tower", [(2, 1), (3, 1), (4, 1), (2, 11)])
def test_contains_a_stack_matches_the_rank_test(q, tower):
    """V lies in the code iff adding its rows leaves the rank unchanged."""
    field = FieldSpec(q, tower).subfield(tower)
    rng = np.random.default_rng(q * 10 + tower)
    for trial in range(12):
        n = int(rng.integers(1, 8))
        code = _random_code(field, n, int(rng.integers(0, n + 1)), trial)
        inside = field.spec.vdot(rng.choice(field.elements, size=(3, code.dim)), code.gens)
        other = rng.choice(field.elements, size=(int(rng.integers(0, 4)), n))
        for V in (inside, inside[0], other, np.vstack([inside, other[:1]])):
            stacked = np.vstack([code.gens, np.atleast_2d(V)])
            assert code.contains(V) == (linear_codes.rank(field, stacked) == code.dim)


def test_weigher_lives_in_linear_codes():
    """Every weight distribution is streamed by WordLayout, so that the
    weigher exists once, and no other module slices a word off a span, so
    that a span lists the nonzero words everywhere."""
    internal = re.compile(r"_BLOCK_CODEWORDS|\.weights\(|\bspan\([^\n]*\)\s*\[[^\]\n]*\d:")
    readers = [path.name for path in Path(qacodes.__file__).parent.glob("*.py")
               if internal.search(path.read_text(encoding="utf-8"))]
    assert readers == ["linear_codes.py"]


def test_weight_distribution_examples():
    assert LinearCode(F2, 3, [[1, 1, 1]]).weight_distribution().tolist() == [1, 0, 0, 1]
    full2 = LinearCode(F2, 2, np.eye(2, dtype=int))
    assert full2.weight_distribution().tolist() == [1, 2, 1]
    z = LinearCode(F2, 3)
    assert z.weight_distribution().tolist() == [1, 0, 0, 0]


def test_dual_examples():
    c = LinearCode(F2, 2, [[1, 0]])
    assert c.dual().gens.tolist() == [[0, 1]]
    full = LinearCode(F2, 3, np.eye(3, dtype=int))
    assert full.dual().dim == 0
    zero = LinearCode(F2, 3)
    assert zero.dual().dim == 3
    rng = random.Random(9)
    for field in (F2, F3):
        for _ in range(15):
            n = rng.randrange(2, 7)
            k = rng.randrange(0, n + 1)
            rows = [[rng.randrange(field.size) for _ in range(n)] for _ in range(k)]
            code = LinearCode(field, n, rows)
            dd = code.dual().dual()
            assert dd == code
            assert code.dual().dim == n - code.dim


def _zassenhaus_hull_dim(code):
    """Independent oracle: basis of C ∩ C^perp via the split-matrix trick."""
    G, H = code.gens, code.dual().gens
    n = code.length
    top = np.hstack([G, G])
    bot = np.hstack([H, np.zeros_like(H)])
    stacked = np.vstack([top, bot]).astype(np.int32)
    R = rref(code.field, stacked)
    hull_rows = [row[n:] for row in R if not row[:n].any()]
    if not hull_rows:
        return 0
    return LinearCode(code.field, n, hull_rows).dim


def test_hull_examples_and_oracle():
    assert LinearCode(F2, 2, [[1, 0]]).hull_dimension() == 0
    assert LinearCode(F2, 2, [[1, 1]]).hull_dimension() == 1
    assert LinearCode(F2, 4).hull_dimension() == 0
    rng = random.Random(42)
    for trial in range(50):
        field = F2 if trial % 2 else F3
        n = rng.randrange(2, 9)
        k = rng.randrange(0, n + 1)
        rows = [[rng.randrange(field.size) for _ in range(n)] for _ in range(k)]
        code = LinearCode(field, n, rows)
        assert code.hull_dimension() == _zassenhaus_hull_dim(code)


def test_enumerate_codes_census():
    assert sum(1 for _ in enumerate_codes(F2, 2)) == 5
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    assert sum(1 for _ in enumerate_codes(spec16.subfield(4), 2)) == 19
    f4 = build_tower(2, AbelianGroup((3, 3))).subfield(2)
    codes = list(enumerate_codes(f4, 3))
    assert len(codes) == 44
    assert gaussian_binomial(3, 1, 4) == 21
    by_dim = {}
    for c in codes:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
    assert by_dim == {k: gaussian_binomial(3, k, 4) for k in range(4)}
    # no duplicates, dimensions ascending
    assert len(set(codes)) == len(codes)
    dims = [c.dim for c in codes]
    assert dims == sorted(dims)
    with pytest.raises(CapExceededError):
        list(enumerate_codes(F2, 10, cap=100))
    assert subspace_count(2, 3) == 16


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
def test_census_stacks_follow_the_frozen_order(q, n):
    """The census is one (m, k, n) int32 stack per dimension, in the order
    built here from itertools: dimension, pivot pattern, then free entries
    with the first varying slowest.  `enumerate_codes` yields those codes."""
    field = FieldSpec(q, 1).subfield(1)
    elems = field.elements.tolist()
    want = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(n)
                    if c > pivots[r] and c not in pivots]
            for assign in itertools.product(elems, repeat=len(free)):
                mat = np.zeros((k, n), dtype=np.int32)
                mat[range(k), pivots] = 1
                for (r, c), v in zip(free, assign):
                    mat[r, c] = v
                want.append(mat.tobytes())
    stacks = list(census_stacks(field, n))
    assert [s.shape[1:] for s in stacks] == [(k, n) for k in range(n + 1)]
    assert [len(s) for s in stacks] == [gaussian_binomial(n, k, q) for k in range(n + 1)]
    assert all(s.dtype == np.int32 for s in stacks)
    assert [g.tobytes() for s in stacks for g in s] == want
    assert [c.gens.tobytes() for c in enumerate_codes(field, n)] == want
    with pytest.raises(CapExceededError):
        next(census_stacks(field, n, cap=3))


def test_hull_dimensions_of_a_stack_match_each_code():
    """`hull_dimensions` on a stack gives each code's `hull_dimension`."""
    for field, n in ((F2, 4), (F3, 3)):
        for stack in census_stacks(field, n):
            hulls = hull_dimensions(field, stack)
            assert hulls.tolist() == [LinearCode(field, n, g).hull_dimension() for g in stack]


def test_enumeration_is_deterministic():
    a = [c.gens.tobytes() for c in enumerate_codes(F3, 3)]
    b = [c.gens.tobytes() for c in enumerate_codes(F3, 3)]
    assert a == b


def test_frobenius_twist_preserves_parameters():
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    f16 = spec16.subfield(4)
    a = spec16.from_string("0100")
    code = LinearCode(f16, 3, [[1, (a ** 7).code, (a ** 3).code]])
    for t in range(5):
        tw = frobenius_twist(code, t)
        assert tw.weight_distribution().tolist() == code.weight_distribution().tolist()
    assert frobenius_twist(code, 4) == code
    assert frobenius_twist(frobenius_twist(code, 1), 3) == code


def test_embed_code():
    f2code = LinearCode(F2, 3, [[1, 0, 1]])
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    emb = embed_code(f2code, spec16.subfield(1))
    assert emb.gens.tolist() == [[1, 0, 1]]
    # standalone F_4 code into a larger tower over the same base field
    f4 = FieldSpec(4, 1).subfield(1)
    c4 = LinearCode(f4, 2, [[1, 2]])
    tower = build_tower(4, AbelianGroup((5, 5)))  # degree-2 tower over F_4
    emb4 = embed_code(c4, tower.subfield(1))
    assert emb4.dim == 1
    assert emb4.weight_distribution().tolist() == c4.weight_distribution().tolist()
    with pytest.raises(ValueError):
        embed_code(c4, FieldSpec(3, 2).subfield(2))


# (source field, generator rows, target field, RREF of the embedded code as
# the per-call table gave it)
_EMBEDDINGS = {
    "F2->F16": (lambda: FieldSpec(2, 1).subfield(1), [[1, 0, 1, 1], [0, 1, 1, 0]],
                lambda: build_tower(2, AbelianGroup((5, 5))).subfield(1),
                [[1, 0, 1, 1], [0, 1, 1, 0]]),
    "F4->F16": (lambda: FieldSpec(2, 2).subfield(2), [[1, 2, 3, 0], [0, 1, 3, 2]],
                lambda: FieldSpec(2, 4).subfield(2), [[1, 0, 6, 7], [0, 1, 7, 6]]),
    "F4->F16-over-F4": (lambda: FieldSpec(4, 1).subfield(1), [[1, 2, 3, 0], [0, 1, 3, 2]],
                        lambda: build_tower(4, AbelianGroup((5, 5))).subfield(1),
                        [[1, 0, 6, 7], [0, 1, 7, 6]]),
    "F3->F9": (lambda: FieldSpec(3, 1).subfield(1), [[1, 2, 0, 1], [0, 1, 1, 2]],
               lambda: FieldSpec(3, 2).subfield(1), [[1, 0, 1, 0], [0, 1, 1, 2]]),
    "F9->F81": (lambda: FieldSpec(3, 2).subfield(2), [[1, 5, 0, 7], [0, 1, 8, 3]],
                lambda: FieldSpec(3, 4).subfield(2), [[1, 0, 77, 43], [0, 1, 76, 43]]),
    "same": (lambda: FieldSpec(4, 1).subfield(1), [[1, 2, 3, 0], [0, 1, 3, 2]],
             lambda: FieldSpec(4, 1).subfield(1), [[1, 0, 2, 3], [0, 1, 3, 2]]),
}


@pytest.mark.parametrize("case", list(_EMBEDDINGS))
def test_embed_code_builds_one_table_per_pair_of_presentations(case):
    """Embedding many codes between two presentations builds the table of
    images once, even through new objects of the same presentations, and
    every embedded code is the one the per-call table gave.  The table is a
    field homomorphism."""
    make_src, rows, make_dst, want = _EMBEDDINGS[case]
    linear_codes._embedding_table.cache_clear()
    for _ in range(3):
        src, dst = make_src(), make_dst()
        code = LinearCode(src, 4, rows)
        emb = embed_code(code, dst)
        assert emb.field == dst and emb.gens.tolist() == want
        assert emb.weight_distribution().tolist() == code.weight_distribution().tolist()
        assert embed_code(LinearCode(src, 4, rows[:1]), dst).dim == 1
    src, dst = make_src().spec, make_dst().spec
    if src.same_presentation(dst):  # relabelled, no table
        assert linear_codes._embedding_table.cache_info().misses == 0
        return
    assert linear_codes._embedding_table.cache_info().misses == 1
    table = linear_codes._embedding_table(src.subfield(1), dst.subfield(1))
    a, b = np.meshgrid(np.arange(src.size), np.arange(src.size))
    assert np.array_equal(table[src.vadd(a, b)], dst.vadd(table[a], table[b]))
    assert np.array_equal(table[src.vmul(a, b)], dst.vmul(table[a], table[b]))


def test_descriptor_roundtrip():
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    f16 = spec16.subfield(4)
    a = spec16.from_string("0100")
    code = LinearCode(f16, 2, [[1, (a ** 7).code]])
    doc = code_to_descriptor(code)
    assert doc["generators"] == [["1000", "1101"]]
    back = code_from_descriptor(doc)
    assert back == code
    # width-based fallback without the modulus key
    del doc["modulus"]
    assert code_from_descriptor(doc) == code


@pytest.mark.parametrize("code", [
    LinearCode(FieldSpec(11, 1).subfield(1), 3, [[1, 10, 3]]),
    LinearCode(FieldSpec(11, 2).subfield(2), 2, [[1, 21], [0, 120]]),
], ids=["F11", "F121"])
def test_descriptor_roundtrip_beyond_ten(code):
    # for p > 10 a digit such as 10 takes two characters, so element strings
    # are always read as comma-separated digits
    doc = code_to_descriptor(code)
    assert code_from_descriptor(doc) == code
    del doc["modulus"]
    assert code_from_descriptor(doc) == code
