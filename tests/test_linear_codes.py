"""Linear code machinery: canonical forms, duality, hulls, enumeration."""

import itertools
import math
import random

import numpy as np
import pytest

from qacodes import linear_codes
from qacodes.algebra import FieldSpec, build_tower, AbelianGroup
from qacodes.errors import CapExceededError
from qacodes.linear_codes import (CodeParams, LinearCode, WordLayout, code_from_descriptor,
                                  code_to_descriptor, embed_code, enumerate_codes,
                                  frobenius_twist, gaussian_binomial, rref,
                                  rref_canonicalize, subspace_count)

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
    ident = rref_canonicalize(F2, np.eye(3, dtype=int))
    assert np.array_equal(ident.gens, np.eye(3, dtype=int))
    spec16 = build_tower(2, AbelianGroup((5, 5)))
    f16 = spec16.subfield(4)
    a7 = (spec16.from_string("0100") ** 7).code
    c = rref_canonicalize(f16, [[1, a7]])
    assert c.dim == 1 and c.gens.tolist() == [[1, a7]]
    # row-equivalent matrices canonicalize identically
    rng = random.Random(5)
    base = np.array([[1, 0, 2, 1], [0, 1, 1, 2]], dtype=np.int32)
    c0 = rref_canonicalize(F3, base)
    spec3 = F3.spec
    for _ in range(25):
        m = base.copy()
        r = rng.randrange(2)
        s = rng.randrange(1, 3)
        m[r] = spec3.vadd(m[r], spec3.vscale(s, m[1 - r]))
        s2 = rng.randrange(1, 3)
        m[r] = spec3.vscale(s2, m[r])
        assert rref_canonicalize(F3, m) == c0
    # zero matrix gives the zero code
    z = rref_canonicalize(F2, np.zeros((2, 4), dtype=int))
    assert z.dim == 0


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
                w = spec.vadd(w, spec.vscale(int(c), row))
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
    codes.append(LinearCode(F2, 9, np.eye(9, dtype=int)))  # distance 1: early exit
    codes.append(_random_code(_field(2, 4, 4), 3, 3, 7))   # F_16: 16 prefixes of 256
    want = [(c.weight_distribution().tolist(), c.min_distance()) for c in codes]
    monkeypatch.setattr(linear_codes, "_BLOCK_CODEWORDS", block)
    assert [(c.weight_distribution().tolist(), c.min_distance()) for c in codes] == want


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
    R, _ = rref(code.field, stacked)
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
