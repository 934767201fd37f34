"""Staged search: soundness, stage-1 completeness, determinism."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qacodes import linear_codes
from qacodes.algebra import AbelianGroup
from qacodes.concatenation import is_qa, qa_from_constituents
from qacodes.idempotents import decompose_algebra
from qacodes.linear_codes import LinearCode, gaussian_binomial, word_layout
from qacodes.search import SearchSpec, search, stage1_filter

G33 = AbelianGroup((3, 3))


def test_target_beyond_length_is_empty():
    res = search(SearchSpec(q=2, group=G33, index=3, d_min=28))
    assert res.codes == []


@pytest.mark.parametrize("dim", [31, 44, 49])
def test_unreachable_dimension_target_past_the_cap_is_empty(dim):
    # stage-1 survivors have dimensions 1, 2 (the class of 0) and 4, 8 (six
    # classes of size 4): no sum of one per class is 31, and 44 and 49 exceed
    # the Singleton bound n - d + 1 = 43 although such sums reach them; 2^dim
    # codewords exceed the cap, so the search ends after stage 1
    res = search(SearchSpec(q=2, group=AbelianGroup((5, 5)), index=2, d_min=8,
                            dim_target=dim))
    assert res.codes == [] and res.stats["distinct"] == 0
    assert [s["stage"] for s in res.stats["stages"]] == [1]


def test_stage1_filter_example():
    spec = SearchSpec(q=2, group=G33, index=3, d_min=12)
    dec = decompose_algebra(G33, 2)
    i = dec.class_index((1, 0))
    survivors = stage1_filter(spec, i)
    a = dec.spec.xi.code
    target = LinearCode(dec.spec.subfield(2), 3, [[1, a, 1]])
    match = [d for outer, d in survivors if outer == target]
    assert match and match[0] >= 12
    # every survivor's concatenation distance is exact and >= 12
    for outer, d in survivors:
        qa = qa_from_constituents(G33, 2, 3, {i: outer})
        assert qa.flattened.min_distance() == d >= 12
    # nothing with a weight-1 outer word can survive: its concatenation has
    # distance 6 < 12, so survivor count must match the direct census
    full = [outer for outer in _all_nonzero(dec, i, 3)
            if qa_from_constituents(G33, 2, 3, {i: outer}).flattened.min_distance() >= 12]
    assert len(full) == len(survivors)


def _all_nonzero(dec, i, ell):
    from qacodes.linear_codes import enumerate_codes
    k = dec.classes[i].size
    return [c for c in enumerate_codes(dec.spec.subfield(k), ell) if c.dim]


def test_stage1_low_target_keeps_every_nonzero_code():
    spec = SearchSpec(q=2, group=G33, index=2, d_min=1)
    dec = decompose_algebra(G33, 2)
    for i in (0, 1):
        survivors = stage1_filter(spec, i)
        k = dec.classes[i].size
        want = sum(gaussian_binomial(2, j, 2 ** k) for j in (1, 2))
        assert len(survivors) == want


@pytest.mark.parametrize("q,orders,index,d_min", [
    (2, (3, 3), 2, 8),
    (3, (2, 2), 2, 3),   # odd characteristic: table addition
    (3, (4,), 2, 4),
    (4, (3, 3), 2, 12),  # non-prime base field: XOR on element codes
], ids=["q2-C3xC3", "q3-C2xC2", "q3-C4", "q4-C3xC3"])
def test_search_soundness_and_determinism(q, orders, index, d_min):
    group = AbelianGroup(orders)
    spec = SearchSpec(q=q, group=group, index=index, d_min=d_min)
    res1 = search(spec)
    res2 = search(spec)
    assert [(e.params, e.fingerprint) for e in res1.codes] == \
        [(e.params, e.fingerprint) for e in res2.codes]
    assert res1.codes, "this target is reachable"
    fingerprints = [e.fingerprint for e in res1.codes]
    assert len(set(fingerprints)) == len(fingerprints)
    for e in res1.codes:
        qa = qa_from_constituents(group, q, index, dict(e.assignment))
        flat = qa.flattened
        assert is_qa(flat, group)
        assert flat.min_distance() == e.params.distance >= d_min
        wd = tuple(int(x) for x in flat.weight_distribution())
        assert e.fingerprint == (flat.length, flat.dim, wd)
    # output ordering: dimension ascending, then fingerprint
    keys = [(e.params.dim, e.fingerprint) for e in res1.codes]
    assert keys == sorted(keys)


def test_search_stage_counts():
    """What the search considers, stage by stage; a faster kernel must not
    change any of these counts."""
    res = search(SearchSpec(q=2, group=G33, index=2, d_min=8))
    stages = res.stats["stages"]
    assert [(s["stage"], s["candidates"], s["survivors"]) for s in stages[:1]] == \
        [(1, 28, 16)]
    assert [(s["stage"], s["candidates"], s["pruned"], s["survivors"])
            for s in stages[1:]] == [(2, 102, 0, 78), (3, 216, 0, 180), (4, 270, 126, 0)]
    assert (res.stats["accepted"], res.stats["distinct"]) == (274, 8)
    # codewords weighed: stage 1 every nonzero word, a later stage only the
    # sums in which every summand is nonzero
    assert [s["words"] for s in stages] == [126, 702, 3888, 3888]
    for s in stages:
        assert s["seconds"] >= 0
        assert s["singleton"] == 0
    # at d_min = 16 no [18, k, 16] code has k > 3, so each of the four classes
    # of size 2 loses its full outer code (dimension 4) to the Singleton bound
    first = search(SearchSpec(q=2, group=G33, index=2, d_min=16)).stats["stages"][0]
    assert (first["candidates"], first["singleton"], first["survivors"]) == (28, 4, 1)


@pytest.mark.parametrize("q,orders,index,d_min,all_nonzero", [
    (4, (3, 3), 2, 12, [270, 2916, 61236, 669222, 708588]),
    (3, (2, 2), 2, 3, [64, 1536, 2944, 4096, 0]),
], ids=["q4-C3xC3", "q3-C2xC2"])
def test_search_weighs_one_word_per_projective_point(q, orders, index, d_min, all_nonzero):
    """Over F_q a stage weighs one of the q - 1 scalar multiples of each
    all-nonzero sum: its `words` are the all-nonzero sums of its weighed
    candidates, prod(q^k_i - 1) each, divided by q - 1."""
    res = search(SearchSpec(q=q, group=AbelianGroup(orders), index=index, d_min=d_min))
    assert [s["words"] for s in res.stats["stages"]] == [w // (q - 1) for w in all_nonzero]


def test_search_keeps_least_assignment_per_fingerprint():
    """Each fingerprint is reported with its least assignment under the
    (class index, generator bytes) order, whatever order the search meets
    the assignments in."""
    res = search(SearchSpec(q=2, group=G33, index=2, d_min=8))
    got = [(e.class_indices, [c.gens.tolist() for _, c in e.assignment])
           for e in res.codes]
    assert got == [
        ((0,), [[[1, 1]]]),
        ((0,), [[[0, 1]]]),
        ((1,), [[[1, 1]]]),
        ((0,), [[[1, 0], [0, 1]]]),
        ((0, 1), [[[0, 1]], [[1, 1]]]),
        ((1, 2), [[[1, 1]], [[1, 1]]]),
        ((0, 1, 2), [[[0, 1]], [[1, 1]], [[1, 1]]]),
        ((1, 2, 3), [[[1, 1]], [[1, 1]], [[1, 2]]]),
    ]


def _stage_counts(result):
    return ([{k: v for k, v in s.items() if k not in ("seconds", "weighed_per_s")}
             for s in result.stats["stages"]],
            result.stats["accepted"], result.stats["distinct"])


def test_search_streams_large_sums(monkeypatch):
    """Blocks smaller than one candidate's span, and stages taken a few
    frontier tuples at a time, give the same result and the same counts."""
    specs = [SearchSpec(q=2, group=G33, index=2, d_min=8),
             SearchSpec(q=3, group=AbelianGroup((2, 2)), index=2, d_min=3)]
    whole = [search(spec) for spec in specs]
    # at 3 every candidate of a later stage (two summands at least, so q^2
    # codewords or more) spans several blocks; at 64 small candidates also
    # share a block
    for block in (3, 64):
        monkeypatch.setattr(linear_codes, "_BLOCK_CODEWORDS", block)
        for spec, want in zip(specs, whole):
            got = search(spec)
            assert [(e.assignment, e.fingerprint) for e in got.codes] == \
                [(e.assignment, e.fingerprint) for e in want.codes]
            assert _stage_counts(got) == _stage_counts(want)
            # each later stage spans several chunks: it generates at least its
            # unpruned candidates as pairs, more than two batches of them
            n = spec.group.size * spec.index
            batch = word_layout(decompose_algebra(spec.group, spec.q).spec.subfield(1), n).batch
            assert all(s["candidates"] - s["pruned"] > 2 * batch
                       for s in got.stats["stages"][1:] if s["candidates"])


def _random_outer(rng, field, length, dim):
    """A random outer code of exactly this dimension over `field`."""
    elements = field.elements
    while True:
        code = LinearCode(field, length, rng.choice(elements, size=(dim, length)))
        if code.dim == dim:
            return code


def _random_assignment(rng, dec, index, q):
    """A random assignment (class index -> nonzero outer code) of at most
    2^13 codewords."""
    max_dim = int(np.log(2 ** 13) / np.log(q))
    assignment, dim = {}, 0
    for i in rng.permutation(dec.class_count).tolist():
        k = dec.classes[i].size
        r = int(rng.integers(1, min(index, 2) + 1))
        if dim + k * r <= max_dim:
            assignment[i] = _random_outer(rng, dec.spec.subfield(k), index, r)
            dim += k * r
    return assignment


KERNEL_CASES = pytest.mark.parametrize("q,orders,index", [
    (2, (3, 3), 3),
    (3, (2, 2), 2),
    (5, (3,), 2),
    (7, (3,), 2),
    (4, (3, 3), 2),
    (8, (3,), 2),
    (9, (2,), 2),
    (3, (4,), 6),  # 24 coordinates of 3 bits: two words per codeword
], ids=["q2", "q3", "q5", "q7", "q4", "q8", "q9", "q3-two-words"])


@KERNEL_CASES
def test_kernel_weighs_like_the_flattened_code(q, orders, index):
    """The packed-word kernel's weight distribution of a direct sum, summed
    over its nonempty sub-assignments, equals the full enumeration of the
    flattened quasi-abelian code.  Three candidates for the last class are
    weighed in each call."""
    group = AbelianGroup(orders)
    dec = decompose_algebra(group, q)
    layout = word_layout(dec.spec.subfield(1), group.size * index)
    if q == 3 and index == 6:
        assert layout.words == 2
    rng = np.random.default_rng(q * 100 + index)
    for _ in range(4):
        assignment = _random_assignment(rng, dec, index, q)
        *first, last = sorted(assignment)
        spans = {i: layout.span(dec.flatten(i, assignment[i].gens))[None] for i in first}
        # three candidates of the same dimension for the last class
        field, r = dec.spec.subfield(dec.classes[last].size), assignment[last].dim
        outers = [assignment[last]] + [_random_outer(rng, field, index, r) for _ in range(2)]
        spans[last] = np.stack([layout.span(dec.flatten(last, c.gens)) for c in outers])
        # a stack of codes flattens and spans to the stack of their spans
        assert np.array_equal(
            layout.span(dec.flatten(last, np.stack([c.gens for c in outers]))), spans[last])
        total = np.zeros((len(outers), layout.length + 1), dtype=np.int64)
        total[:, 0] = 1
        for size in range(1, len(spans) + 1):
            for sub in itertools.combinations(sorted(spans), size):
                # the last class, if in the sub-assignment, is its last summand
                rows = [[0] * (size - 1) + [c if last in sub else 0] for c in range(len(outers))]
                total += layout.distributions([spans[i] for i in sub], rows)
        for outer, row in zip(outers, total):
            qa = qa_from_constituents(group, q, index, {**assignment, last: outer})
            assert row.tolist() == qa.flattened.weight_distribution().tolist()


@KERNEL_CASES
def test_zero_free_counts_add_up_to_the_weight_distribution(q, orders, index):
    """The identity the search weighs by: the weight distribution of a
    direct sum is the zero word plus, over all its nonempty sub-assignments,
    the weights of the sums in which every summand is nonzero, which the
    weigher counts from the spans of the summands."""
    group = AbelianGroup(orders)
    dec = decompose_algebra(group, q)
    layout = word_layout(dec.spec.subfield(1), group.size * index)
    rng = np.random.default_rng(q * 100 + index)
    for _ in range(4):
        assignment = _random_assignment(rng, dec, index, q)
        spans = {i: layout.span(dec.flatten(i, outer.gens))[None]
                 for i, outer in assignment.items()}
        total = np.zeros(layout.length + 1, dtype=np.int64)
        total[0] = 1
        for r in range(1, len(spans) + 1):
            for sub in itertools.combinations(sorted(spans), r):
                total += layout.distributions([spans[i] for i in sub], [0] * r)[0]
        qa = qa_from_constituents(group, q, index, assignment)
        assert total.tolist() == qa.flattened.weight_distribution().tolist()


def test_stage1_filter_honours_the_dimension_target():
    """stage1_filter lists exactly the stage-1 survivors of the search, also
    under a dimension target."""
    for spec in (SearchSpec(q=2, group=G33, index=3, d_min=12, dim_target=4),
                 SearchSpec(q=3, group=AbelianGroup((2, 2)), index=3, d_min=4, dim_target=2)):
        first = search(spec).stats["stages"][0]
        dec = decompose_algebra(spec.group, spec.q)
        listed = [outer for i in range(dec.class_count) for outer, _ in stage1_filter(spec, i)]
        assert len(listed) == first["survivors"]
        assert all(outer.dim <= spec.dim_target for outer in listed)


def test_search_stats_report_throughput():
    # every stage, stage 1 included, counts only candidates within the
    # dimension target
    for d_min, dim_target in ((16, None), (8, 2)):
        res = search(SearchSpec(q=2, group=G33, index=2, d_min=d_min,
                                dim_target=dim_target))
        for s in res.stats["stages"]:
            assert s["weighed"] == s["candidates"] - s.get("pruned", 0) - s["singleton"]
            assert s["weighed_per_s"] >= 0
        assert res.stats["stages"][0]["weighed"] == 24


def test_search_dim_target_filters_output():
    """A dimension target gives the full search's entries of that dimension,
    least assignments included.  Over C2xC2 a stage stores the tuples below
    the target and drops those of it, which still get reported."""
    for q, group, index, d_min, dims in [(2, G33, 2, 8, [4]), (2, G33, 3, 10, None),
                                         (3, AbelianGroup((2, 2)), 3, 4, range(1, 6))]:
        full = search(SearchSpec(q=q, group=group, index=index, d_min=d_min))
        for k in dims or sorted({e.params.dim for e in full.codes}):
            only = search(SearchSpec(q=q, group=group, index=index, d_min=d_min, dim_target=k))
            want = [(e.assignment, e.fingerprint) for e in full.codes if e.params.dim == k]
            assert want and [(e.assignment, e.fingerprint) for e in only.codes] == want


def test_search_dim_target_peak_memory():
    """Survivors of the target dimension are accepted in the chunk that
    weighed them and never stored in a level; storing them would raise the
    traced peak of this search to about 15 MB."""
    group = AbelianGroup((2, 2))
    decompose_algebra(group, 3)  # built once, outside the traced search
    tracemalloc.start()
    try:
        search(SearchSpec(q=3, group=group, index=3, d_min=4, dim_target=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_no_survivor_contains_a_pruned_summand():
    spec = SearchSpec(q=2, group=G33, index=2, d_min=8)
    res = search(spec)
    dec = decompose_algebra(G33, 2)
    stage1_ok = {i: {outer for outer, _ in stage1_filter(spec, i)}
                 for i in range(dec.class_count)}
    for e in res.codes:
        for i, outer in e.assignment:
            assert outer in stage1_ok[i]


def test_index3_regression_contains_reference_code():
    from qacodes.reference import qa_27_6_12
    res = search(SearchSpec(q=2, group=G33, index=3, d_min=12, dim_target=6))
    want = tuple(int(x) for x in qa_27_6_12().flattened.weight_distribution())
    assert any(e.fingerprint[2] == want for e in res.codes)
    assert all(e.params.distance >= 12 and e.params.dim == 6 for e in res.codes)
