"""Staged search: soundness, stage-1 completeness, determinism."""

import numpy as np
import pytest

from qacodes import linear_codes
from qacodes.algebra import AbelianGroup
from qacodes.concatenation import is_qa, qa_from_constituents
from qacodes.idempotents import decompose_algebra
from qacodes.linear_codes import LinearCode, gaussian_binomial
from qacodes.search import SearchSpec, _Kernel, search, stage1_filter

G33 = AbelianGroup((3, 3))


def test_target_beyond_length_is_empty():
    res = search(SearchSpec(q=2, group=G33, index=3, d_min=28))
    assert res.codes == []


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
    for s in stages:
        assert s["seconds"] >= 0
        assert s["singleton"] == 0
    # at d_min = 16 no [18, k, 16] code has k > 3, so each of the four classes
    # of size 2 loses its full outer code (dimension 4) to the Singleton bound
    first = search(SearchSpec(q=2, group=G33, index=2, d_min=16)).stats["stages"][0]
    assert (first["candidates"], first["singleton"], first["survivors"]) == (28, 4, 1)


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


def test_search_streams_large_sums(monkeypatch):
    """Blocks smaller than one candidate's span give the same result."""
    specs = [SearchSpec(q=2, group=G33, index=2, d_min=8),
             SearchSpec(q=3, group=AbelianGroup((2, 2)), index=2, d_min=3)]
    whole = [search(spec) for spec in specs]
    monkeypatch.setattr(linear_codes, "_BLOCK_CODEWORDS", 3)
    for spec, want in zip(specs, whole):
        got = search(spec)
        assert [(e.assignment, e.fingerprint) for e in got.codes] == \
            [(e.assignment, e.fingerprint) for e in want.codes]
        assert got.stats["accepted"] == want.stats["accepted"]


def _random_outer(rng, field, length, dim):
    """A random outer code of exactly this dimension over `field`."""
    elements = field.elements
    while True:
        code = LinearCode(field, length, rng.choice(elements, size=(dim, length)))
        if code.dim == dim:
            return code


@pytest.mark.parametrize("q,orders,index", [
    (2, (3, 3), 3),
    (3, (2, 2), 2),
    (5, (3,), 2),
    (7, (3,), 2),
    (4, (3, 3), 2),
    (8, (3,), 2),
    (9, (2,), 2),
    (3, (4,), 6),  # 24 coordinates of 3 bits: two words per codeword
], ids=["q2", "q3", "q5", "q7", "q4", "q8", "q9", "q3-two-words"])
def test_kernel_weighs_like_the_flattened_code(q, orders, index):
    """The packed-word kernel's weight distribution of a direct sum equals
    the full enumeration of the flattened quasi-abelian code."""
    group = AbelianGroup(orders)
    dec = decompose_algebra(group, q)
    kernel = _Kernel(dec, SearchSpec(q=q, group=group, index=index, d_min=1))
    if q == 3 and index == 6:
        assert kernel.words == 2
    max_dim = int(np.log(2 ** 13) / np.log(q))  # at most 2^13 codewords
    rng = np.random.default_rng(q * 100 + index)
    for _ in range(4):
        assignment, dim = {}, 0
        for i in rng.permutation(dec.class_count).tolist():
            k = dec.classes[i].size
            r = int(rng.integers(1, min(index, 2) + 1))
            if dim + k * r <= max_dim:
                assignment[i] = _random_outer(rng, dec.spec.subfield(k), index, r)
                dim += k * r
        *first, last = sorted(assignment)
        spans = [kernel.span(i, assignment[i]) for i in first]
        base = kernel.sum_span(spans) if spans else np.zeros((1, kernel.words), np.uint64)
        # three candidates of the same dimension for the last class, weighed at once
        field, r = dec.spec.subfield(dec.classes[last].size), assignment[last].dim
        outers = [assignment[last]] + [_random_outer(rng, field, index, r) for _ in range(2)]
        got = kernel.weigh(base, np.stack([kernel.span(last, c) for c in outers]))
        for outer, row in zip(outers, got):
            qa = qa_from_constituents(group, q, index, {**assignment, last: outer})
            assert row.tolist() == qa.flattened.weight_distribution().tolist()


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
    res = search(SearchSpec(q=2, group=G33, index=2, d_min=16))
    for s in res.stats["stages"]:
        assert s["weighed"] == s["candidates"] - s.get("pruned", 0) - s["singleton"]
        assert s["weighed_per_s"] >= 0
    assert res.stats["stages"][0]["weighed"] == 24


def test_search_dim_target_filters_output():
    full = search(SearchSpec(q=2, group=G33, index=2, d_min=8))
    only4 = search(SearchSpec(q=2, group=G33, index=2, d_min=8, dim_target=4))
    want = {e.fingerprint for e in full.codes if e.params.dim == 4}
    assert {e.fingerprint for e in only4.codes} == want


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
