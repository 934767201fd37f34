"""Search results pinned as the level-by-level search with full weighing
gave them: every entry (least assignment and fingerprint), every stage
count, `accepted` and `distinct`.  With c08 and the [50,12,18] census in
test_acceptance this guards the search's output byte for byte."""

import pytest

from qacodes.algebra import AbelianGroup
from qacodes.search import SearchSpec, search

# ((q, group orders, index, d_min, dimension target),
#  [(class indices, outer generator rows per class, dimension, weight distribution)],
#  [(candidates, pruned, singleton, weighed, survivors) per stage], accepted, distinct)
RECORDED = [
    # q4-C3xC3: q = 4, C3xC3, index 2, d_min 12
    ((4, (3, 3), 2, 12, None), [
        ((0,), [[[1, 1]]],
         1, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3)),
        ((0, 1), [[[1, 1]], [[1, 1]]],
         2, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 6)),
        ((0, 1, 3), [[[1, 1]], [[1, 1]], [[1, 1]]],
         3, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27, 0, 27, 0, 0, 0, 9)),
        ((0, 1, 2), [[[1, 1]], [[1, 1]], [[1, 2]]],
         3, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 45, 0, 0, 0, 0, 0, 18)),
        ((0, 1, 2, 3), [[[1, 1]], [[1, 1]], [[1, 2]], [[1, 1]]],
         4, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99, 0, 135, 0, 0, 0, 21)),
        ((0, 1, 3, 4), [[[1, 1]], [[1, 1]], [[1, 1]], [[1, 2]]],
         4, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 108, 0, 108, 0, 27, 0, 12)),
    ], [
        (54, 0, 0, 54, 27),
        (324, 0, 0, 324, 324),
        (2268, 0, 0, 2268, 2160),
        (9720, 1458, 0, 8262, 6804),
        (20412, 17496, 0, 2916, 0),
    ], 9315, 6),
    # q3-C2xC2: q = 3, C2xC2, index 2, d_min 3
    ((3, (2, 2), 2, 3, None), [
        ((0,), [[[1, 1]]],
         1, (1, 0, 0, 0, 0, 0, 0, 0, 2)),
        ((0,), [[[0, 1]]],
         1, (1, 0, 0, 0, 2, 0, 0, 0, 0)),
        ((0, 1), [[[0, 1]], [[1, 1]]],
         2, (1, 0, 0, 0, 2, 0, 4, 0, 2)),
        ((0, 1), [[[0, 1]], [[1, 0]]],
         2, (1, 0, 0, 0, 4, 0, 0, 0, 4)),
        ((0, 1, 2), [[[0, 1]], [[1, 1]], [[1, 1]]],
         3, (1, 0, 0, 0, 6, 8, 8, 0, 4)),
        ((0, 1, 2), [[[0, 1]], [[1, 0]], [[1, 1]]],
         3, (1, 0, 0, 0, 12, 0, 8, 0, 6)),
        ((0, 1, 2, 3), [[[0, 1]], [[1, 1]], [[1, 1]], [[1, 1]]],
         4, (1, 0, 0, 0, 22, 24, 20, 8, 6)),
        ((0, 1, 2, 3), [[[0, 1]], [[1, 0]], [[1, 1]], [[1, 1]]],
         4, (1, 0, 0, 0, 24, 16, 32, 0, 8)),
    ], [
        (20, 0, 0, 20, 20),
        (150, 0, 0, 150, 108),
        (360, 136, 0, 224, 224),
        (280, 120, 0, 160, 120),
        (0, 0, 0, 0, 0),
    ], 472, 8),
    # q3-C2xC2-index3-dim2: q = 3, C2xC2, index 3, d_min 4, dimension 2
    ((3, (2, 2), 3, 4, 2), [
        ((0, 1), [[[0, 1, 1]], [[1, 0, 1]]],
         2, (1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0)),
        ((0, 1), [[[0, 1, 1]], [[1, 1, 1]]],
         2, (1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 2)),
        ((0, 1), [[[1, 1, 1]], [[1, 1, 1]]],
         2, (1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 4)),
        ((0, 1), [[[0, 0, 1]], [[1, 1, 1]]],
         2, (1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 4, 0, 2)),
        ((0, 1), [[[0, 0, 1]], [[1, 1, 0]]],
         2, (1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 4)),
        ((0, 1), [[[0, 0, 1]], [[0, 1, 1]]],
         2, (1, 0, 0, 0, 2, 0, 4, 0, 2, 0, 0, 0, 0)),
        ((0, 1), [[[0, 0, 1]], [[0, 1, 0]]],
         2, (1, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 0)),
    ], [
        (104, 0, 0, 104, 104),
        (1014, 0, 0, 1014, 996),
        (0, 0, 0, 0, 0),
    ], 1100, 7),
]


@pytest.mark.parametrize("spec,codes,stages,accepted,distinct", RECORDED,
                         ids=["q4-C3xC3", "q3-C2xC2", "q3-C2xC2-index3-dim2"])
def test_search_matches_recorded_results(spec, codes, stages, accepted, distinct):
    q, orders, index, d_min, dim = spec
    group = AbelianGroup(orders)
    res = search(SearchSpec(q=q, group=group, index=index, d_min=d_min, dim_target=dim))
    n = group.size * index
    assert [(e.class_indices, [c.gens.tolist() for _, c in e.assignment],
             e.params.dim, e.fingerprint[2]) for e in res.codes] == codes
    assert all(e.fingerprint[:2] == (n, e.params.dim) for e in res.codes)
    assert [tuple(s.get(k, 0) for k in ("candidates", "pruned", "singleton", "weighed",
                                        "survivors"))
            for s in res.stats["stages"]] == stages
    assert (res.stats["accepted"], res.stats["distinct"]) == (accepted, distinct)
