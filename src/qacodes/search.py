"""Exhaustive search for quasi-abelian codes meeting a distance target.

By the concatenated structure, a quasi-abelian code is the direct sum of one
concatenated piece per cyclotomic class, so its codewords are exactly the
sums of one codeword from each piece.  The search weighs codes that way.

Stage 1 concatenates every nonzero outer code of the chosen index with every
minimal ideal and keeps, under an integer id, the combinations whose exact
minimum distance reaches the target; the span of each survivor (the base
field's `WordLayout.span` of its flattened generators) is stored once, one
row of packed words per codeword.  Later stages extend surviving id tuples
one class at a time.  Candidates are selected with array masks (class
order, dimension target, Singleton bound, subset closure), checked against
the codeword cap, and all candidates of one dimension are weighed by one
`WordLayout.distributions` call: the span of each is the field sum of the
base span and its stored span.  The search is complete because every
sub-assignment of a survivor is itself a survivor (a direct summand has at
least the distance of the sum); the same fact prunes a candidate one of
whose sub-assignments did not survive.  Results are deduplicated by
(parameters, weight distribution) - a proxy for code equivalence, which is
deliberately out of scope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import AbelianGroup
from .errors import CapExceededError
from .idempotents import decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP, CodeParams,
                           LinearCode, WordLayout, enumerate_codes, word_layout)


@dataclass(frozen=True)
class Caps:
    codewords: int = DEFAULT_CODEWORD_CAP
    subspaces: int = DEFAULT_SUBSPACE_CAP

    def __post_init__(self):
        if self.codewords < 1:
            raise ValueError(f"codeword cap must be positive, got {self.codewords}")
        if self.subspaces < 1:
            raise ValueError(f"subspace cap must be positive, got {self.subspaces}")


@dataclass(frozen=True)
class SearchSpec:
    q: int
    group: AbelianGroup
    index: int
    d_min: int
    dim_target: int | None = None
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self):
        if self.d_min < 1:
            raise ValueError("distance target must be positive")
        if self.index < 1:
            raise ValueError("index must be positive")
        if self.dim_target is not None and self.dim_target < 1:
            raise ValueError(f"dimension target must be positive, got {self.dim_target}")


@dataclass(frozen=True)
class SearchEntry:
    """One surviving code: its assignment (class index -> outer code), its
    exact parameters, and the deduplication fingerprint."""

    assignment: tuple[tuple[int, LinearCode], ...]
    params: CodeParams
    fingerprint: tuple

    @property
    def class_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.assignment)


@dataclass
class SearchResult:
    codes: list[SearchEntry]
    stats: dict


def _check_cap(spec: SearchSpec, stage: int, n: int, dim: int) -> None:
    """Refuse a candidate of dimension `dim` whose codewords exceed the cap."""
    if spec.q ** dim > spec.caps.codewords:
        raise CapExceededError(
            f"search stage {stage}: codeword enumeration for [{n},{dim}]",
            spec.q ** dim, spec.caps.codewords)


def _stage1(dec, spec: SearchSpec, layout: WordLayout, i: int, counts: dict):
    """Yield (outer, span, weight distribution) for every nonzero outer code
    of class i, up to the dimension target, whose concatenation meets the
    distance target, counting the candidates, the Singleton rejections and
    the weighed codes in `counts`."""
    n = layout.length
    k_i = dec.classes[i].size
    zero = layout.span([])
    for outer in enumerate_codes(dec.spec.subfield(k_i), spec.index, spec.caps.subspaces):
        if outer.dim == 0:
            continue
        dim = k_i * outer.dim
        if spec.dim_target is not None and dim > spec.dim_target:
            continue
        counts["candidates"] += 1
        # no [n, k, >= d_min] code exists beyond the Singleton bound
        if dim > n - spec.d_min + 1:
            counts["singleton"] += 1
            continue
        _check_cap(spec, 1, n, dim)
        counts["weighed"] += 1
        span = layout.span(dec.flatten(i, outer.gens))
        wd = layout.distributions(zero, span[None])[0]
        if not wd[1:spec.d_min].any():
            yield outer, span, wd


def _stage_stats(stage: int, counts: dict, survivors: int, start_time: float) -> dict:
    """One stage's entry of SearchResult.stats; `weighed` counts the
    candidates whose weight distribution was computed."""
    seconds = time.perf_counter() - start_time
    return {"stage": stage, **counts, "survivors": survivors, "seconds": seconds,
            "weighed_per_s": counts["weighed"] / seconds if seconds > 0 else 0.0}


def _distance(wd) -> int:
    return int(np.flatnonzero(wd[1:])[0]) + 1


def stage1_filter(spec: SearchSpec, class_index: int) -> list[tuple[LinearCode, int]]:
    """All nonzero outer codes for one class whose simple concatenation meets
    the distance target (and fit the dimension target, if any), with the
    exact concatenation distances."""
    dec = decompose_algebra(spec.group, spec.q)
    layout = word_layout(dec.spec.subfield(1), dec.group.size * spec.index)
    counts = {"candidates": 0, "singleton": 0, "weighed": 0}
    return [(outer, _distance(wd))
            for outer, _, wd in _stage1(dec, spec, layout, class_index, counts)]


def search(spec: SearchSpec) -> SearchResult:
    """Run the staged search; the result lists every fingerprint-distinct
    code meeting the target, ordered by dimension then fingerprint."""
    if spec.d_min > spec.group.size * spec.index:
        return SearchResult([], {"stages": [], "note": "target exceeds the length"})
    dec = decompose_algebra(spec.group, spec.q)
    n, d_min, dim_target = spec.group.size * spec.index, spec.d_min, spec.dim_target
    layout = word_layout(dec.spec.subfield(1), n)
    stats: dict = {"stages": []}

    # stage 1: ids in class order, then outer-code enumeration order
    start_time = time.perf_counter()
    counts = {"candidates": 0, "singleton": 0, "weighed": 0}
    classes, outers, spans, wds = [], [], [], []
    for i in range(dec.class_count):
        for outer, span, wd in _stage1(dec, spec, layout, i, counts):
            classes.append(i)
            outers.append(outer)
            spans.append(span)
            wds.append(wd)
    count = len(outers)
    stats["stages"].append(_stage_stats(1, counts, count, start_time))

    dims = np.array([dec.classes[i].size * c.dim for i, c in zip(classes, outers)],
                    dtype=np.int64)
    later = np.searchsorted(classes, classes, side="right")  # first id of a later class
    # the spans of each dimension stacked, and each id's slot in its stack
    slot = np.zeros(count, dtype=np.int64)
    stacks = {}
    for k in np.unique(dims).tolist():
        members = np.flatnonzero(dims == k)
        slot[members] = np.arange(len(members))
        stacks[k] = np.stack([spans[j] for j in members])
    # rank of each id under the (class, generator bytes) order of the output
    order = sorted(range(count), key=lambda j: (classes[j], outers[j].gens.tobytes()))
    rank = [0] * count
    for r, j in enumerate(order):
        rank[j] = r

    # per weight distribution (as bytes): the rank key, id tuple and weight
    # distribution of the least assignment reaching it
    best: dict[bytes, tuple] = {}

    def accept(base: tuple, ids: list[int], rows: np.ndarray) -> None:
        """Record the survivors base + (j,) for j in ids, with weight
        distributions `rows`."""
        base_key = tuple(rank[j] for j in base)
        width = rows.shape[1] * rows.itemsize
        buf = rows.tobytes()
        for t, j in enumerate(ids):
            fp = buf[t * width:(t + 1) * width]
            key = base_key + (rank[j],)
            held = best.get(fp)
            if held is None or key < held[0]:
                best[fp] = (key, base + (j,), rows[t])

    accept((), list(range(count)), np.array(wds, dtype=np.int64).reshape(count, n + 1))

    # A surviving tuple joins the frontier only if it has a candidate: an id of
    # a later class whose dimension fits the target.  `room` is the smallest
    # dimension among the ids of later classes (0 where there are none).
    dims_l, later_l = dims.tolist(), later.tolist()
    room = np.append(np.minimum.accumulate(dims[::-1])[::-1], 0)[later].tolist()

    def grows(j: int, dim: int) -> bool:
        return later_l[j] < count and (dim_target is None or dim + room[j] <= dim_target)

    # extend[ids] marks, over the ids of later classes, the extensions of a
    # surviving tuple that survived too; the empty tuple extends to every id
    extend = {(): np.ones(count, dtype=bool)}
    frontier = [((j,), dims_l[j]) for j in range(count) if grows(j, dims_l[j])]
    survivors = count
    stage = 1
    while survivors:
        stage += 1
        start_time = time.perf_counter()
        counts = {"candidates": 0, "pruned": 0, "singleton": 0, "weighed": 0}
        survivors = 0
        new: list[tuple] = []
        next_extend: dict[tuple, np.ndarray] = {}
        for base, base_dim in frontier:
            start = later_l[base[-1]]
            cand_dims = base_dim + dims[start:]
            closed = (np.ones(count - start, dtype=bool) if dim_target is None
                      else cand_dims <= dim_target)
            considered = int(np.count_nonzero(closed))
            # every sub-assignment of a survivor must itself survive
            # (a direct summand has at least the distance of the sum)
            for drop in range(len(base)):
                sub = base[:drop] + base[drop + 1:]
                mask = extend.get(sub)
                if mask is None:
                    closed[:] = False
                    break
                closed &= mask[start - (later_l[sub[-1]] if sub else 0):]
            kept = int(np.count_nonzero(closed))
            picked = np.flatnonzero(closed & (cand_dims <= n - d_min + 1))
            counts["candidates"] += considered
            counts["pruned"] += considered - kept
            counts["singleton"] += kept - len(picked)
            counts["weighed"] += len(picked)
            if not len(picked):
                continue
            _check_cap(spec, stage, n, int(cand_dims[picked].max()))
            base_span = layout.sum_span([spans[j] for j in base])
            ids = start + picked
            weights = np.empty((len(ids), n + 1), dtype=np.int64)
            for k in np.unique(dims[ids]).tolist():
                sel = dims[ids] == k
                weights[sel] = layout.distributions(base_span, stacks[k][slot[ids[sel]]])
            good = np.flatnonzero(~weights[:, 1:d_min].any(axis=1))
            if not len(good):
                continue
            survived = np.zeros(count - start, dtype=bool)
            survived[picked[good]] = True
            next_extend[base] = survived
            good_ids = ids[good].tolist()
            survivors += len(good_ids)
            accept(base, good_ids, weights[good])
            for j in good_ids:
                if grows(j, base_dim + dims_l[j]):
                    new.append((base + (j,), base_dim + dims_l[j]))
        stats["stages"].append(_stage_stats(stage, counts, survivors, start_time))
        extend = next_extend
        frontier = new

    # fingerprint deduplication, deterministic order
    unique = []
    for _, ids, wd in best.values():
        dim = int(dims[list(ids)].sum())
        if dim_target is not None and dim != dim_target:
            continue
        unique.append(SearchEntry(tuple((classes[j], outers[j]) for j in ids),
                                  CodeParams(n, dim, distance=_distance(wd)),
                                  (n, dim, tuple(int(x) for x in wd))))
    unique.sort(key=lambda e: (e.params.dim, e.fingerprint))
    stats["accepted"] = sum(s["survivors"] for s in stats["stages"])
    stats["distinct"] = len(unique)
    return SearchResult(unique, stats)
