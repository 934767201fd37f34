"""Exhaustive search for quasi-abelian codes meeting a distance target.

By the concatenated structure, a quasi-abelian code is the direct sum of one
concatenated piece per cyclotomic class, so its codewords are exactly the
sums of one codeword from each piece.  The search weighs codes that way.

Stage 1 concatenates every nonzero outer code of the chosen index with every
minimal ideal and keeps, under an integer id, the combinations whose exact
minimum distance reaches the target.  The census of outer codes is built
once per class size, one stack of generator matrices per dimension
(`census_stacks`); each class's stacks are flattened with its own lift and
spanned (`WordLayout.span`: a word list, word-major, with one column of
packed words per nonzero codeword), and the spans of one class size and
dimension are weighed in one pass.  An id keeps its census rows (only
reported ids become `LinearCode`s) and its span, stored once in the same
layout.  Stage s + 1
extends the surviving id tuples of stage s by one id of a later class,
level-synchronously: level s holds its tuples as the rows of an array, each
with the rows of its s faces (the tuple less one id) in level s - 1 and a
key (last face, last id), ascending.  The search is complete because every
sub-assignment of a survivor is itself a survivor (a direct summand has at
least the distance of the sum); the same fact prunes a candidate one of
whose sub-assignments did not survive.  So a tuple is extended only by the
last ids of its siblings (the rows that share its last face, one run of the
sorted keys), and the other faces of each extension are looked up in the
keys with one `np.searchsorted`; the positions found are the faces of the
new survivors.  The frontier is taken in windows of at most one block of
candidate ids (block / s sibling pairs at stage s, one frontier row at
least): the pairs of a window come from one `np.repeat`, are selected with
array masks (dimension target, subset closure, Singleton bound) and checked
against the codeword cap, and the candidates of one summand-dimension
signature are weighed on the stored spans of their ids by
`WordLayout.distributions`, one block of weight counters (`WordLayout.batch`
candidates) to a call.  A stage still counts as candidates all ids of later
classes within the dimension target; those that are not siblings count among
the pruned.

A span lists the nonzero words of its piece, so the weigher counts only a
candidate's all-nonzero words, the sums in which every summand is nonzero:
prod(q^k_i - 1) words for summands of dimension k_i, not q^k.  It weighs
one word of each projective point, prod(q^k_i - 1)/(q - 1) words, the sums
whose first summand has leading coefficient 1, and counts each q - 1
times: a nonzero scalar keeps the weight of a sum and maps the all-nonzero
sums onto themselves.  A weight-0 sum (dependent summands) is still
refused, since one of its multiples, all of weight 0, is weighed.  The
candidate is pruned iff one of them weighs less than the target.  That is
exact: any other nonzero word has a zero summand, so it lies in a proper
sub-assignment, which survived (the subset-closure test), and weighs at
least the target.  Every level keeps its faces and, per survivor, these
all-nonzero counts for weights d_min..n, in the narrowest unsigned type
that holds them.  The codewords of a code are the zero word and the
disjoint union of the all-nonzero words of its nonempty sub-assignments,
so a survivor's weight distribution is the zero word plus the counts of
its nonempty sub-tuples, each reached through the faces by dropping
positions from the highest down.  It is summed in the window that weighed
the survivor, one block of counters at a time, for the tuples that can be
reported (under a dimension target, those of it), and must count q^k
words.  Under a target a level stores only the tuples below it: one of the
target dimension is no face of a candidate and extends to none.
A stage of more candidates than `Caps.candidates` is refused before it
weighs any.  A dimension target whose codewords exceed the cap is settled
after stage 1: refused if the Singleton bound allows it (k <= n - d_min +
1) and one survivor dimension from each of some set of distinct classes
adds up to it, an empty result otherwise.
Results are deduplicated by (parameters, weight distribution) - a proxy for
code equivalence, which is deliberately out of scope - keeping the least
assignment of each fingerprint, one `np.lexsort` per batch.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import AbelianGroup
from .errors import CapExceededError, InvariantError
from .idempotents import decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP, CodeParams,
                           LinearCode, WordLayout, census_stacks, least_weight,
                           word_layout)


@dataclass(frozen=True)
class Caps:
    codewords: int = DEFAULT_CODEWORD_CAP
    subspaces: int = DEFAULT_SUBSPACE_CAP
    candidates: int | None = None  # per search stage; None bounds none

    def __post_init__(self):
        if self.codewords < 1:
            raise ValueError(f"codeword cap must be positive, got {self.codewords}")
        if self.subspaces < 1:
            raise ValueError(f"subspace cap must be positive, got {self.subspaces}")
        if self.candidates is not None and self.candidates < 1:
            raise ValueError(f"candidate cap must be positive, got {self.candidates}")


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


def _check_work(spec: SearchSpec, stage: int, candidates: int) -> None:
    """Refuse a stage of more candidates than the cap, before it weighs any."""
    if spec.caps.candidates is not None and candidates > spec.caps.candidates:
        raise CapExceededError(f"search stage {stage}: candidates", candidates,
                               spec.caps.candidates)


def _reaches(classes: list[int], dims: np.ndarray, target: int) -> bool:
    """Whether one dimension from each of some set of distinct classes (ids
    in class order) adds up to `target`."""
    sums = {0}
    for _, members in itertools.groupby(zip(classes, dims.tolist()), key=lambda t: t[0]):
        options = {k for _, k in members}
        sums |= {s + k for s in sums for k in options if s + k <= target}
    return target in sums


def _stage1(dec, spec: SearchSpec, layout: WordLayout, classes, counts: dict):
    """The nonzero outer codes of `classes`, up to the dimension target, whose
    concatenation meets the distance target, counting the candidates, the
    Singleton rejections, the weighed codes and their words in `counts`:
    in class order, then census order, their classes, RREF generator rows
    over the class field, dimensions, weight distributions (of nonzero
    words) and slots in `stacks`, their spans stacked per dimension.  One
    pass weighs the census stacks of one class size and dimension, each
    flattened with its class's lift and spanned on its own (a span's
    temporaries grow with its stack), `layout.batch` codes to a call."""
    n, d_min, batch = layout.length, spec.d_min, layout.batch
    censuses: dict = {}  # class size -> census stacks, built at its first class
    passes: dict = {}  # (class size, outer dimension) -> [(class, census stack)]
    for i in classes:
        k_i = dec.classes[i].size
        if k_i not in censuses:
            censuses[k_i] = list(census_stacks(dec.spec.subfield(k_i), spec.index,
                                               spec.caps.subspaces))
        for stack in censuses[k_i][1:]:  # the nonzero codes, dimension-ascending
            r, dim = stack.shape[1], k_i * stack.shape[1]
            if spec.dim_target is not None and dim > spec.dim_target:
                break
            counts["candidates"] += len(stack)
            # no [n, k, >= d_min] code exists beyond the Singleton bound
            if dim > n - d_min + 1:
                counts["singleton"] += len(stack)
                continue
            _check_cap(spec, 1, n, dim)
            passes.setdefault((k_i, r), []).append((i, stack))
    _check_work(spec, 1, counts["candidates"])
    # per survivor: class, outer dimension, census row, dimension, slot
    kept, wds, stacks = [np.zeros((0, 5), np.int64)], [np.zeros((0, n + 1), np.int64)], {}
    for (k, r), members in passes.items():
        spans = np.concatenate([layout.span(dec.flatten(i, stack)) for i, stack in members])
        m = len(spans)
        counts["weighed"] += m
        counts["words"] += m * (spans.shape[-1] // (spec.q - 1))
        wd = np.concatenate([layout.distributions([spans], np.arange(a, min(a + batch, m)))
                             for a in range(0, m, batch)])
        good = np.flatnonzero(~wd[:, 1:d_min].any(axis=1))
        block = stacks.setdefault(k * r, [])
        kept.append(np.column_stack([
            np.repeat([i for i, _ in members], [len(s) for _, s in members])[good],
            np.full(len(good), r), np.concatenate([np.arange(len(s)) for _, s in members])[good],
            np.full(len(good), k * r), sum(map(len, block)) + np.arange(len(good))]))
        block.append(spans[good])
        wds.append(wd[good])
    kept = np.concatenate(kept)
    order = np.lexsort(kept[:, 2::-1].T)
    cls, outer_dims, rows, dims, slot = kept[order].T
    gens = [censuses[dec.classes[i].size][r][j]
            for i, r, j in zip(cls.tolist(), outer_dims.tolist(), rows.tolist())]
    return (cls.tolist(), gens, dims.astype(np.int32), np.concatenate(wds)[order], slot,
            {k: np.concatenate(block) for k, block in stacks.items()})


def _stage_stats(stage: int, counts: dict, survivors: int, start_time: float) -> dict:
    """One stage's entry of SearchResult.stats; `weighed` counts the
    candidates whose weight distribution was computed and `words` the
    codewords actually weighed for them: one of each projective point,
    prod(q^k_i - 1)/(q - 1) per candidate of summand dimensions k_i."""
    seconds = time.perf_counter() - start_time
    return {"stage": stage, **counts, "survivors": survivors, "seconds": seconds,
            "weighed_per_s": counts["weighed"] / seconds if seconds > 0 else 0.0}


def _narrow(counts: np.ndarray) -> np.ndarray:
    """The counts in the narrowest unsigned type that holds them all."""
    return counts.astype(np.min_scalar_type(int(counts.max(initial=0))))


def _add_subsets(total: np.ndarray, faces: list, counts: list, level: int,
                 rows: np.ndarray, p: int) -> None:
    """Add to `total` the all-nonzero counts `counts[s]` of every nonempty
    sub-tuple, at its level s, of the tuples `rows` of `level` that keeps
    their ids from position p on.  The other ids are dropped from the
    highest position down, each through the face `faces[s][:, p]` (the
    tuple less its id at p), which leaves the lower positions in place."""
    while p:
        p -= 1
        if level > 1:
            _add_subsets(total, faces, counts, level - 1, faces[level][rows, p], p)
    total += counts[level][rows]


def stage1_filter(spec: SearchSpec, class_index: int) -> list[tuple[LinearCode, int]]:
    """All nonzero outer codes for one class whose simple concatenation meets
    the distance target (and fit the dimension target, if any), with the
    exact concatenation distances."""
    dec = decompose_algebra(spec.group, spec.q)
    layout = word_layout(dec.spec.subfield(1), dec.group.size * spec.index)
    counts = {"candidates": 0, "singleton": 0, "weighed": 0, "words": 0}
    _, gens, _, wds, _, _ = _stage1(dec, spec, layout, [class_index], counts)
    field = dec.spec.subfield(dec.classes[class_index].size)
    return [(LinearCode(field, spec.index, g, _canonical=True), least_weight(wd))
            for g, wd in zip(gens, wds)]


def _windows(widths: np.ndarray, pairs: int):
    """Bounds a, b of each window of frontier rows, in order: rows whose
    `widths` (sibling pairs) add up to at most `pairs`, one row at least."""
    ends, a = np.cumsum(widths), 0
    while a < len(widths):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - widths[a] + pairs, side="right")))
        yield a, b
        a = b


def search(spec: SearchSpec) -> SearchResult:
    """Run the staged search; the result lists every fingerprint-distinct
    code meeting the target, ordered by dimension then fingerprint."""
    if spec.d_min > spec.group.size * spec.index:
        return SearchResult([], {"stages": [], "note": "target exceeds the length"})
    dec = decompose_algebra(spec.group, spec.q)
    n, d_min, dim_target = spec.group.size * spec.index, spec.d_min, spec.dim_target
    layout = word_layout(dec.spec.subfield(1), n)
    stats: dict = {"stages": []}

    # stage 1: ids in class order, then census order
    start_time = time.perf_counter()
    counts = {"candidates": 0, "singleton": 0, "weighed": 0, "words": 0}
    classes, gens, dims, wds, slot, stacks = _stage1(dec, spec, layout, range(dec.class_count),
                                                     counts)
    count = len(classes)
    later = np.searchsorted(classes, classes, side="right")  # first id of a later class
    dim_values = np.unique(dims)
    # rank of each id under the (class, generator bytes) order of the output
    order = sorted(range(count), key=lambda j: (classes[j], gens[j].tobytes()))
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)

    # per weight distribution (as bytes): the rank key, id tuple and weight
    # distribution of the least assignment reaching it
    best: dict[bytes, tuple] = {}
    # rebuilt weight distributions take the narrowest unsigned type that holds
    # the nonzero words of the largest code a survivor can be
    max_dim = min(n - d_min + 1, dim_target or n)
    count_type = np.min_scalar_type(min(spec.q ** max_dim, spec.caps.codewords, 2 ** 64) - 1)

    # Level s holds the surviving id tuples of s classes as the rows of `ids`,
    # their dimensions, the rows in level s - 1 of their s faces (the tuple
    # less one id; the last face drops the last id) and the keys
    # last face * count + last id, ascending.  Level 0 is the empty tuple.
    # The faces and the all-nonzero counts of every level are kept; ids and
    # faces fit int32, as a level of 2^31 rows would not fit in memory.
    face_levels, count_levels = [None], [None]

    def accept(level: int, tuples: np.ndarray, tuple_dims: np.ndarray,
               new_faces: np.ndarray, found: np.ndarray):
        """Accept the new survivors `tuples` of `level` (id tuples, with their
        dimensions, faces and all-nonzero counts): rebuild the weight
        distributions of those that can be reported (all, or those of the
        dimension target) a block of counters at a time, keep the least
        assignment of each, and return the rows to store (all, or below)."""
        stored = slice(None) if dim_target is None else tuple_dims < dim_target
        reported = np.arange(len(tuples)) if dim_target is None else np.flatnonzero(~stored)
        for a in range(0, len(reported), layout.batch):
            rows = reported[a:a + layout.batch]
            wd = np.zeros((len(rows), n + 1), dtype=count_type)
            wd[:, 0] = 1
            _add_subsets(wd[:, d_min:], [*face_levels, new_faces], [*count_levels, found],
                         level, rows, level)
            if not np.array_equal(wd.sum(axis=1, dtype=np.int64),
                                  spec.q ** tuple_dims[rows].astype(np.int64)):
                raise InvariantError("a rebuilt weight distribution does not count q^k words")
            ranks = rank[tuples[rows]]
            prints = wd.view(np.dtype((np.void, wd.shape[1] * wd.itemsize))).ravel()
            # in rank order, the first row of each fingerprint has its least rank
            order = np.lexsort(ranks.T[::-1])
            for t in order[np.unique(prints[order], return_index=True)[1]].tolist():
                fp, key = wd[t].tobytes(), tuple(ranks[t].tolist())
                held = best.get(fp)
                if held is None or key < held[0]:
                    best[fp] = (key, tuple(tuples[rows[t]].tolist()), wd[t].copy())
        return stored

    ids, faces, keys = (np.arange(count, dtype=np.int32)[:, None],
                        np.zeros((count, 1), dtype=np.int32), np.arange(count))
    found = _narrow(wds[:, d_min:])
    stored = accept(1, ids, dims, faces, found)
    ids, level_dims, faces, keys, found = (a[stored] for a in (ids, dims, faces, keys, found))
    face_levels.append(faces)
    count_levels.append(found)

    def level_bytes() -> int:
        """The most bytes the stored levels have held (all faces and counts,
        the last level's ids, keys and dimensions)."""
        now = sum(a.nbytes for a in (*face_levels[1:], *count_levels[1:], ids, keys, level_dims))
        return max([now, *(s["level_bytes"] for s in stats["stages"][-1:])])

    counts["level_bytes"] = level_bytes()
    stats["stages"].append(_stage_stats(1, counts, count, start_time))
    # the smallest dimension among the ids of later classes (0 where there are none)
    room = np.append(np.minimum.accumulate(dims[::-1])[::-1], 0)[later]
    too_big = np.array([spec.q ** k > spec.caps.codewords for k in range(n + 1)])
    # later_of_dim[v, x]: the number of ids from x on of dimension dim_values[v]
    later_of_dim = np.zeros((len(dim_values), count + 1), dtype=np.int64)
    later_of_dim[:, :-1] = np.cumsum((dims == dim_values[:, None])[:, ::-1], axis=1)[:, ::-1]

    def weigh_window(stage: int, rows: np.ndarray, first: np.ndarray, width: np.ndarray,
                     counts: dict):
        """Select and weigh the extensions of the frontier rows `rows` by
        the ids of the level rows first..first + width - 1 (their siblings
        with an id of a later class), count them and return the survivors'
        level rows (None if there are none).  A candidate weighs only its
        sums in which every summand is nonzero (each other sum lies in a
        sub-assignment, which survived), a block of counters to a call."""
        base = np.repeat(rows, width)
        sibling = np.arange(len(base), dtype=np.int32) + np.repeat(
            first - np.cumsum(width, dtype=np.int32) + width, width)
        j = ids[sibling, -1]
        cand_dims = level_dims[base] + dims[j]
        if dim_target is not None:
            fits = cand_dims <= dim_target
            base, sibling, j, cand_dims = base[fits], sibling[fits], j[fits], cand_dims[fits]
        # every sub-assignment of a survivor must itself survive (a direct
        # summand has at least the distance of the sum): each other face of
        # the base tuple plus j is a row of this level
        face_keys = faces[base, :-1].astype(np.int64) * count + j[:, None]
        at = np.minimum(np.searchsorted(keys, face_keys), len(keys) - 1)
        closed = (keys[at] == face_keys).all(axis=1)
        del face_keys
        picked = closed & (cand_dims <= n - d_min + 1)
        kept, weighed = int(np.count_nonzero(closed)), int(np.count_nonzero(picked))
        counts["pruned"] -= kept
        counts["singleton"] += kept - weighed
        counts["weighed"] += weighed
        if not weighed:
            return None
        base, sibling, at = base[picked], sibling[picked], at[picked].astype(np.int32)
        j, cand_dims = j[picked], cand_dims[picked]
        over = too_big[cand_dims]
        if over.any():  # refused at the first frontier tuple with a candidate over the cap
            row = base[np.argmax(over)]
            _check_cap(spec, stage, n, int(cand_dims[base == row].max()))
        # candidates with the same summand dimensions are weighed together
        tuples = np.column_stack([ids[base], j])
        signatures = dims[tuples]
        order = np.lexsort(signatures.T).astype(np.int32)
        signatures = signatures[order]
        starts = np.flatnonzero(np.r_[True, (signatures[1:] != signatures[:-1]).any(axis=1)])
        groups = list(zip(np.split(order, starts[1:]), signatures[starts].tolist()))
        del signatures, order
        survived, found = [], []
        for members, signature in groups:
            summands = [stacks[k] for k in signature]
            counts["words"] += (len(members) * math.prod(s.shape[-1] for s in summands)
                                // (spec.q - 1))
            for a in range(0, len(members), layout.batch):
                part = members[a:a + layout.batch]
                wd = layout.distributions(summands, slot[tuples[part]])
                good = ~wd[:, 1:d_min].any(axis=1)
                survived.append(part[good])
                found.append(_narrow(wd[good, d_min:]))
                del wd  # freed before the next block is weighed
        survived = np.concatenate(survived)
        if not len(survived):
            return None
        order = np.argsort(survived)
        good = survived[order]
        return (tuples[good], cand_dims[good],
                np.column_stack([at[good], sibling[good], base[good]]),
                np.concatenate(found)[order], base[good].astype(np.int64) * count + j[good])

    survivors = count
    # a dimension target past the codeword cap is refused now if the
    # Singleton bound allows it and survivors of distinct classes can add up
    # to it; otherwise no code meets it
    if dim_target is not None and spec.q ** dim_target > spec.caps.codewords:
        if dim_target <= n - d_min + 1 and _reaches(classes, dims, dim_target):
            _check_cap(spec, 1, n, dim_target)
        survivors = 0
    stage = 1
    while survivors:
        stage += 1
        start_time = time.perf_counter()
        counts = {"candidates": 0, "pruned": 0, "singleton": 0, "weighed": 0, "words": 0}
        # the frontier: tuples with a candidate, an id of a later class that
        # fits the dimension target
        last = ids[:, -1]
        live = later[last] < count
        if dim_target is not None:
            live &= level_dims + room[last] <= dim_target
        frontier = np.flatnonzero(live).astype(np.int32)
        start = later[last[frontier]]
        if dim_target is None:
            counts["candidates"] = int((count - start).sum())
        else:
            fit = dim_values[:, None] <= dim_target - level_dims[frontier]
            counts["candidates"] = int(later_of_dim[:, start][fit].sum())
        counts["pruned"] = counts["candidates"]  # less the candidates kept
        _check_work(spec, stage, counts["candidates"])
        # a candidate extends its tuple's last face, the parent, like the
        # tuple itself: it is the last id of a sibling row, one of a later class
        parent = faces[frontier, -1].astype(np.int64) * count
        first = np.searchsorted(keys, parent + start).astype(np.int32)
        widths = (np.searchsorted(keys, parent + count) - first).astype(np.int32)
        levels = []
        survivors = 0
        # a window holds at most one block of candidate ids, s per candidate
        for a, b in _windows(widths, layout.block // stage):
            level = weigh_window(stage, frontier[a:b], first[a:b], widths[a:b], counts)
            if level is not None:  # accepted in the window that weighed it
                survivors += len(level[0])
                stored = accept(stage, *level[:4])
                levels.append([part[stored] for part in level])
        if survivors:  # the stored level may be empty: the next stage records its entry
            ids, level_dims, faces, found, keys = (np.concatenate(parts)
                                                   for parts in zip(*levels))
            levels.clear()  # the windows' copies, freed before the next frontier
            face_levels.append(faces)
            count_levels.append(found)
        counts["level_bytes"] = level_bytes()
        stats["stages"].append(_stage_stats(stage, counts, survivors, start_time))

    # fingerprint deduplication, deterministic order
    unique, fields = [], [dec.spec.subfield(c.size) for c in dec.classes]
    for _, ids, wd in best.values():
        dim = int(dims[list(ids)].sum())
        outers = [LinearCode(fields[classes[j]], spec.index, gens[j], _canonical=True)
                  for j in ids]
        unique.append(SearchEntry(tuple(zip([classes[j] for j in ids], outers)),
                                  CodeParams(n, dim, distance=least_weight(wd)),
                                  (n, dim, tuple(int(x) for x in wd))))
    unique.sort(key=lambda e: (e.params.dim, e.fingerprint))
    stats["accepted"] = sum(s["survivors"] for s in stats["stages"])
    stats["distinct"] = len(unique)
    return SearchResult(unique, stats)
