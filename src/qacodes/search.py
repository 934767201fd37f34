"""Exhaustive search for quasi-abelian codes meeting a distance target.

By the concatenated structure, a quasi-abelian code is the direct sum of one
concatenated piece per cyclotomic class, so its codewords are exactly the
sums of one codeword from each piece.  The search weighs codes that way.

Stage 1 concatenates every nonzero outer code of the chosen index with every
minimal ideal and keeps, under an integer id, the combinations whose exact
minimum distance reaches the target.  The census of outer codes is built
once per class size, one stack of generator matrices per dimension
(`census_stacks`); the stack of one class and one dimension is flattened,
spanned (`WordLayout.span`: a word list, word-major, with one column of
packed words per nonzero codeword) and weighed together, only its
survivors become `LinearCode`s, and the span of each survivor is stored
once, in the same layout.  Stage s + 1 extends the surviving id
tuples of stage s by one id of a later class, level-synchronously: level s
holds its tuples as the rows of an array, each with the rows of its s faces
(the tuple less one id) in level s - 1 and a key (last face, last id),
ascending.  The search is complete because every sub-assignment of a
survivor is itself a survivor (a direct summand has at least the distance of
the sum); the same fact prunes a candidate one of whose sub-assignments did
not survive.  So a tuple is extended only by the last ids of its siblings
(the rows that share its last face, one run of the sorted keys), and the
other faces of each extension are looked up in the keys with one
`np.searchsorted`; the positions found are the faces of the new
survivors.  The frontier is taken in chunks of at most one block of weight
counters: the candidate pairs of a chunk come from one `np.repeat`, are
selected with array masks (dimension target, subset closure, Singleton
bound) and checked against the codeword cap, and the candidates of one
summand-dimension signature are weighed by one `WordLayout.distributions`
call on the stored spans of their ids.  A stage still counts as candidates
all ids of later classes within the dimension target; those that are not
siblings count among the pruned.

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
positions from the highest down.  It is summed in the chunk that weighed
the survivor, for the tuples that can be reported (under a dimension
target, those of it), and must count q^k words.  Under a target a level
stores only the tuples below it: one of the target dimension is no face
of a candidate and extends to none.
A dimension target whose codewords exceed the cap is settled after stage
1: refused if the Singleton bound allows it (k <= n - d_min + 1) and one
survivor dimension from each of some set of distinct classes adds up to
it, an empty result otherwise.
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


def _reaches(classes: list[int], dims: np.ndarray, target: int) -> bool:
    """Whether one dimension from each of some set of distinct classes (ids
    in class order) adds up to `target`."""
    sums = {0}
    for _, members in itertools.groupby(zip(classes, dims.tolist()), key=lambda t: t[0]):
        options = {k for _, k in members}
        sums |= {s + k for s in sums for k in options if s + k <= target}
    return target in sums


def _stage1(dec, spec: SearchSpec, layout: WordLayout, i: int, census: list,
            counts: dict):
    """Yield (outer, span, weight distribution) for every nonzero outer code
    of class i, up to the dimension target, whose concatenation meets the
    distance target, counting the candidates, the Singleton rejections, the
    weighed codes and their words in `counts`.  `census` holds the RREF
    generator matrices of the outer codes over the class field, one stack
    per dimension (`census_stacks`); a stack is flattened, spanned and
    weighed at once, and only its survivors become `LinearCode`s.  A span
    lists the nonzero codewords, so a distribution counts no zero word."""
    n = layout.length
    k_i = dec.classes[i].size
    field = dec.spec.subfield(k_i)
    for stack in census:  # dimension-ascending
        r = stack.shape[1]
        dim = k_i * r
        if spec.dim_target is not None and dim > spec.dim_target:
            break
        if r == 0:
            continue
        counts["candidates"] += len(stack)
        # no [n, k, >= d_min] code exists beyond the Singleton bound
        if dim > n - spec.d_min + 1:
            counts["singleton"] += len(stack)
            continue
        _check_cap(spec, 1, n, dim)
        spans = layout.span(dec.flatten(i, stack))
        counts["weighed"] += len(stack)
        counts["words"] += spans.shape[0] * (spans.shape[-1] // (spec.q - 1))
        wds = layout.distributions([spans], np.arange(len(stack)))
        for j in np.flatnonzero(~wds[:, 1:spec.d_min].any(axis=1)).tolist():
            yield LinearCode(field, spec.index, stack[j], _canonical=True), spans[j], wds[j]


def _census(dec, spec: SearchSpec, i: int, censuses: dict) -> list:
    """The census stacks of class i's outer codes, built at the first class
    of its size and kept in `censuses` (one search's) for the others."""
    k_i = dec.classes[i].size
    if k_i not in censuses:
        censuses[k_i] = list(census_stacks(dec.spec.subfield(k_i), spec.index,
                                           spec.caps.subspaces))
    return censuses[k_i]


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
    census = _census(dec, spec, class_index, {})
    return [(outer, least_weight(wd))
            for outer, _, wd in _stage1(dec, spec, layout, class_index, census, counts)]


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
    counts = {"candidates": 0, "singleton": 0, "weighed": 0, "words": 0}
    classes, outers, spans, wds = [], [], [], []
    censuses: dict = {}  # class size -> census stacks, for this search alone
    for i in range(dec.class_count):
        census = _census(dec, spec, i, censuses)
        for outer, span, wd in _stage1(dec, spec, layout, i, census, counts):
            classes.append(i)
            outers.append(outer)
            spans.append(span)
            wds.append(wd)
    count = len(outers)

    dims = np.array([dec.classes[i].size * c.dim for i, c in zip(classes, outers)],
                    dtype=np.int64)
    later = np.searchsorted(classes, classes, side="right")  # first id of a later class
    # the spans of each dimension stacked, and each id's slot in its stack
    dim_values = np.unique(dims)
    slot = np.zeros(count, dtype=np.int64)
    stacks = {}
    for k in dim_values.tolist():
        members = np.flatnonzero(dims == k)
        slot[members] = np.arange(len(members))
        stacks[k] = np.stack([spans[j] for j in members])
    # rank of each id under the (class, generator bytes) order of the output
    order = sorted(range(count), key=lambda j: (classes[j], outers[j].gens.tobytes()))
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
        dimension target), keep the least assignment of each, and return
        the rows to store (all, or those below the target)."""
        stored = slice(None) if dim_target is None else tuple_dims < dim_target
        rows = slice(None) if dim_target is None else ~stored
        tuples = tuples[rows]
        if not len(tuples):
            return stored
        wd = np.zeros((len(tuples), n + 1), dtype=count_type)
        wd[:, 0] = 1
        _add_subsets(wd[:, d_min:], [*face_levels, new_faces], [*count_levels, found],
                     level, rows, level)
        if not np.array_equal(wd.sum(axis=1, dtype=np.int64), spec.q ** tuple_dims[rows]):
            raise InvariantError("a rebuilt weight distribution does not count q^k words")
        ranks = rank[tuples]
        prints = wd.view(np.dtype((np.void, wd.shape[1] * wd.itemsize))).ravel()
        # in rank order, the first row of each fingerprint has its least rank
        order = np.lexsort(ranks.T[::-1])
        first = order[np.unique(prints[order], return_index=True)[1]]
        for t in first.tolist():
            fp, key = wd[t].tobytes(), tuple(ranks[t].tolist())
            held = best.get(fp)
            if held is None or key < held[0]:
                best[fp] = (key, tuple(tuples[t].tolist()), wd[t].copy())
        return stored

    ids, faces, keys = (np.arange(count, dtype=np.int32)[:, None],
                        np.zeros((count, 1), dtype=np.int32), np.arange(count))
    found = _narrow(np.array(wds, dtype=np.int64).reshape(count, n + 1)[:, d_min:])
    del spans, wds  # views of the stage-1 blocks
    stored = accept(1, ids, dims, faces, found)
    ids, level_dims, faces, keys, found = (a[stored] for a in (ids, dims, faces, keys, found))
    face_levels.append(faces)
    count_levels.append(found)
    stats["stages"].append(_stage_stats(1, counts, count, start_time))
    # the smallest dimension among the ids of later classes (0 where there are none)
    room = np.append(np.minimum.accumulate(dims[::-1])[::-1], 0)[later]
    too_big = np.array([spec.q ** k > spec.caps.codewords for k in range(n + 1)])
    # later_of_dim[v, x]: the number of ids from x on of dimension dim_values[v]
    later_of_dim = np.zeros((len(dim_values), count + 1), dtype=np.int64)
    later_of_dim[:, :-1] = np.cumsum((dims == dim_values[:, None])[:, ::-1], axis=1)[:, ::-1]

    def weigh_chunk(stage: int, rows: np.ndarray, first: np.ndarray, width: np.ndarray,
                    counts: dict):
        """Select and weigh the extensions of the frontier rows `rows` by
        the ids of the level rows first..first + width - 1 (their siblings
        with an id of a later class), count them and return the survivors'
        level rows (None if there are none).  A candidate weighs only its
        sums in which every summand is nonzero: each other sum lies in a
        sub-assignment, which survived."""
        base = np.repeat(rows, width)
        sibling = np.arange(len(base)) + np.repeat(first - np.cumsum(width) + width, width)
        j = ids[sibling, -1]
        cand_dims = level_dims[base] + dims[j]
        if dim_target is not None:
            fits = cand_dims <= dim_target
            base, sibling, j, cand_dims = base[fits], sibling[fits], j[fits], cand_dims[fits]
        # every sub-assignment of a survivor must itself survive (a direct
        # summand has at least the distance of the sum): each other face of
        # the base tuple plus j is a row of this level
        face_keys = faces[base, :-1].astype(np.int64) * count + j[:, None]
        at = np.searchsorted(keys, face_keys)
        closed = (keys[np.minimum(at, len(keys) - 1)] == face_keys).all(axis=1)
        picked = closed & (cand_dims <= n - d_min + 1)
        kept, weighed = int(np.count_nonzero(closed)), int(np.count_nonzero(picked))
        counts["pruned"] -= kept
        counts["singleton"] += kept - weighed
        counts["weighed"] += weighed
        if not weighed:
            return None
        base, sibling, at = base[picked], sibling[picked], at[picked]
        j, cand_dims = j[picked], cand_dims[picked]
        over = too_big[cand_dims]
        if over.any():  # refused at the first frontier tuple with a candidate over the cap
            row = base[np.argmax(over)]
            _check_cap(spec, stage, n, int(cand_dims[base == row].max()))
        # candidates with the same summand dimensions are weighed at once
        tuples = np.column_stack([ids[base], j])
        signatures = dims[tuples]
        order = np.lexsort(signatures.T)
        signatures = signatures[order]
        starts = np.flatnonzero(np.r_[True, (signatures[1:] != signatures[:-1]).any(axis=1)])
        survived, found = [], []
        for members, signature in zip(np.split(order, starts[1:]), signatures[starts].tolist()):
            summands = [stacks[k] for k in signature]
            counts["words"] += (len(members) * math.prod(s.shape[-1] for s in summands)
                                // (spec.q - 1))
            wd = layout.distributions(summands, slot[tuples[members]])
            good = ~wd[:, 1:d_min].any(axis=1)
            survived.append(members[good])
            found.append(_narrow(wd[good, d_min:]))
            del wd  # freed before the next group is weighed
        survived = np.concatenate(survived)
        if not len(survived):
            return None
        order = np.argsort(survived)
        good = survived[order]
        return (tuples[good], cand_dims[good],
                np.column_stack([at[good], sibling[good], base[good]]).astype(np.int32),
                np.concatenate(found)[order], base[good] * count + j[good])

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
        frontier = np.flatnonzero(live)
        start = later[last[frontier]]
        if dim_target is None:
            counts["candidates"] = int((count - start).sum())
        else:
            fit = dim_values[:, None] <= dim_target - level_dims[frontier]
            counts["candidates"] = int(later_of_dim[:, start][fit].sum())
        counts["pruned"] = counts["candidates"]  # less the candidates kept
        # a candidate extends its tuple's last face, the parent, like the
        # tuple itself: it is the last id of a sibling row, one of a later class
        parent = faces[frontier, -1].astype(np.int64) * count
        first = np.searchsorted(keys, parent + start)
        widths = np.searchsorted(keys, parent + count) - first
        ends = np.cumsum(widths)
        levels = []
        a = survivors = 0
        while a < len(frontier):
            # a chunk of frontier rows with at most one batch of pairs (one row at least)
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - widths[a] + layout.batch,
                                               side="right")))
            level = weigh_chunk(stage, frontier[a:b], first[a:b], widths[a:b], counts)
            if level is not None:  # accepted in its chunk, a batch of pairs at most
                survivors += len(level[0])
                stored = accept(stage, *level[:4])
                levels.append([part[stored] for part in level])
            a = b
        if survivors:  # the stored level may be empty: the next stage records its entry
            ids, level_dims, faces, found, keys = (np.concatenate(parts)
                                                   for parts in zip(*levels))
            levels.clear()  # the chunks' copies, freed before the next frontier
            face_levels.append(faces)
            count_levels.append(found)
        stats["stages"].append(_stage_stats(stage, counts, survivors, start_time))

    # fingerprint deduplication, deterministic order
    unique = []
    for _, ids, wd in best.values():
        dim = int(dims[list(ids)].sum())
        unique.append(SearchEntry(tuple((classes[j], outers[j]) for j in ids),
                                  CodeParams(n, dim, distance=least_weight(wd)),
                                  (n, dim, tuple(int(x) for x in wd))))
    unique.sort(key=lambda e: (e.params.dim, e.fingerprint))
    stats["accepted"] = sum(s["survivors"] for s in stats["stages"])
    stats["distinct"] = len(unique)
    return SearchResult(unique, stats)
