"""Quasi-abelian codes via their concatenated structure.

A quasi-abelian code of index l over F_q[H] is determined by one outer code
(its "constituent") of length l per cyclotomic class, each linear over that
class's extension field.  Flattening writes every codeword as a base-field
vector of length |H|*l: block j holds the coefficient vector of the j-th
group-algebra coordinate, in the group's element order.  That layout is a
frozen contract shared with the JSON descriptors.

Also here: the generic inner/outer concatenation builder, the concatenation
lower bound on minimum distance, and parameter prediction for instances too
large to materialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .algebra import AbelianGroup, GroupAlgebraElement, GroupElement
from .errors import InvariantError
from .idempotents import SemisimpleDecomposition, decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, CodeParams, LinearCode, _check_row_lengths,
                           _json_ints, _json_keys, _json_rows, _json_value, embed_code,
                           frobenius_twist, rank)


class QACode:
    """A quasi-abelian code held as its constituent assignment, with the
    flattened base-field code materialized lazily."""

    def __init__(self, decomposition: SemisimpleDecomposition, index: int,
                 assignment: Mapping[int, LinearCode]):
        if index < 1:
            raise ValueError("index must be positive")
        self.decomposition = decomposition
        self.index = index
        cleaned: dict[int, LinearCode] = {}
        for i, code in sorted(assignment.items()):
            k_i = decomposition.classes[i].size
            want = decomposition.spec.subfield(k_i)
            if code.field != want:
                raise ValueError(
                    f"constituent for class {i} must be over the degree-{k_i} "
                    f"extension, got degree {code.field.degree}")
            if code.length != index:
                raise ValueError(
                    f"constituent for class {i} has length {code.length}, expected {index}")
            if code.dim > 0:
                cleaned[i] = code
        self.assignment = cleaned

    @property
    def group(self) -> AbelianGroup:
        return self.decomposition.group

    @property
    def q(self) -> int:
        return self.decomposition.q

    @property
    def dim(self) -> int:
        dec = self.decomposition
        return sum(dec.classes[i].size * c.dim for i, c in self.assignment.items())

    @property
    def length(self) -> int:
        return self.group.size * self.index

    def constituents(self) -> dict[GroupElement, LinearCode]:
        """Assignment keyed by class representative."""
        dec = self.decomposition
        return {dec.classes[i].rep: c for i, c in self.assignment.items()}

    @cached_property
    def flattened(self) -> LinearCode:
        """The code as a base-field linear code of length |H| * index."""
        dec = self.decomposition
        gens = np.vstack([dec.flatten(i, outer.gens) for i, outer in self.assignment.items()]
                         + [np.zeros((0, self.length), dtype=np.int32)])
        code = LinearCode(dec.spec.subfield(1), self.length, gens)
        if code.dim != self.dim:
            raise InvariantError(
                f"flattened dimension {code.dim} does not match the expected {self.dim}")
        return code

    def params(self, cap: int = DEFAULT_CODEWORD_CAP) -> CodeParams:
        flat = self.flattened
        if flat.dim == 0:
            return CodeParams(self.length, 0)
        return CodeParams(self.length, flat.dim, distance=flat.min_distance(cap))

    def __repr__(self):
        return (f"QACode({self.group!r} over F_{self.q}, index {self.index}, "
                f"dim {self.dim})")


def _class_position(dec: SemisimpleDecomposition, key) -> tuple[int, int]:
    """Class index i of a group-element key (a GroupElement or a coordinate
    tuple) and its position j in that class: key = q^j * rep.  `class_index`
    rejects a key outside the group."""
    i = dec.class_index(key)
    coords = key.coords if isinstance(key, GroupElement) else key
    return i, dec.classes[i].members.index(dec.group.element(coords))


def _resolve_assignment(dec: SemisimpleDecomposition,
                        assignment: Mapping) -> dict[int, LinearCode]:
    """Normalize user-facing assignment keys to class indices.

    A constituent keyed by a class member h means "concatenate through the
    identification evaluated at h".  Evaluating at q^j * rep instead of the
    representative composes the identification with the j-th Frobenius, so
    the constituent is twisted by the inverse Frobenius when normalizing.
    """
    out: dict[int, LinearCode] = {}
    for key, code in assignment.items():
        if isinstance(key, int):
            i = key
            if not 0 <= i < dec.class_count:
                raise ValueError(f"class index {i} out of range")
            j = 0
        else:
            i, j = _class_position(dec, key)
        if i in out:
            raise ValueError(f"two constituents map to the class of "
                             f"{dec.classes[i].rep.coords}")
        k_i = dec.classes[i].size
        want = dec.spec.subfield(k_i)
        if code.field != want:
            code = embed_code(code, want)
        if j:
            code = frobenius_twist(code, k_i - j)
        out[i] = code
    return out


def qa_from_constituents(group: AbelianGroup, q: int, index: int,
                         assignment: Mapping, *, modulus=None) -> QACode:
    """Build the quasi-abelian code with the given nonzero constituents.

    Assignment keys may be class indices, class representatives, or any
    member of the intended cyclotomic class.
    """
    dec = decompose_algebra(group, q, modulus=modulus)
    return QACode(dec, index, _resolve_assignment(dec, assignment))


def is_qa(code: LinearCode, group: AbelianGroup) -> bool:
    """True iff the code is closed under blockwise group translation, i.e. it
    is a module over the group algebra."""
    if code.length % group.size != 0:
        raise ValueError(
            f"length {code.length} is not a multiple of the group order {group.size}")
    ell = code.length // group.size
    m = group.size
    # row h - 1: the coordinate permutation of translation by h, for h != 0
    perms = group.diff_table[1:]
    full = (perms[:, None, :] + m * np.arange(ell)[:, None]).reshape(m - 1, code.length)
    return code.contains(code.gens[:, full].reshape(-1, code.length))


def constituents_of(code: LinearCode, group: AbelianGroup, *,
                    modulus=None) -> dict[GroupElement, LinearCode]:
    """Extract the nonzero constituents of a flattened quasi-abelian code.

    Rejects codes that are not group-algebra modules: projecting anything
    else would produce meaningless outer codes.
    """
    if code.field.degree != 1:
        raise ValueError("flattened quasi-abelian codes live over the base field")
    q = code.field.spec.q
    dec = decompose_algebra(group, q, modulus=modulus)
    if not code.field.spec.same_presentation(dec.spec):
        code = embed_code(code, dec.spec.subfield(1))
    if not is_qa(code, group):
        raise ValueError("code is not closed under the group action (not quasi-abelian)")
    m = group.size
    ell = code.length // m
    blocks = code.gens.reshape(code.dim, ell, m)
    out: dict[GroupElement, LinearCode] = {}
    for i, cls in enumerate(dec.classes):
        outer = LinearCode(dec.spec.subfield(cls.size), ell, dec.char_project(i, blocks))
        if outer.dim > 0:
            out[cls.rep] = outer
    return out


def block_idempotent(dec: SemisimpleDecomposition, i: int,
                     index: int) -> tuple[GroupAlgebraElement, ...]:
    """The idempotent of the i-th class repeated across all coordinates of
    the module (the projector onto one concatenation summand)."""
    return tuple(dec.idempotents[i] for _ in range(index))


# ---------------------------------------------------------------------------
# generic concatenation

@dataclass
class GCCScheme:
    """Inner/outer data of a generalized concatenation.

    For each slot i: an inner base-field code, an ordered injection basis
    (rows spanning the inner code, one per outer-field basis vector), the
    outer-field basis scalars those rows correspond to, and the outer code.
    """

    inners: list[LinearCode]
    encoders: list[np.ndarray]
    basis_scalars: list[np.ndarray]
    outers: list[LinearCode]

    def __post_init__(self):
        s = len(self.inners)
        if not (len(self.encoders) == len(self.basis_scalars) == len(self.outers) == s):
            raise ValueError("scheme lists must have equal length")
        if s == 0:
            raise ValueError("a concatenation needs at least one inner/outer pair")
        n = self.inners[0].length
        field = self.inners[0].field
        if any(a.length != n or a.field != field for a in self.inners):
            raise ValueError("inner codes must share one length and one base field")
        N = self.outers[0].length
        if any(c.length != N for c in self.outers):
            raise ValueError("outer codes must share one length")
        spec = field.spec
        for i, (inner, enc, basis, outer) in enumerate(
                zip(self.inners, self.encoders, self.basis_scalars, self.outers)):
            k = inner.dim
            if outer.field.degree != k:
                raise ValueError(
                    f"slot {i}: outer field degree {outer.field.degree} != inner dimension {k}")
            if enc.shape != (k, n):
                raise ValueError(f"slot {i}: encoder must be a {k} x {n} matrix")
            if len(basis) != k:
                raise ValueError(f"slot {i}: need {k} basis scalars")
            if rank(field, enc) != k or not inner.contains(enc):
                raise ValueError(f"slot {i}: encoder rows must be a basis of the inner code")
        stacked = np.vstack([a.gens for a in self.inners])
        if rank(field, stacked) != sum(a.dim for a in self.inners):
            raise ValueError("inner codes do not intersect trivially")

    @property
    def inner_length(self) -> int:
        return self.inners[0].length

    @property
    def outer_length(self) -> int:
        return self.outers[0].length


def simple_scheme(inner: LinearCode, outer: LinearCode) -> GCCScheme:
    """One-slot scheme with the default injection: the j-th power of the
    outer field's canonical generator maps to the j-th generator row."""
    spec = inner.field.spec
    k = inner.dim
    codes = spec.subfield_codes(k)
    gen_code = int(codes[spec.vdegree(codes) == k][0])
    basis = spec.vpow(gen_code, np.arange(k))
    return GCCScheme([inner], [inner.gens.copy()], [basis], [outer])


def gcc_scheme_from_qa(qa: QACode) -> GCCScheme:
    """The concatenation scheme whose inner codes are the minimal ideals and
    whose injections are the ideal lift maps; building it reproduces the
    flattened quasi-abelian code codeword for codeword."""
    dec = qa.decomposition
    inners, encoders, bases, outers = [], [], [], []
    for i, outer in qa.assignment.items():
        inners.append(dec.minimal_ideal_code(i))
        encoders.append(dec.psi_matrix(i))
        bases.append(dec.power_basis(i))
        outers.append(outer)
    return GCCScheme(inners, encoders, bases, outers)


def gcc_build(scheme: GCCScheme) -> LinearCode:
    """Materialize the concatenated code: every outer coordinate is pushed
    through the slot's injection and the slots are summed."""
    field = scheme.inners[0].field
    spec = field.spec
    n = scheme.inner_length
    N = scheme.outer_length
    expansions = []
    for basis, outer in zip(scheme.basis_scalars, scheme.outers):
        coords = spec.basis_coordinates(basis)
        if coords is None or (coords[outer.field.elements, 0] < 0).any():
            raise ValueError("basis scalars are not a basis of the outer field")
        expansions.append(coords)

    # row (v, b): block j is the encoder image of the coordinates of b * v_j
    rows = [spec.vdot(coords[spec.vmul(outer.gens[:, None, :], np.asarray(basis)[:, None])],
                      enc).reshape(-1, n * N)
            for enc, basis, outer, coords in zip(scheme.encoders, scheme.basis_scalars,
                                                 scheme.outers, expansions)]
    code = LinearCode(spec.subfield(1), n * N, np.vstack(rows))
    expected = sum(a.dim * c.dim for a, c in zip(scheme.inners, scheme.outers))
    if code.dim != expected:
        raise InvariantError(
            f"concatenated dimension {code.dim} does not match the expected {expected}")
    return code


# ---------------------------------------------------------------------------
# the concatenation distance bound

def distance_bound(obj, cap: int = DEFAULT_CODEWORD_CAP) -> int:
    """Lower bound on the minimum distance of a concatenated code:
    with outer codes sorted by ascending distance, the minimum over v of
    d(outer_v) * d(inner_1 + ... + inner_v), all distances exact.

    For a quasi-abelian code the inner sums are sums of minimal ideals,
    whose distances the decomposition computes once per set of classes
    (`ideal_sum_distance`); a concatenation scheme's inner sums are built
    and weighed at each call.  Either way `cap` bounds every enumeration
    and is checked on every distance, kept or not.
    """
    # one slot per nonzero outer code: (outer, key of its inner code), and
    # the distance of the sum of the inner codes of a list of keys
    if isinstance(obj, QACode):
        dec = obj.decomposition
        slots = [(outer, i) for i, outer in obj.assignment.items()]
        if not slots:
            raise ValueError("the zero code has no distance bound")

        def inner_distance(keys) -> int:
            return dec.ideal_sum_distance(keys, cap)
    elif isinstance(obj, GCCScheme):
        slots = [(outer, inner.gens) for inner, outer in zip(obj.inners, obj.outers)
                 if outer.dim > 0]
        field, n = obj.inners[0].field, obj.inner_length
        if not slots:
            raise ValueError("all outer codes are zero; no distance bound")

        def inner_distance(keys) -> int:
            return LinearCode(field, n, np.vstack(keys)).min_distance(cap)
    else:
        raise TypeError(f"expected a quasi-abelian code or a concatenation scheme, "
                        f"got {type(obj).__name__}")
    return concatenation_bound([(outer.min_distance(cap), key) for outer, key in slots],
                               inner_distance)


def concatenation_bound(slots, inner_distance) -> int:
    """The bound of `distance_bound` from exact distances: `slots` pairs the
    distance of each outer code with the key of its inner code, and
    `inner_distance(keys)` is the distance of the sum of the inner codes of
    a list of keys.  The slots are ranked by ascending outer distance, and
    the bound is the minimum over v of d_v * inner_distance(first v keys)."""
    # the order among equal outer distances cannot change the minimum
    ranked = sorted(slots, key=lambda t: t[0])
    return min(d * inner_distance([key for _, key in ranked[:v]])
               for v, (d, _) in enumerate(ranked, 1))


def predict_params(inner_length: int, inner_dims: Sequence[int],
                   inner_prefix_distances: Sequence[int],
                   outer_params: Sequence[CodeParams]) -> CodeParams:
    """Parameters of a concatenation from claimed inner/outer parameters,
    without building anything; slot v's outer code is over the degree
    `inner_dims[v]` extension.

    `inner_prefix_distances[v]` must be the exact minimum distance of the
    direct sum of the first v+1 inner codes, with outer codes already listed
    in ascending distance order (the order the bound requires), so that
    `concatenation_bound` ranks the slots as they are listed.
    """
    s = len(inner_dims)
    if not (len(inner_prefix_distances) == len(outer_params) == s) or s == 0:
        raise ValueError("inner and outer parameter lists must have equal nonzero length")
    N = outer_params[0].length
    if any(cp.length != N for cp in outer_params):
        raise ValueError("outer codes must share one length")
    dists = []
    for cp in outer_params:
        d = cp.distance if cp.distance is not None else cp.distance_lower_bound
        if d is None:
            raise ValueError("every outer code needs a distance or a lower bound")
        dists.append(d)
    if any(dists[i] > dists[i + 1] for i in range(s - 1)):
        raise ValueError("outer codes must be listed in ascending distance order")
    if sum(inner_dims) > inner_length:
        raise ValueError("inner dimensions exceed the inner length")
    bound = concatenation_bound(list(zip(dists, range(s))),
                                lambda keys: inner_prefix_distances[len(keys) - 1])
    return CodeParams(
        inner_length * N,
        sum(k * cp.dim for k, cp in zip(inner_dims, outer_params)),
        distance_lower_bound=bound)


# ---------------------------------------------------------------------------
# descriptors

def constituent_entry(dec: SemisimpleDecomposition, i: int, code: LinearCode) -> dict:
    """The descriptor entry of the outer code `code` at class i."""
    return {"class_member": list(dec.classes[i].rep.coords),
            "generators": dec.spec.to_text(code.gens)}


def qa_to_descriptor(qa: QACode) -> dict:
    return {
        "q": qa.q,
        "group": list(qa.group.orders),
        "index": qa.index,
        "modulus": list(qa.decomposition.spec.modulus),
        "constituents": [constituent_entry(qa.decomposition, i, code)
                         for i, code in qa.assignment.items()],
    }


def qa_from_descriptor(obj: dict) -> QACode:
    """Rebuild a quasi-abelian code from its JSON form: the keys
    qa_to_descriptor writes, of which only "modulus" may be left out."""
    if not isinstance(obj, dict):
        raise ValueError("descriptor must be a JSON object")
    _json_keys(obj, ("q", "group", "index", "constituents"), ("modulus",))
    group = AbelianGroup(_json_ints(obj["group"], "group"))
    q = _json_value(obj["q"], int, "q")
    index = _json_value(obj["index"], int, "index")
    modulus = tuple(_json_ints(obj.get("modulus", []), "modulus")) or None
    dec = decompose_algebra(group, q, modulus=modulus)
    spec = dec.spec
    entries = []
    for entry in _json_value(obj["constituents"], list, "constituents"):
        _json_value(entry, dict, "constituent")
        _json_keys(entry, ("class_member", "generators"), what="descriptor constituent")
        member = tuple(_json_ints(entry["class_member"], "class_member"))
        i, _ = _class_position(dec, member)
        entries.append((member, i, _check_row_lengths(_json_rows(entry["generators"]), index)))
    # the generators of all constituents in one codec call
    rows = [row for _, _, gens in entries for row in gens]
    codes = spec.from_text(rows).reshape(len(rows), index)
    assignment: dict = {}
    start = 0
    for member, i, gens in entries:
        code = LinearCode(spec.subfield(dec.classes[i].size), index,
                          codes[start:start + len(gens)])
        start += len(gens)
        if member in assignment:
            raise ValueError(f"duplicate constituent for class member {member}")
        assignment[member] = code
    return QACode(dec, index, _resolve_assignment(dec, assignment))
