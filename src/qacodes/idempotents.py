"""Semisimple decomposition of the group algebra F_q[H].

The algebra splits into minimal ideals, one per q-cyclotomic class of H.
Each ideal is a field: the maps `project` (ideal -> extension field, a
character sum) and `lift` (extension field -> ideal) realize the isomorphism
in both directions.  The one lift map is `lift_vector`, on arrays of any
shape: power-basis coordinates, then psi (the lifts of the power basis, by
the trace formula); `lift` and `flatten` go through it.  The identities are
validated once, at construction, orthogonality by one product per class,
so that arithmetic mistakes fail the build instead of giving wrong codes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (AbelianGroup, FieldElement, FieldSpec, GroupAlgebraElement,
                      GroupElement, _check_root_order, build_tower, character_table,
                      convolve, prime_power)
from .errors import InvariantError
from .linear_codes import DEFAULT_CODEWORD_CAP, LinearCode, rank


@dataclass(frozen=True)
class CyclotomicClass:
    """Orbit of a group element under multiplication by q."""

    rep: GroupElement
    members: tuple[GroupElement, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"CyclotomicClass(rep={self.rep.coords}, size={self.size})"


def cyclotomic_classes(group: AbelianGroup, q: int) -> list[CyclotomicClass]:
    """All q-cyclotomic classes of the group, sorted by representative.

    The class of 0 is the singleton {0} and always comes first.
    """
    prime_power(q)
    if math.gcd(q, group.size) != 1:
        raise ValueError(f"gcd({q}, {group.size}) != 1: non-semisimple case out of scope")
    times_q = group.scalar_table(q).tolist()
    seen = [False] * group.size
    classes = []
    # h in index order is the least index of its orbit when not yet seen
    for h in range(group.size):
        if seen[h]:
            continue
        orbit = [h]
        while times_q[orbit[-1]] != h:
            orbit.append(times_q[orbit[-1]])
        for g in orbit:
            seen[g] = True
        classes.append(CyclotomicClass(group.at(h), tuple(map(group.at, orbit))))
    return classes


def character_idempotent(x: GroupElement, spec: FieldSpec) -> GroupAlgebraElement:
    """Primitive idempotent of the split algebra K[H] attached to the
    character indexed by x: (1/|H|) * sum_a chi_x(-a) Y^a."""
    group = x.group
    _check_root_order(group, spec)
    # the row of x in the character table, read at -a
    chi = spec.vpow(spec.xi_code, group.character_exponents[x.index, group.neg_table])
    return GroupAlgebraElement(group, spec, spec.vmul(spec._inv[group.size % spec.p], chi))


def class_idempotent(cls: CyclotomicClass, spec: FieldSpec) -> GroupAlgebraElement:
    """Primitive idempotent of F_q[H] induced by a cyclotomic class: the sum
    of the character idempotents over the class.  All coefficients must land
    in F_q; anything else signals an arithmetic bug."""
    total = GroupAlgebraElement.zero(cls.rep.group, spec)
    for x in cls.members:
        total = total + character_idempotent(x, spec)
    if not total.in_base_field():
        raise InvariantError(
            f"idempotent for class of {cls.rep.coords} has coefficients outside F_{spec.q}")
    return total


def idempotent_checks(spec: FieldSpec, group: AbelianGroup, stack: np.ndarray):
    """Per element e_i of a stack (class first, group last, any axes between):
    whether e_i^2 = e_i and whether e_i (e_{i+1} + ... + e_{c-1}) = 0, which
    is pairwise orthogonality (see `_validate`); then the sum of all e_i."""
    later = np.zeros_like(stack[0])
    idempotent, orthogonal = np.empty((2, len(stack)), dtype=bool)
    for i in range(len(stack) - 1, -1, -1):
        square, cross = convolve(spec, group, np.stack([stack[i], later]), stack[i])
        idempotent[i], orthogonal[i] = np.array_equal(square, stack[i]), not cross.any()
        later = spec.vadd(later, stack[i])
    return idempotent, orthogonal, later


class SemisimpleDecomposition:
    """Full decomposition data of F_q[H]: cyclotomic classes, primitive
    idempotents, and the per-class field identifications."""

    def __init__(self, group: AbelianGroup, q: int, modulus=None):
        self.group = group
        self.q = q
        self.spec = build_tower(q, group, modulus=modulus)
        self.classes = cyclotomic_classes(group, q)
        self.idempotents = [class_idempotent(c, self.spec) for c in self.classes]
        self.field_degrees = [c.size for c in self.classes]

        self._class_of_index = np.empty(group.size, dtype=np.int32)
        for i, cls in enumerate(self.classes):
            for g in cls.members:
                self._class_of_index[g.index] = i

        # characters[a, h] = chi_a(h); chi_row[i][j] = chi_{rep_i}(h_j) and
        # chi_neg_row picks up -h_j instead
        spec = self.spec
        self.characters = character_table(group, spec)
        self.characters.setflags(write=False)
        self._chi_row = self.characters[[cls.rep.index for cls in self.classes]]
        self._chi_neg_row = self._chi_row[:, group.neg_table]

        self._inv_m = int(spec._inv[group.size % spec.p])

        # per-class power basis of the target field and the lift matrix
        self._subfield_gen: list[int] = []
        self._power_basis: list[np.ndarray] = []
        self._coords: list[np.ndarray] = []
        self._psi_matrix: list[np.ndarray] = []
        for i, cls in enumerate(self.classes):
            k = cls.size
            full = np.flatnonzero(spec.vdegree(self._chi_row[i]) == k)
            if not len(full):
                raise InvariantError(
                    f"no character value of full degree {k} for class of {cls.rep.coords}")
            gen_code = int(self._chi_row[i][full[0]])
            basis = spec.vpow(gen_code, np.arange(k))
            coords = spec.basis_coordinates(basis)
            if coords is None:
                raise InvariantError(
                    f"power basis for class of {cls.rep.coords} is not a basis")
            coords.setflags(write=False)
            psi_rows = self._lift_by_trace(i, basis)
            self._subfield_gen.append(gen_code)
            self._power_basis.append(basis)
            self._coords.append(coords)
            self._psi_matrix.append(psi_rows)

        # each sum of minimal ideals asked for, by set of classes: its code,
        # and its distance once that was asked for
        self._sum_distances: dict[frozenset[int], tuple[LinearCode, int | None]] = {}
        self._validate()

    # -- small helpers -------------------------------------------------------

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, member) -> int:
        """Class position for any member of it (tuple or GroupElement).  A
        coordinate outside [0, order) is rejected, not reduced."""
        orders = self.group.orders
        coords = tuple(int(c) for c in (member.coords if isinstance(member, GroupElement)
                                        else member))
        if len(coords) != len(orders) or any(not 0 <= c < m for c, m in zip(coords, orders)):
            raise ValueError(f"class_member {list(coords)} lies outside the group "
                             f"{list(orders)}")
        return int(self._class_of_index[self.group.element(coords).index])

    def subfield_generator(self, i: int) -> FieldElement:
        """Designated generator of the class field over F_q (a character value)."""
        return FieldElement(self.spec, self._subfield_gen[i])

    def coords_in_power_basis(self, i: int, codes) -> np.ndarray:
        """Power-basis coordinates of class-field codes in an array of any shape."""
        table = self._coords[i]
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= len(table)
                           or (table[codes, 0] < 0).any()):
            raise ValueError(
                f"element is not in the degree-{self.classes[i].size} class field")
        return table[codes]

    # -- the two identification maps ------------------------------------------

    def char_project(self, i: int, coeffs) -> np.ndarray:
        """Character sums against class i of coefficient vectors (last axis)
        in an array of any leading shape; each equals the field image of
        (that element) * e_i."""
        return self.spec.vdot(coeffs, self._chi_row[i])

    def in_ideal(self, i: int, coeffs) -> np.ndarray:
        """Whether each coefficient vector (last axis) of an array of any
        leading shape lies in the i-th minimal ideal: r * e_i == r."""
        coeffs = np.asarray(coeffs, dtype=np.int32)
        prods = convolve(self.spec, self.group, coeffs, self.idempotents[i].coeffs)
        return (prods == coeffs).all(axis=-1)

    def project(self, i: int, r: GroupAlgebraElement) -> FieldElement:
        """Field image of an element of the i-th minimal ideal."""
        if r.group != self.group or not r.spec.same_presentation(self.spec):
            raise ValueError("element does not live in this group algebra")
        if not self.in_ideal(i, r.coeffs):
            raise ValueError(f"element is not in the minimal ideal of class {i}")
        return FieldElement(self.spec, int(self.char_project(i, r.coeffs)))

    def _lift_by_trace(self, i: int, codes: np.ndarray) -> np.ndarray:
        """Ideal coefficients of class-field codes, one row each, via the
        trace formula: coefficient at h is (1/|H|) Tr(delta * chi_i(-h))."""
        spec = self.spec
        prods = spec.vmul(codes[:, None], self._chi_neg_row[i])
        out = spec.vmul(self._inv_m, spec.vtrace(prods, self.classes[i].size))
        if not spec.vin_subfield(out, 1).all():
            raise InvariantError("lift produced coefficients outside the base field")
        return out

    def lift(self, i: int, delta: FieldElement) -> GroupAlgebraElement:
        """Ideal element whose field image is delta (inverse of project)."""
        if not delta.spec.same_presentation(self.spec):
            raise ValueError("field element from a different presentation")
        return GroupAlgebraElement(self.group, self.spec, self.lift_vector(i, delta.code))

    def lift_vector(self, i: int, codes) -> np.ndarray:
        """Ideal coefficients of class-field codes in an array of any shape,
        on one more axis of length |H|: the psi rows combined by power-basis
        coordinates."""
        return self.spec.vdot(self.coords_in_power_basis(i, codes), self._psi_matrix[i])

    def flatten(self, i: int, gens) -> np.ndarray:
        """Base-field rows lift(b * v) for each row v of `gens` (a code over
        the class field, its rows on the last two axes) and each power-basis
        element b, v outer and b inner; block j of a row is the lift of
        coordinate j.  Leading axes are kept: a stack of codes flattens to a
        stack of row sets."""
        gens = np.asarray(gens, dtype=np.int32)
        basis = self._power_basis[i]
        scaled = self.spec.vmul(gens[..., :, None, :], basis[:, None])
        return self.lift_vector(i, scaled).reshape(
            gens.shape[:-2] + (-1, gens.shape[-1] * self.group.size))

    def power_basis(self, i: int) -> np.ndarray:
        """Powers 1, g, ..., g^(k-1) of the subfield generator of class i."""
        return self._power_basis[i].copy()

    def psi_matrix(self, i: int) -> np.ndarray:
        """Lift images of the power basis: the i-th ideal as row vectors."""
        return self._psi_matrix[i].copy()

    # -- ideals as codes -------------------------------------------------------

    def _class_indices(self, indices) -> list[int]:
        """The class indices as ints, each checked to lie in [0, class_count)."""
        out = [operator.index(i) for i in indices]
        for i in out:
            if not 0 <= i < self.class_count:
                raise ValueError(f"class index {i} lies outside [0, {self.class_count})")
        return out

    def minimal_ideal_code(self, i: int) -> LinearCode:
        """The i-th minimal ideal as a base-field linear code of length |H|."""
        key = frozenset(self._class_indices([i]))
        if key not in self._sum_distances:
            self._sum_distances[key] = (self.ideal_sum_code([i]), None)
        return self._sum_distances[key][0]

    def ideal_sum_code(self, indices) -> LinearCode:
        """Direct sum of several minimal ideals as one base-field code."""
        rows = np.vstack([self._psi_matrix[i] for i in self._class_indices(indices)])
        return LinearCode(self.spec.subfield(1), self.group.size, rows)

    def ideal_sum_distance(self, indices, cap: int = DEFAULT_CODEWORD_CAP) -> int:
        """Exact minimum distance of the sum of the minimal ideals of
        `indices`, computed at the first call for its set of classes and
        kept.  It depends on the decomposition alone, so every bound and
        prediction over it reads the same value; the codeword cap is still
        checked on every call, with the message of `min_distance`."""
        key = frozenset(self._class_indices(indices))
        code, d = self._sum_distances.get(key) or (self.ideal_sum_code(sorted(key)), None)
        if d is None:
            d = code.min_distance(cap)
            self._sum_distances[key] = (code, d)
        else:
            code._codeword_count(cap)
        return d

    # -- eager validation -------------------------------------------------------

    def _validate(self):
        """Check the decomposition identities, once.  Every result is kept
        in `identities` as (identity, where, holds); the first that fails
        raises InvariantError naming the identity and the class.  If each e_i
        is orthogonal to the sum of the later e_j, that sum fixes each later
        e_j (by induction from the last class down), so e_i e_j = 0 for i != j."""
        spec, es = self.spec, self.idempotents
        idempotent, orthogonal, total = idempotent_checks(
            spec, self.group, np.stack([e.coeffs for e in es]))
        results = []
        for i, (cls, e) in enumerate(zip(self.classes, es)):
            basis, where = self._power_basis[i], f"class {i}"
            results += [
                ("e^2 = e", where, bool(idempotent[i])),
                ("orthogonality", f"{where} and the later classes", bool(orthogonal[i])),
                ("ideal rank = class size", where,
                 rank(spec.subfield(1), self._psi_matrix[i]) == cls.size),
                ("lift(1) = e_i", where, self.lift(i, spec.one) == e),
                ("project(e_i) = 1", where, int(self.char_project(i, e.coeffs)) == 1),
                ("project(lift(b)) = b on the power basis", where,
                 np.array_equal(self.char_project(i, self.lift_vector(i, basis)), basis)),
            ]
        results.append(("sum of idempotents = 1", "all classes",
                        bool(total[0] == 1 and not total[1:].any())))
        for identity, where, holds in results:
            if not holds:
                raise InvariantError(f"{identity} fails for {where}")
        self.identities = results

    def __repr__(self):
        return (f"SemisimpleDecomposition({self.group!r} over F_{self.q}: "
                f"{self.class_count} classes, degrees {self.field_degrees})")


@lru_cache(maxsize=64)
def _decompose_cached(q: int, orders: tuple[int, ...], modulus) -> SemisimpleDecomposition:
    return SemisimpleDecomposition(AbelianGroup(orders), q, modulus=modulus)


def decompose_algebra(group: AbelianGroup, q: int, modulus=None) -> SemisimpleDecomposition:
    """Decomposition of F_q[H], cached per (q, group, modulus)."""
    mod = tuple(modulus) if modulus is not None else None
    return _decompose_cached(q, group.orders, mod)
