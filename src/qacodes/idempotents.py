"""Semisimple decomposition of the group algebra F_q[H].

The algebra splits into minimal ideals, one per q-cyclotomic class of H.
Each ideal is a field: the maps `project` (ideal -> extension field, a
character sum) and `lift` (extension field -> ideal, a scaled trace) realize
the isomorphism in both directions.  Everything is validated eagerly at
construction time so that arithmetic mistakes surface as construction
failures instead of silently wrong codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (AbelianGroup, FieldElement, FieldSpec, GroupAlgebraElement,
                      GroupElement, build_tower, character)
from .errors import InvariantError
from .linear_codes import LinearCode, rank


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
    if math.gcd(q, group.size) != 1:
        raise ValueError(f"gcd({q}, {group.size}) != 1: non-semisimple case out of scope")
    seen: set[int] = set()
    classes = []
    for h in group.elements:
        if h.index in seen:
            continue
        members = []
        cur = h
        while cur.index not in seen:
            seen.add(cur.index)
            members.append(cur)
            cur = q * cur
        rep = min(members, key=lambda g: g.index)
        # list the orbit starting from the representative
        ordered = []
        cur = rep
        for _ in members:
            ordered.append(cur)
            cur = q * cur
        classes.append(CyclotomicClass(rep, tuple(ordered)))
    classes.sort(key=lambda s: s.rep.index)
    return classes


def character_idempotent(x: GroupElement, spec: FieldSpec) -> GroupAlgebraElement:
    """Primitive idempotent of the split algebra K[H] attached to the
    character indexed by x: (1/|H|) * sum_a chi_x(-a) Y^a."""
    group = x.group
    m = group.size
    inv_m = spec.inv(m % spec.p)
    coeffs = np.zeros(group.size, dtype=np.int32)
    for a in group.elements:
        val = character(x, -a, spec)
        coeffs[a.index] = spec.mul(inv_m, val.code)
    return GroupAlgebraElement(group, spec, coeffs)


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


class SemisimpleDecomposition:
    """Full decomposition data of F_q[H]: cyclotomic classes, primitive
    idempotents, and the per-class field identifications."""

    def __init__(self, group: AbelianGroup, q: int,
                 modulus=None, validate: bool = True):
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

        # chi_row[i][j] = chi_{rep_i}(h_j);  chi_neg_row picks up -h_j instead
        spec = self.spec
        self._chi_row = []
        self._chi_neg_row = []
        for cls in self.classes:
            row = np.array([character(cls.rep, h, spec).code for h in group.elements],
                           dtype=np.int32)
            self._chi_row.append(row)
            self._chi_neg_row.append(row[group.neg_table])

        self._inv_m = spec.inv(group.size % spec.p)

        # per-class power basis of the target field and the lift matrix
        self._subfield_gen: list[int] = []
        self._power_basis: list[np.ndarray] = []
        self._coords: list[np.ndarray] = []
        self._psi_matrix: list[np.ndarray] = []
        for i, cls in enumerate(self.classes):
            k = cls.size
            gen_code = None
            for h in group.elements:
                c = int(self._chi_row[i][h.index])
                if spec.exact_degree(c) == k:
                    gen_code = c
                    break
            if gen_code is None:
                raise InvariantError(
                    f"no character value of full degree {k} for class of {cls.rep.coords}")
            basis = np.array([spec.pow_(gen_code, j) for j in range(k)], dtype=np.int32)
            coords = spec.basis_coordinates(basis)
            if coords is None:
                raise InvariantError(
                    f"power basis for class of {cls.rep.coords} is not a basis")
            coords.setflags(write=False)
            psi_rows = np.array([self._lift_by_trace(i, int(b)) for b in basis],
                                dtype=np.int32)
            self._subfield_gen.append(gen_code)
            self._power_basis.append(basis)
            self._coords.append(coords)
            self._psi_matrix.append(psi_rows)

        self._ideal_codes: dict[int, LinearCode] = {}
        if validate:
            self._validate()

    # -- small helpers -------------------------------------------------------

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, member) -> int:
        """Class position for any member of it (tuple or GroupElement)."""
        if isinstance(member, GroupElement):
            g = self.group.element(member.coords)
        else:
            g = self.group.element(tuple(member))
        return int(self._class_of_index[g.index])

    def subfield_generator(self, i: int) -> FieldElement:
        """Designated generator of the class field over F_q (a character value)."""
        return FieldElement(self.spec, self._subfield_gen[i])

    def coords_in_power_basis(self, i: int, code: int) -> np.ndarray:
        table = self._coords[i]
        code = int(code)
        if not 0 <= code < len(table) or table[code, 0] < 0:
            raise ValueError(
                f"element is not in the degree-{self.classes[i].size} class field")
        return table[code]

    # -- the two identification maps ------------------------------------------

    def char_project(self, i: int, coeffs: np.ndarray) -> int:
        """Character sum of a coefficient vector against class i; equals the
        field image of (that element) * e_i."""
        spec = self.spec
        prods = spec.vmul(coeffs, self._chi_row[i])
        acc = 0
        for v in prods:
            acc = spec.add(acc, int(v))
        return acc

    def project(self, i: int, r: GroupAlgebraElement) -> FieldElement:
        """Field image of an element of the i-th minimal ideal."""
        if r.group != self.group or not r.spec.same_presentation(self.spec):
            raise ValueError("element does not live in this group algebra")
        if r * self.idempotents[i] != r:
            raise ValueError(f"element is not in the minimal ideal of class {i}")
        return FieldElement(self.spec, self.char_project(i, r.coeffs))

    def _lift_by_trace(self, i: int, code: int) -> np.ndarray:
        """Ideal coefficients of a class-field element, via the trace formula:
        coefficient at k is (1/|H|) Tr(delta * chi_i(-k))."""
        spec = self.spec
        k_i = self.classes[i].size
        out = np.zeros(self.group.size, dtype=np.int32)
        for j in range(self.group.size):
            t = spec.trace_code(spec.mul(code, int(self._chi_neg_row[i][j])), k_i)
            out[j] = spec.mul(self._inv_m, t)
        if not spec.vin_subfield(out, 1).all():
            raise InvariantError("lift produced coefficients outside the base field")
        return out

    def lift(self, i: int, delta: FieldElement) -> GroupAlgebraElement:
        """Ideal element whose field image is delta (inverse of project)."""
        if not delta.spec.same_presentation(self.spec):
            raise ValueError("field element from a different presentation")
        k_i = self.classes[i].size
        if not self.spec.in_subfield(delta.code, k_i):
            raise ValueError(f"element is not in the degree-{k_i} class field")
        coords = self.coords_in_power_basis(i, delta.code)
        out = np.zeros(self.group.size, dtype=np.int32)
        for c, row in zip(coords, self._psi_matrix[i]):
            if c:
                out = self.spec.vadd(out, self.spec.vscale(int(c), row))
        return GroupAlgebraElement(self.group, self.spec, out)

    def lift_vector(self, i: int, codes: np.ndarray) -> np.ndarray:
        """Lift several class-field elements at once; returns one coefficient
        row per input element."""
        spec = self.spec
        out = np.zeros((len(codes), self.group.size), dtype=np.int32)
        for r, code in enumerate(codes):
            coords = self.coords_in_power_basis(i, int(code))
            row = out[r]
            for c, prow in zip(coords, self._psi_matrix[i]):
                if c:
                    row = spec.vadd(row, spec.vscale(int(c), prow))
            out[r] = row
        return out

    def psi_matrix(self, i: int) -> np.ndarray:
        """Lift images of the power basis: the i-th ideal as row vectors."""
        return self._psi_matrix[i].copy()

    # -- ideals as codes -------------------------------------------------------

    def minimal_ideal_code(self, i: int) -> LinearCode:
        """The i-th minimal ideal as a base-field linear code of length |H|."""
        code = self._ideal_codes.get(i)
        if code is None:
            code = LinearCode(self.spec.subfield(1), self.group.size, self._psi_matrix[i])
            self._ideal_codes[i] = code
        return code

    def ideal_sum_code(self, indices) -> LinearCode:
        """Direct sum of several minimal ideals as one base-field code."""
        rows = np.vstack([self._psi_matrix[i] for i in indices])
        return LinearCode(self.spec.subfield(1), self.group.size, rows)

    # -- eager validation -------------------------------------------------------

    def _validate(self):
        group, spec = self.group, self.spec
        total = GroupAlgebraElement.zero(group, spec)
        for i, e in enumerate(self.idempotents):
            if e * e != e:
                raise InvariantError(f"idempotent {i} is not idempotent")
            total = total + e
            for j in range(i + 1, self.class_count):
                prod = e * self.idempotents[j]
                if prod.weight():
                    raise InvariantError(f"idempotents {i} and {j} are not orthogonal")
        if total != GroupAlgebraElement.one(group, spec):
            raise InvariantError("idempotents do not sum to the identity")
        for i, cls in enumerate(self.classes):
            k = cls.size
            if rank(spec.subfield(1), self._psi_matrix[i]) != k:
                raise InvariantError(f"ideal {i} does not have dimension {k}")
            if self.lift(i, spec.one) != self.idempotents[i]:
                raise InvariantError(f"lift of 1 is not the idempotent for class {i}")
            if self.char_project(i, self.idempotents[i].coeffs) != 1:
                raise InvariantError(f"projection of idempotent {i} is not 1")
            for b in self._power_basis[i]:
                lifted = self.lift(i, FieldElement(spec, int(b)))
                if self.char_project(i, lifted.coeffs) != int(b):
                    raise InvariantError(
                        f"project(lift(.)) is not the identity on class {i}")

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
