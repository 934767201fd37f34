"""Cyclotomic classes, primitive idempotents, and the minimal-ideal maps."""

import random

import pytest

from qacodes.algebra import (AbelianGroup, FieldElement, GroupAlgebraElement,
                             build_tower)
from qacodes.idempotents import (character_idempotent, class_idempotent,
                                 cyclotomic_classes, decompose_algebra)

G33 = AbelianGroup((3, 3))
G55 = AbelianGroup((5, 5))


def test_classes_c3c3():
    classes = cyclotomic_classes(G33, 2)
    got = [(c.rep.coords, {m.coords for m in c.members}) for c in classes]
    assert got == [
        ((0, 0), {(0, 0)}),
        ((0, 1), {(0, 1), (0, 2)}),
        ((1, 0), {(1, 0), (2, 0)}),
        ((1, 1), {(1, 1), (2, 2)}),
        ((1, 2), {(1, 2), (2, 1)}),
    ]


def _orbit_oracle(group, q, h):
    out, cur = [], h
    while cur not in out:
        out.append(cur)
        cur = group.element([q * c for c in cur.coords])
    return frozenset(g.coords for g in out)


def test_classes_c5c5_against_orbit_oracle():
    classes = cyclotomic_classes(G55, 2)
    assert len(classes) == 7
    assert classes[0].members == (G55.zero,)
    assert all(c.size == 4 for c in classes[1:])
    want = {_orbit_oracle(G55, 2, h) for h in G55.elements}
    got = {frozenset(m.coords for m in c.members) for c in classes}
    assert got == want
    # partition and ordering by representative
    seen = [m.index for c in classes for m in c.members]
    assert sorted(seen) == list(range(25))
    reps = [c.rep.index for c in classes]
    assert reps == sorted(reps) and reps[0] == 0


def test_classes_trivial_group():
    classes = cyclotomic_classes(AbelianGroup((1,)), 2)
    assert len(classes) == 1 and classes[0].size == 1


def test_classes_reject_non_semisimple():
    with pytest.raises(ValueError):
        cyclotomic_classes(AbelianGroup((2, 2)), 2)


def test_class_sizes_divide_order_of_q():
    dec = decompose_algebra(G55, 2)
    for c in dec.classes:
        assert dec.spec.tower_degree % c.size == 0


def test_character_idempotent_examples():
    spec = build_tower(2, G33)
    e0 = character_idempotent(G33.zero, spec)
    assert e0.coeffs.tolist() == [1] * 9
    rng = random.Random(1)
    els = G33.elements
    for _ in range(10):
        x, y = els[rng.randrange(9)], els[rng.randrange(9)]
        ex = character_idempotent(x, spec)
        assert ex * ex == ex
        if x != y:
            ey = character_idempotent(y, spec)
            assert (ex * ey).weight() == 0


def test_class_idempotent_sum_is_identity():
    for group, q in [(G33, 2), (G55, 2), (AbelianGroup((2, 2)), 3)]:
        spec = build_tower(q, group)
        total = GroupAlgebraElement.zero(group, spec)
        for cls in cyclotomic_classes(group, q):
            e = class_idempotent(cls, spec)
            assert e.in_base_field()
            total = total + e
        assert total == GroupAlgebraElement.one(group, spec)


@pytest.mark.parametrize("orders,q,want_degrees", [
    ((3, 3), 2, [1, 2, 2, 2, 2]),
    ((5, 5), 2, [1, 4, 4, 4, 4, 4, 4]),
    ((1,), 2, [1]),
    ((2, 2), 3, [1, 1, 1, 1]),
    ((3, 3), 4, [1] * 9),
    ((3,), 2, [1, 2]),
])
def test_decompose_field_degrees(orders, q, want_degrees):
    dec = decompose_algebra(AbelianGroup(orders), q)
    assert dec.field_degrees == want_degrees
    assert sum(dec.field_degrees) == dec.group.size


def test_class_index_accepts_any_member():
    dec = decompose_algebra(G55, 2)
    i = dec.class_index((2, 4))
    assert dec.classes[i].rep.coords == (1, 2)
    assert dec.class_index((1, 2)) == i
    assert dec.class_index(G55.element((4, 3))) == i
    assert dec.class_index((0, 0)) == 0


def test_projection_examples():
    dec = decompose_algebra(G55, 2)
    spec = dec.spec
    for i in range(dec.class_count):
        assert dec.project(i, dec.idempotents[i]) == spec.one
        assert dec.lift(i, spec.one) == dec.idempotents[i]
        assert dec.lift(i, spec.zero).weight() == 0
    zero = GroupAlgebraElement.zero(G55, spec)
    assert dec.project(2, zero) == spec.zero
    # rejects elements outside the ideal
    with pytest.raises(ValueError):
        dec.project(1, GroupAlgebraElement.one(G55, spec))
    # rejects field elements outside the class field
    with pytest.raises(ValueError):
        dec.lift(0, spec.from_string("0100"))
    for code in (spec.from_string("0100").code, -1, spec.size):
        with pytest.raises(ValueError, match="class field"):
            dec.coords_in_power_basis(0, code)
    assert dec.coords_in_power_basis(0, 1).tolist() == [1]


def test_projection_lift_inverse_and_homomorphism():
    dec = decompose_algebra(G55, 2)
    spec = dec.spec
    rng = random.Random(2024)
    for i in [0, 1, 4]:
        k = dec.classes[i].size
        codes = spec.subfield_codes(k)
        for _ in range(100):
            d1 = FieldElement(spec, int(codes[rng.randrange(len(codes))]))
            d2 = FieldElement(spec, int(codes[rng.randrange(len(codes))]))
            r1, r2 = dec.lift(i, d1), dec.lift(i, d2)
            assert dec.project(i, r1) == d1
            assert dec.project(i, r1 * r2) == d1 * d2
            assert dec.lift(i, d1 + d2) == r1 + r2
        # the ideal is closed under translation and projection is equivariant
        g = G55.elements[rng.randrange(25)]
        r = dec.lift(i, FieldElement(spec, int(codes[rng.randrange(len(codes))])))
        tr = r.translate(g)
        assert tr * dec.idempotents[i] == tr
        lhs = dec.project(i, tr)
        rhs = dec.project(i, dec.idempotents[i].translate(g)) * dec.project(i, r)
        assert lhs == rhs


def test_minimal_ideal_codes():
    dec5 = decompose_algebra(G55, 2)
    e0code = dec5.minimal_ideal_code(0)
    assert (e0code.length, e0code.dim, e0code.min_distance()) == (25, 1, 25)
    for i in range(1, 7):
        c = dec5.minimal_ideal_code(i)
        assert (c.length, c.dim, c.min_distance()) == (25, 4, 10)
    dec3 = decompose_algebra(G33, 2)
    ideal = dec3.minimal_ideal_code(1)
    assert (ideal.length, ideal.dim) == (9, 2)
    # enumerate the four ideal elements directly as the distance oracle
    spec = dec3.spec
    e = dec3.idempotents[1]
    members = {tuple(e.scale(c).coeffs.tolist()) for c in range(2)}
    gen2 = dec3.lift(1, dec3.subfield_generator(1))
    full = set()
    for c1 in range(2):
        for c2 in range(2):
            x = e.scale(c1) + gen2.scale(c2)
            full.add(tuple(x.coeffs.tolist()))
    weights = sorted(sum(1 for v in t if v) for t in full)
    assert weights == [0, 6, 6, 6]
    assert ideal.min_distance() == 6


def test_ideal_weight_distribution_shape():
    dec = decompose_algebra(G55, 2)
    wd = dec.minimal_ideal_code(1).weight_distribution()
    assert wd[0] == 1 and int(wd.sum()) == 16
    assert next(i for i in range(1, 26) if wd[i]) == 10


def test_ideal_sum_code_dimensions():
    dec = decompose_algebra(G55, 2)
    idx = [dec.class_index(t) for t in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    for v in range(1, 5):
        c = dec.ideal_sum_code(idx[:v])
        assert c.dim == 4 * v
    assert dec.ideal_sum_code(idx).min_distance() == 4


def test_psi_matrix_rows_span_the_ideal():
    dec = decompose_algebra(G33, 2)
    for i in range(dec.class_count):
        rows = dec.psi_matrix(i)
        assert rows.shape == (dec.classes[i].size, 9)
        code = dec.minimal_ideal_code(i)
        for row in rows:
            assert code.contains(row)
