"""Cyclotomic classes, primitive idempotents, and the minimal-ideal maps."""

import random
import re
from pathlib import Path

import numpy as np
import pytest

import qacodes

from qacodes.algebra import (AbelianGroup, FieldElement, GroupAlgebraElement,
                             build_tower, convolve)
from qacodes.errors import InvariantError
from qacodes.idempotents import (SemisimpleDecomposition, character_idempotent,
                                 class_idempotent, cyclotomic_classes, decompose_algebra,
                                 idempotent_checks)

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


def test_class_index_rejects_members_outside_the_group():
    """A coordinate outside [0, order), or a wrong number of coordinates, is
    an error, not reduced: (5, 0) would otherwise be read as (0, 0) and
    (7, -2) as (2, 3)."""
    dec = decompose_algebra(G55, 2)
    for member in [(5, 0), (7, -2), (-1, 0), (1,), (1, 2, 0)]:
        with pytest.raises(ValueError, match=r"lies outside the group \[5, 5\]"):
            dec.class_index(member)
    with pytest.raises(ValueError, match="lies outside the group"):
        dec.class_index(AbelianGroup((7, 7)).element((6, 1)))


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


def test_ideal_sum_store_checks_class_indices():
    """Every reader of the ideal-sum store refuses a class index outside
    [0, class_count) with ValueError and stores nothing under it; a valid
    index reads the same code through each of them."""
    dec = decompose_algebra(G33, 2)
    last = dec.class_count - 1
    for bad in (-1, dec.class_count):
        for read in (lambda: dec.minimal_ideal_code(bad),
                     lambda: dec.ideal_sum_code([0, bad]),
                     lambda: dec.ideal_sum_distance([bad])):
            with pytest.raises(ValueError, match=f"class index {bad} lies outside"):
                read()
    assert all(0 <= i <= last for key in dec._sum_distances for i in key)
    code = dec.minimal_ideal_code(last)
    assert code == dec.ideal_sum_code([last])
    assert dec.ideal_sum_distance([last]) == code.min_distance()


def test_psi_matrix_rows_span_the_ideal():
    dec = decompose_algebra(G33, 2)
    for i in range(dec.class_count):
        rows = dec.psi_matrix(i)
        assert rows.shape == (dec.classes[i].size, 9)
        code = dec.minimal_ideal_code(i)
        for row in rows:
            assert code.contains(row)


@pytest.mark.parametrize("orders,q", [((5, 5), 2), ((3, 3), 4), ((2, 2), 3)])
def test_lift_vector_matches_lift_on_any_shape(orders, q):
    dec = decompose_algebra(AbelianGroup(orders), q)
    spec = dec.spec
    rng = np.random.default_rng(7)
    for i in range(dec.class_count):
        codes = spec.subfield_codes(dec.classes[i].size)
        for shape in ((4, 3), (2, 3, 2)):
            sample = rng.choice(codes, size=shape)
            got = dec.lift_vector(i, sample)
            assert got.shape == shape + (dec.group.size,)
            for idx in np.ndindex(*shape):
                want = dec.lift(i, FieldElement(spec, int(sample[idx])))
                assert got[idx].tolist() == want.coeffs.tolist()
    # codes out of range, and one outside F_q where the tower is larger
    outside = [c for c in range(spec.size) if not spec.vin_subfield(c, 1)][:1]
    for bad in [-1, spec.size] + outside:
        with pytest.raises(ValueError, match="class field"):
            dec.lift_vector(0, [[0, bad]])


def test_lift_internals_read_only_in_idempotents():
    """Every lift, flatten and power-basis use goes through the methods of
    SemisimpleDecomposition, so that the lift map exists once."""
    internal = re.compile(r"\._(power_basis|coords|psi_matrix)\b")
    readers = [path.name for path in Path(qacodes.__file__).parent.glob("*.py")
               if internal.search(path.read_text(encoding="utf-8"))]
    assert readers == ["idempotents.py"]


def _all_pairs_verdict(spec, group, stack) -> bool:
    """The oracle: every product e_i e_j of the stack, one convolution per
    pair, is e_i on the diagonal and 0 off it."""
    prods = convolve(spec, group, stack[:, None], stack[None])
    want = np.where(np.eye(len(stack), dtype=bool)[:, :, None], stack[:, None], 0)
    return bool(np.array_equal(prods, want))


def _corruptions(spec, stack, rng):
    """Seeded corruptions of a stack of idempotents, by name: some keep a
    set of orthogonal idempotents (a swap, a merge of two classes, a zeroed
    class), the others break it."""
    c, size = stack.shape
    i, j = rng.sample(range(c), 2)
    out = {}
    swapped = stack.copy()
    swapped[[i, j]] = stack[[j, i]]
    out["swap"] = swapped
    merged = stack.copy()
    merged[i], merged[j] = spec.vadd(stack[i], stack[j]), 0
    out["merge"] = merged
    added = stack.copy()
    added[i] = spec.vadd(stack[i], stack[j])
    out["add"] = added
    zeroed = stack.copy()
    zeroed[i] = 0
    out["zero"] = zeroed
    monomial = stack.copy()
    k = rng.randrange(size)
    monomial[i, k] = spec.vadd(stack[i, k], 1)  # plus the monomial at element k
    out["monomial"] = monomial
    noise = stack.copy()
    noise[i] = [rng.choice(spec.subfield_codes(1)) for _ in range(size)]
    out["noise"] = noise
    return out


@pytest.mark.parametrize("q, orders", [(2, (3, 3)), (4, (3, 3)), (2, (7, 7)), (8, (63,))])
def test_idempotent_checks_agree_with_the_all_pairs_oracle(q, orders):
    """The per-class rule (each e_i against the sum of the later classes)
    gives the verdict of every pairwise product, on the decomposition's
    idempotents and on seeded corruptions of them, alone and as the second
    coordinate of a module stack."""
    dec = decompose_algebra(AbelianGroup(orders), q)
    spec, group = dec.spec, dec.group
    stack = np.stack([e.coeffs for e in dec.idempotents])
    rng = random.Random(f"{q} {orders}")
    cases = {"none": stack, **_corruptions(spec, stack, rng)}
    verdicts = {}
    for name, corrupt in cases.items():
        idempotent, orthogonal, total = idempotent_checks(spec, group, corrupt)
        verdicts[name] = bool(idempotent.all() and orthogonal.all())
        assert verdicts[name] == _all_pairs_verdict(spec, group, corrupt), name
        assert np.array_equal(total, spec.vsum(corrupt, axis=0)), name
        module = np.stack([stack, corrupt], axis=1)
        idempotent, orthogonal, _ = idempotent_checks(spec, group, module)
        assert bool(idempotent.all() and orthogonal.all()) == verdicts[name], name
    assert verdicts["none"] and verdicts["swap"] and verdicts["merge"] and verdicts["zero"]
    assert not (verdicts["add"] or verdicts["monomial"] or verdicts["noise"])


@pytest.mark.parametrize("i, j", [(1, 2), (0, 3)])
def test_validate_names_the_class_that_is_not_orthogonal(i, j):
    """e_i + e_j is still idempotent, but it is not orthogonal to e_j, one
    of the later classes: validation fails at class i."""
    dec = SemisimpleDecomposition(G33, 2)
    assert all(holds for _, _, holds in dec.identities)
    es = dec.idempotents
    es[i] = es[i] + es[j]
    with pytest.raises(InvariantError,
                       match=f"^orthogonality fails for class {i} and the later classes$"):
        dec._validate()
