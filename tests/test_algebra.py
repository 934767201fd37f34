"""Field, group, character and group-algebra arithmetic."""

import random

import numpy as np
import pytest

from qacodes.algebra import (AbelianGroup, FieldSpec, GroupAlgebraElement,
                             build_tower, character, default_modulus,
                             is_irreducible, multiplicative_order, prime_power,
                             subfield_trace)

def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        prime_power(6)
    with pytest.raises(ValueError):
        prime_power(1)


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(4, 3) == 1
    assert multiplicative_order(3, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def test_default_modulus_anchors():
    # the F_16 presentation must satisfy x^4 = x + 1
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(2, 1) == (1, 1)
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 1) == (1, 1)
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 4), (5, 2)]:
        mod = default_modulus(p, n)
        assert len(mod) == n + 1 and mod[-1] == 1
        assert is_irreducible(mod, p)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 0, 1))   # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 1))      # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(2, 2, root_order=5)        # 5 does not divide 3


def test_field_scalar_arithmetic_f16():
    spec = FieldSpec(2, 4, root_order=5)
    a = spec.from_string("0100")
    assert str(a ** 4) == str(a + spec.one) == "1100"
    assert str(a ** 7) == "1101"
    assert str(a ** 12) == "1111"
    assert (a ** 15) == spec.one
    assert a.multiplicative_order() == 15
    # designated fifth root of unity is g^3 = x^3
    assert spec.xi == a ** 3
    assert spec.xi.multiplicative_order() == 5
    with pytest.raises(ZeroDivisionError):
        spec.zero.inverse()


@pytest.mark.parametrize("q,t", [(2, 4), (3, 2), (4, 1), (2, 1), (5, 2)])
def test_field_axioms_random(q, t):
    spec = FieldSpec(q, t)
    rng = random.Random(q * 100 + t)
    for _ in range(200):
        a, b, c = (spec.element(rng.randrange(spec.size)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a.code:
            assert a * a.inverse() == spec.one
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_frobenius_fixes_base_field_exactly():
    spec = FieldSpec(2, 4)
    fixed = [c for c in range(spec.size) if spec.frob(c) == c]
    assert fixed == [0, 1]
    spec9 = FieldSpec(3, 2)
    fixed = [c for c in range(spec9.size) if spec9.frob(c) == c]
    assert fixed == [0, 1, 2]


def test_pair_table_and_fallback_paths_agree():
    fast = FieldSpec(2, 4, pair_tables=True)
    slow = FieldSpec(2, 4, pair_tables=False)
    for a in range(16):
        for b in range(16):
            assert fast.add(a, b) == slow.add(a, b)
            assert fast.mul(a, b) == slow.mul(a, b)
    A = np.arange(16, dtype=np.int32)
    assert np.array_equal(fast.vadd(A, A[::-1]), slow.vadd(A, A[::-1]))
    assert np.array_equal(fast.vmul(A, A[::-1]), slow.vmul(A, A[::-1]))
    assert np.array_equal(fast.vscale(7, A), slow.vscale(7, A))


def test_subfield_membership():
    spec = FieldSpec(2, 4)
    f4 = spec.subfield_codes(2)
    assert list(f4) == [0, 1, 6, 7]
    assert list(spec.subfield_codes(1)) == [0, 1]
    assert list(spec.subfield_codes(4)) == list(range(16))
    with pytest.raises(ValueError):
        spec.subfield_codes(3)
    # q = 4 base: the whole field is the base field
    spec4 = FieldSpec(4, 1)
    assert list(spec4.subfield_codes(1)) == [0, 1, 2, 3]


def test_subfield_trace_examples():
    # F_4 over F_2: tr(xi) = xi + xi^2 = 1
    spec = FieldSpec(2, 2, root_order=3)
    assert subfield_trace(spec.xi, 2) == spec.one
    assert subfield_trace(spec.zero, 2) == spec.zero
    assert subfield_trace(spec.one, 2) == spec.zero  # 2*1 = 0 in char 2
    # F_16 over F_2 with a^4 = a + 1: tr(a) = a + a^2 + a^4 + a^8 = 0
    s16 = FieldSpec(2, 4)
    a = s16.from_string("0100")
    assert subfield_trace(a, 4) == s16.zero
    manual = a + a ** 2 + a ** 4 + a ** 8
    assert manual == s16.zero
    # trace of an element not in the claimed subfield is rejected
    with pytest.raises(ValueError):
        subfield_trace(a, 2)
    # linearity over random samples
    rng = random.Random(7)
    for _ in range(50):
        x = s16.element(rng.randrange(16))
        y = s16.element(rng.randrange(16))
        assert subfield_trace(x + y, 4) == subfield_trace(x, 4) + subfield_trace(y, 4)


def test_trace_of_one_counts_degree():
    s9 = FieldSpec(3, 2)
    assert subfield_trace(s9.one, 2).code == 2  # 2*1 in F_3


def test_group_ordering_and_ops():
    g = AbelianGroup((3, 3))
    assert g.size == 9 and g.exponent == 3
    coords = [e.coords for e in g.elements]
    assert coords[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    a = g.element((1, 2))
    b = g.element((2, 2))
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (2, 1)
    assert (2 * a).coords == (2, 1)
    assert g.element((4, -1)).coords == (1, 2)
    assert a.index == 1 * 3 + 2
    assert g.element((0, 0)).order() == 1 and a.order() == 3
    mixed = AbelianGroup((2, 3))
    assert mixed.exponent == 6 and mixed.size == 6
    with pytest.raises(ValueError):
        AbelianGroup(())
    with pytest.raises(ValueError):
        AbelianGroup((0, 3))


def test_build_tower_examples():
    g33 = AbelianGroup((3, 3))
    t = build_tower(2, g33)
    assert (t.tower_degree, t.root_order) == (2, 3)
    g55 = AbelianGroup((5, 5))
    t = build_tower(2, g55)
    assert (t.tower_degree, t.root_order) == (4, 5)
    assert t.modulus == (1, 1, 0, 0, 1)
    t1 = build_tower(2, AbelianGroup((1,)))
    assert (t1.tower_degree, t1.root_order) == (1, 1)
    assert t1.xi_code == 1
    with pytest.raises(ValueError, match="non-semisimple"):
        build_tower(2, AbelianGroup((2, 2)))
    with pytest.raises(ValueError, match="non-semisimple"):
        build_tower(4, AbelianGroup((6,)))


def test_character_examples():
    c3 = AbelianGroup((3,))
    spec = build_tower(2, c3)
    one, xi = spec.one, spec.xi
    assert character(c3.element((1,)), c3.element((1,)), spec) == xi
    for h in c3.elements:
        assert character(c3.zero, h, spec) == one
    g = AbelianGroup((3, 3))
    s = build_tower(2, g)
    rng = random.Random(11)
    for _ in range(100):
        a, h, hp = (g.elements[rng.randrange(9)] for _ in range(3))
        assert character(a, h + hp, s) == character(a, h, s) * character(a, hp, s)
        assert character(a + hp, h, s) == character(a, h, s) * character(hp, h, s)


def test_character_orthogonality():
    g = AbelianGroup((3, 3))
    s = build_tower(2, g)
    for a in g.elements:
        total = s.zero
        for h in g.elements:
            total = total + character(a, h, s)
        if a.index == 0:
            assert total.code == g.size % s.p
        else:
            assert total == s.zero
    # mismatch between group exponent and the field's root order is rejected
    with pytest.raises(ValueError):
        character(g.zero, g.zero, FieldSpec(2, 4, root_order=5))


def _naive_convolution(x, y):
    g, spec = x.group, x.spec
    out = {}
    for u in g.elements:
        for v in g.elements:
            w = u + v
            c = spec.mul(int(x.coeffs[u.index]), int(y.coeffs[v.index]))
            out[w.index] = spec.add(out.get(w.index, 0), c)
    coeffs = np.zeros(g.size, dtype=np.int32)
    for i, c in out.items():
        coeffs[i] = c
    return GroupAlgebraElement(g, spec, coeffs)


def test_group_algebra_examples():
    g = AbelianGroup((3, 3))
    spec = build_tower(2, g)
    one = GroupAlgebraElement.one(g, spec)
    y10 = GroupAlgebraElement.monomial(g, spec, g.element((1, 0)))
    y01 = GroupAlgebraElement.monomial(g, spec, g.element((0, 1)))
    assert y10 * one == y10
    assert y10 * y01 == GroupAlgebraElement.monomial(g, spec, g.element((1, 1)))
    # cross terms cancel in characteristic 2
    s = y10 + y01
    sq = s * s
    want = (GroupAlgebraElement.monomial(g, spec, g.element((2, 0)))
            + GroupAlgebraElement.monomial(g, spec, g.element((0, 2))))
    assert sq == want
    assert s ** 2 == sq
    assert y10.translate(g.element((0, 1))) == y10 * y01


def test_group_algebra_against_naive_convolution():
    g = AbelianGroup((3, 3))
    spec = build_tower(2, g)
    rng = random.Random(3)
    for _ in range(20):
        x = GroupAlgebraElement(g, spec, [rng.randrange(spec.size) for _ in range(9)])
        y = GroupAlgebraElement(g, spec, [rng.randrange(spec.size) for _ in range(9)])
        assert x * y == _naive_convolution(x, y)
        assert x * y == y * x
        assert (x + y) * x == x * x + y * x


def test_group_algebra_mismatch_errors():
    g = AbelianGroup((3, 3))
    h = AbelianGroup((5, 5))
    sg, sh = build_tower(2, g), build_tower(2, h)
    a = GroupAlgebraElement.one(g, sg)
    b = GroupAlgebraElement.one(h, sh)
    with pytest.raises(ValueError):
        a + b  # noqa: B018
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("q,tower", [(2, 4), (4, 2), (3, 2)])
def test_basis_coordinates_and_exact_degree(q, tower):
    spec = FieldSpec(q, tower)
    g = spec.generator
    assert spec.exact_degree(g) == tower and spec.exact_degree(1) == 1
    basis = [spec.pow_(g, j) for j in range(tower)]
    table = spec.basis_coordinates(basis)
    assert set(table.ravel().tolist()) <= set(spec.subfield_codes(1).tolist())
    for c in range(spec.size):
        acc = 0
        for coef, b in zip(table[c].tolist(), basis):
            acc = spec.add(acc, spec.mul(coef, b))
        assert acc == c
    # a subspace: its elements have coordinates, the others -1s
    part = spec.basis_coordinates(basis[:1])
    assert np.flatnonzero(part[:, 0] >= 0).tolist() == spec.subfield_codes(1).tolist()
    assert (part[[c for c in range(spec.size) if part[c, 0] < 0]] == -1).all()
    assert spec.basis_coordinates([1, g, spec.add(1, g)]) is None  # dependent


def test_element_string_roundtrip():
    spec = FieldSpec(3, 2)
    for c in range(spec.size):
        s = spec.element_str(c)
        assert spec.from_string(s).code == c
    with pytest.raises(ValueError):
        spec.from_string("31")  # digit out of range for characteristic 3
    # exactly one digit per degree of the presentation, commas or not
    f16 = FieldSpec(2, 4)
    assert f16.from_string("0,1,1,0").code == f16.from_string("0110").code == 6
    for s in ("1", "011", "01100", "0,1"):
        with pytest.raises(ValueError, match="presentation needs 4"):
            f16.from_string(s)
    with pytest.raises(ValueError, match="presentation needs 2"):
        FieldSpec(4, 1).from_string("1")
