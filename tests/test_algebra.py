"""Field, group, character and group-algebra arithmetic."""

import functools
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qacodes
from qacodes.algebra import (AbelianGroup, FieldSpec, GroupAlgebraElement,
                             build_tower, character, character_table, convolve,
                             default_modulus, is_irreducible, multiplicative_order,
                             prime_power, subfield_trace)
from qacodes.diagnostics import field_axiom_checks

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
    with pytest.raises(ZeroDivisionError):
        a / spec.zero
    # Frobenius exponents past int64: q^64 = q^(64 mod 4) on F_16
    assert a.frobenius(64) == a and a.frobenius(65) == a ** 2


def test_powers_past_int64():
    """An exponent of any size: a nonzero base takes it mod |K| - 1, and
    zero only its sign (0**0 = 1, no inverse of zero)."""
    spec = FieldSpec(2, 4)
    a = spec.element(2)
    for e in (2 ** 63, -(2 ** 63), 2 ** 64 + 1):
        assert a ** e == a ** (e % 15)
    assert a ** (2 ** 64 + 1) == a ** 2
    assert spec.zero ** 2 ** 63 == spec.zero
    assert spec.zero ** 0 == spec.one
    with pytest.raises(ZeroDivisionError):
        spec.zero ** -(2 ** 63)
    one = FieldSpec(2, 1).one
    assert one ** 2 ** 70 == one


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
    fixed = [c for c in range(spec.size) if _pow(spec, c, spec.q) == c]
    assert fixed == [0, 1]
    spec9 = FieldSpec(3, 2)
    fixed = [c for c in range(spec9.size) if _pow(spec9, c, spec9.q) == c]
    assert fixed == [0, 1, 2]


def test_pair_table_and_fallback_paths_agree():
    fast = FieldSpec(2, 4, pair_tables=True)
    slow = FieldSpec(2, 4, pair_tables=False)
    A = np.arange(16, dtype=np.int32)
    assert np.array_equal(fast.vadd(A[:, None], A), slow.vadd(A[:, None], A))
    assert np.array_equal(fast.vmul(A[:, None], A), slow.vmul(A[:, None], A))
    assert np.array_equal(fast.vadd(A, A[::-1]), slow.vadd(A, A[::-1]))
    assert np.array_equal(fast.vmul(A, A[::-1]), slow.vmul(A, A[::-1]))
    assert np.array_equal(fast.vmul(7, A), slow.vmul(7, A))
    M = A.reshape(4, 4)
    assert np.array_equal(fast.vdot(M, M[::-1]), slow.vdot(M, M[::-1]))
    assert np.array_equal(fast.vsum(M, 0), slow.vsum(M, 0))
    # the whole pair tables, at the largest default size and over odd primes
    for q, degree in [(2, 10), (3, 6), (31, 2)]:
        fast = FieldSpec(q, degree, pair_tables=True)
        slow = FieldSpec(q, degree, pair_tables=False)
        A = np.arange(fast.size, dtype=np.int32)
        assert np.array_equal(fast._add, slow.vadd(A[:, None], A))
        assert np.array_equal(fast._mul, slow.vmul(A[:, None], A))


def test_pair_tables_peak_memory():
    """The 1024 x 1024 pair tables of F_1024 (8 MB kept) are built without a
    size x size x n temporary of digits."""
    tracemalloc.start()
    try:
        FieldSpec(2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


# scalar references for the array primitives: Python loops over vadd and
# vmul on one code at a time
def _add(spec, a, b):
    return int(spec.vadd(a, b))


def _mul(spec, a, b):
    return int(spec.vmul(a, b))


def _pow(spec, a, e):
    """a**e (e >= 0) by square-and-multiply, with 0**0 = 1."""
    out = 1
    while e:
        if e & 1:
            out = _mul(spec, out, a)
        a = _mul(spec, a, a)
        e >>= 1
    return out


def _ref_sum(spec, values):
    return functools.reduce(functools.partial(_add, spec), (int(v) for v in values), 0)


def _ref_pow(spec, A, e):
    A, e = np.broadcast_arrays(A, e)
    return np.array([_pow(spec, int(a), int(x)) for a, x in zip(A.ravel(), e.ravel())],
                    dtype=np.int32).reshape(A.shape)


def _ref_trace(spec, A, k):
    return np.array([_ref_sum(spec, [_pow(spec, int(a), spec.q ** j) for j in range(k)])
                     for a in A.ravel()], dtype=np.int32).reshape(A.shape)


def _ref_dot(spec, A, B):
    """Matmul shapes: a 1-d operand gains an axis that the result drops."""
    a = A[None] if A.ndim == 1 else A
    b = B[:, None] if B.ndim == 1 else B
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.int32)
    for idx in np.ndindex(out.shape):
        row, col = a[idx[:-1]], b[idx[:-2] + (slice(None), idx[-1])]
        out[idx] = _ref_sum(spec, [_mul(spec, int(x), int(y)) for x, y in zip(row, col)])
    if B.ndim == 1:
        out = out[..., 0]
    if A.ndim == 1:
        out = out[..., 0, :] if B.ndim > 1 else out[..., 0]
    return out


# (field, the codes operands are drawn from, trace degree)
_PRIMITIVE_CASES = {
    "F16-tables": (FieldSpec(2, 4, pair_tables=True), None, 4),
    "F16-digits": (FieldSpec(2, 4, pair_tables=False), None, 4),
    "F81": (FieldSpec(3, 4), None, 4),
    "F2048": (FieldSpec(2, 11), None, 11),
    "F121": (FieldSpec(11, 2), None, 2),
    "F16-in-F256-over-F4": (FieldSpec(4, 4), 2, 2),
}


@pytest.mark.parametrize("case", list(_PRIMITIVE_CASES))
def test_array_primitives_match_scalar_loops(case):
    spec, subfield, k = _PRIMITIVE_CASES[case]
    pool = spec.subfield_codes(subfield) if subfield else np.arange(spec.size)
    rng = np.random.default_rng(len(case) * 1000 + spec.size)

    def draw(*shape):
        return pool[rng.integers(len(pool), size=shape)].astype(np.int32)

    operands = [draw(), draw(5), draw(3, 4), draw(2, 3, 4)]
    operands[1][0] = 0  # zero takes the special branch of every primitive
    for A in operands:
        for e in (0, 1, 2, spec.q, spec.size, 7 * spec.size - 3):
            assert np.array_equal(spec.vpow(A, e), _ref_pow(spec, A, e))
        exps = rng.integers(0, 3 * spec.size, size=A.shape[-1:] if A.ndim else ())
        assert np.array_equal(spec.vpow(A, exps), _ref_pow(spec, A, exps))
        assert np.array_equal(spec.vtrace(A, k), _ref_trace(spec, A, k))
        for axis in range(-A.ndim, A.ndim):
            want = np.apply_along_axis(lambda v: _ref_sum(spec, v), axis, A)
            assert np.array_equal(spec.vsum(A, axis), want)
    nonzero = operands[3][operands[3] != 0]
    assert np.array_equal(spec.vpow(nonzero, -1), _ref_pow(spec, nonzero, spec.size - 2))
    with pytest.raises(ZeroDivisionError):
        spec.vpow(operands[1], -1)
    assert spec.vsum(np.zeros((3, 0), dtype=np.int32)).tolist() == [0, 0, 0]
    with pytest.raises(np.exceptions.AxisError):
        spec.vsum(operands[0])

    v, w, M, T = draw(4), draw(4), draw(3, 4), draw(2, 4, 3)
    for A, B in [(v, w), (v, M.T), (M, w), (M, M.T), (T, M), (T, T.transpose(0, 2, 1)),
                 (M[None], T), (draw(4, 0), draw(0, 3))]:
        got, want = spec.vdot(A, B), _ref_dot(spec, A, B)
        assert got.shape == want.shape == np.matmul(A, B).shape
        assert np.array_equal(got, want)
    for A, B in [(operands[0], v), (v, operands[0]), (M, M), (draw(3, 1), draw(4, 2))]:
        with pytest.raises(ValueError):
            spec.vdot(A, B)


def _oracle_dot(spec, A, B):
    """vdot's result as the vsum of the vmul products, all at once."""
    a = A[None] if A.ndim == 1 else A
    b = B[:, None] if B.ndim == 1 else B
    out = spec.vsum(spec.vmul(a[..., :, None], b[..., None, :, :]), axis=-2)
    return out.reshape(out.shape[:-2] + out.shape[-2:-1] * (A.ndim > 1)
                       + out.shape[-1:] * (B.ndim > 1))


@pytest.mark.parametrize("q, tower", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 4), (3, 4)])
def test_vdot_on_prime_codes_is_an_integer_matmul(q, tower, monkeypatch):
    """Operands whose codes all lie in [0, p), the prime field in any
    tower, are multiplied as integers mod p with no vmul or vsum: equal to
    the vsum(vmul) oracle on 1-d operands, broadcast stacks and an empty
    summed axis.  Mixed operands, one of them holding an element outside
    the prime field, take the table path and still equal the oracle."""
    spec = FieldSpec(q, tower)
    p = spec.p
    rng = np.random.default_rng(q * 10 + tower)

    def draw(*shape):
        return rng.integers(0, p, shape).astype(np.int32)

    v, w, M, T, U = draw(6), draw(6), draw(4, 6), draw(3, 6, 5), draw(2, 5, 4)
    cases = [(v, w), (v, M.T), (M, w), (M, M.T), (T[:, None], U[None]), (M[None], T),
             (draw(4, 0), draw(0, 3)), (draw(2, 0, 6), M.T)]
    wants = [_oracle_dot(spec, A, B) for A, B in cases]
    with monkeypatch.context() as m:
        for op in ("vmul", "vsum", "vadd"):
            m.setattr(spec, op, None)
        for (A, B), want in zip(cases, wants):
            got = spec.vdot(A, B)
            assert got.dtype == np.int32 and got.shape == want.shape == np.matmul(A, B).shape
            assert np.array_equal(got, want)
    if tower > 1:
        X = M.copy()
        X[1, 2] = p + 1  # x + 1, outside the prime field
        for A, B in [(X, M.T), (M, X.T), (X[0], M.T), (T, X[..., :5].T)]:
            assert np.array_equal(spec.vdot(A, B), _oracle_dot(spec, A, B))


def _mulmod(a, b, modulus, p):
    """Schoolbook product of two coefficient lists (lowest degree first),
    reduced by long division modulo the monic modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    n = len(modulus) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        for j in range(n + 1):
            prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
    return prod[:n]


def _monic_polys(p, n):
    """Every monic polynomial of degree n over F_p, as coefficient tuples."""
    return [tuple(low // p ** j % p for j in range(n)) + (1,) for low in range(p ** n)]


@pytest.mark.parametrize("q,t,modulus", [
    pytest.param(q, t, None, id=f"{q}-{t}")
    for q, t in [(2, 4), (3, 4), (2, 11), (11, 2), (257, 2)]
] + [pytest.param(2, 4, (1, 1, 1, 1, 1), id="2-4-nonprimitive")])
def test_exp_table_is_the_power_chain_of_the_generator(q, t, modulus):
    spec = FieldSpec(q, t, modulus=modulus, pair_tables=False)
    if modulus is not None:
        assert spec.generator != 2  # x has order 5 in x^4 + x^3 + x^2 + x + 1
    gen = list(spec.element(spec.generator).coeffs)
    power = [1] + [0] * (spec.n - 1)
    for i in range(spec.size - 1):
        assert spec._exp[i] == spec.from_coeffs(power).code
        power = _mulmod(power, gen, spec.modulus, spec.p)
    assert power == [1] + [0] * (spec.n - 1)
    assert sorted(spec._exp.tolist()) == list(range(1, spec.size))
    assert (spec._exp[spec._log[1:]] == np.arange(1, spec.size)).all()


def test_is_irreducible_matches_trial_division():
    for p, top in [(2, 8), (3, 5), (5, 3), (7, 2)]:
        for n in range(1, top + 1):
            divisors = [d for k in range(1, n // 2 + 1) for d in _monic_polys(p, k)]
            for f in _monic_polys(p, n):
                # d | f exactly when f is zero modulo d (f * 1 reduced mod d)
                want = not any(not any(_mulmod(list(f), [1], d, p)) for d in divisors)
                assert is_irreducible(f, p) == want, (p, f)


@pytest.mark.parametrize("q,t", [(2, 4), (2, 6), (3, 4), (7, 2)])
def test_xi_is_the_first_power_of_the_generator_of_its_order(q, t):
    N = q ** t - 1
    for root_order in [r for r in range(1, N + 1) if N % r == 0]:
        spec = FieldSpec(q, t, root_order=root_order)
        e = next(e for e in range(N) if N // math.gcd(e, N) == root_order)
        assert spec.xi_code == _pow(spec, spec.generator, e)
        assert spec.xi.multiplicative_order() == root_order


@pytest.mark.parametrize("q,t", [(257, 1), (257, 2)])
def test_fields_past_byte_sized_digits(q, t):
    # a digit sum 2(p - 1) no longer fits in a byte
    spec = FieldSpec(q, t)
    # the smallest code of full order: 3 is the least primitive root mod 257,
    # and in F_257^2 no constant has order 257^2 - 1, so x (code 257) is first
    assert spec.generator == {1: 3, 2: 257}[t]
    assert all(ok for _, ok, _ in field_axiom_checks(spec, random.Random(q * t)))
    A = np.arange(spec.size)
    assert not spec.vadd(spec.vneg(A), A).any()
    assert spec.vsum(np.ones(spec.p, dtype=np.int32)) == 0  # p copies of 1


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
            c = _mul(spec, int(x.coeffs[u.index]), int(y.coeffs[v.index]))
            out[w.index] = _add(spec, out.get(w.index, 0), c)
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


def _python_product(spec, group, a, b):
    """Sum over g of a[g] * b[h - g] for each h, one coefficient at a time."""
    out = []
    for h in group.elements:
        total = 0
        for g in group.elements:
            total = _add(spec, total, _mul(spec, int(a[g.index]), int(b[(h - g).index])))
        out.append(total)
    return out


@pytest.mark.parametrize("orders", [(3, 3), (2, 2), (5,), (4, 2)])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_convolve_against_python_sum(q, orders):
    group = AbelianGroup(orders)
    spec = FieldSpec(q, 2)  # the product needs no roots of unity
    n = group.size
    rng = np.random.default_rng(q * 100 + n)
    a = rng.integers(spec.size, size=(4, n))
    b = rng.integers(spec.size, size=(4, n))
    got = convolve(spec, group, a, b)
    assert got.shape == (4, n)
    for s in range(4):
        assert got[s].tolist() == _python_product(spec, group, a[s], b[s])
        x, y = (GroupAlgebraElement(group, spec, v[s]) for v in (a, b))
        assert (x * y).coeffs.tolist() == got[s].tolist()
    # an (s, t, n) stack against a (t, n) one and against one element
    a3 = rng.integers(spec.size, size=(2, 3, n))
    got3 = convolve(spec, group, a3, b[:3])
    assert got3.shape == (2, 3, n)
    by_one = convolve(spec, group, a3, b[3])
    for s, t in itertools.product(range(2), range(3)):
        assert got3[s, t].tolist() == _python_product(spec, group, a3[s, t], b[t])
        assert by_one[s, t].tolist() == _python_product(spec, group, a3[s, t], b[3])
    with pytest.raises(ValueError, match="coefficients"):
        convolve(spec, group, a[:, :-1], b)


@pytest.mark.parametrize("q, orders", [(2, (3, 3)), (2, (5,)), (3, (2, 2)), (3, (5,)),
                                       (3, (4, 2)), (4, (3, 3)), (4, (5,))])
def test_character_table_against_python_exponents(q, orders):
    group = AbelianGroup(orders)
    spec = build_tower(q, group)
    table = character_table(group, spec)
    M = group.exponent
    for a in group.elements:
        for h in group.elements:
            e = sum(ai * hi * (M // m) for ai, hi, m in zip(a.coords, h.coords, orders))
            want = _pow(spec, spec.xi_code, e)
            assert int(table[a.index, h.index]) == want
            assert character(a, h, spec).code == want
    with pytest.raises(ValueError, match="root order"):
        character_table(group, FieldSpec(q, spec.tower_degree))


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
    assert spec.vdegree([g, 1]).tolist() == [tower, 1]
    basis = [_pow(spec, g, j) for j in range(tower)]
    table = spec.basis_coordinates(basis)
    assert set(table.ravel().tolist()) <= set(spec.subfield_codes(1).tolist())
    for c in range(spec.size):
        acc = 0
        for coef, b in zip(table[c].tolist(), basis):
            acc = _add(spec, acc, _mul(spec, coef, b))
        assert acc == c
    # a subspace: its elements have coordinates, the others -1s
    part = spec.basis_coordinates(basis[:1])
    assert np.flatnonzero(part[:, 0] >= 0).tolist() == spec.subfield_codes(1).tolist()
    assert (part[[c for c in range(spec.size) if part[c, 0] < 0]] == -1).all()
    assert spec.basis_coordinates([1, g, _add(spec, 1, g)]) is None  # dependent


@pytest.mark.parametrize("q,tower", [(2, 4), (4, 2), (3, 4), (11, 2), (2, 11)])
def test_vdegree_is_the_least_frobenius_period(q, tower):
    # the least k with A^(q^k) = A, by repeated q-th powers
    spec = FieldSpec(q, tower)
    A = np.arange(spec.size)
    want = np.zeros(spec.size, dtype=np.int64)
    power = A
    for k in range(1, tower + 1):
        power = spec.vpow(power, q)
        want[(want == 0) & (power == A)] = k
    assert want[0] == 1 and (want > 0).all()
    assert np.array_equal(spec.vdegree(A), want)
    assert spec.vdegree(A.reshape(-1, q)).tolist() == want.reshape(-1, q).tolist()
    assert int(spec.vdegree(spec.generator)) == tower


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


def test_element_grammar_refuses_what_is_not_an_element():
    """Only n ASCII digits below p (p <= 10) or n comma-separated decimal
    numbers below p with no leading zero are elements; nothing is stripped,
    signed, underscored or read as a non-ASCII digit."""
    f16 = FieldSpec(2, 4)
    for s in (" 0110", "0110 ", "0,1, 1,0", "+1,0,0,0", "١٠٠٠",
              "0_1,1,0,0", "0110\x00", "0\x00110", "0,,1,1", "00,1,1,0", "0,1,1,0,"):
        with pytest.raises(ValueError) as info:
            f16.from_string(s)
        assert str(info.value) == (f"element string {s!r} is malformed: write ASCII "
                                   "digits below 2, with or without commas between them")
    assert f16.from_string("0,1,1,0").code == f16.from_string("0110").code == 6
    f169 = FieldSpec(13, 2)
    for s in ("12, 0", "12,-0", " 12,0", "012,0", "12,0_0", "", ",", "1,,2"):
        with pytest.raises(ValueError) as info:
            f169.from_string(s)
        assert str(info.value) == (f"element string {s!r} is malformed: write comma-"
                                   "separated decimal numbers below 13 with no leading zero")
    assert f169.from_string("12,0").code == 12 and f169.from_string("0,1").code == 13
    with pytest.raises(ValueError, match="has 1 digits"):
        f169.from_string("120")
    with pytest.raises(ValueError, match="out of range for characteristic 13"):
        f169.from_string("13,0")


def _text_oracle(spec, code):
    digits = [str(code // spec.p ** j % spec.p) for j in range(spec.n)]
    return ("," if spec.p > 10 else "").join(digits)


@pytest.mark.parametrize("spec", [
    FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(4, 1), FieldSpec(3, 2), FieldSpec(2, 4),
    FieldSpec(4, 2, modulus=(1, 0, 0, 1, 1)), FieldSpec(13, 1), FieldSpec(11, 2),
    FieldSpec(2, 11, pair_tables=False)], ids=repr)
def test_element_text_codec_matches_digit_oracle(spec):
    """to_text spells out the base-p digits of every code, from_text reads
    them back, in any shape, and a refused array names its first bad string
    with the message that string gets alone."""
    rng = np.random.default_rng(spec.size)
    codes = rng.permutation(spec.size)
    oracle = np.array([_text_oracle(spec, int(c)) for c in codes], dtype=object)
    p = spec.p
    for shape in [(0,), (2, 0, 3), (spec.size,), (spec.size // p, p), (p, 1, spec.size // p)]:
        C = codes[:math.prod(shape)].reshape(shape)
        text = spec.to_text(C)
        assert text == oracle[:C.size].reshape(shape).tolist()
        back = spec.from_text(text)
        # nested lists keep no axis after an empty one
        assert back.shape == np.shape(text) and np.array_equal(back.reshape(shape), C)
    assert spec.to_text(codes[0]) == spec.element_str(int(codes[0])) == oracle[0]
    assert spec.from_text(oracle[0]) == spec.from_string(oracle[0]).code == codes[0]
    one = oracle[1]
    sep = "," if p > 10 else ""
    bad = [" " + one, one + " ", "+" + one, one[:-1], one + sep + "0", sep.join([str(p)] * spec.n),
           "٠" + one[1:], "", one + "\x00"]
    for s in bad:
        with pytest.raises(ValueError) as alone:
            spec.from_string(s)
        text = oracle.reshape(-1, p).copy()
        at = rng.integers(text.size - 1)
        text.flat[at] = s
        text.flat[at + 1:] = "?"  # more bad strings, later in row-major order
        with pytest.raises(ValueError) as info:
            spec.from_text(text.tolist())
        assert str(info.value) == str(alone.value)


def test_field_bootstrap_is_one_companion_matrix():
    """The field is built from the companion matrix of its modulus alone:
    no list-polynomial arithmetic is left, and the matrix helpers stay in
    algebra.py."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(qacodes.__file__).parent.glob("*.py")}
    assert not [name for name, text in sources.items()
                if re.search(r"_poly_|_raw_mul|_raw_pow", text)]
    assert [name for name, text in sorted(sources.items())
            if re.search(r"_(companion|mat_pow)\b", text)] == ["algebra.py"]


def test_field_arithmetic_is_the_array_ops():
    """FieldSpec has no scalar twins of its array ops, and nothing in the
    package calls them: FieldElement is the one scalar interface."""
    names = ("add", "neg", "sub", "mul", "inv", "pow_", "frob", "element_order",
             "exact_degree", "in_subfield")
    assert [name for name in names if hasattr(FieldSpec, name)] == []
    call = re.compile(r"\bspec\.(" + "|".join(names) + r")\(")
    assert [path.name for path in Path(qacodes.__file__).parent.glob("*.py")
            if call.search(path.read_text(encoding="utf-8"))] == []
