"""Quasi-abelian construction, constituent extraction, generic concatenation,
and the distance bound."""

import inspect
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from qacodes import concatenation, reference
from qacodes.algebra import AbelianGroup, GroupAlgebraElement
from qacodes.concatenation import (GCCScheme, QACode, block_idempotent, constituents_of,
                                   distance_bound, gcc_build, gcc_scheme_from_qa,
                                   is_qa, predict_params, qa_from_constituents,
                                   qa_from_descriptor, qa_to_descriptor,
                                   simple_scheme)
from qacodes.errors import CapExceededError
from qacodes.idempotents import SemisimpleDecomposition, decompose_algebra
from qacodes.linear_codes import CodeParams, LinearCode
from qacodes.reference import qa_27_6_12, qa_36_6_16, qa_50_12_18

G33 = AbelianGroup((3, 3))
G55 = AbelianGroup((5, 5))


@pytest.fixture(scope="module")
def instances():
    return {"27": qa_27_6_12(), "36": qa_36_6_16(), "50": qa_50_12_18()}


def test_zero_assignment_gives_zero_code():
    qa = qa_from_constituents(G33, 2, 3, {})
    assert qa.flattened.dim == 0
    dec = decompose_algebra(G33, 2)
    zero_outer = LinearCode(dec.spec.subfield(2), 3)
    qa2 = qa_from_constituents(G33, 2, 3, {(1, 0): zero_outer})
    assert qa2.flattened.dim == 0


def test_reference_parameters(instances):
    want = {"27": (27, 6, 12), "36": (36, 6, 16), "50": (50, 12, 18)}
    for key, qa in instances.items():
        p = qa.params()
        assert (p.length, p.dim, p.distance) == want[key]


def test_dimension_formula(instances):
    for qa in instances.values():
        dec = qa.decomposition
        expect = sum(dec.classes[i].size * c.dim for i, c in qa.assignment.items())
        assert qa.flattened.dim == expect == qa.dim


def test_module_closure(instances):
    for qa in instances.values():
        assert is_qa(qa.flattened, qa.group)


def test_is_qa_examples(instances):
    flat = instances["50"].flattened
    g = flat.gens.copy()
    g[:, [0, 30]] = g[:, [30, 0]]  # swap one coordinate pair across blocks
    broken = LinearCode(flat.field, 50, g)
    assert not is_qa(broken, G55)
    full = LinearCode(flat.field, 50, np.eye(50, dtype=int))
    assert is_qa(full, G55)
    with pytest.raises(ValueError):
        is_qa(LinearCode(flat.field, 24, np.eye(24, dtype=int)), G55)


def test_roundtrip_constituents(instances):
    for qa in instances.values():
        back = constituents_of(qa.flattened, qa.group)
        assert back == qa.constituents()


def test_constituents_of_rejects_non_module(instances):
    flat = instances["27"].flattened
    g = flat.gens.copy()
    g[0, 0] ^= 1
    bad = LinearCode(flat.field, 27, g)
    if not is_qa(bad, G33):
        with pytest.raises(ValueError, match="not closed"):
            constituents_of(bad, G33)


def test_constituents_of_zero_and_full_ideal_power():
    dec = decompose_algebra(G33, 2)
    zero = LinearCode(dec.spec.subfield(1), 18)
    assert constituents_of(zero, G33) == {}
    # (ideal)^l for one class projects onto the full outer space
    rows = np.zeros((4, 18), dtype=np.int32)
    psi = dec.psi_matrix(1)
    rows[0:2, 0:9] = psi
    rows[2:4, 9:18] = psi
    code = LinearCode(dec.spec.subfield(1), 18, rows)
    out = constituents_of(code, G33)
    rep = dec.classes[1].rep
    assert set(out) == {rep}
    assert out[rep].dim == 2 and out[rep].length == 2  # all of E^2


def test_member_key_twisting_matters():
    dec = decompose_algebra(G55, 2)
    spec = dec.spec
    a = spec.from_string("0100")
    f16 = spec.subfield(4)
    c1 = LinearCode(f16, 2, [[1, (a ** 7).code]])
    c2 = LinearCode(f16, 2, [[1, (a ** 12).code]])
    keyed_member = qa_from_constituents(G55, 2, 2, {(1, 0): c1, (1, 1): c1, (2, 4): c2})
    keyed_rep = qa_from_constituents(G55, 2, 2, {(1, 0): c1, (1, 1): c1, (1, 2): c2})
    assert keyed_member.params().distance == 18
    assert keyed_rep.params().distance == 16
    # supplying the twisted code at the representative reproduces the same code
    c2_tw = LinearCode(f16, 2, [[1, (a ** 6).code]])
    again = qa_from_constituents(G55, 2, 2, {(1, 0): c1, (1, 1): c1, (1, 2): c2_tw})
    assert again.flattened == keyed_member.flattened


def test_constituents_from_independently_built_spec():
    # codes built on a user-made field presentation (same modulus, no
    # designated root of unity) are accepted as constituents
    from qacodes.algebra import FieldSpec
    own = FieldSpec(2, 4)
    a = own.from_string("0100")
    f16 = own.subfield(4)
    c1 = LinearCode(f16, 2, [[1, (a ** 7).code]])
    c2 = LinearCode(f16, 2, [[1, (a ** 12).code]])
    qa = qa_from_constituents(G55, 2, 2, {(1, 0): c1, (1, 1): c1, (2, 4): c2})
    assert qa.params().distance == 18


def test_duplicate_class_keys_rejected():
    dec = decompose_algebra(G55, 2)
    f16 = dec.spec.subfield(4)
    c = LinearCode(f16, 2, [[1, 2]])
    with pytest.raises(ValueError, match="two constituents"):
        qa_from_constituents(G55, 2, 2, {(1, 2): c, (2, 4): c})


def test_member_keys_outside_the_group_rejected():
    """A key coordinate outside [0, order) is an error, not reduced modulo
    the order ((4, 7) would otherwise be read as the member (4, 2))."""
    f16 = decompose_algebra(G55, 2).spec.subfield(4)
    c = LinearCode(f16, 1, [[1]])
    assert qa_from_constituents(G55, 2, 1, {(4, 2): c}).dim == 4
    for key in [(4, 7), (-1, 0), (5, 0)]:
        with pytest.raises(ValueError, match=r"lies outside the group \[5, 5\]"):
            qa_from_constituents(G55, 2, 1, {key: c})


def test_wrong_field_or_length_rejected():
    dec = decompose_algebra(G55, 2)
    f2 = dec.spec.subfield(1)
    with pytest.raises(ValueError, match="degree"):
        qa_from_constituents(G55, 2, 2, {(1, 0): LinearCode(f2, 2, [[1, 1]])})
    f16 = dec.spec.subfield(4)
    with pytest.raises(ValueError, match="length"):
        qa_from_constituents(G55, 2, 2, {(1, 0): LinearCode(f16, 3, [[1, 2, 0]])})


def test_block_idempotent_identities():
    dec = decompose_algebra(G33, 2)
    ell = 3
    thetas = [block_idempotent(dec, i, ell) for i in range(dec.class_count)]
    one = GroupAlgebraElement.one(G33, dec.spec)
    zero = GroupAlgebraElement.zero(G33, dec.spec)
    for i, ti in enumerate(thetas):
        for j, tj in enumerate(thetas):
            prod = tuple(a * b for a, b in zip(ti, tj))
            assert prod == (ti if i == j else tuple(zero for _ in range(ell)))
    total = [zero] * ell
    for t in thetas:
        total = [a + b for a, b in zip(total, t)]
    assert all(c == one for c in total)


def test_projection_by_block_idempotent_equals_summand(instances):
    # multiplying every codeword by the repeated idempotent selects exactly
    # the corresponding concatenation summand
    qa = instances["27"]
    dec = qa.decomposition
    spec = dec.spec
    flat = qa.flattened
    ell, m = qa.index, 9
    for i, outer in qa.assignment.items():
        e = dec.idempotents[i]
        projected = set()
        for msg in itertools.product(range(2), repeat=flat.dim):
            w = np.zeros(27, dtype=np.int32)
            for c, row in zip(msg, flat.gens):
                if c:
                    w ^= row
            blocks = [GroupAlgebraElement(G33, spec, w[j * m:(j + 1) * m]) * e
                      for j in range(ell)]
            projected.add(tuple(int(v) for b in blocks for v in b.coeffs))
        summand = qa_from_constituents(G33, 2, ell, {i: outer})
        words = set()
        for msg in itertools.product(range(2), repeat=summand.flattened.dim):
            w = np.zeros(27, dtype=np.int32)
            for c, row in zip(msg, summand.flattened.gens):
                if c:
                    w ^= row
            words.add(tuple(int(v) for v in w))
        assert projected == words


def test_gcc_equals_qa_construction(instances):
    for qa in instances.values():
        scheme = gcc_scheme_from_qa(qa)
        assert gcc_build(scheme) == qa.flattened


def test_gcc_simple_concatenation_structure():
    from qacodes.algebra import FieldSpec
    f2 = FieldSpec(2, 1).subfield(1)
    inner = LinearCode(f2, 3, [[1, 1, 1]])
    outer = LinearCode(f2, 2, [[1, 0], [0, 1]])
    code = gcc_build(simple_scheme(inner, outer))
    assert (code.length, code.dim) == (6, 2)
    words = {tuple(r) for r in code.gens.tolist()}
    assert words == {(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)}


def test_gcc_rejects_basis_scalars_outside_the_outer_field():
    from qacodes.algebra import FieldSpec
    spec = FieldSpec(2, 4)
    inner = LinearCode(spec.subfield(1), 3, [[1, 0, 1], [0, 1, 1]])
    w = int(spec.subfield_codes(2)[2])  # an element of F_4 outside F_2
    outer = LinearCode(spec.subfield(2), 2, [[1, w]])
    assert gcc_build(simple_scheme(inner, outer)).dim == 2
    x = spec.from_string("0100").code  # independent of 1, but not in F_4
    for basis in ([1, x], [1, 1]):
        scheme = GCCScheme([inner], [inner.gens.copy()], [np.array(basis)], [outer])
        with pytest.raises(ValueError, match="not a basis of the outer field"):
            gcc_build(scheme)


def test_gcc_rejects_overlapping_inners():
    from qacodes.algebra import FieldSpec
    f2 = FieldSpec(2, 1).subfield(1)
    inner = LinearCode(f2, 3, [[1, 1, 0]])
    outer = LinearCode(f2, 2, [[1, 0]])
    s1 = simple_scheme(inner, outer)
    with pytest.raises(ValueError, match="intersect"):
        GCCScheme(s1.inners * 2, [e.copy() for e in s1.encoders * 2],
                  [b.copy() for b in s1.basis_scalars * 2], s1.outers * 2)


def test_distance_bound_values(instances):
    assert distance_bound(instances["50"]) == 12
    assert distance_bound(instances["27"]) == 12
    assert distance_bound(instances["36"]) == 16
    for qa in instances.values():
        assert qa.flattened.min_distance() >= distance_bound(qa)
        assert distance_bound(gcc_scheme_from_qa(qa)) == distance_bound(qa)
    with pytest.raises(ValueError):
        distance_bound(qa_from_constituents(G33, 2, 3, {}))
    with pytest.raises(TypeError):
        distance_bound("nope")
    # a zero outer code adds no slot to a scheme's bound
    qa = instances["50"]
    scheme = gcc_scheme_from_qa(qa)
    zero = LinearCode(scheme.outers[0].field, qa.index, [])
    scheme.outers[0] = zero
    rest = QACode(qa.decomposition, qa.index, dict(list(qa.assignment.items())[1:]))
    assert distance_bound(scheme) == distance_bound(rest)
    scheme.outers[:] = [zero] * len(scheme.outers)
    with pytest.raises(ValueError, match="all outer codes are zero"):
        distance_bound(scheme)


def _nested_sum_bound(qa: QACode) -> int:
    """The concatenation bound with every nested sum of minimal ideals built
    and weighed afresh: the reference for the decomposition's kept
    distances."""
    dec = qa.decomposition
    ranked = sorted(((outer.min_distance(), i) for i, outer in qa.assignment.items()),
                    key=lambda t: t[0])
    return min(d * LinearCode(dec.spec.subfield(1), dec.group.size,
                              np.vstack([dec.psi_matrix(i) for _, i in ranked[:v]]))
               .min_distance() for v, (d, _) in enumerate(ranked, 1))


def _random_qa_codes(dec: SemisimpleDecomposition, ell: int, seed: int, count: int):
    """`count` nonzero QA codes over `dec` with random constituents."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        assignment = {}
        for i in rng.sample(range(dec.class_count), rng.randrange(1, dec.class_count + 1)):
            k = dec.classes[i].size
            elems = dec.spec.subfield_codes(k).tolist()
            rows = [[rng.choice(elems) for _ in range(ell)]
                    for _ in range(rng.randrange(1, ell + 1))]
            assignment[i] = LinearCode(dec.spec.subfield(k), ell, rows)
        qa = QACode(dec, ell, assignment)
        if qa.assignment:
            out.append(qa)
    return out


@pytest.mark.parametrize("q,orders,ell", [
    (2, (3, 3), 3), (3, (2, 2), 2), (4, (3, 3), 2), (2, (7,), 2), (3, (4,), 3),
])
def test_distance_bound_reads_the_kept_nested_sum_distances(monkeypatch, q, orders, ell):
    """On a fresh decomposition and again once its nested-sum distances are
    kept, `distance_bound` equals the bound with every nested sum weighed
    afresh; a warm call weighs no inner sum, only the outer codes."""
    dec = SemisimpleDecomposition(AbelianGroup(orders), q)
    codes = _random_qa_codes(dec, ell, seed=q * 1000 + sum(orders) * 10 + ell, count=4)
    want = [_nested_sum_bound(qa) for qa in codes]
    assert [distance_bound(qa) for qa in codes] == want
    assert dec._sum_distances
    weighed = []
    min_distance = LinearCode.min_distance

    def counted(self, cap=2 ** 24):
        weighed.append(self)
        return min_distance(self, cap)

    monkeypatch.setattr(LinearCode, "min_distance", counted)
    assert [distance_bound(qa) for qa in codes] == want
    assert len(weighed) == sum(len(qa.assignment) for qa in codes)


def test_reference_bounds_on_a_cold_and_a_warm_decomposition(instances):
    for qa in instances.values():
        modulus = qa.decomposition.spec.modulus
        cold = QACode(SemisimpleDecomposition(qa.group, qa.q, modulus=modulus),
                      qa.index, qa.assignment)
        want = _nested_sum_bound(qa)
        assert distance_bound(cold) == distance_bound(cold) == want
        assert distance_bound(qa) == want


def test_kept_nested_sum_distances_still_check_the_cap():
    """A cap below q^k of a sum whose distance is kept still refuses it,
    with the message of the enumeration it refuses."""
    qa = qa_50_12_18()
    dec = SemisimpleDecomposition(qa.group, qa.q)
    cold = QACode(dec, qa.index, qa.assignment)
    # the outer codes have 16 codewords and a single ideal 16; a sum of two has 256
    with pytest.raises(CapExceededError) as before:
        distance_bound(cold, 255)
    assert distance_bound(cold) == 12
    with pytest.raises(CapExceededError) as after:
        distance_bound(cold, 255)
    assert str(after.value) == str(before.value) == (
        "codeword enumeration for [25,8] over a size-2 field: would need 256 > cap 255")
    pair = list(cold.assignment)[:2]
    with pytest.raises(CapExceededError) as direct:
        dec.ideal_sum_code(pair).min_distance(255)
    with pytest.raises(CapExceededError) as kept:
        dec.ideal_sum_distance(pair, 255)
    assert str(kept.value) == str(direct.value)


def test_predict_params_examples():
    dec = decompose_algebra(G55, 2)
    idx = [dec.class_index(t) for t in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    prefix = [dec.ideal_sum_code(idx[:v + 1]).min_distance() for v in range(4)]
    assert prefix[0] == 10 and prefix[3] == 4
    got = predict_params(25, [4] * 4, prefix, [CodeParams(256, 201, 12)] * 4)
    assert (got.length, got.dim, got.distance_lower_bound) == (6400, 3216, 48)

    dec3 = decompose_algebra(G55, 3)
    idx3 = [dec3.class_index(t) for t in [(1, 0), (1, 1), (0, 1), (1, 2)]]
    prefix3 = [dec3.ideal_sum_code(idx3[:v + 1]).min_distance() for v in range(3)] \
        + [dec3.ideal_sum_code(idx3).min_distance(3 ** 16)]
    got = predict_params(25, [4] * 4, prefix3, [CodeParams(6561, 5076, 55)] * 4)
    assert (got.length, got.dim, got.distance_lower_bound) == (164025, 81216, 220)

    simple = predict_params(9, [2], [6], [CodeParams(3, 1, 3)])
    assert (simple.length, simple.dim, simple.distance_lower_bound) == (27, 2, 18)

    with pytest.raises(ValueError, match="ascending"):
        predict_params(9, [2, 2], [6, 4],
                       [CodeParams(3, 1, 3), CodeParams(3, 1, 2)])
    with pytest.raises(ValueError, match="distance"):
        predict_params(9, [2], [6], [CodeParams(3, 1)])


def test_the_bound_and_its_distances_exist_once(monkeypatch):
    """`predict_params` takes no field degrees and goes through
    `concatenation_bound`; the reference predictions compute every inner
    distance; and a decomposition keeps each ideal sum, its code and its
    distance, in one store."""
    assert list(inspect.signature(predict_params).parameters) == [
        "inner_length", "inner_dims", "inner_prefix_distances", "outer_params"]
    calls = []
    bound = concatenation.concatenation_bound
    monkeypatch.setattr(concatenation, "concatenation_bound",
                        lambda *args: calls.append(args) or bound(*args))
    got = reference.predict_large_example(3, CodeParams(6561, 5076, 55))
    assert (got.length, got.dim, got.distance_lower_bound) == (164025, 81216, 220)
    assert len(calls) == 1
    assert list(inspect.signature(reference.predict_large_example).parameters) == [
        "q", "outer"]
    assert "full_sum_distance" not in Path(reference.__file__).read_text(encoding="utf-8")

    dec = SemisimpleDecomposition(G55, 3)
    code = dec.minimal_ideal_code(1)
    weighed = []
    min_distance = LinearCode.min_distance
    monkeypatch.setattr(LinearCode, "min_distance",
                        lambda self, *args: weighed.append(self) or min_distance(self, *args))
    assert dec.ideal_sum_distance([1]) == dec.ideal_sum_distance([1]) == 10
    assert len(weighed) == 1 and weighed[0] is code is dec.minimal_ideal_code(1)
    assert not hasattr(dec, "_ideal_codes")


@pytest.mark.parametrize("q,orders,ell", [
    (2, (3, 3), 2),
    (2, (7,), 2),
    (3, (2, 2), 3),
    (2, (5,), 3),
    (4, (3, 3), 2),
    (3, (4,), 2),
])
def test_random_assignment_sweep(q, orders, ell):
    """Round trip, concatenation equality, and bound validity on random
    constituent assignments across group/field shapes."""
    import random
    rng = random.Random(hash((q, orders, ell)) & 0xFFFF)
    group = AbelianGroup(orders)
    dec = decompose_algebra(group, q)
    for _ in range(3):
        assignment = {}
        for i in range(dec.class_count):
            if rng.random() < 0.5:
                continue
            k = dec.classes[i].size
            elems = dec.spec.subfield_codes(k).tolist()
            dim = rng.randrange(1, ell + 1)
            rows = [[elems[rng.randrange(len(elems))] for _ in range(ell)]
                    for _ in range(dim)]
            code = LinearCode(dec.spec.subfield(k), ell, rows)
            if code.dim:
                assignment[i] = code
        qa = qa_from_constituents(group, q, ell, assignment)
        flat = qa.flattened
        assert flat.dim == qa.dim
        assert is_qa(flat, group)
        assert constituents_of(flat, group) == qa.constituents()
        if qa.assignment:
            assert gcc_build(gcc_scheme_from_qa(qa)) == flat
            assert flat.min_distance() >= distance_bound(qa)
            assert distance_bound(gcc_scheme_from_qa(qa)) == distance_bound(qa)


def test_trivial_group_makes_every_code_quasi_abelian():
    # over H = C_1 the group algebra is the field itself, so any linear code
    # of length l is a module and its single constituent is the code itself
    g1 = AbelianGroup((1,))
    dec = decompose_algebra(g1, 2)
    f2 = dec.spec.subfield(1)
    code = LinearCode(f2, 4, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert is_qa(code, g1)
    out = constituents_of(code, g1)
    assert list(out) == [g1.zero]
    assert out[g1.zero] == code
    qa = qa_from_constituents(g1, 2, 4, {0: code})
    assert qa.flattened == code


def test_descriptor_roundtrip(instances):
    for qa in instances.values():
        doc = qa_to_descriptor(qa)
        back = qa_from_descriptor(doc)
        assert back.flattened == qa.flattened
    doc = qa_to_descriptor(instances["27"])
    doc["constituents"].append(doc["constituents"][0])
    with pytest.raises(ValueError, match="duplicate constituent"):
        qa_from_descriptor(doc)
    # two different members of one class also clash
    doc = qa_to_descriptor(instances["27"])
    extra = dict(doc["constituents"][0])
    extra["class_member"] = [2, 0]  # same class as [1,0]
    doc["constituents"].append(extra)
    with pytest.raises(ValueError, match="two constituents"):
        qa_from_descriptor(doc)
