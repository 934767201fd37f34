"""Complementary-dual family construction over C_p x C_p."""

from fractions import Fraction

import pytest

import qacodes.families
from qacodes.algebra import FieldSpec
from qacodes.errors import CapExceededError
from qacodes.families import (FamilyRow, FamilySpec, builtin_lcd_outers, family_member,
                              family_report, verify_lcd_member)
from qacodes.linear_codes import LinearCode, enumerate_codes

F2 = FieldSpec(2, 1).subfield(1)
F3 = FieldSpec(3, 1).subfield(1)


def _member_rows(spec: FamilySpec) -> list[FamilyRow]:
    """The report built one member at a time from the reference path,
    `family_member` and `verify_lcd_member`."""
    rows = []
    for i, outer in enumerate(spec.outer_codes):
        member, params = family_member(spec, i)
        rows.append(FamilyRow(
            index=i, outer_length=outer.length, length=params.length, dim=params.dim,
            distance=params.distance, distance_bound=params.distance_lower_bound,
            rate=Fraction(params.dim, params.length),
            relative_distance=Fraction(params.distance, params.length),
            lcd=verify_lcd_member(member)))
    return rows


def test_member_example_18_1_9():
    spec = FamilySpec(2, 3, [LinearCode(F2, 2, [[1, 0]])])
    member, params = family_member(spec, 0)
    assert (params.length, params.dim, params.distance) == (18, 1, 9)
    assert params.distance_lower_bound == 9
    assert verify_lcd_member(member)


def test_member_length_dim_exact():
    outers = [LinearCode(F2, 3, [[1, 1, 0], [0, 0, 1]]),
              LinearCode(F2, 4, [[1, 0, 1, 1]])]
    spec = FamilySpec(2, 5, outers)
    for i, outer in enumerate(outers):
        _, params = family_member(spec, i)
        assert params.length == 25 * outer.length
        assert params.dim == outer.dim


def test_self_orthogonal_outer_is_not_lcd():
    spec = FamilySpec(2, 3, [LinearCode(F2, 2, [[1, 1]])])
    member, _ = family_member(spec, 0)
    assert not verify_lcd_member(member)
    with pytest.raises(ValueError, match="hull"):
        FamilySpec(2, 3, [LinearCode(F2, 2, [[1, 1]])], lcd_required=True)


def test_family_spec_validation():
    good = LinearCode(F2, 2, [[1, 0]])
    with pytest.raises(ValueError, match="prime"):
        FamilySpec(2, 4, [good])
    with pytest.raises(ValueError, match="characteristic"):
        FamilySpec(2, 2, [good])
    with pytest.raises(ValueError, match="zero code"):
        FamilySpec(2, 3, [LinearCode(F2, 2)])
    with pytest.raises(ValueError, match="non-decreasing"):
        FamilySpec(2, 3, [LinearCode(F2, 3, [[1, 1, 1]]), good])


def test_report_rates_exact():
    outers = [LinearCode(F2, 1, [[1]]),
              LinearCode(F2, 2, [[1, 0]]),
              LinearCode(F2, 3, [[1, 1, 0], [0, 0, 1]])]
    spec = FamilySpec(2, 3, outers)
    rows = family_report(spec)
    for row, outer in zip(rows, outers):
        assert row.rate == Fraction(outer.dim, 9 * outer.length)
        assert row.length == 9 * outer.length
        assert row.relative_distance == Fraction(row.distance, row.length)
        assert row.distance >= 9 * outer.min_distance()


def test_member_past_the_cap_is_refused():
    # q^k = 16 words: the outer [4,4] code is refused before the member is weighed
    spec = FamilySpec(2, 3, [LinearCode(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]])])
    with pytest.raises(CapExceededError, match=r"\[4,4\]"):
        family_member(spec, 0, cap=8)
    assert family_member(spec, 0, cap=16)[1].distance == 9


def test_builtin_library_is_lcd_and_sorted():
    outs = builtin_lcd_outers(2, 4)
    assert len(outs) == 50
    assert all(c.hull_dimension() == 0 and c.dim >= 1 for c in outs)
    lengths = [c.length for c in outs]
    assert lengths == sorted(lengths)
    outs3 = builtin_lcd_outers(3, 2)
    assert all(c.hull_dimension() == 0 for c in outs3)
    assert all(c.field.spec.q == 3 for c in outs3)


def test_builtin_library_checks_every_cap_before_any_census(monkeypatch):
    """The cap is checked at every length before any census stack is drawn:
    a refusal at length 5 computes no hull at lengths 1 to 4."""
    def fail(*args):
        raise AssertionError("a census stack was drawn before the cap check")
    monkeypatch.setattr(qacodes.families, "hull_dimensions", fail)
    with pytest.raises(CapExceededError, match="of length 5 over a size-2 field"):
        builtin_lcd_outers(2, 5, cap=100)


def test_zero_code_is_trivially_lcd():
    from qacodes.algebra import AbelianGroup
    from qacodes.concatenation import qa_from_constituents
    member = qa_from_constituents(AbelianGroup((3, 3)), 2, 2, {})
    assert member.flattened.dim == 0
    assert verify_lcd_member(member)


def test_repetition_outer_family_bound():
    # outer [n,1,n] repetition codes: member distance is exactly 9n
    for n in (1, 2):
        outer = LinearCode(F2, n, [[1] * n])
        spec = FamilySpec(2, 3, [outer])
        _, params = family_member(spec, 0)
        assert params.distance == 9 * n


@pytest.mark.parametrize("q,p", [(2, 3), (2, 5), (3, 2), (4, 3)])
def test_report_matches_the_member_oracle_on_the_builtin_library(q, p):
    """The stacked report equals, row by row, the member-by-member one."""
    spec = FamilySpec(q, p, builtin_lcd_outers(q, 4), lcd_required=True)
    rows = family_report(spec)
    assert rows == _member_rows(spec)
    assert all(r.lcd for r in rows)


def test_report_matches_the_member_oracle_on_mixed_outer_codes():
    """Outer codes of several lengths, some complementary dual and some not,
    with more than one code in some (length, dimension) groups and the
    groups interleaved in the list."""
    outers = [LinearCode(F2, 2, [[1, 1]]), LinearCode(F2, 2, [[1, 0], [0, 1]]),
              LinearCode(F2, 2, [[1, 0]]), LinearCode(F2, 3, [[1, 1, 0]]),
              LinearCode(F2, 3, [[1, 1, 1]]), LinearCode(F2, 3, [[1, 0, 1], [0, 1, 1]]),
              LinearCode(F2, 4, [[1, 1, 1, 1]]), LinearCode(F2, 4, [[1, 0, 1, 1], [0, 1, 1, 0]]),
              LinearCode(F2, 4, [[1, 0, 0, 1], [0, 1, 0, 1]]),
              LinearCode(F2, 5, [[1, 1, 1, 1, 0], [0, 0, 1, 1, 1], [0, 1, 0, 1, 0]])]
    for p in (3, 5):
        spec = FamilySpec(2, p, outers)
        rows = family_report(spec)
        assert rows == _member_rows(spec)
        assert {r.lcd for r in rows} == {True, False}
    ternary = [LinearCode(F3, 2, [[1, 1]]), LinearCode(F3, 2, [[1, 2]]),
               LinearCode(F3, 3, [[1, 1, 1]]), LinearCode(F3, 3, [[1, 0, 1]]),
               LinearCode(F3, 4, [[1, 1, 1, 0], [0, 1, 2, 1]])]
    spec = FamilySpec(3, 2, ternary)
    rows = family_report(spec)
    assert rows == _member_rows(spec)
    assert {r.lcd for r in rows} == {True, False}


def test_report_refuses_a_non_lcd_member_when_required():
    """With lcd_required the report still tests each member's hull: a
    specification that skipped its own check fails at the first member with
    a nonzero hull."""
    spec = FamilySpec(2, 3, [LinearCode(F2, 2, [[1, 0]]), LinearCode(F2, 2, [[1, 1]])])
    spec.lcd_required = True
    with pytest.raises(ValueError, match="member 1 failed the complementary-dual check"):
        family_report(spec)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_builtin_library_is_the_hull_filter_of_the_census(q):
    """The stacked library equals the per-code `is_lcd` filter over
    `enumerate_codes`, in census order."""
    field = FieldSpec(q, 1).subfield(1)
    want = [c for n in range(1, 5) for c in enumerate_codes(field, n) if c.dim and c.is_lcd()]
    got = builtin_lcd_outers(q, 4)
    assert [(c.length, c.gens.tobytes()) for c in got] == \
        [(c.length, c.gens.tobytes()) for c in want]
    assert got == want
