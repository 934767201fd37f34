"""The seeded identity suite reports a broken field or decomposition as a FAIL
row.  Every fault is put into a freshly built object, never into the cached
decomposition that other tests share."""

import random

import numpy as np
import pytest

from qacodes.algebra import AbelianGroup, FieldSpec, GroupAlgebraElement
from qacodes.diagnostics import (block_idempotent_checks, decomposition_checks,
                                 field_axiom_checks)
from qacodes.idempotents import SemisimpleDecomposition


def _rows(checks):
    return {name: ok for name, ok, _ in checks}


@pytest.mark.parametrize("q, degree", [(2, 4), (3, 2), (4, 2)])
def test_a_corrupted_multiplication_table_fails_the_field_axioms(q, degree):
    spec = FieldSpec(q, degree)
    assert all(_rows(field_axiom_checks(spec, random.Random(5))).values())
    good = spec._mul.copy()
    spec._mul = np.roll(good, 1, axis=1)
    assert np.mean(spec._mul != good) >= 0.25
    rows = _rows(field_axiom_checks(spec, random.Random(5)))
    assert rows["field axioms on random samples"] is False
    assert rows["Frobenius fixes exactly the base field"] is True


def test_a_lift_outside_its_ideal_fails_projection_and_lift():
    dec = SemisimpleDecomposition(AbelianGroup((3, 3)), 2)
    i = 1
    assert all(_rows(decomposition_checks(dec, random.Random(0))).values())
    psi = dec.psi_matrix(i)
    psi[0, 0] = dec.spec.vadd(psi[0, 0], 1)  # plus the monomial at 0
    dec._psi_matrix[i] = psi
    # project() itself still refuses the broken lift
    broken = GroupAlgebraElement(dec.group, dec.spec, dec.lift_vector(i, 1))
    with pytest.raises(ValueError, match="not in the minimal ideal"):
        dec.project(i, broken)
    rows = _rows(decomposition_checks(dec, random.Random(0)))
    assert rows.pop("projection/lift are inverse ring isomorphisms") is False
    assert all(rows.values())


def test_swapped_idempotents_fail_the_module_idempotents():
    dec = SemisimpleDecomposition(AbelianGroup((3, 3)), 2)
    name = "module idempotents at index 2 (products and sum)"
    assert block_idempotent_checks(dec) == [(name, True, "5 blocks")]
    es = dec.idempotents
    es[1], es[2] = es[2], es[1]
    assert block_idempotent_checks(dec) == [(name, False, "5 blocks")]
