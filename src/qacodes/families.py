"""Strictly quasi-abelian code families with one constituent at the class
of zero.

Over H = C_p x C_p (p coprime to q, so H is never cyclic) the class of
zero is a singleton and its minimal ideal is the span of the scaled
all-ones vector.  Concatenating it with a base-field outer code of length n
gives a code of length p^2 * n whose dimension equals the outer dimension
exactly; if the outer code is complementary dual, so is the member.  Finite
families of such members realize that construction measurably: exact
lengths and dimensions, per-member distance and bound, exact rates.

`family_report` evaluates the members in stacks, one per group of outer
codes of one field, length and dimension: the group's generator matrices
are embedded once, flattened at the class of zero by one `flatten` call,
weighed by one `weight_distributions` call (and the outer codes by one
more, for the bound), and their hulls found by one stacked Gram rank
(`hull_dimensions`).  Each member is still checked on its own: its exact
distance, the independence of its rows (the weigher refuses a weight-0
word), a weight distribution that counts q^k words, and the hull of the
flattened code.  `family_member` and `verify_lcd_member` build and check
one member through `QACode` and are the reference the report is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AbelianGroup, FieldSpec, _prime_factors, prime_power
from .concatenation import QACode, concatenation_bound, distance_bound, qa_from_constituents
from .idempotents import decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP, CodeParams,
                           LinearCode, census_stacks, embed_rows, hull_dimensions,
                           least_weight, weight_distributions)


@dataclass
class FamilySpec:
    """A family source: the base field, the prime p fixing H = C_p x C_p, and
    the outer codes over F_q (non-decreasing lengths).  With lcd_required,
    every outer code must be complementary dual."""

    q: int
    p: int
    outer_codes: list[LinearCode]
    lcd_required: bool = False

    def __post_init__(self):
        if _prime_factors(self.p) != [self.p]:
            raise ValueError(f"{self.p} is not prime")
        char = prime_power(self.q)[0]
        if self.p == char:
            raise ValueError(
                f"p = {self.p} equals the field characteristic; the group algebra "
                "would not be semisimple")
        if not self.outer_codes:
            raise ValueError("a family needs at least one outer code")
        lengths = [c.length for c in self.outer_codes]
        if any(a > b for a, b in zip(lengths, lengths[1:])):
            raise ValueError("outer code lengths must be non-decreasing")
        for i, code in enumerate(self.outer_codes):
            if code.field.degree != 1 or code.field.spec.q != self.q:
                raise ValueError(f"outer code {i} is not over F_{self.q}")
            if code.dim < 1:
                raise ValueError(f"outer code {i} is the zero code")
            if self.lcd_required and not code.is_lcd():
                raise ValueError(
                    f"outer code {i} ([{code.length},{code.dim}]) has a nonzero hull "
                    "but lcd_required is set")

    @property
    def group(self) -> AbelianGroup:
        return AbelianGroup((self.p, self.p))


def family_member(spec: FamilySpec, i: int,
                  cap: int = DEFAULT_CODEWORD_CAP) -> tuple[QACode, CodeParams]:
    """The i-th member: the outer code concatenated with the ideal at the
    class of zero, with its exact parameters (p^2 n, k, d) and the product
    bound.  The member has the outer code's dimension over the same field,
    so a cap below q^k is refused (`CapExceededError`) by the bound, whose
    first step weighs the outer code."""
    outer = spec.outer_codes[i]
    qa = qa_from_constituents(spec.group, spec.q, outer.length, {0: outer})
    bound = distance_bound(qa, cap)
    flat = qa.flattened
    if flat.dim != outer.dim:
        raise ValueError("member dimension does not match the outer dimension")
    return qa, CodeParams(flat.length, flat.dim, distance=flat.min_distance(cap),
                          distance_lower_bound=bound)


def verify_lcd_member(member: QACode) -> bool:
    """Hull check on the flattened member; zero-dimensional codes count as
    complementary dual."""
    return member.flattened.is_lcd()


@dataclass(frozen=True)
class FamilyRow:
    index: int
    outer_length: int
    length: int
    dim: int
    distance: int
    distance_bound: int
    rate: Fraction
    relative_distance: Fraction
    lcd: bool


def family_report(spec: FamilySpec,
                  cap: int = DEFAULT_CODEWORD_CAP) -> list[FamilyRow]:
    """Per-member statistics: exact rates, distance, bound and hull status,
    found for each group of outer codes of one field, length and dimension
    at once (see the module docstring)."""
    # refused before any group is weighed, with the message of the first
    # member's bound in list order: its outer code's enumeration
    for outer in spec.outer_codes:
        outer._codeword_count(cap)
    dec = decompose_algebra(spec.group, spec.q)
    base = dec.spec.subfield(1)

    def inner_distance(keys) -> int:
        return dec.ideal_sum_distance(keys, cap)

    groups: dict[tuple, list[int]] = {}
    for i, outer in enumerate(spec.outer_codes):
        groups.setdefault((outer.field, outer.length, outer.dim), []).append(i)
    rows: list[FamilyRow] = [None] * len(spec.outer_codes)
    for (field, n, k), members in groups.items():
        outers = embed_rows(np.stack([spec.outer_codes[i].gens for i in members]), field, base)
        flat = dec.flatten(0, outers)  # the class of zero: one lifted row per outer row
        length = flat.shape[-1]
        outer_wds = weight_distributions(base, outers)
        member_wds = weight_distributions(base, flat)
        lcd = hull_dimensions(base, flat) == 0
        for i, outer_wd, wd, is_lcd in zip(members, outer_wds, member_wds, lcd.tolist()):
            bound = concatenation_bound([(least_weight(outer_wd), 0)], inner_distance)
            distance = least_weight(wd)
            rows[i] = FamilyRow(
                index=i,
                outer_length=n,
                length=length,
                dim=k,
                distance=distance,
                distance_bound=bound,
                rate=Fraction(k, length),
                relative_distance=Fraction(distance, length),
                lcd=is_lcd,
            )
    if spec.lcd_required:
        failed = next((r.index for r in rows if not r.lcd), None)
        if failed is not None:
            raise ValueError(f"member {failed} failed the complementary-dual check")
    return rows


def builtin_lcd_outers(q: int, max_length: int = 4,
                       cap: int = DEFAULT_SUBSPACE_CAP) -> list[LinearCode]:
    """All complementary-dual codes over F_q of length up to max_length, in
    census order: the hulls of each census stack of one length and
    dimension are found at once (`hull_dimensions`), and only the codes
    with none become `LinearCode`s.  The cap of every length is checked
    before any stack is drawn, so a refusal comes at once."""
    field = FieldSpec(q, 1).subfield(1)
    censuses = [census_stacks(field, n, cap) for n in range(1, max_length + 1)]
    for census in censuses:
        next(census)  # the cap check, then the zero code: a member needs a distance
    return [LinearCode(field, stack.shape[2], gens, _canonical=True)
            for census in censuses for stack in census
            for gens in stack[hull_dimensions(field, stack) == 0]]
