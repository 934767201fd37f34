"""Strictly quasi-abelian code families with one constituent at the class
of zero.

Over H = C_p x C_p (p coprime to q, so H is never cyclic) the class of
zero is a singleton and its minimal ideal is the span of the scaled
all-ones vector.  Concatenating it with a base-field outer code of length n
gives a code of length p^2 * n whose dimension equals the outer dimension
exactly; if the outer code is complementary dual, so is the member.  Finite
families of such members realize that construction measurably: exact
lengths and dimensions, per-member distance (or bound), exact rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AbelianGroup, FieldSpec, _prime_factors, prime_power
from .concatenation import QACode, distance_bound, qa_from_constituents
from .errors import CapExceededError
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP, CodeParams,
                           LinearCode, enumerate_codes)


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
    class of zero.  Parameters are (p^2 n, k) exactly, with the exact
    distance when enumerable and the product bound otherwise."""
    outer = spec.outer_codes[i]
    qa = qa_from_constituents(spec.group, spec.q, outer.length, {0: outer})
    bound = distance_bound(qa, cap)
    flat = qa.flattened
    if flat.dim != outer.dim:
        raise ValueError("member dimension does not match the outer dimension")
    try:
        params = CodeParams(flat.length, flat.dim,
                            distance=flat.min_distance(cap),
                            distance_lower_bound=bound)
    except CapExceededError:
        params = CodeParams(flat.length, flat.dim, distance_lower_bound=bound)
    return qa, params


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
    distance: int | None
    distance_bound: int
    rate: Fraction
    relative_distance: Fraction
    lcd: bool


def family_report(spec: FamilySpec,
                  cap: int = DEFAULT_CODEWORD_CAP) -> list[FamilyRow]:
    """Per-member statistics: exact rates, distance or bound, hull status."""
    rows = []
    for i, outer in enumerate(spec.outer_codes):
        member, params = family_member(spec, i, cap)
        lcd = verify_lcd_member(member)
        if spec.lcd_required and not lcd:
            raise ValueError(f"member {i} failed the complementary-dual check")
        d_for_rel = params.distance if params.distance is not None \
            else params.distance_lower_bound
        rows.append(FamilyRow(
            index=i,
            outer_length=outer.length,
            length=params.length,
            dim=params.dim,
            distance=params.distance,
            distance_bound=params.distance_lower_bound,
            rate=Fraction(params.dim, params.length),
            relative_distance=Fraction(d_for_rel, params.length),
            lcd=lcd,
        ))
    return rows


def builtin_lcd_outers(q: int, max_length: int = 4,
                       cap: int = DEFAULT_SUBSPACE_CAP) -> list[LinearCode]:
    """All complementary-dual codes over F_q of length up to max_length,
    found by hull filtering over the full subspace census (zero codes are
    skipped: a family member needs a distance)."""
    spec = FieldSpec(q, 1)
    field = spec.subfield(1)
    out = []
    for n in range(1, max_length + 1):
        for code in enumerate_codes(field, n, cap):
            if code.dim >= 1 and code.is_lcd():
                out.append(code)
    return out
