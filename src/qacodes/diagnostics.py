"""Seeded self-check suites over the algebra and decomposition layers.

Each check returns (name, ok, detail); the CLI prints them as PASS/FAIL
lines and the test suite asserts them wholesale.  Random sampling is seeded
so identical invocations produce identical reports.
"""

from __future__ import annotations

import random

from .algebra import (AbelianGroup, GroupAlgebraElement, _prime_factors, character,
                      subfield_trace)
from .concatenation import block_idempotent
from .idempotents import decompose_algebra


Check = tuple[str, bool, str]

# random draws per sampled check, and the index of the module idempotents
SAMPLES = 100
INDEX = 2


def _sample_codes(rng: random.Random, size: int, count: int) -> list[int]:
    return [rng.randrange(size) for _ in range(count)]


def field_axiom_checks(spec, rng: random.Random) -> list[Check]:
    out = []
    ok = True
    for _ in range(SAMPLES):
        a, b, c = (spec.element(x) for x in _sample_codes(rng, spec.size, 3))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            ok = False
        if a * (b + c) != a * b + a * c:
            ok = False
        if a.code and a * a.inverse() != spec.one:
            ok = False
        if (a + b).frobenius() != a.frobenius() + b.frobenius():
            ok = False
    out.append(("field axioms on random samples", ok, f"{SAMPLES} triples"))
    fixed = [c for c in range(spec.size) if spec.frob(c) == c]
    out.append(("Frobenius fixes exactly the base field",
                len(fixed) == spec.q and all(spec.in_subfield(c, 1) for c in fixed),
                f"{len(fixed)} fixed points"))
    M = spec.root_order
    xi = spec.xi
    ok = xi ** M == spec.one and all(
        xi ** (M // r) != spec.one for r in _prime_factors(M))
    out.append((f"designated root of unity has exact order {M}", ok, str(xi)))
    return out


def character_checks(group: AbelianGroup, spec, rng: random.Random) -> list[Check]:
    out = []
    ok = True
    els = group.elements
    for _ in range(SAMPLES):
        a, h, hp = (els[rng.randrange(len(els))] for _ in range(3))
        if character(a, h + hp, spec) != character(a, h, spec) * character(a, hp, spec):
            ok = False
        if character(a + hp, h, spec) != character(a, h, spec) * character(hp, h, spec):
            ok = False
    out.append(("characters multiplicative in both arguments", ok, f"{SAMPLES} samples"))
    ok = True
    for a in els:
        total = spec.zero
        for h in els:
            total = total + character(a, h, spec)
        want = spec.element(group.size % spec.p) if a.index == 0 else spec.zero
        if total != want:
            ok = False
    out.append(("character orthogonality sums", ok, f"all {len(els)} characters"))
    return out


def decomposition_checks(group: AbelianGroup, q: int, rng: random.Random) -> list[Check]:
    dec = decompose_algebra(group, q)
    spec = dec.spec
    out = []

    every = [g for cls in dec.classes for g in cls.members]
    out.append(("cyclotomic classes partition the group",
                sorted(g.index for g in every) == list(range(group.size)),
                f"{dec.class_count} classes"))

    # the deterministic identities were checked once, when `dec` was built
    def held(*identities):
        results = [ok for name, _, ok in dec.identities if name in identities]
        return bool(results) and all(results)

    out.append(("idempotent identities (e^2=e, orthogonal, sum=1)",
                held("e^2 = e", "orthogonality", "sum of idempotents = 1"),
                f"{dec.class_count} idempotents"))
    out.append(("ideal dimensions equal class sizes", held("ideal rank = class size"),
                str(dec.field_degrees)))

    ok = held("lift(1) = e_i", "project(e_i) = 1", "project(lift(b)) = b on the power basis")
    for i in range(dec.class_count):
        codes = spec.subfield_codes(dec.classes[i].size)
        draws = [int(codes[rng.randrange(len(codes))])
                 for _ in range(2 * (SAMPLES // dec.class_count + 1))]
        d1, d2 = draws[0::2], draws[1::2]
        r1, r2, r12 = (dec.lift_vector(i, d) for d in (d1, d2, spec.vadd(d1, d2)))
        for a, b, x, y in zip(r1, r2, d1, d2):
            a = GroupAlgebraElement(group, spec, a)
            b = GroupAlgebraElement(group, spec, b)
            if dec.project(i, a).code != x or dec.project(i, a * b).code != spec.mul(x, y):
                ok = False
        if (r12 != spec.vadd(r1, r2)).any():
            ok = False
    out.append(("projection/lift are inverse ring isomorphisms", ok,
                "full bases plus seeded samples"))

    ok = True
    for i in range(dec.class_count):
        k = dec.classes[i].size
        if not subfield_trace(dec.subfield_generator(i), k).in_subfield(1):
            ok = False
    out.append(("class-field traces land in the base field", ok,
                f"{dec.class_count} generators"))
    return out


def block_idempotent_checks(group: AbelianGroup, q: int) -> list[Check]:
    dec = decompose_algebra(group, q)
    spec = dec.spec
    out = []
    thetas = [block_idempotent(dec, i, INDEX) for i in range(dec.class_count)]
    ok = True
    for i, ti in enumerate(thetas):
        for j, tj in enumerate(thetas):
            prod = tuple(a * b for a, b in zip(ti, tj))
            want = ti if i == j else tuple(
                GroupAlgebraElement.zero(group, spec) for _ in range(INDEX))
            if prod != want:
                ok = False
    total = thetas[0]
    for t in thetas[1:]:
        total = tuple(a + b for a, b in zip(total, t))
    one = GroupAlgebraElement.one(group, spec)
    ok = ok and all(c == one for c in total)
    out.append((f"module idempotents at index {INDEX} (products and sum)", ok,
                f"{dec.class_count} blocks"))
    return out


def run_identity_suite(q: int, orders, seed: int = 0) -> list[Check]:
    """The full algebra/decomposition identity suite for one (q, H) pair."""
    group = AbelianGroup(orders)
    dec = decompose_algebra(group, q)
    rng = random.Random(seed)
    checks = []
    checks += field_axiom_checks(dec.spec, rng)
    checks += character_checks(group, dec.spec, rng)
    checks += decomposition_checks(group, q, rng)
    checks += block_idempotent_checks(group, q)
    return checks
