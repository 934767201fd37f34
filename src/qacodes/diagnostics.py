"""Seeded self-check suites over the algebra and decomposition layers.

Each check returns (name, ok, detail); the CLI prints them as PASS/FAIL
lines and the test suite asserts them wholesale.  Random sampling is seeded
so identical invocations produce identical reports.

Every check draws all of its samples first, in a fixed order, from the one
`random.Random` of the suite, and then evaluates each identity for all of
its samples in one array pass: the field axioms through `vadd`, `vmul` and
`vpow`, the character identities as gathers from the decomposition's
character table, projection and lift through one stacked group-algebra
product (`convolve`) and one `char_project` per class, and the module
idempotents through one class-by-class product.  An identity that fails,
a lift outside its minimal ideal included, is a FAIL row, not an exception.
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import AbelianGroup, _prime_factors, convolve
from .concatenation import block_idempotent
from .idempotents import SemisimpleDecomposition, decompose_algebra


Check = tuple[str, bool, str]

# random draws per sampled check, and the index of the module idempotents
SAMPLES = 100
INDEX = 2


def _draws(rng: random.Random, size: int, count: int) -> np.ndarray:
    """`count` draws from [0, size) (size below 2^32) out of one
    `getrandbits` call: its 64-bit words w, each mapped to (w >> 32) *
    size >> 32."""
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u8")
    return ((words >> 32) * size >> 32).astype(np.int64)


def field_axiom_checks(spec, rng: random.Random) -> list[Check]:
    out = []
    add, mul, pow_, q = spec.vadd, spec.vmul, spec.vpow, spec.q
    a, b, c = _draws(rng, spec.size, 3 * SAMPLES).reshape(SAMPLES, 3).T
    units = a[a != 0]
    ok = ((add(add(a, b), c) == add(a, add(b, c))).all()
          and (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
          and (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
          and (mul(units, pow_(units, -1)) == 1).all()
          and (pow_(add(a, b), q) == add(pow_(a, q), pow_(b, q))).all())
    out.append(("field axioms on random samples", bool(ok), f"{SAMPLES} triples"))
    codes = np.arange(spec.size)
    fixed = codes[pow_(codes, q) == codes]
    out.append(("Frobenius fixes exactly the base field",
                len(fixed) == q and bool(spec.vin_subfield(fixed, 1).all()),
                f"{len(fixed)} fixed points"))
    M = spec.root_order
    # xi^M, then xi^(M/r) for each prime r | M
    powers = pow_(spec.xi_code, [M] + [M // r for r in _prime_factors(M)])
    out.append((f"designated root of unity has exact order {M}",
                bool(powers[0] == 1 and (powers[1:] != 1).all()),
                spec.to_text(spec.xi_code)))
    return out


def character_checks(dec: SemisimpleDecomposition, rng: random.Random) -> list[Check]:
    out = []
    group, spec, chi = dec.group, dec.spec, dec.characters
    plus = group.add_table
    a, h, hp = _draws(rng, group.size, 3 * SAMPLES).reshape(SAMPLES, 3).T
    ok = ((chi[a, plus[h, hp]] == spec.vmul(chi[a, h], chi[a, hp])).all()
          and (chi[plus[a, hp], h] == spec.vmul(chi[a, h], chi[hp, h])).all())
    out.append(("characters multiplicative in both arguments", bool(ok),
                f"{SAMPLES} samples"))
    want = np.zeros(group.size, dtype=np.int32)
    want[0] = group.size % spec.p
    out.append(("character orthogonality sums",
                np.array_equal(spec.vsum(chi, axis=1), want),
                f"all {group.size} characters"))
    return out


def decomposition_checks(dec: SemisimpleDecomposition, rng: random.Random) -> list[Check]:
    group, spec = dec.group, dec.spec
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

    # pairs of class-field elements, the same number for every class, drawn
    # class by class
    count = 2 * (SAMPLES // dec.class_count + 1)
    draws = []
    for cls in dec.classes:
        codes = spec.subfield_codes(cls.size)
        draws.append(codes[_draws(rng, len(codes), count)])
    ok = held("lift(1) = e_i", "project(e_i) = 1", "project(lift(b)) = b on the power basis")
    for i, d in enumerate(draws):
        x, y = d[0::2], d[1::2]
        r1, r2, r12 = dec.lift_vector(i, np.stack([x, y, spec.vadd(x, y)]))
        # lift(x) and lift(x) * lift(y) must lie in the ideal and project to x and x * y
        images = np.stack([r1, convolve(spec, group, r1, r2)])
        ok = (ok and bool(dec.in_ideal(i, images).all())
              and np.array_equal(dec.char_project(i, images), np.stack([x, spec.vmul(x, y)]))
              and np.array_equal(r12, spec.vadd(r1, r2)))
    out.append(("projection/lift are inverse ring isomorphisms", ok,
                "full bases plus seeded samples"))

    degrees = np.array(dec.field_degrees)
    gens = np.array([dec.subfield_generator(i).code for i in range(dec.class_count)])
    ok = all(spec.vin_subfield(gens[degrees == k], k).all()
             and spec.vin_subfield(spec.vtrace(gens[degrees == k], k), 1).all()
             for k in set(dec.field_degrees))
    out.append(("class-field traces land in the base field", bool(ok),
                f"{dec.class_count} generators"))
    return out


def block_idempotent_checks(dec: SemisimpleDecomposition) -> list[Check]:
    spec, group, c = dec.spec, dec.group, dec.class_count
    # thetas[i, j] = coordinate j of the module idempotent of class i
    thetas = np.array([[e.coeffs for e in block_idempotent(dec, i, INDEX)]
                       for i in range(c)])
    prods = convolve(spec, group, thetas[:, None], thetas[None])
    want = np.where(np.eye(c, dtype=bool)[:, :, None, None], thetas[:, None], 0)
    one = np.zeros(group.size, dtype=np.int32)
    one[0] = 1
    # theta_i projects onto class i: its character sum at class j is 1 if
    # i == j and 0 otherwise
    reps = [cls.rep.index for cls in dec.classes]
    images = spec.vdot(thetas, dec.characters[reps].T)
    ok = (np.array_equal(prods, want) and (spec.vsum(thetas, axis=0) == one).all()
          and (images == np.eye(c, dtype=np.int32)[:, None]).all())
    return [(f"module idempotents at index {INDEX} (products and sum)", bool(ok),
             f"{c} blocks")]


def run_identity_suite(q: int, orders, seed: int = 0) -> list[Check]:
    """The full algebra/decomposition identity suite for one (q, H) pair."""
    dec = decompose_algebra(AbelianGroup(orders), q)
    rng = random.Random(seed)
    return [*field_axiom_checks(dec.spec, rng), *character_checks(dec, rng),
            *decomposition_checks(dec, rng), *block_idempotent_checks(dec)]
