"""The reference constructions the package is built around, as one runnable
regression suite.

Three explicit quasi-abelian codes with best-known minimum distance for
their length and dimension ([50,12,18], [27,6,12], [36,6,16]), their
concatenation lower bounds, the inner-ideal facts behind the two large
rate-1/2 parameter predictions, and the algebraic identity suites.  The CLI
exposes all of it as the `verify-paper` subcommand.
"""

from __future__ import annotations

import time

from .algebra import AbelianGroup
from .concatenation import (QACode, constituents_of, distance_bound, gcc_build,
                            gcc_scheme_from_qa, is_qa, predict_params,
                            qa_from_constituents)
from .diagnostics import Check, run_identity_suite
from .idempotents import decompose_algebra
from .linear_codes import CodeParams, LinearCode

IDENTITY_SUITE_PAIRS = (
    (2, (3, 3)),
    (2, (5, 5)),
    (3, (2, 2)),
    (2, (3,)),
    (4, (3, 3)),
)


def qa_50_12_18() -> QACode:
    """Index-2 code over C5 x C5: constituents [1,a^7] at the classes of
    (1,0) and (1,1) and [1,a^12] at the class of (2,4), a^4 = a + 1."""
    group = AbelianGroup((5, 5))
    dec = decompose_algebra(group, 2)
    spec = dec.spec
    a = spec.from_string("0100")
    f16 = spec.subfield(4)
    c1 = LinearCode(f16, 2, [[1, (a ** 7).code]])
    c2 = LinearCode(f16, 2, [[1, (a ** 12).code]])
    return qa_from_constituents(group, 2, 2, {(1, 0): c1, (1, 1): c1, (2, 4): c2})


def qa_27_6_12() -> QACode:
    """Index-3 code over C3 x C3 with two outer codes over F_4."""
    group = AbelianGroup((3, 3))
    dec = decompose_algebra(group, 2)
    spec = dec.spec
    a = spec.xi.code
    f4 = spec.subfield(2)
    c1 = LinearCode(f4, 3, [[1, 0, 1], [0, 1, a]])
    c2 = LinearCode(f4, 3, [[1, a, 1]])
    return qa_from_constituents(group, 2, 3, {(2, 2): c1, (1, 0): c2})


def qa_36_6_16() -> QACode:
    """Index-4 code over C3 x C3 with two outer codes over F_4."""
    group = AbelianGroup((3, 3))
    dec = decompose_algebra(group, 2)
    spec = dec.spec
    a = spec.xi.code
    a2 = (spec.xi ** 2).code
    f4 = spec.subfield(2)
    c1 = LinearCode(f4, 4, [[1, 0, a2, a], [0, 1, 1, a]])
    c2 = LinearCode(f4, 4, [[1, a, a, a]])
    return qa_from_constituents(group, 2, 4, {(2, 2): c1, (1, 0): c2})


REFERENCE_INSTANCES = {
    "[50,12,18]": (qa_50_12_18, (50, 12, 18), 12),
    "[27,6,12]": (qa_27_6_12, (27, 6, 12), 12),
    "[36,6,16]": (qa_36_6_16, (36, 6, 16), 16),
}

# the four inner classes of the large rate-1/2 constructions
LARGE_EXAMPLE_CLASSES = ((1, 0), (0, 1), (1, 1), (1, 2))


def binary_inner_data():
    """[25,4,10] minimal ideals over F_2[C5 x C5] and the exact distances of
    their nested sums (the last one is 4)."""
    dec = decompose_algebra(AbelianGroup((5, 5)), 2)
    idx = [dec.class_index(t) for t in LARGE_EXAMPLE_CLASSES]
    singles = [dec.minimal_ideal_code(i) for i in idx]
    prefix = [dec.ideal_sum_distance(idx[: v + 1]) for v in range(4)]
    return singles, prefix


def predict_large_example(q: int, outer: CodeParams) -> CodeParams:
    """Parameters of the code over F_q[C5 x C5] with the outer code `outer`
    at each class of LARGE_EXAMPLE_CLASSES: the concatenation bound on the
    exact distances of the nested ideal sums, under a cap that admits the
    q^16 codewords of the sum of all four."""
    dec = decompose_algebra(AbelianGroup((5, 5)), q)
    idx = [dec.class_index(t) for t in LARGE_EXAMPLE_CLASSES]
    dims = [dec.classes[i].size for i in idx]
    prefix = [dec.ideal_sum_distance(idx[: v + 1], q ** sum(dims)) for v in range(len(idx))]
    return predict_params(dec.group.size, dims, prefix, [outer] * len(idx))


def run_reference_suite(seed: int = 0) -> list[tuple[str, bool, str, float]]:
    """Every reproduction check, as (name, ok, detail, seconds) rows: seconds
    is the wall time of the step that produced the row (one reference build,
    one identity-suite pair, ...), the same for every row of that step."""
    checks: list[tuple[str, bool, str, float]] = []
    lap = time.perf_counter()

    def step(*rows: Check) -> None:
        """Record the rows of the step that ends now."""
        nonlocal lap
        now = time.perf_counter()
        checks.extend((*row, now - lap) for row in rows)
        lap = now

    built: dict[str, QACode] = {}
    for name, (builder, want, want_bound) in REFERENCE_INSTANCES.items():
        qa = builder()
        built[name] = qa
        params = qa.params()
        got = (params.length, params.dim, params.distance)
        bound = distance_bound(qa)
        step((f"{name} construction", got == want, f"got [{got[0]},{got[1]},{got[2]}]"),
             (f"{name} concatenation bound", bound == want_bound,
              f"got {bound}, expected {want_bound}"))

    singles, prefix = binary_inner_data()
    ok = all((c.length, c.dim, c.min_distance()) == (25, 4, 10) for c in singles)
    step(("binary inner ideals are [25,4,10]", ok, f"nested-sum distances {prefix}"),
         ("four-ideal sum has distance 4", prefix[3] == 4, f"got {prefix[3]}"))

    p1 = predict_large_example(2, CodeParams(256, 201, 12))
    step(("predicted [6400,3216,>=48]",
          (p1.length, p1.dim) == (6400, 3216) and p1.distance_lower_bound >= 48,
          str(p1)))
    p2 = predict_large_example(3, CodeParams(6561, 5076, 55))
    step(("predicted [164025,81216,>=220]",
          (p2.length, p2.dim) == (164025, 81216)
          and p2.distance_lower_bound >= 220,
          str(p2)))

    for name, qa in built.items():
        flat = qa.flattened
        ok = is_qa(flat, qa.group)
        back = constituents_of(flat, qa.group)
        ok = ok and back == qa.constituents()
        ok = ok and gcc_build(gcc_scheme_from_qa(qa)) == flat
        ok = ok and flat.min_distance() >= distance_bound(qa)
        step((f"{name} decomposition round trip and inner/outer equality", ok, ""))

    for q, orders in IDENTITY_SUITE_PAIRS:
        suite = run_identity_suite(q, orders, seed=seed)
        ok = all(c[1] for c in suite)
        detail = "; ".join(n for n, good, _ in suite if not good) or \
            f"{len(suite)} checks"
        step((f"identity suite q={q}, H={'x'.join(map(str, orders))}", ok, detail))
    return checks
