"""Per-layer metrics computed from one traced child's record.

Each metric names the traced call it comes from.  A workload that never makes
that call (the enumerate workload runs no search, the searches run no CLI
command) takes the metric from a traced cli-mix pass in the same run instead,
so every layer is measured on every workload; README.md lists which.
"""

from __future__ import annotations

STAGES = 5


def layer_metrics(rec: dict) -> tuple[dict, dict]:
    """(value by metric, the call that decides whether the workload made it)."""
    layers = rec["layers"]
    calls, total, own, items = (layers["calls"], layers["total_s"], layers["self_s"],
                                layers["items"])
    values: dict = {}
    source: dict = {}

    def put(metric, value, call):
        values[metric] = value
        source[metric] = call

    def timed(prefix, call):
        put(f"{prefix}_calls", calls.get(call, 0), call)
        put(f"{prefix}_s", total.get(call, 0.0), call)

    put("algebra.fieldspec_s", total.get("FieldSpec", 0.0), "FieldSpec")
    put("idempotents.decompose_s", total.get("decompose_algebra", 0.0), "decompose_algebra")
    timed("idempotents.lift_vector", "lift_vector")
    timed("linear_codes.rref", "rref")
    put("linear_codes.enumerate_codes_yielded", items.get("enumerate_codes", 0),
        "enumerate_codes")
    put("linear_codes.enumerate_codes_s", total.get("enumerate_codes", 0.0), "enumerate_codes")
    timed("linear_codes.min_distance", "min_distance")
    timed("linear_codes.weight_distribution", "weight_distribution")
    words = items.get("min_distance", 0) + items.get("weight_distribution", 0)
    enum_s = total.get("min_distance", 0.0) + total.get("weight_distribution", 0.0)
    enum_call = "min_distance" if calls.get("min_distance") else "weight_distribution"
    put("linear_codes.codewords_enumerated", words, enum_call)
    put("linear_codes.codewords_per_s", words / enum_s if enum_s else 0.0, enum_call)
    timed("linear_codes.hash", "LinearCode.__hash__")

    stages = [{} for _ in range(STAGES)]
    accepted = distinct = 0
    for stats in layers["search_stats"]:
        for s in stats.get("stages", []):
            if s["stage"] <= STAGES:
                agg = stages[s["stage"] - 1]
                for key in ("candidates", "pruned", "survivors"):
                    agg[key] = agg.get(key, 0) + s.get(key, 0)
        accepted += stats.get("accepted", 0)
        distinct += stats.get("distinct", 0)
    for n, agg in enumerate(stages, start=1):
        keys = ("candidates", "survivors") if n == 1 else ("candidates", "pruned", "survivors")
        for key in keys:
            put(f"search.stage{n}.{key}", agg.get(key, 0), "search")
    candidates = sum(a.get("candidates", 0) for a in stages)
    pruned = sum(a.get("pruned", 0) for a in stages)
    survivors = sum(a.get("survivors", 0) for a in stages)
    evaluated = candidates - pruned
    put("search.accepted", accepted, "search")
    put("search.distinct", distinct, "search")
    put("search.prune_ratio", pruned / candidates if candidates else 0.0, "search")
    put("search.yield", survivors / evaluated if evaluated else 0.0, "search")
    search_s = total.get("search", 0.0)
    put("search.evals_per_s", evaluated / search_s if search_s else 0.0, "search")
    put("search.stage1_s", rec.get("stage1_s", 0.0), "search")

    for metric, call in (("concatenation.flatten_s", "QACode.flattened"),
                         ("concatenation.distance_bound_s", "distance_bound"),
                         ("concatenation.constituents_of_s", "constituents_of"),
                         ("concatenation.gcc_build_s", "gcc_build"),
                         ("families.report_s", "family_report"),
                         ("diagnostics.identity_suite_s", "run_identity_suite"),
                         ("reference.suite_s", "run_reference_suite")):
        put(metric, total.get(call, 0.0), call)
    put("cli.self_s", own.get("cli.main", 0.0), "cli.main")
    return values, {m: calls.get(c, 0) > 0 for m, c in source.items()}
