"""The four workloads: their set-up, their timed operations and the checks
that judge each operation's output.

Every call into the library goes through a module attribute looked up at
call time (`qa.search`, `cli.main`), so the tracer's wrappers see it.

An operation is (name, run, expected, check, corrupt).  `check(result, expected)`
returns None when the output is right and a one-line reason otherwise; it
runs after the timed region.  `corrupt(expected)` gives a wrong expectation
that the same check must reject (the gate's self-test).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import qacodes as qa
from qacodes import cli, reference

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], str | None]
    corrupt: Callable[[Any], Any]


@dataclass
class Workload:
    ops: list[Op]
    # cross-operation check over {op name: result}; None when all agree
    cross_check: Callable[[dict], str | None] = lambda results: None


def build(name: str, seed: int) -> Workload:
    """Set up one workload: everything a run needs before its first timed
    operation.  The seed shuffles the operation order and seeds verify-paper;
    it never changes which operations run or what they must return."""
    if name in ("search-f2", "search-f4"):
        return _search_workload(name)
    if name == "enumerate":
        return _enumerate_workload(seed)
    if name == "cli-mix":
        return _cli_workload(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# search-f2 / search-f4: the staged search, one full census per operation

def _search_workload(name: str) -> Workload:
    exp = EXPECTED[name]
    group = qa.AbelianGroup(tuple(exp["group"]))
    qa.decompose_algebra(group, exp["q"])
    spec = qa.SearchSpec(q=exp["q"], group=group, index=exp["index"], d_min=exp["d_min"])
    want = {"fingerprints": exp["fingerprints"], "reference": exp.get("reference")}

    def check(result, want) -> str | None:
        # re-evaluate every survivor from scratch through the flatten path
        for e in result.codes:
            code = qa.qa_from_constituents(group, spec.q, spec.index,
                                           dict(e.assignment)).flattened
            got = (code.length, code.dim,
                   tuple(int(x) for x in code.weight_distribution()))
            if got != e.fingerprint:
                return f"survivor {e.params} re-evaluates to a different fingerprint"
            if min(w for w in range(1, len(got[2])) if got[2][w]) < spec.d_min:
                return f"survivor {e.params} misses the distance target"
        prints = sorted([f[0], f[1], list(f[2])] for f in (e.fingerprint for e in result.codes))
        if prints != want["fingerprints"]:
            return (f"fingerprint set differs: {len(prints)} found, "
                    f"{len(want['fingerprints'])} recorded")
        if want["reference"] is not None and want["reference"] not in prints:
            return "reference fingerprint missing"
        return None

    def corrupt(want):
        bad = [list(f) for f in want["fingerprints"]]
        bad[0] = [bad[0][0], bad[0][1], bad[0][2][:-1] + [bad[0][2][-1] + 1]]
        return {**want, "fingerprints": bad}

    return Workload([Op(name, lambda: qa.search(spec), want, check, corrupt)])


# ---------------------------------------------------------------------------
# enumerate: exact distances and weight distributions by full enumeration

def _enumerate_codes() -> list[tuple[str, Any, int]]:
    """(label, code, known distance) for every code in the list.

    The four-ideal ternary C5 x C5 sum (3^16 codewords, about 11 s for each
    of its two operations) is left out: with it a 30 s run held one pass of
    32 operations, so run_s was a single sample and op_p90_s had three
    samples beyond it."""
    out = []
    for q, dists in ((2, (10, 8, 6, 4)), (3, (10, 8, 6))):
        dec = qa.decompose_algebra(qa.AbelianGroup((5, 5)), q)
        idx = [dec.class_index(t) for t in reference.LARGE_EXAMPLE_CLASSES]
        for v, d in enumerate(dists):
            code = dec.ideal_sum_code(idx[: v + 1])
            out.append((f"C5xC5/F{q}/k{code.dim}", code, d))
    for label, (builder, params, _) in reference.REFERENCE_INSTANCES.items():
        out.append((f"ref{label}", builder().flattened, params[2]))
    ideal_sums = [((23,), (0, 1), 7), ((23,), (1,), 8),
                  ((13,), (0,), 13), ((13,), (1,), 2), ((13,), (0, 1), 1)]
    for orders, classes, d in ideal_sums:
        dec = qa.decompose_algebra(qa.AbelianGroup(orders), 2)
        code = dec.ideal_sum_code(list(classes))
        out.append((f"C{orders[0]}/F2/k{code.dim}", code, d))
    return out


def _check_distance(result, d) -> str | None:
    return None if result == d else f"distance {result}, expected {d}"


def _weight_checker(code):
    def check(wd, d) -> str | None:
        if int(wd[0]) != 1:
            return "A_0 is not 1"
        if int(wd.sum()) != code.codeword_count:
            return f"weights sum to {int(wd.sum())}, expected {code.codeword_count}"
        first = next(w for w in range(1, len(wd)) if wd[w])
        return None if first == d else f"lowest nonzero weight {first}, expected {d}"
    return check


def _enumerate_workload(seed: int) -> Workload:
    ops = []
    for label, code, d in _enumerate_codes():
        ops.append(Op(f"min_distance {label}", code.min_distance,
                      d, _check_distance, lambda d: d + 1))
        ops.append(Op(f"weight_distribution {label}", code.weight_distribution,
                      d, _weight_checker(code), lambda d: d + 1))
    random.Random(seed).shuffle(ops)

    def cross_check(results: dict) -> str | None:
        for name, wd in results.items():
            if not name.startswith("weight_distribution "):
                continue
            label = name.split(" ", 1)[1]
            md = results.get(f"min_distance {label}")
            first = next(w for w in range(1, len(wd)) if wd[w])
            if md is not None and md != first:
                return f"{label}: min_distance {md} but lowest nonzero weight {first}"
        return None

    return Workload(ops, cross_check)


# ---------------------------------------------------------------------------
# cli-mix: one in-process CLI command per operation

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _check_cli(result, want) -> str | None:
    rc, out, err = result
    if rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}: {err.strip()[:120]}"
    for text in want.get("stdout", []):
        if text not in out:
            return f"stdout lacks {text!r}"
    if "last_line" in want and out.strip().splitlines()[-1:] != [want["last_line"]]:
        return f"last line of stdout is not {want['last_line']!r}"
    for text in want.get("stderr", []):
        if text not in err:
            return f"stderr lacks {text!r}"
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    if "checks" in want:
        if len(lines) != want["checks"] or not all(ln.startswith("PASS") for ln in lines):
            return f"verify-paper: {sum(ln.startswith('PASS') for ln in lines)} of " \
                   f"{want['checks']} checks pass"
    if "line_prefix" in want:
        n = sum(ln.startswith(want["line_prefix"]) for ln in out.splitlines())
        if n != want["lines"]:
            return f"{n} lines start with {want['line_prefix']!r}, expected {want['lines']}"
    return None


def _cli_workload(seed: int) -> Workload:
    descriptors = HERE / "descriptors"
    ops = []
    for entry in EXPECTED["cli-mix"]:
        argv = [a.replace("{descriptors}", str(descriptors)).replace("{seed}", str(seed))
                for a in entry["argv"]]
        ops.append(Op(" ".join(entry["argv"]), lambda argv=argv: run_cli(argv),
                      entry["want"], _check_cli,
                      lambda want: {**want, "rc": want["rc"] + 1}))
    random.Random(seed).shuffle(ops)
    return Workload(ops)
