"""One benchmark child process: set up one workload, run its operations in
sequence, check every output, and print one JSON record as the last line of
standard output.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --spawned T [--until U]

MODE is `setup` (set up and stop), `run` (untraced), `plain` (untraced, no
speed samples inside operations: the base of the tracing overhead), `trace`
(every layer wrapped by perfbench/tracer.py, no speed samples inside
operations) or `algebra` (field-arithmetic probes).
T is the parent's time.monotonic() just before it started this process, so
set-up time covers interpreter start, imports, decomposition and inputs.
A pass runs every operation of the workload once.  The child runs passes
until the pass boundary nearest to the monotonic time U (at least one pass;
one pass when U is omitted) and checks each pass's outputs after that pass.
Outside the timed region it also times a fixed reference computation
(calibrate) before and after set-up, between operations and after every
pass, and in `run` mode every SAMPLE_INTERVAL_S inside set-up and inside
operations as well, so that the runner can state each time at one reference
speed of the machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# field for the arithmetic probes: F_81, the ambient field of the ternary
# C5 x C5 codes in the enumerate workload (small enough for pair tables)
PROBE_FIELD = (3, 4)
PROBE_ELEMENTS = 10 ** 6
PROBE_REPEATS = 7

# the reference computation: a kernel of about 5-15 ms that mixes the kinds
# of work qacodes does: interpreted Python (ints, a dict), many numpy calls on
# tiny arrays, hashing array bytes, table gathers and a matrix product
# modulo 2; qacodes itself is not run
CAL_REPEATS = 5
_cal_inputs = None


def calibrate(repeats: int = CAL_REPEATS) -> float:
    """Median seconds of one run of the reference kernel, over `repeats` runs."""
    global _cal_inputs
    import numpy as np
    if _cal_inputs is None:
        rng = np.random.default_rng(0)
        _cal_inputs = (rng.integers(0, 64, (64, 64), dtype=np.int32),
                       rng.integers(0, 64, 1 << 12), rng.integers(0, 64, 1 << 12),
                       rng.integers(0, 2, (1024, 16)), rng.integers(0, 2, (16, 32)),
                       list(rng.integers(0, 4, (64, 16), dtype=np.int8)))
    table, a, b, msgs, gens, rows = _cal_inputs
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x, seen = 0, {}
        for i in range(4000):
            x += i * i
            seen[i & 1023] = x
        for _ in range(16):
            int(table[a, b].sum())
        for _ in range(2):
            int(np.bincount(((msgs @ gens) % 2).sum(axis=1)).max())
        hashes = set()
        for _ in range(8):
            for row in rows:
                hashes.add(hash(row.tobytes()))
                x += int(np.count_nonzero(row)) + int(table[row[:8], row[8:]].sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


SAMPLE_INTERVAL_S = 0.1


class SpeedSampler:
    """Runs the reference kernel once from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time, so that speed samples fall inside long
    operations too (a search takes seconds).  `paused` is the kernel's total
    time, which the caller takes out of the time it measures; the handler
    runs between bytecodes, so a long numpy call delays a sample but is never
    cut."""

    def __init__(self, active: bool):
        self.active = active
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate(1))
        self.paused += time.perf_counter() - start

    def take(self) -> list[float]:
        """The samples since the last take."""
        out, self.samples = self.samples, []
        return out

    def __enter__(self) -> "SpeedSampler":
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_workload(name: str, seed: int, mode: str, spawned: float, until: float,
                 spans_path) -> dict:
    # the kernel runs before and after set-up; its time before and inside
    # set-up is taken out of set-up time, the numpy import it needs is left in
    import numpy  # noqa: F401
    started = time.monotonic()
    cal_before = calibrate()
    cal_spent = time.monotonic() - started
    sampler = SpeedSampler(mode in ("setup", "run"))
    with sampler:
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        import workloads
        wl = workloads.build(name, seed)
    first_op = time.monotonic()
    rec: dict = {"setup_s": first_op - spawned - cal_spent - sampler.paused,
                 "cal_s": [cal_before, *sampler.take(), calibrate()]}
    if mode == "setup":
        return rec

    run_s: list[float] = []
    op_s: list[list[float]] = []
    # per pass: the kernel's time before each operation and after the last,
    # and the samples taken inside each operation
    op_cal_s: list[list[float]] = []
    op_samples: list[list[list[float]]] = []
    failures: dict = {}
    selftest_misses: set = set()
    cal = rec["cal_s"][-1]
    while True:
        results, raised, pass_ops, pass_cal, pass_samples = {}, {}, [], [cal], []
        for i, op in enumerate(wl.ops):
            with sampler:
                paused = sampler.paused
                start = time.perf_counter()
                try:
                    results[op.name] = op.run()
                except Exception:  # a failed operation is counted, not fatal
                    raised[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
                pass_ops.append(time.perf_counter() - start - (sampler.paused - paused))
            pass_samples.append(sampler.take())
            if i < len(wl.ops) - 1:
                pass_cal.append(calibrate(1))
        run_s.append(sum(pass_ops))
        op_s.append(pass_ops)

        # -- correctness gate, outside the timed region and the trace ---------
        if tracer is not None:
            tracer.enabled = False
        cal = calibrate()
        pass_cal.append(cal)
        op_cal_s.append(pass_cal)
        op_samples.append(pass_samples)
        wrong = _check_pass(wl, results, raised, selftest_misses)
        failures.update(wrong)
        rec["failed"] = rec.get("failed", 0) + len(wrong)
        if time.monotonic() + statistics.median(run_s) / 2 >= until:
            break
    rec["run_s"] = run_s
    rec["op_s"] = op_s
    rec["op_cal_s"] = op_cal_s
    rec["op_samples"] = op_samples
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["attempted"] = len(wl.ops) * len(run_s)
    rec["failures"] = failures
    rec["selftest_misses"] = sorted(selftest_misses)

    if tracer is not None:
        rec["layers"] = tracer.summary()
        rec["stage1_s"] = _stage1_seconds(tracer.search_specs)
        if spans_path:
            tracer.write_spans(spans_path)
    return rec


def _check_pass(wl, results: dict, raised: dict, selftest_misses: set) -> dict:
    """Check one pass's outputs; return {operation: reason} for each that
    failed, and add to selftest_misses every operation whose check accepted
    a corrupted expectation."""
    failures = dict(raised)
    for op in wl.ops:
        if op.name in raised:
            continue
        reason = op.check(results[op.name], op.expected)
        if reason is not None:
            failures[op.name] = reason
        elif op.check(results[op.name], op.corrupt(op.expected)) is None:
            selftest_misses.add(op.name)
    cross = wl.cross_check({k: v for k, v in results.items() if k not in failures})
    if cross is not None:
        failures["cross-check"] = cross
    return failures


def _stage1_seconds(specs) -> float:
    """Untraced wall time of stage1_filter over every class, for each search
    the traced run made (the search itself runs stage 1 inline)."""
    import qacodes as qa
    total = 0.0
    for spec in specs:
        dec = qa.decompose_algebra(spec.group, spec.q)
        start = time.perf_counter()
        for i in range(dec.class_count):
            qa.stage1_filter(spec, i)
        total += time.perf_counter() - start
    return total


def run_algebra_probe(seed: int) -> dict:
    """Million elements per second of vadd/vmul on one field, once with pair
    tables and once with digit / log-exp arithmetic; both must agree."""
    import numpy as np
    from qacodes import FieldSpec
    q, degree = PROBE_FIELD
    tables = FieldSpec(q, degree, pair_tables=True)
    direct = FieldSpec(q, degree, pair_tables=False)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, tables.size, PROBE_ELEMENTS).astype(np.int32)
    B = rng.integers(0, tables.size, PROBE_ELEMENTS).astype(np.int32)
    rec: dict = {"attempted": 2, "failed": 0, "failures": {}, "selftest_misses": []}
    for op, name in (("vadd", "vadd_{}"), ("vmul", "vmul_{}")):
        outs = []
        for spec, path in ((tables, "table"), (direct, "digits" if op == "vadd" else "logexp")):
            fn = getattr(spec, op)
            times = []
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                out = fn(A, B)
                times.append(time.perf_counter() - start)
            outs.append(out)
            rec[name.format(path) + "_meps"] = PROBE_ELEMENTS / statistics.median(times) / 1e6
        if not np.array_equal(outs[0], outs[1]):
            rec["failed"] += 1
            rec["failures"][op] = "table and direct arithmetic disagree"
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "plain", "trace", "algebra"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--until", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    if args.mode == "algebra":
        rec = run_algebra_probe(args.seed)
    else:
        rec = run_workload(args.workload, args.seed, args.mode, args.spawned, args.until,
                           args.spans)
    sys.stdout.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
