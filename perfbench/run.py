"""Benchmark runner for qacodes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of search-f2, search-f4, enumerate, cli-mix, or `all` for every
workload in turn.  Closed loop, one client: each child process
(perfbench/child.py) sets up the workload from cold, then runs passes over
its operations in sequence, checking each pass's outputs after it; children
run one after another until S seconds have passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: a few set-up-only
children first, then full children that each run passes for up to
CHILD_WINDOW_S seconds; set-up time is a median over children, the other
metrics over every pass of the run.  Every time is stated at the reference
speed: each operation's time is multiplied by CAL_REF_S over the mean time of
the reference kernel (child.calibrate) run just before, inside and just
after it, so that the speed of a shared machine, which drifts within seconds
and over minutes, drops out.  The times as measured go to the record.
--trace 1 reports the per-layer metrics: untraced and traced children
alternate (the ratio of their pass times at the reference speed is the
tracing overhead), then one traced cli-mix pass for the layers the workload
does not call, then the field-arithmetic probes.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A record
with the environment and every sample goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search-f2", "search-f4", "enumerate", "cli-mix")
SETUP_CHILDREN = 8
CHILD_WINDOW_S = 8  # a full child runs passes for about this long
CAL_REF_S = 0.010  # one run of child.calibrate's kernel at the reference speed
RUN_LIMIT_S = 160  # no child starts if it would likely end after this
CHILD_TIMEOUT_S = 150
# glibc raises its mmap and trim thresholds at the first large free, at a
# point that varies from child to child, so peak RSS flipped between two
# values; both are fixed at the values they can rise to
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
             "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


# ---------------------------------------------------------------------------
# child processes

class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float, spans=None,
          until=None) -> tuple[dict, float]:
    """Run one child to completion; return its record and wall seconds."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned", repr(spawned)]
    if until is not None:
        cmd += ["--until", repr(until)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} child exceeded {timeout:.0f} s") from None
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}: {tail}")
    return json.loads(out.strip().splitlines()[-1]), wall


def child_seed(seed: int, k: int) -> int:
    """The k-th child of a run gets its own operation order, fixed by the seed."""
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# statistics

def median_q(xs: list[float]) -> tuple[float, float, float]:
    if len(set(xs)) == 1:  # also keeps repeated counts integral
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def scaled_passes(rec: dict) -> list[list[float]]:
    """Each pass's operation times at the reference speed: operation i of a
    pass is scaled by the mean kernel time just before it (calibration i),
    inside it and just after it (calibration i + 1)."""
    return [[t * CAL_REF_S / statistics.mean([cal[i], *inside[i], cal[i + 1]])
             for i, t in enumerate(op_s)]
            for op_s, cal, inside in zip(rec["op_s"], rec["op_cal_s"], rec["op_samples"])]


def op_percentiles(xs: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of one pass's operation times.  Every pass
    runs the same operations, so the runner takes these per pass and reports
    their medians over the passes: the 90th percentile of a 30-operation pass
    lies between its third and fourth slowest operation, where a percentile
    pooled over all passes would be the slowest of some 20 repeats of one
    operation."""
    if len(xs) == 1:
        return xs[0], xs[0]
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    return deciles[4], deciles[8]


# ---------------------------------------------------------------------------
# one workload

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, started: float):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + seconds
        self.limit = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.children = 0
        self.samples: dict[str, list[float]] = {}

    def child(self, workload: str, mode: str, k: int, spans=None,
              until=None) -> tuple[dict | None, float]:
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.limit + 15 - time.monotonic()))
        try:
            rec, wall = spawn(workload, child_seed(self.seed, k), mode, timeout, spans, until)
        except (ChildFailed, ValueError, IndexError) as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(str(exc))
            return None, 0.0
        self.children += 1
        self.attempted += rec.get("attempted", 0)
        self.failed += rec.get("failed", 0)
        for op, reason in rec.get("failures", {}).items():
            self.problems.append(f"{workload}: {op}: {reason}")
        for op in rec.get("selftest_misses", []):
            self.problems.append(f"{workload}: gate self-test: a corrupted expectation "
                                 f"for {op} was not rejected")
        return rec, wall

    def more(self, walls: list[float]) -> bool:
        """Start another child if at least half of it would likely fall in the
        measuring window and all of it before the hard limit, so that a run
        ends at the child boundary nearest to the window's end."""
        now = time.monotonic()
        expected = statistics.median(walls) if walls else 0.0
        return now + expected / 2 < self.deadline and now + expected < self.limit

    def end_to_end(self) -> dict:
        setups, runs, ops, rss, walls = [], [], [], [], []
        measured: dict[str, list[float]] = {"setup_s": [], "run_s": [], "cal_s": []}
        for k in range(SETUP_CHILDREN):
            rec, _ = self.child(self.workload, "setup", k)
            if rec:
                setups.append(rec["setup_s"] * CAL_REF_S / statistics.mean(rec["cal_s"]))
                measured["setup_s"].append(rec["setup_s"])
        k = 0
        while not runs or self.more(walls):
            until = min(self.deadline, time.monotonic() + CHILD_WINDOW_S)
            rec, wall = self.child(self.workload, "run", k, until=until)
            k += 1
            if rec is None:
                break
            setups.append(rec["setup_s"] * CAL_REF_S / statistics.mean(rec["cal_s"]))
            for scaled, cal in zip(scaled_passes(rec), rec["op_cal_s"]):
                runs.append(sum(scaled))
                ops.append(op_percentiles(scaled))
                measured["cal_s"].extend(cal)
            rss.append(rec["peak_rss_mb"])
            walls.append(wall)
            measured["setup_s"].append(rec["setup_s"])
            measured["run_s"].extend(rec["run_s"])
        if not runs:
            return {}
        p50s, p90s = [p[0] for p in ops], [p[1] for p in ops]
        self.samples = {"setup_s": setups, "run_s": runs, "op_p50_s": p50s, "op_p90_s": p90s,
                        "peak_rss_mb": rss, "as_measured": measured}
        return {"setup_s": median_q(setups) + (len(setups),),
                "run_s": median_q(runs) + (len(runs),),
                "op_p50_s": median_q(p50s) + (len(p50s),),
                "op_p90_s": median_q(p90s) + (len(p90s),),
                "peak_rss_mb": median_q(rss) + (len(rss),)}

    def per_layer(self) -> dict:
        plain, traced, walls = [], [], []
        k = 0
        while not traced or self.more(walls):
            rec, wall = self.child(self.workload, "plain", k)
            if rec is None:
                break
            plain.append(sum(scaled_passes(rec)[0]))
            walls.append(wall)
            spans = OUT / f"spans-{self.workload}.json"
            rec, wall = self.child(self.workload, "trace", k, spans)
            k += 1
            if rec is None:
                break
            traced.append(rec)
            walls.append(wall)
        if not traced:
            return {}
        values = [layer_metrics(r) for r in traced]
        metrics = {m: median_q([v[0][m] for v in values]) + (len(values),)
                   for m in values[0][0]}
        touched = values[0][1]
        if self.workload != "cli-mix" and not all(touched.values()):
            probe, _ = self.child("cli-mix", "trace", 0)
            if probe is not None:
                pvalues, _ = layer_metrics(probe)
                for m, made in touched.items():
                    if not made:
                        metrics[m] = (pvalues[m], None, None, 1)
        t_run = statistics.median(sum(scaled_passes(r)[0]) for r in traced)
        metrics["bench.trace_overhead_frac"] = (t_run / statistics.median(plain) - 1,
                                                None, None, len(traced))
        rec, _ = self.child(self.workload, "algebra", 0)
        if rec is not None:
            for key, value in rec.items():
                if key.endswith("_meps"):
                    metrics[f"algebra.{key}"] = (value, None, None, 1)
        return metrics


# ---------------------------------------------------------------------------
# environment and output

def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(workload: str, trace: int, spec: list[dict], metrics: dict, run: Run,
           env: dict) -> dict:
    """Print the human-readable summary and return the metrics as the
    contract wants them (every metric of the selected BENCHMARK.json list)."""
    print(f"workload {workload}  seed {run.seed}  trace {trace}  "
          f"children {run.children}")
    print("environment " + json.dumps(env))
    out = {}
    if not metrics:
        run.problems.append(f"{workload}: no child completed, nothing was measured")
    for m in spec:
        if not metrics:
            break
        if m["name"] not in metrics:
            run.problems.append(f"{workload}: metric {m['name']} was not measured")
            continue
        value, q1, q3, n = metrics[m["name"]]
        spread = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {n})" if q1 is not None else f"  (n {n})"
        print(f"  {m['name']:40s} = {value:.6g} {m['unit']}{spread}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    measured = run.samples.get("as_measured")
    if measured:
        print(f"  as measured: setup_s {statistics.median(measured['setup_s']):.6g} s, "
              f"run_s {statistics.median(measured['run_s']):.6g} s, reference kernel "
              f"{statistics.median(measured['cal_s']) * 1e3:.4g} ms "
              f"(at the reference speed {CAL_REF_S * 1e3:g} ms)")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_frac':40s} = {frac:.6g}  ({run.failed} of {run.attempted} operations)")
    for p in run.problems:
        print(f"  FAILED: {p}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "environment": env,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "metrics": {k: dict(zip(("median", "q1", "q3", "n"), v))
                          for k, v in metrics.items()},
              "samples": run.samples}
    (OUT / f"{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                        encoding="utf-8")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "qacodes" / "__init__.py").is_file():
        print(f"error: no qacodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec = bench["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics_out, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        run = Run(name, args.seed, args.seconds, time.monotonic() if len(names) > 1 else started)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        got = report(name, args.trace, spec, metrics, run, env)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics_out.update({prefix + k: v for k, v in got.items()})
        attempted += run.attempted
        failed += run.failed
        correct = correct and not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
