"""Benchmark entry point: one workload, a closed loop of fresh worker processes.

    python3 perfbench/run.py --workload flow_n2 --seed 1 --seconds 30 --trace 0

Each iteration is one worker.py process: set up, solve once, check.  One
client runs iterations back to back, never two at once, and starts another
only while it fits in --seconds (the first always runs).  With --trace 0 the
iterations are untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced iterations alternate and the per-layer metrics
are reported.  The metric names and units are read from BENCHMARK.json.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the machine, the thread pins,
the versions, the code and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flow_n1", "flow_n2", "oracle_n2")
# Counts that must repeat exactly across the traced iterations of one run.
EXACT_COUNTS = ("flow.steps", "flow.rhs_calls", "flow.halvings", "spectral.fft_calls",
                "spectral.hessian_calls", "elliptic.krylov_applies",
                "elliptic.precond_calls", "monitors.emit_calls")
WORKER_TIMEOUT_S = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_worker(job, timeout):
    """One iteration in a fresh process; its result dict, or None if it crashed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s: {job}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed ({proc.returncode}): {job}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_loop(args):
    """Iterations back to back until the next one would overrun --seconds."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        job = {"workload": args.workload, "seed": args.seed, "traced": traced}
        t0 = time.perf_counter()
        remaining = WORKER_TIMEOUT_S - (t0 - start)
        res = run_worker(job, max(remaining, 1.0))
        durations.append(time.perf_counter() - t0)
        results.append(res)
        if res is None:
            break
        if args.trace and len(results) < 2:
            continue  # a traced run needs one untraced and one traced iteration
        if time.perf_counter() - start + max(durations) > args.seconds:
            break
    return results


def iteration_failures(results):
    """Index -> reason for every iteration that failed, raised or disagreed.

    At one seed and thread pin, every iteration must write the same
    monitors.csv (criterion 11) and report the same program counts, traced
    or not, and the traced ones the same span counts.
    """
    bad = {}
    first = traced_first = None
    for i, r in enumerate(results):
        if r is None:
            bad[i] = "worker crashed"
            continue
        if not r["ok"]:
            bad[i] = r["error"] or ",".join(r["failed_checks"])
            continue
        first = first or r
        if r["csv_sha256"] != first["csv_sha256"]:
            bad[i] = "monitors.csv differs from the first iteration"
        elif r["facts"] != first["facts"]:
            bad[i] = "program counts differ from the first iteration"
        if r["traced"]:
            counts = {k: r["layers"][k] for k in EXACT_COUNTS}
            traced_first = traced_first or counts
            if counts != traced_first:
                bad[i] = "traced counts differ from the first traced iteration"
            elif r["layers"]["flow.steps"] != r["facts"]["flow.steps"]:
                bad[i] = "traced step count differs from the program's own"
            elif not r["wrappers_restored"]:
                bad[i] = "tracer left a wrapper installed"
    return bad


def median_of(rows, key):
    vals = [r[key] for r in rows]
    return statistics.median(vals) if vals else 0.0


def end_to_end(ok_rows):
    untraced = [r for r in ok_rows if not r["traced"]]
    return {"wall_s": median_of(untraced, "wall_s"),
            "setup_s": median_of(untraced, "setup_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb")}


def per_layer(ok_rows):
    traced = [r for r in ok_rows if r["traced"]]
    untraced = [r for r in ok_rows if not r["traced"]]
    if not traced:
        return {}
    # the low median is a measured sample, so counts stay whole numbers
    out = {key: statistics.median_low(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    for key in ("monitors.field_snaps", "monitors.snapshot_bytes",
                "elliptic.newton_iters", "elliptic.residual_sup"):
        out[key] = statistics.median_low(r["facts"][key] for r in traced)
    out.update(traced[0]["checks"])
    out["runner.cpu_s"] = median_of(untraced, "cpu_s")
    out["runner.wall_raw_s"] = median_of(untraced, "wall_raw_s")
    out["runner.setup_raw_s"] = median_of(untraced, "setup_raw_s")
    out["runner.probe_us"] = median_of(untraced, "probe_us")
    # the traced wall time is not speed-weighted, so it is compared with the raw one
    base = out["runner.wall_raw_s"]
    out["runner.trace_overhead"] = median_of(traced, "wall_s") / base - 1.0 if base else 0.0
    return out


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "maflow" / "__init__.py").is_file():
        print(f"run.py: no maflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = closed_loop(args)
    bad = iteration_failures(results)
    ok_rows = [r for i, r in enumerate(results) if i not in bad]
    values = per_layer(ok_rows) if args.trace else end_to_end(ok_rows)
    # with nothing measured (every iteration failed) the values read 0
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]}
               for m in wanted}

    first = next((r for r in results if r is not None), {})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "environment": first.get("environment"),
        "failures": {str(i): why for i, why in bad.items()},
        "samples": [None if r is None else
                    {k: r.get(k) for k in ("traced", "setup_s", "setup_raw_s", "setup_n",
                                           "wall_s", "wall_raw_s", "probe_us", "cpu_s",
                                           "peak_rss_mb", "facts", "checks")}
                    for r in results],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not bad and len(ok_rows) == len(results),
        "attempted": len(results),
        "failed": len(bad),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
