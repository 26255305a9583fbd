"""One benchmark iteration in a fresh process: set up, solve once, check.

    python3 perfbench/worker.py '{"workload": "flow_n2", "seed": 1, "traced": false}'
    python3 perfbench/worker.py record     # rewrite perfbench/reference/*.npz

The job prints one JSON line: set-up and wall timings, peak RSS, the counts
the program itself reports, the check values and, when traced, the
per-layer metrics.  BLAS threads are pinned here, before numpy is imported,
so every iteration runs single-threaded BLAS; MAFLOW_THREADS (the FFT worker
cap) is inherited and recorded.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
OUT_DIR = BENCH / "out"

if not (SRC / "maflow" / "__init__.py").is_file():
    sys.exit(f"worker: no maflow sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from maflow import runner  # noqa: E402
from maflow.config import config_from_kv  # noqa: E402
from maflow.errors import MaflowError  # noqa: E402
from maflow.verification import RUN1_KV, RUN2_KV  # noqa: E402

# Workload seed s maps to the program's seeds by a fixed offset, so the
# default s = 1 reproduces the acceptance seeds: run 1 uses rng_seed 11;
# run 2 uses rng_seed 21 with forcing.seed 1.  flow_n1's manufactured forcing
# ignores the seed, which there only drives the Hoelder sampler.
DEFAULT_SEED = 1
WORKLOADS = {
    "flow_n1": {"kv": RUN1_KV, "mode": "flow", "horizon": "5", "rng_offset": 10,
                "seeds_forcing": False, "phi_tol": 1e-6, "b_tol": 1e-8},
    "flow_n2": {"kv": RUN2_KV, "mode": "flow", "horizon": "2", "rng_offset": 20,
                "seeds_forcing": True, "phi_tol": 1e-5, "b_tol": 1e-5},
    "oracle_n2": {"kv": RUN2_KV, "mode": "solve-elliptic", "horizon": None, "rng_offset": 20,
                  "seeds_forcing": True, "phi_tol": 1e-9, "b_tol": 1e-9},
}
MP_TOL = 1e-8       # criterion 4: max-principle slack
MEAN_TOL = 1e-12    # criterion 4: |mean phi_tilde| at every record
# Set-up is repeated until this much time is spent: once for n=2 (~0.7 s),
# hundreds of times for n=1 (~1 ms), and the mean taken, so a cold first call
# does not decide it.
SETUP_MIN_SECONDS = 0.5


def config_for(workload, seed):
    spec = WORKLOADS[workload]
    kv = dict(spec["kv"])
    kv["mode"] = spec["mode"]
    kv["rng_seed"] = str(spec["rng_offset"] + seed)
    if spec["seeds_forcing"]:
        kv["forcing.seed"] = str(seed)
    if spec["horizon"] is not None:
        kv["flow.horizon"] = spec["horizon"]
    return config_from_kv(kv)


def load_reference(workload, seed):
    """(phi_tilde, b) recorded from the seed commit, or None for this seed."""
    path = REFERENCE_DIR / f"{workload}.npz"
    if not path.is_file():
        return None
    with np.load(path, allow_pickle=False) as ref:
        if WORKLOADS[workload]["seeds_forcing"] and int(ref["seed"]) != seed:
            return None
        return ref["phi_tilde"].copy(), float(ref["b"])


@contextmanager
def prebuilt(problem):
    """Hand execute_flow/execute_elliptic an already built (and timed) problem."""
    original = runner.build_problem
    runner.build_problem = lambda cfg: problem
    try:
        yield
    finally:
        runner.build_problem = original


def execute(cfg):
    if cfg.mode == "flow":
        return runner.execute_flow(cfg)
    return runner.execute_elliptic(cfg)


def solution_of(art):
    """Final phi_tilde and b of a flow or an oracle solve."""
    if hasattr(art, "result"):
        return art.result.final.phi_tilde.values, art.summary["b_flow"]
    return art.solution.phi_tilde_inf.values, art.solution.b


def check(workload, seed, cfg, art):
    """Check values and the names of the checks that failed."""
    spec = WORKLOADS[workload]
    values = {"check.phi_err": -1.0, "check.b_err": -1.0, "check.mp_slack": -1.0}
    failed = []
    if cfg.mode == "flow":
        recs = art.result.series.records
        sup_f = float(np.max(np.abs(art.forcing.values)))
        values["check.mp_slack"] = max(r.sup_dphidt for r in recs) - sup_f
        if values["check.mp_slack"] > MP_TOL:
            failed.append("max_principle")
        if max(abs(r.mean_phitilde) for r in recs) > MEAN_TOL:
            failed.append("mean_phitilde")
    elif not art.solution.residual_sup <= cfg.elliptic_tol:
        failed.append("residual_sup")
    ref = load_reference(workload, seed)
    if ref is not None:
        phi, b = solution_of(art)
        values["check.phi_err"] = float(np.max(np.abs(phi - ref[0])))
        values["check.b_err"] = abs(b - ref[1])
        if not values["check.phi_err"] <= spec["phi_tol"]:
            failed.append("phi_reference")
        if not values["check.b_err"] <= spec["b_tol"]:
            failed.append("b_reference")
    return values, failed


def facts(art):
    """Counts and values the program itself reports (no tracing needed)."""
    if hasattr(art, "result"):
        snaps = art.result.series.field_snaps
        return {
            "flow.steps": art.result.final.step_count,
            "monitors.field_snaps": len(snaps),
            "monitors.snapshot_bytes": sum(s.phi.nbytes + s.u.nbytes for s in snaps),
            "elliptic.newton_iters": 0,
            "elliptic.residual_sup": 0.0,
        }
    return {
        "flow.steps": 0,
        "monitors.field_snaps": 0,
        "monitors.snapshot_bytes": 0,
        "elliptic.newton_iters": art.solution.newton_iters,
        "elliptic.residual_sup": art.solution.residual_sup,
    }


def run_untraced(cfg):
    """Set up and solve, timed by a HostClock each (see hostclock.py)."""
    from hostclock import HostClock

    builds = 0
    with HostClock() as setup:
        while builds == 0 or setup.wall_s + setup.probe_s < SETUP_MIN_SECONDS:
            problem = runner.build_problem(cfg)
            builds += 1
    with prebuilt(problem):
        c0 = time.process_time()
        with HostClock() as solve:
            art = execute(cfg)
        cpu = time.process_time() - c0 - solve.probe_s
    return art, {"setup_s": setup.work_s / builds, "setup_raw_s": setup.wall_s / builds,
                 "setup_n": builds, "wall_s": solve.work_s, "wall_raw_s": solve.wall_s,
                 "probe_us": 1e6 * statistics.median(solve.probes), "cpu_s": cpu}


def run_traced(cfg, workload):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("runner.setup"):
            problem = runner.build_problem(cfg)
        with prebuilt(problem), tracer.span("runner.wall"):
            art = execute(cfg)
    wall, by_layer, by_span = tracer.self_time_by_layer()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{workload}.spans.csv")
    summary = {"workload": workload, "traced_wall_s": wall,
               "self_s_sum": sum(by_layer.values()),
               "self_s_by_layer": by_layer, "self_s_by_span": by_span}
    (OUT_DIR / f"{workload}.trace.json").write_text(json.dumps(summary, indent=2) + "\n")
    return art, {"wall_s": wall, "self_s_sum": summary["self_s_sum"],
                 "wrappers_restored": tracer.restored,
                 "layers": tracer.layer_metrics()}


def environment():
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAFLOW_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **threads}


def run_job(job):
    workload, seed = job["workload"], int(job["seed"])
    out = {"workload": workload, "seed": seed, "traced": bool(job["traced"]),
           "environment": environment(), "ok": False, "error": None, "failed_checks": []}
    try:
        cfg = config_for(workload, seed)
        if job["traced"]:
            art, timings = run_traced(cfg, workload)
        else:
            art, timings = run_untraced(cfg)
    except MaflowError as e:
        out["error"] = f"{type(e).__name__}: {e}"
        return out
    out.update(timings)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["facts"] = facts(art)
    out["csv_sha256"] = (hashlib.sha256(art.csv_text.encode()).hexdigest()
                         if hasattr(art, "csv_text") else None)
    out["checks"], out["failed_checks"] = check(workload, seed, cfg, art)
    out["ok"] = not out["failed_checks"]
    return out


def record_references():
    """Store each workload's final phi_tilde and b at the default seed."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        phi, b = solution_of(execute(config_for(workload, DEFAULT_SEED)))
        np.savez(REFERENCE_DIR / f"{workload}.npz", phi_tilde=phi, b=np.float64(b),
                 seed=np.int64(DEFAULT_SEED))
        print(f"{workload}: b = {b!r}, sup|phi_tilde| = {float(np.max(np.abs(phi))):.6e}")


def main(argv):
    if argv == ["record"]:
        record_references()
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_job(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
