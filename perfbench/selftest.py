"""Self-test of the benchmark itself (not of maflow).

    python3 perfbench/selftest.py [workload ...]      # default: all three

For each workload it runs one untraced and two traced worker iterations at
the default seed, and checks that:

  * every iteration passes its correctness checks;
  * the count metrics (steps, rhs calls, FFTs, Hessians, Krylov applies,
    emits) repeat exactly between the traced iterations, and the program's
    own counts (steps, field snapshots, Newton iterations) across all three;
  * traced and untraced iterations write byte-identical monitors.csv;
  * every wrapper is restored afterwards, also when the traced code raises;
  * the self times under the wall root add up to the traced wall time;
  * the host clock probes during its body, puts the SIGALRM handler and
    timer back afterwards, and leaves its probe time out of wall_s.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

from run import WORKLOADS, iteration_failures, run_worker

BENCH = Path(__file__).resolve().parent


def check_workload(workload):
    results = [run_worker({"workload": workload, "seed": 1, "traced": traced}, 170.0)
               for traced in (False, True, True)]
    problems = [f"iteration {i}: {why}" for i, why in iteration_failures(results).items()]
    for r in results[1:]:
        if r is not None and r["ok"] and abs(r["self_s_sum"] - r["wall_s"]) > 1e-9 * r["wall_s"]:
            problems.append(f"self times sum to {r['self_s_sum']}, traced wall is {r['wall_s']}")
    return problems


def check_restore_on_error():
    """Wrappers come off even when the traced call raises."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    from maflow import flow
    from tracer import Tracer

    original = flow.flow_rhs
    tracer = Tracer()
    try:
        with tracer.installed():
            flow.flow_rhs(None, None, None)
    except AttributeError:
        pass
    problems = []
    if not tracer.restored or flow.flow_rhs is not original:
        problems.append("wrappers not restored after an exception")
    if tracer.raised != {0}:
        problems.append(f"raising span not recorded: {tracer.raised}")
    return problems


def check_host_clock():
    """HostClock samples its body and restores the alarm it borrows."""
    import signal
    import time

    from hostclock import HostClock, PERIOD_S

    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with HostClock() as clock:
        while time.perf_counter() - t0 < 10 * PERIOD_S:
            sum(range(1000))
    elapsed = time.perf_counter() - t0
    problems = []
    if signal.getsignal(signal.SIGALRM) is not before:
        problems.append("SIGALRM handler not restored")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append("interval timer left running")
    if len(clock.probes) < 5:
        problems.append(f"only {len(clock.probes)} probes in {elapsed:.2f} s")
    if not 0 < clock.wall_s < elapsed - clock.probe_s + 1e-3 or clock.work_s <= 0:
        problems.append(f"wall {clock.wall_s}, work {clock.work_s}, elapsed {elapsed}")
    return problems


def main(argv):
    workloads = argv or list(WORKLOADS)
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads {sorted(unknown)}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    checks = [("restore_on_error", check_restore_on_error), ("host_clock", check_host_clock)]
    checks += [(w, lambda w=w: check_workload(w)) for w in workloads]
    failures = 0
    for name, check in checks:
        problems = check()
        print(f"{name}: {'ok' if not problems else 'FAIL'}", flush=True)
        for p in problems:
            print(f"  - {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
