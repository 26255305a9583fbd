"""One benchmark iteration runs against the package as it is.

perfbench/worker.py builds its configs with ``config_from_kv`` and reads
``cfg.mode``, ``cfg.elliptic_tol`` and ``runner.build_problem``; a renamed
field or changed signature would fail every benchmark iteration.  Each
workload below runs once, untraced at the default seed, in a fresh process
as the benchmark runs it, and must come back ok with no failed checks.
flow_n2 also runs once traced, which wraps every perfbench/tracer.py
target and must put each original back.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _run_worker(workload, traced):
    job = json.dumps({"workload": workload, "seed": 1, "traced": traced})
    proc = subprocess.run([sys.executable, str(WORKER), job],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["error"] is None and out["failed_checks"] == [] and out["ok"]
    return out


@pytest.mark.parametrize("workload", ["flow_n1", "oracle_n2"])
def test_worker_iteration_ok(workload):
    _run_worker(workload, traced=False)


def test_worker_traced_flow_n2_ok():
    out = _run_worker("flow_n2", traced=True)
    assert out["wrappers_restored"]
