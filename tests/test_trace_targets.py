"""The names perfbench/tracer.py wraps must exist in the package.

The tracer looks each target up in its module's namespace and reads
``.nbytes`` from the Hessian's first argument and result, so a rename or a
changed return type would break ``perfbench/run.py --trace 1``, and the
Hessians the flow and the oracle run must go through a name it wraps.  The
tracer is imported from its own directory, unchanged.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

import maflow.flow  # noqa: E402
from maflow.elliptic import solve  # noqa: E402
from maflow.flow import StepControl, make_state  # noqa: E402
from maflow.grid import TorusGrid  # noqa: E402
from maflow.presets import random_band_limited  # noqa: E402
from maflow.spectral import complex_hessian_values, rfftn  # noqa: E402


def test_every_patch_target_resolves():
    missing = []
    for module_name, attr_path, _ in tracer.PATCHES:
        owner, attr = tracer._resolve(module_name, attr_path)
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr]):
            missing.append(f"{module_name}.{attr_path}")
    assert not missing


def test_hessian_takes_and_returns_arrays():
    grid = TorusGrid(2, 8)
    fh = rfftn(np.cos(grid.axis_coordinates()[0]) * np.ones(grid.shape))
    out = complex_hessian_values(fh, grid)
    assert isinstance(fh, np.ndarray) and isinstance(out, np.ndarray)
    assert out.nbytes > 0


def test_n2_hessians_are_traced_spans(nonkahler2):
    # every Hessian of the n = 2 flow and oracle goes through the entry point
    # the tracer wraps: one per flow_rhs, and one per residual and Krylov apply
    g = nonkahler2
    F = random_band_limited(g.grid, 0.1, 1, seed=42)
    state = make_state(g, F)
    tr = tracer.Tracer()
    with tr.installed():
        for k in (1, 2):
            state = maflow.flow.step(state, StepControl(), t_land=0.1 * k)
        flow_names = list(tr.names)
        sol = solve(g, F, tol=1e-10)
    assert tr.restored
    oracle_names = tr.names[len(flow_names):]
    hessian = "spectral.complex_hessian_values"
    assert flow_names.count(hessian) == flow_names.count("flow.flow_rhs") > 0
    assert oracle_names.count("elliptic.apply") == sol.krylov_applies > 0
    assert oracle_names.count(hessian) == (oracle_names.count("elliptic.residual_field")
                                           + sol.krylov_applies)
