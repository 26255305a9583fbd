"""The names perfbench/tracer.py wraps must exist in the package.

The tracer looks each target up in its module's namespace and reads
``.nbytes`` from the Hessian's first argument and result, so a rename or a
changed return type would break ``perfbench/run.py --trace 1``.  The tracer
is imported from its own directory, unchanged.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from maflow.grid import TorusGrid  # noqa: E402
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
