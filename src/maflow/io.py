"""Artifact persistence: field dumps, CSV series, JSON summaries.

Field dump format (real scalar fields only): one JSON header line

    {"shape": [...], "dtype": "f64", "byte_order": "little",
     "layout": "row-major", "kind": "scalar",
     "grid": {"complex_dim": n, "points_per_axis": N, "period": 2 pi}}

followed by raw little-endian float64 values in row-major order.  The
period is always 2 pi (see grid.py); a dump that records any other period
is rejected on load.  All writers format floats with shortest round-trip
repr, so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import PERIOD, ScalarField, TorusGrid


def dump_scalar_field(path, field: ScalarField):
    header = {
        "shape": list(field.values.shape),
        "dtype": "f64",
        "byte_order": "little",
        "layout": "row-major",
        "kind": "scalar",
        "grid": {"complex_dim": field.grid.complex_dim,
                 "points_per_axis": field.grid.points_per_axis, "period": PERIOD},
    }
    data = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(data.tobytes())


def load_scalar_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        g = header["grid"]
        if g["period"] != PERIOD:
            raise ValueError(f"field dump has period {g['period']}, expected 2 pi")
        grid = TorusGrid(g["complex_dim"], g["points_per_axis"])
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(header["shape"])
    return ScalarField(grid, data.copy())


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def json_text(payload: dict) -> str:
    """The text write_json writes for payload."""
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def write_json(path, payload: dict):
    Path(path).write_text(json_text(payload))


def write_text(path, text: str):
    Path(path).write_text(text)
