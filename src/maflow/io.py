"""Artifact persistence: field dumps, CSV series, JSON summaries.

Field dump format: one JSON header line

    {"shape": [...], "dtype": "f64", "byte_order": "little",
     "layout": "row-major", "kind": "scalar" | "hermitian_matrix",
     "grid": {"complex_dim": n, "points_per_axis": N, "period": L}}

followed by raw little-endian float64 values in row-major order.  Matrix
fields are interleaved (re, im) per entry with index order (point, i, j).
All writers format floats with shortest round-trip repr, so identical runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import ScalarField, TorusGrid


def _grid_header(grid: TorusGrid) -> dict:
    return {
        "complex_dim": grid.complex_dim,
        "points_per_axis": grid.points_per_axis,
        "period": grid.period,
    }


def dump_scalar_field(path, field: ScalarField):
    header = {
        "shape": list(field.values.shape),
        "dtype": "f64",
        "byte_order": "little",
        "layout": "row-major",
        "kind": "scalar",
        "grid": _grid_header(field.grid),
    }
    data = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(data.tobytes())


def load_scalar_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        g = header["grid"]
        grid = TorusGrid(g["complex_dim"], g["points_per_axis"], g["period"])
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(header["shape"])
    return ScalarField(grid, data.copy())


def dump_matrix_field(path, grid: TorusGrid, mats: np.ndarray):
    n = grid.complex_dim
    header = {
        "shape": list(grid.shape) + [n, n, 2],
        "dtype": "f64",
        "byte_order": "little",
        "layout": "row-major",
        "kind": "hermitian_matrix",
        "grid": _grid_header(grid),
    }
    inter = np.empty(grid.shape + (n, n, 2), dtype="<f8")
    inter[..., 0] = mats.real
    inter[..., 1] = mats.imag
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(np.ascontiguousarray(inter).tobytes())


def load_matrix_field(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        g = header["grid"]
        grid = TorusGrid(g["complex_dim"], g["points_per_axis"], g["period"])
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(header["shape"])
    mats = data[..., 0] + 1j * data[..., 1]
    return grid, mats


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=False, default=_json_default)
    Path(path).write_text(text + "\n")


def write_text(path, text: str):
    Path(path).write_text(text)
