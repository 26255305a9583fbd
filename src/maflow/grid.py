"""Computational manifold: flat real 2n-torus carrying a Hermitian metric.

Complex coordinates are z^i = x_{2i-1} + sqrt(-1) x_{2i}, so complex
dimension n means 2n real axes, each of period 2*pi (the torus is
R^{2n} / (2 pi Z)^{2n}) with the same point count N; the Fourier
wavenumbers are therefore integers, and every metric and forcing preset is
a trigonometric polynomial in them.  The volume form convention is pinned
once here:

    omega^n = 2^n n! det(g) dx_1 ... dx_{2n}

so the discrete volume element is ``form_factor(n) * det g(x) * h^{2n}``.
Quadrature weights are normalized to sum to one, i.e. ``integrate_values``
is the mean against the probability measure omega^n / Vol(M).  The metric
(``MetricField``) is taken as packed real entries in hermitian.py's layout,
like every other Hermitian field.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PositivityViolation
from .hermitian import det_field, log_det, log_det_above, min_eig_field

# Cap on N^{2n} grid points (memory budget).
MAX_POINTS = 1 << 22

# Period of every real axis.
PERIOD = 2.0 * math.pi


def form_factor(n: int) -> float:
    """Constant relating omega^n to det(g) times Lebesgue measure."""
    return 2.0**n * math.factorial(n)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the real 2n-torus of period 2*pi underlying T^n_C.

    complex_dim n must be 1 or 2; points_per_axis N must be even and >= 8
    (required by the symmetric spectral differentiation rule), and N^{2n}
    at most MAX_POINTS.
    """

    complex_dim: int = 1
    points_per_axis: int = 32

    def __post_init__(self):
        n, N = self.complex_dim, self.points_per_axis
        if n not in (1, 2):
            raise ValueError(f"complex_dim must be 1 or 2, got {n}")
        if N < 8 or N % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {N}")
        if N ** (2 * n) > MAX_POINTS:
            raise ValueError(
                f"grid size {N}^{2 * n} exceeds the memory budget of {MAX_POINTS} points"
            )

    @property
    def real_dim(self) -> int:
        return 2 * self.complex_dim

    @property
    def spacing(self) -> float:
        return PERIOD / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.real_dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** self.real_dim

    def axis_coordinates(self) -> list:
        """Per-axis coordinate arrays, broadcastable to the grid shape."""
        N, d = self.points_per_axis, self.real_dim
        x = np.arange(N) * self.spacing
        out = []
        for a in range(d):
            shape = [1] * d
            shape[a] = N
            out.append(x.reshape(shape))
        return out


# The mmap threshold pin_heap_thresholds last set (0: none yet); glibc's
# thresholds are process-wide, and so is this record of them.
_pinned_heap_size = 0


def pin_heap_thresholds(grid: TorusGrid):
    """Serve the grid's field-sized temporaries from the heap (glibc only).

    glibc maps each block above its mmap threshold afresh (page faults on
    first touch) and raises that threshold, with the heap's trim threshold,
    only after such a block is freed, so a solve's speed depended on what
    had been freed before it.  The mmap threshold is pinned here at the
    size of a full complex n x n field (glibc caps it at 32 MiB), and the
    heap is never trimmed, so a repeated solve reuses the pages the first
    one faulted in; grids whose fields fit under the starting 128 KiB are
    left alone.  A pinned threshold is never lowered, so a smaller grid
    solved after (or inside) a larger one, like the oracle's half-grid
    level, keeps the larger pin.
    """
    global _pinned_heap_size
    size = min(16 * grid.complex_dim ** 2 * grid.num_points, 32 << 20)
    if (size <= max(128 << 10, _pinned_heap_size)
            or "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {})):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: -1 turns trimming off
    mallopt(-3, size)  # M_MMAP_THRESHOLD
    _pinned_heap_size = size


@dataclass(frozen=True)
class ScalarField:
    """Real smooth periodic function sampled on the grid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("scalar field contains non-finite values")


def grid_point(index: int, shape: tuple) -> tuple:
    """Grid coordinates of a flat sample index, for error messages."""
    return tuple(int(i) for i in np.unravel_index(index, shape))


def cone_log_det(p: np.ndarray, floor: float, what: str,
                 t: Optional[float] = None) -> np.ndarray:
    """log det of each sample of the packed field p, once every eigenvalue
    of every sample is checked to exceed floor >= 0.

    hermitian.log_det_above decides the cone and takes log det in one set of
    passes.  Where it declines, the check runs again on min_eig_field, so
    that a failure is worded from the smallest eigenvalues: a
    PositivityViolation naming ``what``, the time t (when given) and the
    grid point of the first failing sample.  The guard is written as
    `not (min > floor)`, so a NaN fails it too.
    """
    out = log_det_above(p, floor)
    if out is not None:
        return out
    mins = min_eig_field(p)
    gmin = mins.min()
    if not gmin > floor:
        idx = int(np.argmin(mins))  # the first NaN, if there is one
        when = "" if t is None else f" at t={t:.6f}"
        raise PositivityViolation(
            f"{what}{when}: eigenvalue {gmin:.3e} not above {floor:.3e} at grid point "
            f"{grid_point(idx, mins.shape)}",
            index=idx, t=t,
        )
    return log_det(p)


@dataclass(frozen=True)
class MetricField:
    """Hermitian positive-definite n x n matrix per grid point.

    ``entries`` are the packed samples g_{i jbar}, shape (n*n,) + grid.shape
    (see hermitian.py), so the field is Hermitian by construction; every
    eigenvalue must be positive (a NaN fails too).  ``log_det`` = log det g
    and ``min_eig``, its smallest eigenvalue, are computed once here.
    """

    grid: TorusGrid
    entries: np.ndarray = field(repr=False)
    log_det: np.ndarray = field(init=False, repr=False, compare=False)
    min_eig: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.complex_dim
        if self.entries.shape != (n * n,) + self.grid.shape:
            raise ValueError("metric entry array has wrong shape")
        mins = min_eig_field(self.entries)
        min_eig = float(mins.min())
        if not min_eig > 0:
            idx = int(np.argmin(mins))
            raise PositivityViolation(
                f"metric eigenvalue {mins.reshape(-1)[idx]:.3e} not positive at grid point "
                f"{grid_point(idx, mins.shape)}",
                index=idx,
            )
        object.__setattr__(self, "log_det", log_det(self.entries))
        object.__setattr__(self, "min_eig", min_eig)


@dataclass(frozen=True)
class VolumeWeights:
    """Quadrature weights for the omega^n measure, normalized to sum to one."""

    grid: TorusGrid
    w: np.ndarray

    def __post_init__(self):
        if self.w.shape != self.grid.shape:
            raise ValueError("weight array shape does not match grid")
        if not np.all(self.w > 0):
            raise ValueError("volume weights must be positive")


def volume_weights(g: MetricField) -> VolumeWeights:
    """Build normalized quadrature weights from a metric field."""
    grid = g.grid
    dets = det_field(g.entries)
    if np.any(dets <= 0):
        raise PositivityViolation("metric determinant non-positive", index=int(np.argmin(dets)))
    cell = grid.spacing ** grid.real_dim
    raw = form_factor(grid.complex_dim) * dets * cell
    return VolumeWeights(grid, raw / float(np.sum(raw)))


def integrate_values(values: np.ndarray, w: VolumeWeights) -> float:
    """Mean of a value array against the normalized omega^n measure (exact
    for constants)."""
    return float((values * w.w).sum())
