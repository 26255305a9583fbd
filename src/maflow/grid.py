"""Computational manifold: flat real 2n-torus carrying a Hermitian metric.

Complex coordinates are z^i = x_{2i-1} + sqrt(-1) x_{2i}, so complex
dimension n means 2n real axes, each of period 2*pi (the torus is
R^{2n} / (2 pi Z)^{2n}) with the same point count N; the Fourier
wavenumbers are therefore integers, and every metric and forcing preset is
a trigonometric polynomial in them.  The volume form convention is pinned
once here:

    omega^n = 2^n n! det(g) dx_1 ... dx_{2n}

so the discrete volume element is ``FORM_FACTOR(n) * det g(x) * h^{2n}``.
Quadrature weights are normalized to sum to one, i.e. ``integrate`` is the
mean against the probability measure omega^n / Vol(M).  ``volume_normalize``
rescales a metric so the raw discrete volume itself equals one.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .errors import GridMismatch, PositivityViolation
from .hermitian import det_field, log_det, min_eig_field, pack, unpack

# Default floor for the smallest metric eigenvalue over the grid.
LAMBDA_FLOOR = 0.1

# Default cap on N^{2n} grid points (memory budget).
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
    (required by the symmetric spectral differentiation rule).
    """

    complex_dim: int
    points_per_axis: int
    max_points: int = MAX_POINTS

    def __post_init__(self):
        n, N = self.complex_dim, self.points_per_axis
        if n not in (1, 2):
            raise ValueError(f"complex_dim must be 1 or 2, got {n}")
        if N < 8 or N % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {N}")
        if N ** (2 * n) > self.max_points:
            raise ValueError(
                f"grid size {N}^{2 * n} exceeds the memory budget of {self.max_points} points"
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

    def same_as(self, other: "TorusGrid") -> bool:
        return (
            self.complex_dim == other.complex_dim
            and self.points_per_axis == other.points_per_axis
        )


def _check_same_grid(a: TorusGrid, b: TorusGrid):
    if not a.same_as(b):
        raise GridMismatch(f"grids differ: {a} vs {b}")


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
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite values")


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued periodic field (intermediate quantities like d_holo f)."""

    grid: TorusGrid
    values: np.ndarray


def grid_point(index: int, shape: tuple) -> tuple:
    """Grid coordinates of a flat sample index, for error messages."""
    return tuple(int(i) for i in np.unravel_index(index, shape))


def check_cone(mins: np.ndarray, floor: float, what: str, t: Optional[float] = None):
    """Raise PositivityViolation unless every smallest eigenvalue exceeds floor.

    mins is a field of pointwise smallest eigenvalues.  Written as
    `not (min > floor)` so that a NaN fails the guard too; the message names
    ``what``, the time t (when given) and the grid point of the first
    failing sample.
    """
    gmin = mins.min()
    if not gmin > floor:
        idx = int(np.argmin(mins))  # the first NaN, if there is one
        when = "" if t is None else f" at t={t:.6f}"
        raise PositivityViolation(
            f"{what}{when}: eigenvalue {gmin:.3e} not above {floor:.3e} at grid point "
            f"{grid_point(idx, mins.shape)}",
            index=idx, t=t,
        )


def hermitize(mats: np.ndarray) -> np.ndarray:
    """Symmetrize a (..., n, n) stack to exact Hermitian form."""
    return 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))


@dataclass(frozen=True)
class MetricField:
    """Hermitian positive-definite n x n matrix per grid point.

    Built from full matrices ``mats`` of shape grid.shape + (n, n) with
    mats[..., i, j] = g_{i jbar}, which are checked to be Hermitian and to
    have every eigenvalue at or above ``lambda_floor``.  Only their packed
    form is kept: ``entries`` (shape (n*n,) + grid.shape, see hermitian.py)
    and ``log_det`` = log det g, both computed once here.
    """

    grid: TorusGrid
    mats: InitVar[np.ndarray]
    lambda_floor: float = LAMBDA_FLOOR
    entries: np.ndarray = field(init=False, repr=False)
    log_det: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, mats):
        n = self.grid.complex_dim
        if mats.shape != self.grid.shape + (n, n):
            raise ValueError("metric sample array has wrong shape")
        herm_err = np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))))
        if herm_err > 1e-12:
            raise ValueError(f"metric samples not Hermitian (max asymmetry {herm_err:.3e})")
        entries = pack(mats)
        mins = min_eig_field(entries)
        if not np.all(mins >= self.lambda_floor):
            idx = int(np.argmin(mins))
            raise PositivityViolation(
                f"metric eigenvalue {mins.reshape(-1)[idx]:.3e} below floor "
                f"{self.lambda_floor:.3e} at grid point {grid_point(idx, mins.shape)}",
                index=idx,
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "log_det", log_det(entries))

    @property
    def n(self) -> int:
        return self.grid.complex_dim

    def min_eigenvalue(self) -> float:
        return float(np.min(min_eig_field(self.entries)))

    def scaled(self, factor: float) -> "MetricField":
        return MetricField(self.grid, factor * unpack(self.entries),
                           lambda_floor=self.lambda_floor * factor)


@dataclass(frozen=True)
class VolumeWeights:
    """Quadrature weights for the omega^n measure, normalized to sum to one.

    ``raw_volume`` is the un-normalized discrete integral of omega^n,
    i.e. form_factor(n) * h^{2n} * sum(det g).
    """

    grid: TorusGrid
    w: np.ndarray
    raw_volume: float

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
    total = float(np.sum(raw))
    return VolumeWeights(grid, raw / total, raw_volume=total)


def discrete_volume(g: MetricField) -> float:
    """Raw discrete integral of omega^n (no normalization)."""
    return volume_weights(g).raw_volume


def volume_normalize(g: MetricField):
    """Rescale the metric so the discrete volume of omega^n is exactly one.

    Returns (normalized metric, scale), with normalized = scale * g.
    """
    vol = discrete_volume(g)
    lam = vol ** (-1.0 / g.grid.complex_dim)
    return g.scaled(lam), lam


def integrate(f: ScalarField, w: VolumeWeights) -> float:
    """Mean of f against the normalized omega^n measure (exact for constants)."""
    _check_same_grid(f.grid, w.grid)
    return float(np.sum(f.values * w.w))


def integrate_values(values: np.ndarray, w: VolumeWeights) -> float:
    """Same as integrate but on a bare value array (hot-path helper)."""
    return float(np.sum(values * w.w))
