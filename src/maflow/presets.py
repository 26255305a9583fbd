"""Shipped metric and forcing presets.

All presets are trigonometric polynomials in the real coordinates, so they
are band-limited (spectral tail identically zero at any N >= 8) and their
closed forms remain available for analytic differentiation in tests.  A
metric preset writes the packed rows of hermitian.py's layout straight from
the axis coordinates ([a] for n = 1, [a, d, Re b, Im b] for n = 2); no full
complex matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    cone_log_det,
    integrate_values,
    volume_weights,
)
from .hermitian import log_det_ratio  # noqa: F401  unused; perfbench/tracer.py patches it here
from .spectral import complex_hessian_values, rfftn

METRIC_PRESETS = ("flat", "kahler_bump", "hermitian_nonkahler")
# metric.scale bounds: det g, of degree n <= 2 in the scale, and the volume
# weights' sum stay inside float64's range (at 1e300, n = 2 overflows them)
SCALE_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class MetricPreset:
    """Named metric preset with parameters.

    ``scale`` multiplies the whole metric; it sets the time scale of the flow
    (the linearized decay rate goes like 1/scale) without changing shape.
    """

    name: str = "flat"
    eps: float = 0.3
    amp: float = 0.4
    scale: float = 1.0

    def __post_init__(self):
        if self.name not in METRIC_PRESETS:
            raise ValueError(f"unknown metric preset '{self.name}'")
        lo, hi = SCALE_RANGE
        if not (math.isfinite(self.eps) and math.isfinite(self.amp)
                and lo <= self.scale <= hi):
            raise ValueError(f"metric eps and amp must be finite and scale in [{lo:g}, {hi:g}], "
                             f"got {self.eps}, {self.amp}, {self.scale}")


def _flat_rows(n: int, scale: float) -> list:
    return [scale] if n == 1 else [scale, scale, 0.0, 0.0]


def _kahler_bump_rows(n: int, coords, amp: float, scale: float) -> list:
    """Kaehler metric g = scale * (I + Hess(rho)), rho a trig potential.

    The closed form below is the exact complex Hessian of
    rho = amp (cos x1 + 0.5 sin x3 + 0.5 cos(x1 + x3)) for n = 2
    (resp. amp (cos x1 + 0.5 sin x2) for n = 1), so d(omega) = 0 holds
    identically.
    """
    if n == 1:
        h = -0.25 * amp * (np.cos(coords[0]) + 0.5 * np.sin(coords[1]))
        return [scale * (1.0 + h)]
    cross = np.cos(coords[0] + coords[2])
    return [scale * (1.0 - 0.25 * amp * (np.cos(coords[0]) + 0.5 * cross)),
            scale * (1.0 - 0.25 * amp * (0.5 * np.sin(coords[2]) + 0.5 * cross)),
            scale * (-0.125 * amp * cross),
            0.0]


def _nonkahler_rows(n: int, coords, eps: float, scale: float) -> list:
    """Hermitian metric with d(omega) != 0 for n = 2 (conformal wiggle for n = 1)."""
    if n == 1:
        return [scale * (1.0 + eps * (np.cos(coords[0]) + 0.5 * np.sin(coords[1])))]
    return [scale * (1.0 + eps * np.cos(coords[2])),
            scale * (1.0 + eps * np.cos(coords[0])),
            scale * 0.5 * eps * np.cos(coords[1]),
            scale * 0.5 * eps * np.sin(coords[3])]


def build_metric(grid: TorusGrid, preset: MetricPreset) -> MetricField:
    """Evaluate a named preset's packed entries on the grid and validate them."""
    n, coords = grid.complex_dim, grid.axis_coordinates()
    if preset.name == "flat":
        rows = _flat_rows(n, preset.scale)
    elif preset.name == "kahler_bump":
        rows = _kahler_bump_rows(n, coords, preset.amp, preset.scale)
    else:
        rows = _nonkahler_rows(n, coords, preset.eps, preset.scale)
    entries = np.stack([np.broadcast_to(r, grid.shape) for r in rows])
    return MetricField(grid, entries)


FORCING_PRESETS = ("zero", "const", "modes", "manufactured")
PSI_KINDS = ("seeded", "peaked")


@dataclass(frozen=True)
class ForcingPreset:
    """Forcing selection for the flow / elliptic problem.

    kind = "zero" | "const" | "modes" | "manufactured".  "modes" draws a
    seeded band-limited trigonometric polynomial; "manufactured" builds F
    from a band-limited potential psi so the elliptic solution is known
    exactly (F = log det ratio(g + Hess psi, g) - mean of that field).
    """

    kind: str = "zero"
    value: float = 0.0          # const level
    amplitude: float = 0.05     # modes / manufactured psi amplitude
    max_mode: int = 2
    seed: int = 0               # RunConfig.rng_seed's default, as config_from_kv fills it
    psi_kind: str = "seeded"    # "seeded" | "peaked" (fast/slow engineered mix)

    def __post_init__(self):
        if self.kind not in FORCING_PRESETS:
            raise ValueError(f"unknown forcing preset '{self.kind}'")
        if self.psi_kind not in PSI_KINDS:
            raise ValueError(f"unknown forcing psi_kind '{self.psi_kind}'")
        if not (math.isfinite(self.value) and math.isfinite(self.amplitude)):
            raise ValueError(f"forcing value and amplitude must be finite, "
                             f"got {self.value}, {self.amplitude}")
        if not (self.max_mode >= 0):
            raise ValueError(f"forcing max_mode must be non-negative, got {self.max_mode}")
        if not (self.seed >= 0):
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def random_band_limited(grid: TorusGrid, amplitude: float, max_mode: int,
                        seed: int) -> ScalarField:
    """Seeded real trigonometric polynomial with modes up to max_mode per axis.

    One representative k per +-k pair (first nonzero component positive), in
    C order over the integer cube [-max_mode, max_mode]^(2n), gets
    c cos(k.x) + s sin(k.x) with c, s standard normals (drawn in that order)
    divided by 1 + |k|^2; the sum is scaled to peak ``amplitude``.  The sum
    is evaluated as Re sum_k (c - i s) prod_a exp(i k_a x_a), contracted one
    axis at a time.
    """
    rng = np.random.default_rng(seed)
    d = grid.real_dim
    side = 2 * max_mode + 1
    ks = np.indices((side,) * d).reshape(d, -1).T - max_mode
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    reps = first > 0
    z = rng.normal(size=(int(np.sum(reps)), 2))
    coef = np.zeros(side ** d, dtype=complex)
    coef[reps] = (z[:, 0] - 1j * z[:, 1]) / (1.0 + np.sum(ks[reps] ** 2, axis=1))
    x = np.arange(grid.points_per_axis) * grid.spacing
    e = np.exp(1j * np.outer(np.arange(-max_mode, max_mode + 1), x))
    vals = coef.reshape((side,) * d)
    for _ in range(d):
        vals = np.tensordot(vals, e, axes=(0, 0))
    vals = vals.real
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField(grid, vals)


def manufactured_potential(grid: TorusGrid, preset: ForcingPreset) -> ScalarField:
    """Band-limited psi whose normalization is the exact flow limit.

    The "peaked" variant mixes a dominant fast mode with a smaller slow mode,
    phased so transient extrema overshoot their equilibrium values (gives the
    trace and Q monitors an interior running maximum).
    """
    if preset.psi_kind == "peaked":
        a = preset.amplitude
        c = grid.axis_coordinates()
        if grid.complex_dim == 1:
            # dominant fast modes with a unique peak plus a weak slow mode whose
            # phases make the transient trace/Q extrema overshoot their limits
            vals = a * (0.8 * np.cos(2.0 * c[0]) + 0.4 * np.cos(3.0 * c[0] + c[1])
                        + 0.3 * np.cos(c[0] + 2.0 * c[1])
                        + 0.08 * np.cos(c[0] - 2.0) + 0.04 * np.sin(c[1] + 3.5))
        else:
            vals = a * (0.8 * np.cos(c[0] + c[2]) + 0.4 * np.cos(c[0] - c[3])
                        + 0.3 * np.cos(c[1] + c[2])
                        + 0.08 * np.cos(c[0] - 2.0) + 0.04 * np.sin(c[2] + 3.5))
        vals = np.broadcast_to(vals, grid.shape).copy()
        return ScalarField(grid, vals)
    return random_band_limited(grid, preset.amplitude, preset.max_mode, preset.seed)


def build_forcing(grid: TorusGrid, g: MetricField, preset: ForcingPreset):
    """Materialize the forcing field; returns (F, exact) where exact is the
    manufactured-solution record (psi, psi_tilde, b) or None."""
    if preset.kind == "zero":
        return ScalarField(grid, np.zeros(grid.shape)), None
    if preset.kind == "const":
        return ScalarField(grid, np.full(grid.shape, preset.value)), None
    if preset.kind == "modes":
        return random_band_limited(grid, preset.amplitude, preset.max_mode, preset.seed), None
    psi = manufactured_potential(grid, preset)
    gprime = g.entries + complex_hessian_values(rfftn(psi.values), grid, psi.values)
    ratio = cone_log_det(gprime, 0.0, "manufactured metric g + Hess(psi)")
    ratio -= g.log_det
    w = volume_weights(g)
    c0 = integrate_values(ratio, w)
    f_vals = ratio - c0
    psi_tilde = psi.values - integrate_values(psi.values, w)
    exact = ManufacturedSolution(
        psi=psi, psi_tilde=ScalarField(grid, psi_tilde), b=c0
    )
    return ScalarField(grid, f_vals), exact


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact limit of a manufactured run: normalized potential and b."""

    psi: ScalarField
    psi_tilde: ScalarField
    b: float
