"""Time integration of the parabolic complex Monge-Ampere flow.

The evolution is

    d(phi)/dt = log det(g + Hess phi) / det g  -  F,      phi(., 0) = 0,

split as d(phi)/dt = L phi + N(phi), where L = gbar^{i jbar} d_i d_jbar is
the constant-coefficient Laplacian of gbar (the grid mean of g, scaled down
to a lower bound of g; see _frozen_metric_key) and N is the remainder.
Each step is one ETDRK4 step (Cox & Matthews 2002): L is applied exactly in
Fourier space and N explicitly in four stages, with the phi-function
coefficients evaluated by a contour mean (Kassam & Trefethen 2005).  The
stages stay in Fourier space: flow_rhs takes the rfft spectrum of phi,
builds g' from it with one batched real irfftn (spectral.py) and works on
g' in the packed real layout of hermitian.py, so only the step's result is
transformed back to grid values.  The stiffness of L sets no step cap: the
step size is dt = min(dt_try, t_land - t), where t_land is the next
emission time and dt_try starts at dt_max.  Any stage that leaves the
positive cone (or grazes it closer than eps_pd) halves dt and retries; the
next step then tries the accepted size again, and only a step accepted at
its first try doubles dt_try, up to dt_max.  Snapshots are emitted on a
fixed time clock (multiples of emit_dt, hit exactly by clipping the last
step), which keeps monitor windows aligned and reruns bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import PositivityViolation, StepFailure, TailAlarm
from .grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    VolumeWeights,
    check_cone,
    integrate_values,
    volume_weights,
)
from .hermitian import generalized_eig_range, log_det, min_eig_field
# unused here; perfbench/tracer.py patches them under this module
from .hermitian import det_field, trace_inverse  # noqa: F401
from .spectral import (
    complex_hessian_values,
    irfftn,
    mean_metric_symbol,
    rfftn,
    spectral_tail,
)

TAIL_THRESHOLD = 1e-6


# Points of the contour mean for the ETDRK4 coefficients: the mean over 32
# points of the unit circle around each dt*L, taken as the real part of the
# mean over the 16 in the upper half plane (dt*L is real).
CONTOUR_POINTS = 32


@dataclass(frozen=True)
class StepControl:
    """Step-size policy and positivity guard."""

    dt_min: float = 1e-12
    dt_max: float = 0.1
    eps_pd: float = 1e-6
    retry_limit: int = 20

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        if not (0 < self.eps_pd < math.inf):
            raise ValueError(f"eps_pd must be positive and finite, got {self.eps_pd}")
        if not (self.retry_limit >= 0):
            raise ValueError(f"retry_limit must be non-negative, got {self.retry_limit}")


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the evolution with coherent caches.

    gprime is g + Hess(phi) at phi, packed; dphi_dt is the flow right-hand
    side at phi; phi_tilde is phi minus its omega^n mean.  dt_try is the
    size the next step tries first (None: dt_max); it travels with the
    state so a restarted run takes the same steps as a direct one.
    """

    t: float
    phi: ScalarField
    phi_tilde: ScalarField
    gprime: np.ndarray
    dphi_dt: ScalarField
    step_count: int = 0
    dt_try: Optional[float] = None

    @property
    def grid(self) -> TorusGrid:
        return self.phi.grid


def flow_rhs(phi_hat: np.ndarray, g: MetricField, f_values: np.ndarray,
             eps_pd: float = 0.0, t: float = 0.0):
    """Right-hand side of the flow and the packed evolving metric g'.

    phi_hat is rfftn(phi).  Raises PositivityViolation (with the offending
    flat grid index) if any sample of g' = g + Hess(phi) has smallest
    eigenvalue <= eps_pd or is NaN.
    """
    grid = g.grid
    gprime = g.entries + complex_hessian_values(phi_hat, grid)
    check_cone(min_eig_field(gprime), eps_pd, "evolving metric", t)
    return log_det(gprime) - g.log_det - f_values, gprime


def make_state(g: MetricField, f: ScalarField, w: VolumeWeights,
               phi_values: Optional[np.ndarray] = None, t: float = 0.0,
               step_count: int = 0, eps_pd: float = 0.0) -> FlowState:
    """Assemble a coherent FlowState from phi values (zero field by default)."""
    grid = g.grid
    if phi_values is None:
        phi_values = np.zeros(grid.shape)
    rhs, gprime = flow_rhs(rfftn(phi_values), g, f.values, eps_pd=eps_pd, t=t)
    tilde = phi_values - integrate_values(phi_values, w)
    return FlowState(
        t=t,
        phi=ScalarField(grid, phi_values),
        phi_tilde=ScalarField(grid, tilde),
        gprime=gprime,
        dphi_dt=ScalarField(grid, rhs),
        step_count=step_count,
    )


@lru_cache(maxsize=8)
def _etdrk4_coefficients(grid: TorusGrid, gbar_entries: tuple, dt: float):
    """Symbol of L and the ETDRK4 coefficients E, E2, Q, f1, f2, f3 for step dt.

    L is the rfft symbol of gbar^{i jbar} d_i d_jbar, gbar given by its n*n
    packed entries.  With h = dt * L, the coefficients are E = exp(h),
    E2 = exp(h/2) and the Cox-Matthews phi-function combinations

        Q  = dt (exp(h/2) - 1) / h
        f1 = dt (-4 - h + exp(h) (4 - 3h + h^2)) / h^3
        f2 = dt (2 + h + exp(h) (h - 2)) / h^3
        f3 = dt (-4 - 3h - h^2 + exp(h) (4 - h)) / h^3

    each evaluated as its mean over a circle of radius 1 around h, which
    avoids the cancellation near h = 0 (Kassam & Trefethen 2005).  The
    contour points are looped over, so no (spectrum x points) temporary is
    built.  The arrays are read-only: the cache hands the same ones to
    every caller.
    """
    lin = mean_metric_symbol(np.array(gbar_entries), grid)
    h = dt * lin
    q = np.zeros_like(h)
    f1 = np.zeros_like(h)
    f2 = np.zeros_like(h)
    f3 = np.zeros_like(h)
    half = CONTOUR_POINTS // 2
    for j in range(half):
        z = h + np.exp(1j * np.pi * (j + 0.5) / half)
        ez = np.exp(z)
        z3 = z ** 3
        q += ((np.exp(0.5 * z) - 1.0) / z).real
        f1 += ((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3).real
        f2 += ((2.0 + z + ez * (z - 2.0)) / z3).real
        f3 += ((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3).real
    out = (lin, np.exp(h), np.exp(0.5 * h),
           *(dt / half * acc for acc in (q, f1, f2, f3)))
    for arr in out:
        arr.setflags(write=False)
    return out


def _frozen_metric_key(g: MetricField) -> tuple:
    """The metric gbar that defines L, as a hashable tuple of its packed entries.

    gbar is the grid mean of g scaled by s, the smallest eigenvalue of
    mean(g)^{-1} g(x) over the grid, so that gbar <= g(x) everywhere.  The
    remainder N then carries the coefficient g'^{-1} - gbar^{-1} <= 0 (while
    g' stays near g), and the exact part dominates it.  With the plain mean
    it does not: on an n=1, N=32 grid whose g spans 0.55 to 1.45 of its mean,
    steps of 0.1 let the Nyquist shell grow to 1e-3 and the run never
    converges.  gbar depends on g alone, so a restarted run takes the same
    steps as a direct one.
    """
    g_mean = g.entries.reshape(len(g.entries), -1).mean(axis=1)
    s = float(np.min(generalized_eig_range(g_mean, g.entries)[0]))
    return tuple((s * g_mean).tolist())


def _record_step(stats: dict, dt: float):
    stats["steps"] = stats.get("steps", 0) + 1
    stats["dt_min"] = min(stats.get("dt_min", dt), dt)
    stats["dt_max"] = max(stats.get("dt_max", dt), dt)


def step(state: FlowState, ctrl: StepControl, g: MetricField, f: ScalarField,
         w: VolumeWeights, t_land: Optional[float] = None,
         stats: Optional[dict] = None, gbar: Optional[tuple] = None) -> FlowState:
    """One ETDRK4 step of size min(dt_try, t_land - t), dt_try <= dt_max.

    The stages pass rfft spectra to flow_rhs; only the new phi goes back to
    grid values.  Any PositivityViolation inside a stage halves dt and
    retries, up to ctrl.retry_limit; persistent failure raises StepFailure
    with the time, step size and offending grid index.  The new state's
    dt_try is the accepted dt when the step needed a halving, twice it (at
    most dt_max) when the first try was accepted, and unchanged when the
    accepted step was the landing clip.  So a run that needed halvings
    neither restarts every step from dt_max (building a coefficient set
    for each halving) nor has every step rejected once at twice the size
    it can sustain.  ``stats``, when given, counts accepted steps and
    halvings and tracks the smallest and largest dt.
    ``gbar`` is _frozen_metric_key(g), computed here when not given (run()
    computes it once, like the volume weights w).

    The coefficients are looked up at dt rounded to 12 significant digits:
    landing steps t_land - t differ from emit_dt in their last bits, and the
    rounding maps them to one cached coefficient set (an error of at most
    5e-13 relative in the step's exponential time).
    """
    dt = ctrl.dt_max if state.dt_try is None else min(state.dt_try, ctrl.dt_max)
    clipped = False
    if t_land is not None and state.t + dt >= t_land - 1e-15:
        dt = t_land - state.t
        clipped = True
    grid = state.grid
    shape = grid.shape
    fv = f.values
    if gbar is None:
        gbar = _frozen_metric_key(g)
    u0 = rfftn(state.phi.values)
    k1 = rfftn(state.dphi_dt.values)  # rhs at phi0, cached

    def remainder(v_hat, lin, t):
        """N = rhs - L v in Fourier space, at the field whose rfft is v_hat."""
        rhs, _ = flow_rhs(v_hat, g, fv, ctrl.eps_pd, t)
        return rfftn(rhs) - lin * v_hat

    last_err = None
    for halvings in range(ctrl.retry_limit + 1):
        if dt < ctrl.dt_min and not clipped:
            break
        lin, E, E2, Q, f1, f2, f3 = _etdrk4_coefficients(grid, gbar, float(f"{dt:.12g}"))
        try:
            n0 = k1 - lin * u0
            a = E2 * u0 + Q * n0
            na = remainder(a, lin, state.t + 0.5 * dt)
            b = E2 * u0 + Q * na
            nb = remainder(b, lin, state.t + 0.5 * dt)
            c = E2 * a + Q * (2.0 * nb - n0)
            nc = remainder(c, lin, state.t + dt)
            phi1_hat = E * u0 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
            new_rhs, new_gprime = flow_rhs(phi1_hat, g, fv, ctrl.eps_pd, state.t + dt)
        except PositivityViolation as e:
            last_err = e
            if stats is not None:
                stats["halvings"] = stats.get("halvings", 0) + 1
            dt *= 0.5
            clipped = False
            continue
        if stats is not None:
            _record_step(stats, dt)
        phi1 = irfftn(phi1_hat, shape)
        tilde = phi1 - integrate_values(phi1, w)
        return FlowState(
            t=state.t + dt,
            phi=ScalarField(grid, phi1),
            phi_tilde=ScalarField(grid, tilde),
            gprime=new_gprime,
            dphi_dt=ScalarField(grid, new_rhs),
            step_count=state.step_count + 1,
            dt_try=(state.dt_try if clipped else dt if halvings
                    else min(2.0 * dt, ctrl.dt_max)),
        )
    raise StepFailure(
        f"step failed after {ctrl.retry_limit} halvings at t={state.t:.6f} "
        f"(dt={dt:.3e}): {last_err}",
        t=state.t, dt=dt,
        index=getattr(last_err, "index", None),
    )


@dataclass
class RunResult:
    """Final state, the assembled monitor series and the stepper's counters.

    stats holds steps, halvings, dt_min and dt_max of this run; it is kept
    out of monitors.csv and summary.json, which stay byte-identical.
    """

    final: FlowState
    series: "MonitorSeries"
    stats: dict = field(default_factory=dict)


def run(g: MetricField, f: ScalarField, horizon: float, ctrl: StepControl,
        monitors: Optional["MonitorSuite"] = None,
        initial_state: Optional[FlowState] = None,
        tail_threshold: float = TAIL_THRESHOLD) -> RunResult:
    """Integrate from phi = 0 (or a restart state) to t = horizon.

    Snapshots are emitted at every multiple of the monitor emit interval;
    the spectral tail of phi is checked at each emission and raises
    TailAlarm above ``tail_threshold`` (under-resolution guard).
    """
    from .monitors import MonitorSeries, MonitorSuite  # local import, no cycle at import time

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if monitors is None:
        monitors = MonitorSuite()
    w = volume_weights(g)
    state = initial_state if initial_state is not None else make_state(g, f, w)
    series = MonitorSeries(g, w, monitors)
    stats = {"steps": 0, "halvings": 0}
    gbar = _frozen_metric_key(g)

    emit_dt = monitors.emit_dt
    k0 = int(round(state.t / emit_dt))
    if abs(k0 * emit_dt - state.t) > 1e-12:
        raise ValueError("restart time must sit on the emission clock")
    if initial_state is None:
        series.emit(state)
    total_emits = int(round((horizon - state.t) / emit_dt))
    if total_emits < 1 or abs(state.t + total_emits * emit_dt - horizon) > 1e-9:
        raise ValueError(
            f"horizon {horizon} must be a multiple of emit_dt {emit_dt} past t={state.t}"
        )
    for j in range(1, total_emits + 1):
        t_target = (k0 + j) * emit_dt
        while state.t < t_target - 1e-12:
            state = step(state, ctrl, g, f, w, t_land=t_target, stats=stats, gbar=gbar)
        tail = spectral_tail(state.phi.values, state.grid)
        if tail > tail_threshold:
            raise TailAlarm(
                f"spectral tail {tail:.3e} exceeds {tail_threshold:.1e} at t={state.t:.3f}"
            )
        series.emit(state)
    series.finalize()
    return RunResult(final=state, series=series, stats=stats)
