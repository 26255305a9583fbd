"""Time integration of the parabolic complex Monge-Ampere flow.

The evolution

    d(phi)/dt = log det(g + Hess phi) / det g  -  F,      phi(., 0) = 0,

is split as d(phi)/dt = L phi + N(phi): L = gbar^{i jbar} d_i d_jbar, the
constant-coefficient Laplacian of a lower bound gbar of g (see
_frozen_metric_key), is applied exactly in Fourier space and the remainder N
explicitly, by exponential Adams PECE steps (Hochbruck & Ostermann 2010)
started up by ETDRK4 (Cox & Matthews 2002); see step.  The stages pass rfft
spectra, and FlowState carries phi's spectrum phi_hat and its run's inputs
(a FlowRun, built once by make_state).  Snapshots are emitted at the
multiples of emit_dt.  Each step is clipped to land on the furthest emission
time it reaches, and the emission times it passes are dense output
(_dense_state).

Step control is scale-free, as the flow is (the metric c g gives c phi(t / c)):
the cone guard is EPS_PD times the smallest eigenvalue of g, and halving stops
below dt_max * MIN_STEP_FRACTION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import PositivityViolation, StepFailure, TailAlarm
from .grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    VolumeWeights,
    cone_log_det,
    integrate_values,
    pin_heap_thresholds,
    volume_weights,
)
from .hermitian import generalized_eig_range
# unused here; perfbench/tracer.py patches them under this module
from .hermitian import det_field, min_eig_field, trace_inverse  # noqa: F401
from .spectral import (
    complex_hessian_values,
    irfftn,
    matrix_hessian_values,
    mean_metric_symbol,
    rfftn,
    spectral_tail,
)

TAIL_THRESHOLD = 1e-6


# The ETDRK4 coefficients are evaluated in closed form where |dt L| >= 0.7
# and as a contour mean where |dt L| < 0.7: the mean over 32 points of the
# unit circle around each dt*L, taken as the real part of the mean over the
# 16 in the upper half plane (dt*L is real).  Below 0.7 the closed forms
# cancel (f1 loses up to 3e-13 relative near |h| = 0.3); above it the circle
# passes within 0.3 of the origin, where its points cancel (the contour mean
# loses up to 8.7e-13 in f1 near h = -0.95).  With the split at 0.7 no
# coefficient is off by more than 3e-14 relative against an 80-digit
# reference, away from the sign change of f1 near h = -2.69.
CONTOUR_MAX_ABS_H = 0.7
CONTOUR_POINTS = 32

# The predictor of an exponential Adams step is AB3 where |dt L| < 5 and
# exponential Euler (AB1) where |dt L| >= 5; the corrector is AM3 on every
# mode.  In the scalar model (L exact, a remainder -q L taken explicitly,
# q = 1 - 1/lambda_max(gbar^-1 g'): 0.49 on run 1, 0.68 on run 2) AB3/AM3
# is stable only for |q| <= 0.70 once |dt L| grows, and AB3 loses its
# damping from |dt L| ~ 3 on: at q = 0.79 its amplification is 0.79 at
# |dt L| = 5 and 0.996 at 20.  With this split the stable range is
# q in [-0.93, 1], and a stiff mode's error shrinks by q^2 per step.  On
# run 1 with metric.eps = 0.43 (q = 0.79) an AB2 split (at 3, 5 or 20) let
# the initial layer's kink in N through to the Nyquist shell, past
# TAIL_THRESHOLD by t = 0.35 (ETDRK4 peaks at 9.6e-7), and an AB1 split at
# 20 left the u columns off by up to 100% at t >= 1 (1% with the split at 5).
ADAMS_AB1_MIN_ABS_H = 5.0

# The cone guard: every eigenvalue of g' must exceed EPS_PD * lambda_min(g).
EPS_PD = 1e-6

# A rejected try halves dt while the half is at least dt_max * MIN_STEP_FRACTION,
# so a step from dt_max makes at most 21 tries.
MIN_STEP_FRACTION = 2.0 ** -20


@dataclass(frozen=True)
class StepControl:
    """The step-size bound dt_max: no step is longer, and halving ends below
    dt_max * MIN_STEP_FRACTION, which must not underflow to 0."""

    dt_max: float = 0.1

    def __post_init__(self):
        if not (self.dt_max * MIN_STEP_FRACTION > 0 and self.dt_max < math.inf):
            raise ValueError(f"need 0 < dt_max * 2^-20 and dt_max < inf, got {self.dt_max}")


@dataclass(frozen=True, eq=False)
class FlowRun:
    """What the states of one run share: metric g, forcing values, omega^n
    weights w, gbar = _frozen_metric_key(g) and the counters (see RunResult)."""

    g: MetricField
    f_values: np.ndarray
    w: VolumeWeights
    gbar: tuple
    stats: dict = field(default_factory=lambda: {
        "steps": 0, "halvings": 0, "rhs_calls": 0, "pc_steps": 0, "pc_gap_max": 0.0,
        "dense_emits": 0, "retakes": 0, "dt_min": math.inf, "dt_max": 0.0})


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the evolution with coherent caches.

    flow_run is the run the state belongs to.  phi_hat is rfftn(phi);
    gprime is g + Hess(phi) at phi, packed; dphi_dt is the flow right-hand
    side at phi; phi_tilde is phi minus its omega^n mean.  dt_try is the
    size the next step tries first (None: dt_max).  step_count counts the
    steps taken up to t.  history is () or (dt key, spectra): the remainder
    spectra N at the starts of the last one or two steps, newest first, all
    taken at that dt key (see step).
    """

    t: float
    phi: ScalarField
    phi_hat: np.ndarray
    phi_tilde: ScalarField
    gprime: np.ndarray
    dphi_dt: ScalarField
    flow_run: FlowRun
    step_count: int = 0
    dt_try: Optional[float] = None
    history: tuple = ()

    @property
    def grid(self) -> TorusGrid:
        return self.phi.grid

    @cached_property
    def rhs_hat(self) -> np.ndarray:
        """rfftn(dphi_dt), taken once: a step's first stage and a dense-output slope."""
        return rfftn(self.dphi_dt.values)


def flow_rhs(phi_hat: np.ndarray, g: MetricField, f_values: np.ndarray, t: float = 0.0,
             phi: Optional[np.ndarray] = None):
    """Right-hand side of the flow and the packed evolving metric g'.

    phi_hat is rfftn(phi) and phi, if given, phi's grid values.  For n = 1
    Hess(phi) is one irfftn of phi_hat's multipliers; for n = 2 it is
    matrix_hessian_values of phi, taken with one irfftn if not given, which
    costs less than the 4-field irfftn.  Raises PositivityViolation (with the
    offending flat grid index) if any sample of g' = g + Hess(phi) has
    smallest eigenvalue <= EPS_PD * g.min_eig or is NaN.  g' is built in the
    Hessian's buffer, and the cone check shares log det's passes.
    """
    if g.grid.complex_dim == 1:
        gprime = complex_hessian_values(phi_hat, g.grid)
    else:
        if phi is None:
            phi = irfftn(phi_hat, g.grid.shape)
        gprime = matrix_hessian_values(phi, g.grid)
    gprime += g.entries
    u = cone_log_det(gprime, EPS_PD * g.min_eig, "evolving metric", t)
    u -= g.log_det
    u -= f_values
    return u, gprime


def make_state(g: MetricField, f: ScalarField, phi_values: Optional[np.ndarray] = None,
               t: float = 0.0) -> FlowState:
    """The first state of a new run on g and f, at phi values (default 0)."""
    if phi_values is None:
        phi_values = np.zeros(g.grid.shape)
    flow_run = FlowRun(g, f.values, volume_weights(g), _frozen_metric_key(g))
    return _state_at(flow_run, rfftn(phi_values), t, phi=phi_values)


def _state_at(flow_run: FlowRun, phi_hat: np.ndarray, t: float,
              phi: Optional[np.ndarray] = None, step_count: int = 0,
              dt_try: Optional[float] = None, history: tuple = ()) -> FlowState:
    """The state of flow_run at spectrum phi_hat: one irfftn unless the grid
    values phi are given, then one flow_rhs that reads them.  Raises
    flow_rhs's PositivityViolation."""
    grid = flow_run.g.grid
    if phi is None:
        phi = irfftn(phi_hat, grid.shape)
    flow_run.stats["rhs_calls"] += 1
    rhs, gprime = flow_rhs(phi_hat, flow_run.g, flow_run.f_values, t, phi)
    return FlowState(
        t=t,
        phi=ScalarField(grid, phi),
        phi_hat=phi_hat,
        phi_tilde=ScalarField(grid, phi - integrate_values(phi, flow_run.w)),
        gprime=gprime,
        dphi_dt=ScalarField(grid, rhs),
        flow_run=flow_run,
        step_count=step_count,
        dt_try=dt_try,
        history=history,
    )


def _cox_matthews(h):
    """Q, f1, f2, f3 over dt in closed form at h, real or complex (see _etdrk4_weights)."""
    e = np.exp(h)
    h3 = h * h * h
    return ((np.exp(0.5 * h) - 1.0) / h,
            (-4.0 - h + e * (4.0 - 3.0 * h + h * h)) / h3,
            (2.0 + h + e * (h - 2.0)) / h3,
            (-4.0 - 3.0 * h - h * h + e * (4.0 - h)) / h3)


def _etdrk4_weights(h: np.ndarray) -> np.ndarray:
    """Q, f1, f2, f3 over dt at real h <= 0, stacked on a new leading axis.

    With E = exp(h) these are the Cox-Matthews phi-function combinations

        Q  = (exp(h/2) - 1) / h
        f1 = (-4 - h + E (4 - 3h + h^2)) / h^3
        f2 = (2 + h + E (h - 2)) / h^3
        f3 = (-4 - 3h - h^2 + E (4 - h)) / h^3

    evaluated directly in real arithmetic where |h| >= CONTOUR_MAX_ABS_H.
    Below it the closed forms cancel, and each is the mean over a circle of
    radius 1 around h instead (Kassam & Trefethen 2005); the contour points
    are looped over, so no (modes x points) temporary is built.
    """
    out = np.empty((4,) + h.shape)
    near = np.abs(h) < CONTOUR_MAX_ABS_H
    out[:, ~near] = _cox_matthews(h[~near])
    hn = h[near]
    acc = np.zeros((4,) + hn.shape)
    half = CONTOUR_POINTS // 2
    for j in range(half):
        for a, v in zip(acc, _cox_matthews(hn + np.exp(1j * np.pi * (j + 0.5) / half))):
            a += v.real
    out[:, near] = acc / half
    return out


def _phi_functions(f1, f2, f3):
    """phi_1, phi_2, phi_3 from the ETDRK4 f1, f2, f3 (scaled alike).

    phi_1 = (E - 1)/h, phi_2 = (E - 1 - h)/h^2, phi_3 = (E - 1 - h - h^2/2)/h^3
    are f1 + 4 f2 + f3, 2 f2 + f3 and (f2 + f3)/2."""
    return f1 + 4.0 * f2 + f3, 2.0 * f2 + f3, 0.5 * (f2 + f3)


def _adams_weights(f1, f2, f3, h):
    """Exponential Adams predictor and corrector weights, each stacked (3,) + h.shape.

    The predictor takes the AB3 weights (phi1 + 3/2 phi2 + phi3,
    -2 phi2 - 2 phi3, phi2/2 + phi3) on N_n, N_{n-1}, N_{n-2}, and the
    exponential Euler weights (phi1, 0, 0) where |h| >= ADAMS_AB1_MIN_ABS_H;
    the AM3 corrector takes (phi2/2 + phi3, phi1 - 2 phi3, phi3 - phi2/2) on
    N(predictor), N_n, N_{n-1}.  At h = 0 they are (23, -16, 5)/12 and
    (5, 8, -1)/12.
    """
    p1, p2, p3 = _phi_functions(f1, f2, f3)
    ab3 = np.abs(h) < ADAMS_AB1_MIN_ABS_H
    beta = np.stack((np.where(ab3, p1 + 1.5 * p2 + p3, p1),
                     np.where(ab3, -2.0 * (p2 + p3), 0.0),
                     np.where(ab3, 0.5 * p2 + p3, 0.0)))
    gamma = np.stack((0.5 * p2 + p3, p1 - 2.0 * p3, p3 - 0.5 * p2))
    return beta, gamma


@lru_cache(maxsize=8)
def _etdrk4_coefficients(grid: TorusGrid, gbar_entries: tuple, dt: float):
    """Symbol of L, the ETDRK4 coefficients E, E2, Q, f1, f2, f3 and the
    exponential Adams weights beta, gamma for step dt.

    L is the rfft symbol of gbar^{i jbar} d_i d_jbar, gbar given by its n*n
    packed entries.  With h = dt * L, E = exp(h), E2 = exp(h/2), Q, f1, f2,
    f3 are dt times _etdrk4_weights(h) and beta, gamma are _adams_weights of
    those f1, f2, f3.  The arrays are read-only: the cache hands the same
    ones to every caller.
    """
    lin = mean_metric_symbol(np.array(gbar_entries), grid)
    h = dt * lin
    weights = _etdrk4_weights(h)
    weights *= dt
    out = (lin, np.exp(h), np.exp(0.5 * h), *weights, *_adams_weights(*weights[1:], h))
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
    converges.
    """
    g_mean = g.entries.reshape(len(g.entries), -1).mean(axis=1)
    s = float(np.min(generalized_eig_range(g_mean, g.entries)[0]))
    return tuple((s * g_mean).tolist())


def _dt_try(state: FlowState, ctrl: StepControl) -> float:
    """The size a step from state tries first."""
    return ctrl.dt_max if state.dt_try is None else min(state.dt_try, ctrl.dt_max)


def step(state: FlowState, ctrl: StepControl, t_land: Optional[float] = None) -> FlowState:
    """One step of size min(dt_try, t_land - t), dt_try <= dt_max.

    When the state's history holds the remainders N of two steps taken at
    this step's dt key, the step is an exponential Adams PECE step: the
    predictor p = E u_n + dt sum_j beta_j N_{n-j}, one flow_rhs at p and the
    corrector E u_n + dt (gamma_0 N(p) + gamma_1 N_n + gamma_2 N_{n-1}) (see
    _adams_weights).  Otherwise it is one ETDRK4 step, which starts the
    history again.  The dt key is dt rounded to 12 significant digits, so
    landing steps that differ in their last bits share one coefficient set
    and one history.

    A PositivityViolation in any stage rejects the try: dt halves and the
    step is retried as an ETDRK4 step, without clipping, while the half is
    at least ctrl.dt_max * MIN_STEP_FRACTION.  Below that StepFailure names
    the rejected tries, the time, the last dt tried and the grid point.
    The new state's dt_try is the accepted dt after a halving, twice it (at
    most dt_max) after a first try, and unchanged after a landing clip.
    g, F and gbar are the state's flow_run's; its stats count steps,
    halvings (rejected tries), rhs_calls and pc_steps and track dt_min,
    dt_max and pc_gap_max, the largest max|c - p| / max|c| over the spectra
    (Milne's estimate).
    """
    dt = _dt_try(state, ctrl)
    clipped = False
    if t_land is not None and state.t + dt >= t_land - 1e-15:
        dt = t_land - state.t
        clipped = True
    flow_run = state.flow_run
    g, fv, stats = flow_run.g, flow_run.f_values, flow_run.stats
    u0 = state.phi_hat
    k1 = state.rhs_hat
    past_key, past = state.history or (None, ())

    def remainder(v_hat, lin, t):
        """N = rhs - L v in Fourier space, at the field whose rfft is v_hat
        (for n = 2, flow_rhs takes that field's values with one irfftn)."""
        stats["rhs_calls"] += 1
        rhs, _ = flow_rhs(v_hat, g, fv, t)
        return rfftn(rhs) - lin * v_hat

    rejected = 0
    while True:
        key = float(f"{dt:.12g}")
        lin, E, E2, Q, f1, f2, f3, beta, gamma = _etdrk4_coefficients(g.grid, flow_run.gbar, key)
        n0 = k1 - lin * u0
        adams = not rejected and key == past_key and len(past) == 2
        try:
            # each stage spectrum is dropped once its last use is past, so
            # none is held while _state_at builds the new state's fields
            if adams:
                eu0 = E * u0
                p = eu0 + beta[0] * n0 + beta[1] * past[0] + beta[2] * past[1]
                phi1_hat = (eu0 + gamma[0] * remainder(p, lin, state.t + dt)
                            + gamma[1] * n0 + gamma[2] * past[0])
                del eu0
                scale = float(np.abs(phi1_hat).max())
                gap = float(np.abs(phi1_hat - p).max()) / scale if scale > 0 else 0.0
                del p
            else:
                a = E2 * u0 + Q * n0
                na = remainder(a, lin, state.t + 0.5 * dt)
                b = E2 * u0 + Q * na
                nb = remainder(b, lin, state.t + 0.5 * dt)
                del b
                c = E2 * a + Q * (2.0 * nb - n0)
                del a
                nc = remainder(c, lin, state.t + dt)
                del c
                phi1_hat = E * u0 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
                del na, nb, nc
            new = _state_at(flow_run, phi1_hat, state.t + dt,
                            step_count=state.step_count + 1,
                            dt_try=(state.dt_try if clipped else dt if rejected
                                    else min(2.0 * dt, ctrl.dt_max)),
                            history=(key, (n0,) + past[:1] if key == past_key else (n0,)))
            break
        except PositivityViolation as e:
            rejected += 1
            stats["halvings"] += 1
            if 0.5 * dt < ctrl.dt_max * MIN_STEP_FRACTION:
                raise StepFailure(f"step failed after {rejected} rejected tries at "
                                  f"t={state.t:.6f} (last dt={dt:.3e}): {e}",
                                  t=state.t, dt=dt, index=e.index) from e
            dt *= 0.5
            clipped = False
    stats["steps"] += 1
    stats["dt_min"] = min(stats["dt_min"], dt)
    stats["dt_max"] = max(stats["dt_max"], dt)
    if adams:
        stats["pc_steps"] += 1
        stats["pc_gap_max"] = max(stats["pc_gap_max"], gap)
    return new


def _dense_state(start: FlowState, end: FlowState, t: float) -> FlowState:
    """The state at start.t < t < end.t inside the step from start to end.

    phi_hat is the cubic Hermite in time on the step's end spectra phi_hat,
    with slopes rhs_hat; u and g' come from one flow_rhs there, so they are
    consistent with phi and pass the cone check of a stage.
    """
    h = end.t - start.t
    s = (t - start.t) / h
    r = 1.0 - s
    phi_hat = (((1.0 + 2.0 * s) * r * r) * start.phi_hat
               + (h * s * r * r) * start.rhs_hat
               + (s * s * (3.0 - 2.0 * s)) * end.phi_hat
               - (h * s * s * r) * end.rhs_hat)
    return _state_at(start.flow_run, phi_hat, t, step_count=start.step_count)


def _emit(series: "MonitorSeries", state: FlowState):
    """Check the spectral tail of phi, then hand state to the series.

    Written so that a NaN tail, which compares false, raises too."""
    tail = spectral_tail(state.phi_hat, state.grid)
    if not tail <= TAIL_THRESHOLD:
        raise TailAlarm(
            f"spectral tail {tail:.3e} exceeds {TAIL_THRESHOLD:.1e} at t={state.t:.3f}"
        )
    series.emit(state)


@dataclass
class RunResult:
    """Final state, the assembled monitor series and the stepper's counters.

    stats is the run's FlowRun.stats: steps (every step taken, a re-taken
    one too), halvings, rhs_calls (every flow_rhs call), pc_steps
    (exponential Adams steps) and pc_gap_max (their largest relative
    predictor-corrector gap), dense_emits (snapshots taken inside a step),
    retakes (steps re-taken because a dense state left the cone), dt_min
    and dt_max (inf and 0.0 before the first step); it is kept out of
    monitors.csv and summary.json.
    """

    final: FlowState
    series: "MonitorSeries"
    stats: dict


def run(g: MetricField, f: ScalarField, horizon: float, ctrl: StepControl,
        monitors: Optional["MonitorSuite"] = None, observers=()) -> RunResult:
    """Integrate from phi = 0 to t = horizon.

    Snapshots are emitted at every multiple of the monitor emit interval to
    a MonitorSeries, which keeps no field and hands each field snapshot
    state to ``observers``.  Each step is clipped to land on the furthest
    emission time that t + dt_try reaches; the emissions it passes are dense
    states (_dense_state), all built before any is emitted, so that one
    outside the cone re-takes the step from its start, landing on the first
    of them.  The spectral tail of phi is checked at each emission and
    raises TailAlarm above TAIL_THRESHOLD or at NaN (under-resolution guard).
    """
    from .monitors import MonitorSeries, MonitorSuite  # local import, no cycle at import time

    if monitors is None:
        monitors = MonitorSuite()
    emit_dt = monitors.emit_dt
    total_emits = monitors.emissions(horizon)
    pin_heap_thresholds(g.grid)
    state = make_state(g, f)
    stats = state.flow_run.stats
    series = MonitorSeries(state.flow_run, monitors, horizon, observers)

    series.emit(state)
    j = 1  # the next emission is at j * emit_dt
    while j <= total_emits:
        # k: the furthest emission the step reaches, within step()'s clip tolerance
        reach = state.t + _dt_try(state, ctrl) + 1e-15
        k = j
        while k < total_emits and (k + 1) * emit_dt <= reach:
            k += 1
        new = step(state, ctrl, t_land=k * emit_dt)
        try:
            dense = [_dense_state(state, new, i * emit_dt)
                     for i in range(j, k) if i * emit_dt < new.t - 1e-12]
        except PositivityViolation:
            stats["retakes"] += 1
            new = step(state, ctrl, t_land=j * emit_dt)
            dense = []
        for snap in dense:
            _emit(series, snap)
        stats["dense_emits"] += len(dense)
        j += len(dense)
        state = new
        if state.t >= j * emit_dt - 1e-12:
            _emit(series, state)
            j += 1
    series.finalize()
    return RunResult(final=state, series=series, stats=stats)
