"""Acceptance criteria as executable checks.

Each criterion runs at its stated tolerance and reports measured values;
``run_criteria`` drives any subset and is shared by the CLI ``verify`` mode
and the acceptance test module.  The two reference runs are frozen here:

  run 1: n=1, N=64, Hermitian non-Kaehler metric, manufactured forcing from
         a band-limited potential, horizon 30.
  run 2: n=2, N=16, hermitian_nonkahler(0.3), seeded random band-limited
         forcing, horizon 20, compared against the Newton oracle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional

import numpy as np

from .config import config_from_kv
from .elliptic import linearization_check, preconditioned_apply_gap
from .errors import NonPositiveU
from .grid import TorusGrid, integrate_values, volume_weights
from .hermitian import inverse_stack, log_det_ratio
from .io import json_text
from .monitors import (
    LiYauWindow,
    contraction_and_decay,
    envelope_fit_inverse_time,
    harnack_check,
)
from .presets import MetricPreset, build_metric, random_band_limited
from .runner import (
    NORMAL_FRAME_FD_STEP,
    NORMAL_FRAME_TOLS,
    RECONSTRUCTION_TOL,
    execute_elliptic,
    execute_flow,
    frame_decomposition_sweep,
    normal_frame_passed,
    normal_frame_sweep,
)
from .spectral import complex_hessian_values, laplacian_values, rfftn, shell_amplitudes

RUN1_KV = {
    "mode": "flow",
    "rng_seed": "11",
    "grid.n": "1",
    "grid.N": "64",
    "metric.preset": "hermitian_nonkahler",
    "metric.eps": "0.2",
    "metric.scale": "0.4",
    "forcing.kind": "manufactured",
    "forcing.amplitude": "0.04",
    "forcing.psi_kind": "peaked",
    "flow.horizon": "30",
    "monitors.emit_dt": "0.05",
    "monitors.field_interval": "0.25",
}

RUN2_KV = {
    "mode": "flow",
    "rng_seed": "21",
    "grid.n": "2",
    "grid.N": "16",
    "metric.preset": "hermitian_nonkahler",
    "metric.eps": "0.3",
    "metric.scale": "0.35",
    "forcing.kind": "modes",
    "forcing.amplitude": "0.05",
    "forcing.max_mode": "2",
    "forcing.seed": "1",
    "flow.horizon": "20",
    "monitors.field_interval": "0.5",
}


# Shell amplitudes at most this fraction of the largest are round-off.
SHELL_FLOOR = 1e-13


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: Dict[str, object] = field(default_factory=dict)
    runtime: float = 0.0

    def as_dict(self):
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "measured": dict(self.measured),
            "runtime_s": self.runtime,
        }


class UnitWindows:
    """Criterion 10's unit windows, an observer of run 1's field snapshots.

    Window m covers (m-1, m] for m = 1 .. int(horizon) - 1; it opens at the
    snapshot at t = m-1 when the oscillation of u there is at least 1e-10.
    Each snapshot at 0 < t <= 1 (xi vanishes at the argmax for t = 0) feeds
    the positive surrogate xi_m(x, t) = sup_y u(y, m-1) - u(x, m-1+t) and
    g' to the window's LiYauWindow and keeps (t, sup xi, inf xi) for the
    Harnack fit.  At t = 1 the window's Li-Yau values are kept and the
    Harnack check on (0.5, 1) runs, unless some xi was non-positive.
    """

    def __init__(self, grid, alpha_ly: float, horizon: float):
        self.grid, self.alpha_ly, self.last = grid, alpha_ly, int(horizon) - 1
        self.windows = self.nonpositive = 0
        self.env_t, self.env_v, self.harnack_consts = [], [], []
        self.harnack_ok = True
        self.open = None      # (m, sup_y u(y, m-1)) of the open window
        self.liyau = None     # its LiYauWindow, None once an xi was non-positive
        self.extrema = []     # its (t, sup xi, inf xi)

    def __call__(self, state):
        t, u = state.t, state.dphi_dt.values
        if self.open is not None:
            m, sup0 = self.open
            rel = t - (m - 1)
            if rel <= 1.0 + 1e-9 and self.liyau is not None:
                xi = sup0 - u
                self.extrema.append((rel, float(np.max(xi)), float(np.min(xi))))
                try:
                    self.liyau.add(rel, xi, state.gprime)
                except NonPositiveU:
                    self.liyau = None
            if rel >= 1.0 - 1e-9:
                self.open = None
                self._close()
        k = round(t)
        if abs(t - k) <= 1e-9 and k < self.last and np.max(u) - np.min(u) >= 1e-10:
            self.windows += 1
            self.open = (k + 1, float(np.max(u)))
            self.liyau, self.extrema = LiYauWindow(self.grid, self.alpha_ly), []

    def _close(self):
        if self.liyau is None:
            self.nonpositive += 1
            return
        t_int, vals = self.liyau.result()
        self.env_t.extend(t_int.tolist())
        self.env_v.extend(vals.tolist())
        # every inf xi is positive here, so the fit has pairs to take
        hr = harnack_check(*zip(*self.extrema), 0.5, 1.0)
        if hr.verifiable and hr.constants is not None and all(np.isfinite(hr.constants)):
            self.harnack_consts.append(hr.constants)
        else:
            self.harnack_ok = False


class VerificationContext:
    """Caches the expensive shared runs across criteria."""

    @cached_property
    def run1(self):
        """Run 1, with criterion 10's UnitWindows attached as ``run1_windows``."""
        cfg = config_from_kv(dict(RUN1_KV))
        self.run1_windows = UnitWindows(cfg.grid, cfg.monitors.alpha_ly, cfg.horizon)
        return execute_flow(cfg, observers=(self.run1_windows,))

    @cached_property
    def run2(self):
        return execute_flow(config_from_kv(dict(RUN2_KV)))

    @cached_property
    def run2_repeat(self):
        """A second, independent execution of run 2 (criterion 11)."""
        return execute_flow(config_from_kv(dict(RUN2_KV)))

    @cached_property
    def run2_newton(self):
        return execute_elliptic(config_from_kv(dict(RUN2_KV, mode="solve-elliptic")))


def criterion_1(ctx) -> CriterionResult:
    """Manufactured-solution convergence of the flow."""
    art = ctx.run1
    final = art.result.final
    err = float(np.max(np.abs(final.phi_tilde.values - art.exact.psi_tilde.values)))
    b_err = abs(art.summary["b_flow"] - art.exact.b)
    passed = err <= 1e-6 and b_err <= 1e-8 and art.wall_time <= 60.0
    return CriterionResult(1, "manufactured-solution convergence", passed, {
        "phi_tilde_sup_error": err, "tolerance": 1e-6,
        "b_error": b_err, "b_tolerance": 1e-8,
        "flow_wall_time_s": art.wall_time, "runtime_budget_s": 60.0,
    })


def criterion_2(ctx) -> CriterionResult:
    """Flow-Newton oracle agreement."""
    art = ctx.run2
    newton = ctx.run2_newton
    err = float(np.max(np.abs(art.result.final.phi_tilde.values
                              - newton.solution.phi_tilde_inf.values)))
    b_err = abs(art.summary["b_flow"] - newton.solution.b)
    total = art.wall_time + newton.wall_time
    passed = err <= 1e-5 and b_err <= 1e-6 and total <= 600.0
    return CriterionResult(2, "flow-Newton oracle agreement", passed, {
        "phi_tilde_gap": err, "tolerance": 1e-5,
        "b_gap": b_err, "b_tolerance": 1e-6,
        "newton_iters": newton.solution.newton_iters,
        "newton_residual": newton.solution.residual_sup,
        "krylov_applies": newton.solution.krylov_applies,
        "newton_steps": [asdict(s) for s in newton.solution.steps],
        **recomputed_b(newton),
        **half_grid_gaps(newton.solution),
        **shell_decay(newton.solution),
        "wall_time_s": total, "runtime_budget_s": 600.0,
    })


def recomputed_b(art) -> dict:
    """b checked apart from the oracle's own passes (reported, not gated).

    r = log det(g + Hess phi) - log det g - F, with a fresh Hessian of the
    returned phi = phi_tilde_inf: the gap between the oracle's b and the
    omega^n mean of r, and the sup of r minus that mean.
    """
    g, phi = art.g, art.solution.phi_tilde_inf
    gprime = g.entries + complex_hessian_values(rfftn(phi.values), g.grid)
    r = log_det_ratio(gprime, g.entries) - art.forcing.values
    b = integrate_values(r, volume_weights(g))
    return {"b_recomputed_gap": abs(b - art.solution.b),
            "residual_recomputed_sup": float(np.max(np.abs(r - b)))}


def half_grid_gaps(sol) -> dict:
    """Resolution witness of an oracle solution (reported, not gated): |b_N -
    b_{N/2}| and the sup phi_tilde gap on the points the two grids share,
    against the half-grid solution Newton started from, and that solution's
    Krylov applies and Newton steps (None without one)."""
    coarse = sol.coarse
    if coarse is None:
        return {"half_grid_b_gap": None, "half_grid_phi_tilde_gap": None,
                "half_grid_krylov_applies": None, "half_grid_newton_steps": None}
    fine = sol.phi_tilde_inf
    shared = fine.values[(slice(None, None, 2),) * fine.grid.real_dim]
    gap = float(np.max(np.abs(shared - coarse.phi_tilde_inf.values)))
    return {"half_grid_b_gap": abs(sol.b - coarse.b), "half_grid_phi_tilde_gap": gap,
            "half_grid_krylov_applies": coarse.krylov_applies,
            "half_grid_newton_steps": [asdict(s) for s in coarse.steps]}


def shell_decay(sol) -> dict:
    """Smoothness witness of an oracle solution (reported, not gated).

    The largest mode amplitude of phi_tilde_inf in each l-infinity
    wavenumber shell s = 3 .. N/2 - 1 (past run 2's forcing modes, short of
    the Nyquist shell), and the factor per shell by which they fall: exp of
    minus the least-squares slope of log amplitude against s, fitted up to
    the first shell at the round-off floor (None with fewer than two shells).
    """
    phi = sol.phi_tilde_inf
    amp = shell_amplitudes(rfftn(phi.values), phi.grid)
    shells = []
    for s in range(3, len(amp) - 1):
        if amp[s] <= SHELL_FLOOR * amp.max():
            break
        shells.append(s)
    factor = None
    if len(shells) >= 2:
        factor = float(np.exp(-np.polyfit(shells, np.log(amp[shells]), 1)[0]))
    return {"shell_amplitudes": [float(a) for a in amp[3:-1]], "shell_decay_factor": factor}


def criterion_3(ctx) -> CriterionResult:
    """Exponential decay and unit-time contraction in run 1."""
    art = ctx.run1
    delta, fit = contraction_and_decay(art.result.series.records)
    passed = (fit.eta > 0) and (fit.r_squared >= 0.99) and (0 <= delta < 1) \
        and not fit.degenerate
    return CriterionResult(3, "exponential decay and contraction", passed, {
        "eta": fit.eta, "r_squared": fit.r_squared, "delta": delta,
        "fit_window": list(fit.window), "fit_samples": fit.n_samples,
    })


def criterion_4(ctx) -> CriterionResult:
    """Maximum principle and normalization at every snapshot of both runs.

    The slack sup|u| - sup|F| is gated over all snapshots; at t = 0 it is 0
    (phi = 0, so u = -F).  The margin sup|F| - sup|u| over t > 0 is reported,
    not gated.
    """
    measured = {}
    passed = True
    for tag, art in (("run1", ctx.run1), ("run2", ctx.run2)):
        sup_f = float(np.max(np.abs(art.forcing.values)))
        recs = art.result.series.records
        worst_mp = max(r.sup_dphidt for r in recs) - sup_f
        worst_mean = max(abs(r.mean_phitilde) for r in recs)
        measured[f"{tag}_max_principle_slack"] = worst_mp
        measured[f"{tag}_max_principle_margin"] = sup_f - max(r.sup_dphidt for r in recs
                                                              if r.t > 0)
        measured[f"{tag}_mean_phitilde_max"] = worst_mean
        passed = passed and worst_mp <= 1e-8 and worst_mean <= 1e-12
    measured["mp_tolerance"] = 1e-8
    measured["mean_tolerance"] = 1e-12
    return CriterionResult(4, "maximum principle / normalization", passed, measured)


def criterion_5(ctx) -> CriterionResult:
    """Uniform parabolicity witnesses and the trace identity."""
    measured = {}
    passed = True
    for tag, art in (("run1", ctx.run1), ("run2", ctx.run2)):
        series = art.result.series
        recs = series.records
        eig_min = min(r.eig_min for r in recs)
        t_att = series.running_max_time("trace_max")
        horizon = art.config.horizon
        final = art.result.final
        g_inv = inverse_stack(art.g.entries)
        lap = laplacian_values(final.phi_tilde.values, art.g.grid, g_inv)
        n = art.g.grid.complex_dim
        ident = abs((recs[-1].trace_max - n) - float(np.max(lap)))
        measured[f"{tag}_eig_min"] = eig_min
        measured[f"{tag}_trace_attained_t"] = t_att
        measured[f"{tag}_trace_identity_residual"] = ident
        passed = passed and eig_min >= 0.01 and t_att <= horizon / 2 \
            and np.isfinite(recs[-1].trace_max) and ident <= 1e-10
    return CriterionResult(5, "uniform parabolicity witnesses", passed, measured)


def criterion_6(ctx) -> CriterionResult:
    """Hoelder boundedness witness on run 2."""
    art = ctx.run2
    recs = art.result.series.records
    times = np.array([r.t for r in recs])
    hol = np.array([r.holder_seminorm for r in recs])
    horizon = art.config.horizon
    at_half = float(hol[int(np.argmin(np.abs(times - horizon / 2)))])
    at_end = float(hol[-1])
    growth = (at_end - at_half) / at_half if at_half > 0 else np.inf
    passed = at_half > 0 and growth <= 0.05
    return CriterionResult(6, "Hoelder seminorm boundedness", passed, {
        "estimate_at_half_horizon": at_half,
        "estimate_at_horizon": at_end,
        "relative_growth": growth, "growth_tolerance": 0.05,
        "alpha": art.config.monitors.holder.alpha,
        "epsilon": art.config.monitors.holder.epsilon,
    })


def criterion_7(ctx) -> CriterionResult:
    """Rank-one frame decomposition on 1000 seeded random PD matrices."""
    t0 = time.perf_counter()
    lo = 0.2
    worst_recon, min_beta, _, min_diag_beta, frames_ok = frame_decomposition_sweep(
        1000, (lo, 5.0), 2027)
    elapsed = time.perf_counter() - t0
    # positivity floor: delta = reserve fraction of lambda (0.1 * 0.2), margin 5e-3
    floor = 0.1 * lo * 5e-3
    passed = (worst_recon <= RECONSTRUCTION_TOL and min_beta >= floor and frames_ok
              and elapsed <= 5.0)
    return CriterionResult(7, "rank-one frame decomposition", passed, {
        "matrices": 1000, "worst_reconstruction": worst_recon,
        "reconstruction_tolerance": RECONSTRUCTION_TOL,
        "min_beta": min_beta, "beta_floor": floor,
        "min_standard_basis_beta": min_diag_beta,
        "frame_contains_basis": frames_ok,
        "runtime_s": elapsed, "runtime_budget_s": 5.0,
    })


def criterion_8(ctx) -> CriterionResult:
    """Normal-frame construction on 100 seeded random instances."""
    t0 = time.perf_counter()
    residuals = normal_frame_sweep(100, 509)
    elapsed = time.perf_counter() - t0
    worst_identity, worst_offdiag, worst_fd = residuals
    passed = normal_frame_passed(residuals) and elapsed <= 10.0
    return CriterionResult(8, "holomorphic normal frame", passed, {
        "instances": 100,
        "worst_metric_identity": worst_identity,
        "worst_hessian_offdiag": worst_offdiag,
        "worst_fd_diag_derivative": worst_fd,
        "fd_tolerance": NORMAL_FRAME_TOLS[2], "h_fd": NORMAL_FRAME_FD_STEP,
        "runtime_s": elapsed, "runtime_budget_s": 10.0,
    })


def criterion_9(ctx) -> CriterionResult:
    """Newton linearization against central differences, 20 seeded instances.

    Also reports, not gated, the worst gap between the preconditioned
    apply's identity path and the general apply it replaces in BiCGStab.
    """
    rng = np.random.default_rng(93)
    worst = worst_gap = 0.0
    for k in range(20):
        n = 1 if k % 2 == 0 else 2
        grid = TorusGrid(n, 16 if n == 1 else 8)
        preset = MetricPreset("hermitian_nonkahler", eps=0.25, scale=1.0)
        g = build_metric(grid, preset)
        phi = random_band_limited(grid, 0.08, 2, int(rng.integers(1 << 30)))
        direction = random_band_limited(grid, 1.0, 2, int(rng.integers(1 << 30)))
        err = linearization_check(g, phi, direction)
        worst = max(worst, err)
        worst_gap = max(worst_gap, preconditioned_apply_gap(g, phi, direction))
    passed = worst <= 1e-5
    return CriterionResult(9, "Newton linearization check", passed, {
        "instances": 20, "worst_relative_error": worst, "tolerance": 1e-5,
        "worst_preconditioned_apply_gap": worst_gap,
    })


def criterion_10(ctx) -> CriterionResult:
    """Li-Yau envelope and Harnack inequality on run 1's unit-window surrogates."""
    ctx.run1  # run 1's field snapshots fill ctx.run1_windows
    uw = ctx.run1_windows
    c1 = c2 = float("nan")
    envelope_holds = False
    if uw.env_t:
        env_t, env_v = np.array(uw.env_t), np.array(uw.env_v)
        c1, c2 = envelope_fit_inverse_time(env_t, env_v)
        envelope_holds = bool(np.all(env_v <= c1 + c2 / env_t + 1e-12))
    passed = (uw.nonpositive == 0 and uw.windows >= 3 and envelope_holds
              and np.isfinite(c1) and np.isfinite(c2) and uw.harnack_ok)
    return CriterionResult(10, "Li-Yau / Harnack diagnostics", passed, {
        "windows": uw.windows, "nonpositive_triggers": uw.nonpositive,
        "envelope_C1": c1, "envelope_C2": c2, "envelope_holds": envelope_holds,
        "harnack_windows_verified": len(uw.harnack_consts),
        "harnack_C_first": list(uw.harnack_consts[0]) if uw.harnack_consts else None,
    })


def criterion_11(ctx) -> CriterionResult:
    """Byte-identical CSV and JSON on repeating run 2."""
    art = ctx.run2
    repeat = ctx.run2_repeat
    csv_same = art.csv_text == repeat.csv_text
    json_a, json_b = json_text(art.summary), json_text(repeat.summary)
    # wall-clock independent payloads only
    passed = csv_same and json_a == json_b
    return CriterionResult(11, "determinism (byte-identical artifacts)", passed, {
        "csv_identical": csv_same, "json_identical": json_a == json_b,
        "csv_bytes": len(art.csv_text),
    })


CRITERIA: Dict[int, Callable] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_criteria(numbers: Optional[List[int]] = None,
                 ctx: Optional[VerificationContext] = None) -> List[CriterionResult]:
    ctx = ctx or VerificationContext()
    selected = sorted(set(numbers or CRITERIA))
    out = []
    for k in selected:
        t0 = time.perf_counter()
        res = CRITERIA[k](ctx)
        res.runtime = time.perf_counter() - t0
        out.append(res)
    return out
