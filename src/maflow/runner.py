"""Run orchestration shared by the CLI and the verification suite."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig
from .elliptic import EllipticSolution, solve
from .errors import ConfigError, PositivityViolation
from .flow import RunResult, run
from .grid import MetricField, ScalarField, integrate_values, pin_heap_thresholds
from .grid import volume_weights  # noqa: F401  unused; perfbench/tracer.py patches it here
from .hermitian import frame_decompose, normal_frame
from . import monitors
from .monitors import contraction_and_decay
from .presets import ManufacturedSolution, build_forcing, build_metric

NORMAL_FRAME_FD_STEP = 1e-3   # step of fd_normal_frame_residual's stencil
DEMO_EIG_RANGE = (0.2, 5.0)   # eigenvalue range of decompose-demo and criterion 7


@dataclass
class FlowArtifacts:
    """Everything a flow run persists or verifies against."""

    config: RunConfig
    g: MetricField
    forcing: ScalarField
    exact: Optional[ManufacturedSolution]
    result: RunResult
    csv_text: str
    summary: dict
    wall_time: float


def embedded_config(cfg: RunConfig) -> dict:
    """Exact config used, minus the output location (not part of the result)."""
    return {k: v for k, v in cfg.raw.items() if k != "out.dir"}


def build_problem(cfg: RunConfig):
    """Grid, metric and forcing of a run.  A metric that is not positive
    definite or a manufactured g + Hess(psi) outside the cone is a bad config
    value, so its PositivityViolation becomes a ConfigError."""
    grid = cfg.grid
    pin_heap_thresholds(grid)
    try:
        g = build_metric(grid, cfg.metric)
        forcing, exact = build_forcing(grid, g, cfg.forcing)
    except PositivityViolation as e:
        raise ConfigError(str(e)) from e
    return grid, g, forcing, exact


def execute_flow(cfg: RunConfig, observers=()) -> FlowArtifacts:
    """Run the flow of ``cfg``; ``observers`` also see each field snapshot (see flow.run)."""
    grid, g, forcing, exact = build_problem(cfg)
    t0 = time.perf_counter()
    result = run(g, forcing, horizon=cfg.horizon, ctrl=cfg.step, monitors=cfg.monitors,
                 observers=observers)
    wall = time.perf_counter() - t0
    series = result.series
    csv_text = series.to_csv()

    b_flow = integrate_values(result.final.dphi_dt.values, result.final.flow_run.w)
    delta, fit = contraction_and_decay(series.records)
    summary = {
        "mode": "flow",
        "delta": delta,
        "eta": fit.eta,
        "C": fit.C,
        "r_squared": fit.r_squared,
        "fit_degenerate": fit.degenerate,
        "C_star": series.c_star(),
        "b_flow": b_flow,
        "horizon": cfg.horizon,
        "steps": result.final.step_count,
        "trace_max_attained_t": series.running_max_time("trace_max"),
        "Q_max_attained_t": series.running_max_time("Q_max"),
        "A": monitors.Q_A,
        "config": embedded_config(cfg),
    }
    return FlowArtifacts(cfg, g, forcing, exact, result, csv_text, summary, wall)


@dataclass
class EllipticArtifacts:
    config: RunConfig
    g: MetricField
    forcing: ScalarField
    exact: Optional[ManufacturedSolution]
    solution: EllipticSolution
    summary: dict
    wall_time: float


def execute_elliptic(cfg: RunConfig) -> EllipticArtifacts:
    grid, g, forcing, exact = build_problem(cfg)
    t0 = time.perf_counter()
    sol = solve(g, forcing, tol=cfg.elliptic_tol)
    wall = time.perf_counter() - t0
    summary = {
        "mode": "solve-elliptic",
        "b": sol.b,
        "residual_sup": sol.residual_sup,
        "newton_iters": sol.newton_iters,
        "config": embedded_config(cfg),
    }
    return EllipticArtifacts(cfg, g, forcing, exact, sol, summary, wall)


RECONSTRUCTION_TOL = 1e-12   # pass bound on the sweep's worst reconstruction error


def frame_decomposition_sweep(count: int, eig_range, seed: int):
    """Worst (reconstruction error, min beta, max beta, min standard-basis beta,
    frame contains the basis) of the frame decomposition over ``count`` seeded
    random Hermitian 2x2 matrices with eigenvalues drawn uniformly in eig_range."""
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    worst_recon = max_beta = 0.0
    min_beta = min_diag_beta = np.inf
    frames_ok = True
    for _ in range(count):
        evs = rng.uniform(lo, hi, size=2)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a = (q * evs) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        fd = frame_decompose(a, (lo, hi))
        worst_recon = max(worst_recon, float(np.max(np.abs(fd.reconstruct() - a))))
        min_beta = min(min_beta, float(np.min(fd.betas)))
        max_beta = max(max_beta, float(np.max(fd.betas)))
        min_diag_beta = min(min_diag_beta, float(fd.betas[0]), float(fd.betas[1]))
        frames_ok = (frames_ok and np.allclose(fd.frame[0], [1, 0])
                     and np.allclose(fd.frame[1], [0, 1]))
    return worst_recon, min_beta, max_beta, min_diag_beta, frames_ok


def decompose_demo(cfg: RunConfig) -> dict:
    """Seeded random PD matrices through the frame decomposition; certified bounds."""
    worst_recon, min_beta, max_beta, _, _ = frame_decomposition_sweep(
        cfg.demo_count, DEMO_EIG_RANGE, cfg.rng_seed)
    return {
        "mode": "decompose-demo",
        "count": cfg.demo_count,
        "eig_range": list(DEMO_EIG_RANGE),
        "worst_reconstruction": worst_recon,
        "C1_certified": min_beta,
        "C2_certified": max_beta,
        "passed": bool(worst_recon <= RECONSTRUCTION_TOL and min_beta > 0),
        "config": embedded_config(cfg),
    }


def random_normal_frame_instance(rng):
    """Random 2x2 (g0, dg0, hess0) with the metric-derivative symmetry used in tests."""
    def herm(scale):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return scale * 0.5 * (m + m.conj().T)

    g0 = np.eye(2) + herm(0.3)
    ev_min = float(np.linalg.eigvalsh(g0)[0])
    if ev_min < 0.3:
        g0 = g0 + (0.3 - ev_min) * np.eye(2)
    dg0 = np.stack([herm(0.5) for _ in range(2)])
    hess0 = herm(0.8)
    return g0, dg0, hess0


# pass bounds on normal_frame_sweep's three residuals, in its order
NORMAL_FRAME_TOLS = (1e-10, 1e-10, 1e-6)


def normal_frame_sweep(count: int, seed: int):
    """Worst (metric identity, Hessian off-diagonal, FD derivative) residuals of
    the normal-frame construction over ``count`` seeded random instances."""
    rng = np.random.default_rng(seed)
    worst_identity = worst_offdiag = worst_fd = 0.0
    for _ in range(count):
        g0, dg0, hess0 = random_normal_frame_instance(rng)
        nf = normal_frame(g0, dg0, hess0)
        lin = nf.linear_map
        gm = lin.T @ g0 @ np.conj(lin)
        worst_identity = max(worst_identity, float(np.max(np.abs(gm - np.eye(2)))))
        h1 = lin.T @ hess0 @ np.conj(lin)
        worst_offdiag = max(worst_offdiag, abs(h1[0, 1]))
        worst_fd = max(worst_fd, fd_normal_frame_residual(g0, dg0, nf))
    return worst_identity, worst_offdiag, worst_fd


def normal_frame_passed(residuals) -> bool:
    """normal_frame_sweep's residuals all within NORMAL_FRAME_TOLS."""
    return all(r <= tol for r, tol in zip(residuals, NORMAL_FRAME_TOLS))


def normal_frame_demo(cfg: RunConfig) -> dict:
    """Seeded random normal-frame constructions with their certified residuals."""
    residuals = normal_frame_sweep(cfg.demo_count, cfg.rng_seed)
    worst_metric, worst_offdiag, worst_fd = residuals
    return {
        "mode": "normal-frame-demo",
        "count": cfg.demo_count,
        "worst_metric_identity": worst_metric,
        "worst_hessian_offdiag": worst_offdiag,
        "worst_fd_derivative": worst_fd,
        "passed": normal_frame_passed(residuals),
        "config": embedded_config(cfg),
    }


def fd_normal_frame_residual(g0, dg0, nf):
    """4th-order FD check (step NORMAL_FRAME_FD_STEP) of d_j g_ii(0) = 0
    through the synthetic embedding.

    Embeds (g0, dg0) in the metric g(z) = g0 + sum_k (dg0_k z^k + h.c.),
    pulls it back through the returned coordinates, and differentiates the
    diagonal entries holomorphically at the base point.
    """
    n, h = g0.shape[0], NORMAL_FRAME_FD_STEP

    def g_of_z(z):
        out = np.array(g0, dtype=complex)
        for k in range(n):
            out = out + dg0[k] * z[k] + dg0[k].conj().T * np.conj(z[k])
        return out

    def pulled(wpt):
        wpt = np.asarray(wpt, dtype=complex)
        z = nf.map_points(wpt)
        jac = nf.jacobian(wpt)
        return jac.T @ g_of_z(z) @ np.conj(jac)

    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = (-2, -1, 1, 2)
    worst = 0.0
    for j in range(n):
        for i in range(n):
            vx = []
            vy = []
            for off in offsets:
                wx = np.zeros(n, dtype=complex)
                wx[j] = off * h
                vx.append(pulled(wx)[i, i])
                wy = np.zeros(n, dtype=complex)
                wy[j] = 1j * off * h
                vy.append(pulled(wy)[i, i])
            dx = sum(c * v for c, v in zip(stencil, vx))
            dy = sum(c * v for c, v in zip(stencil, vy))
            worst = max(worst, abs(0.5 * (dx - 1j * dy)))
    return float(worst)
