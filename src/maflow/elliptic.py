"""Damped Newton solver for the elliptic complex Monge-Ampere equation.

Finds the unique pair (b, phitilde_inf) with

    log det(g + Hess phi) / det g = F + b,   mean of phitilde_inf = 0,

used as the independent convergence oracle for the flow.  The constant b is
handled by projection (b := omega^n mean of the current residual field), so
each Newton step solves the linearization

    Delta' psi = -(G(phi) - b)

on mean-zero fields.  The linear solve is BiCGStab preconditioned by the
spectral inverse of the constant-coefficient Laplacian built from the grid
average of the evolving metric; any Krylov method meeting the 1e-10
relative-residual contract would do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LinearSolveStagnation,
    LineSearchFailure,
    MaflowError,
    MaxIterationsExceeded,
    PositivityViolation,
)
from .grid import (
    MetricField,
    ScalarField,
    check_cone,
    integrate_values,
    min_eig_field,
    volume_weights,
)
from .hermitian import inverse_stack, log_det, trace_pair
from .hermitian import log_det_ratio  # noqa: F401  unused; perfbench/tracer.py patches it here
from .spectral import (
    complex_hessian_values,
    irfftn,
    mean_metric_symbol,
    rfftn,
)


@dataclass(frozen=True)
class EllipticSolution:
    """Solution record with its residual certificate."""

    b: float
    phi_tilde_inf: ScalarField
    residual_sup: float
    newton_iters: int


def _residual_field(phi_values, g):
    """G(phi) = log det ratio and the assembled (packed) evolving metric."""
    gprime = g.entries + complex_hessian_values(rfftn(phi_values), g.grid)
    check_cone(min_eig_field(gprime), 0.0, "Newton iterate left the positive cone")
    return log_det(gprime) - g.log_det, gprime


class _Linearization:
    """Mean-projected Delta' with its spectral preconditioner.

    Keeps the packed g'^{-1}, so apply is a real contraction with the packed
    Hessian of its argument.
    """

    def __init__(self, g: MetricField, gprime: np.ndarray):
        self.grid = g.grid
        self.gp_inv = inverse_stack(gprime)
        g_mean = gprime.reshape(len(gprime), -1).mean(axis=1)
        sym = mean_metric_symbol(g_mean, g.grid)
        sym_inv = np.zeros_like(sym)
        nz = sym != 0
        sym_inv[nz] = 1.0 / sym[nz]
        self._sym_inv = sym_inv

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = v - v.mean()
        lap = trace_pair(self.gp_inv, complex_hessian_values(rfftn(v), self.grid))
        return lap - lap.mean()

    def precondition(self, r: np.ndarray) -> np.ndarray:
        out = irfftn(self._sym_inv * rfftn(r), self.grid.shape)
        return out - out.mean()


def _bicgstab(op, b, rtol, max_iter):
    """Right-preconditioned BiCGStab on the mean-zero subspace.

    Returns (solution, relative_residual); deterministic, no randomness.
    """
    b = b - b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    x = np.zeros_like(b)
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for _ in range(max_iter):
        rho_new = float(np.vdot(r_hat, r).real)
        if rho_new == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega) if rho != 0 else 0.0
        rho = rho_new
        p = r + beta * (p - omega * v)
        y = op.precondition(p)
        v = op.apply(y)
        denom = float(np.vdot(r_hat, v).real)
        if denom == 0.0:
            break
        alpha = rho / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) / bnorm < rtol:
            x = x + alpha * y
            break
        z = op.precondition(s)
        t = op.apply(z)
        tt = float(np.vdot(t, t).real)
        if tt == 0.0:
            break
        omega = float(np.vdot(t, s).real) / tt
        x = x + alpha * y + omega * z
        r = s - omega * t
        if float(np.linalg.norm(r)) / bnorm < rtol:
            break
        if omega == 0.0:
            break
    true_res = float(np.linalg.norm(op.apply(x) - b)) / bnorm
    return x, true_res


def solve(g: MetricField, f: ScalarField, tol: float = 1e-11,
          max_iters: int = 50, initial: ScalarField = None,
          krylov_rtol: float = 1e-12, krylov_max_iter: int = 400,
          backtrack_limit: int = 30) -> EllipticSolution:
    """Damped Newton iteration with mean-zero projection.

    At each iterate b is the omega^n mean of G(phi); the update solves the
    projected linearization, with backtracking (factor 1/2) accepting any
    step that stays in the positive cone and reduces the sup residual.
    """
    if not (tol >= 1e-12):
        raise ValueError("tolerance below attainable round-off (need tol >= 1e-12)")
    grid = g.grid
    w = volume_weights(g)
    phi = np.zeros(grid.shape) if initial is None else initial.values.copy()
    phi = phi - phi.mean()

    ratio, gprime = _residual_field(phi, g)
    b = integrate_values(ratio - f.values, w)
    resid = ratio - f.values - b
    res_sup = float(np.max(np.abs(resid)))

    iters = 0
    while res_sup > tol:
        if iters >= max_iters:
            raise MaxIterationsExceeded(
                f"residual {res_sup:.3e} after {max_iters} Newton iterations")
        lin = _Linearization(g, gprime)
        psi, rel = _bicgstab(lin, -resid, krylov_rtol, krylov_max_iter)
        if rel > 1e-10:
            raise LinearSolveStagnation(
                f"Krylov relative residual {rel:.3e} above contract 1e-10")
        step_size = 1.0
        accepted = False
        for _ in range(backtrack_limit):
            cand = phi + step_size * psi
            try:
                ratio_c, gprime_c = _residual_field(cand, g)
            except PositivityViolation:
                step_size *= 0.5
                continue
            b_c = integrate_values(ratio_c - f.values, w)
            resid_c = ratio_c - f.values - b_c
            res_c = float(np.max(np.abs(resid_c)))
            if res_c < res_sup:
                phi, ratio, gprime = cand, ratio_c, gprime_c
                b, resid, res_sup = b_c, resid_c, res_c
                accepted = True
                break
            step_size *= 0.5
        if not accepted:
            raise LineSearchFailure(
                f"no damped step reduced sup residual {res_sup:.3e}")
        iters += 1

    tilde = phi - integrate_values(phi, w)
    # post-check, not assumption: b equals the mean of (log ratio - F)
    b_check = integrate_values(ratio - f.values, w)
    if not abs(b_check - b) <= 1e-12 * max(1.0, abs(b)):
        raise MaflowError(f"post-check failed: b = {b!r} but the mean of the "
                          f"log ratio minus F is {b_check!r}")
    return EllipticSolution(
        b=float(b),
        phi_tilde_inf=ScalarField(grid, tilde),
        residual_sup=res_sup,
        newton_iters=iters,
    )


def linearization_check(g: MetricField, phi: ScalarField, direction: ScalarField,
                        h_fd: float = 1e-5) -> float:
    """Relative sup-norm gap between (G(phi+h d) - G(phi-h d)) / 2h and Delta' d."""
    ratio_p, _ = _residual_field(phi.values + h_fd * direction.values, g)
    ratio_m, _ = _residual_field(phi.values - h_fd * direction.values, g)
    fd = (ratio_p - ratio_m) / (2.0 * h_fd)
    _, gprime = _residual_field(phi.values, g)
    lap = trace_pair(inverse_stack(gprime),
                     complex_hessian_values(rfftn(direction.values), g.grid))
    scale = float(np.max(np.abs(lap)))
    if scale == 0.0:
        return float(np.max(np.abs(fd)))
    return float(np.max(np.abs(fd - lap)) / scale)
