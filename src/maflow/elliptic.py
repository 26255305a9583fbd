"""Damped Newton solver for the elliptic complex Monge-Ampere equation.

Finds the unique pair (b, phitilde_inf) with

    log det(g + Hess phi) / det g = F + b,   mean of phitilde_inf = 0,

used as the independent convergence oracle for the flow.  The constant b is
handled by projection (b := omega^n mean of the current residual field), so
each Newton step solves the linearization

    Delta' psi = -(G(phi) - b)

on mean-zero fields by BiCGStab.  This is an inexact Newton method: the
Krylov solve at sup residual r runs to the relative residual
_forcing_term(r, tol), about r while r is large and 0.1 tol / r near the
end, so the last step does not solve far past tol.  Newton still stops only
at a sup residual of at most tol.  The preconditioner scales the residual
pointwise by c(x) = n / tr(gbar g'^{-1}(x)) and inverts the
constant-coefficient Laplacian, of symbol S, of the grid mean gbar of g':
y = S^-1 rfftn(c p).  With g'^{-1} = alpha gbar^{-1} + A, where
alpha = 1/c and A is trace-free against gbar, S is nonzero off k = 0, so

    Delta' y = p - alpha(x) mean(c p) + tr(A Hess y):

the identity, plus a field (alpha(x) times a number), plus the anisotropy.
A preconditioned apply costs one rfftn and, for n = 2, one 1-field irfftn
of y, whose values give Hess y by spectral.matrix_hessian_values (none for
n = 1, where A = 0); the general apply adds one irfftn of S vh for n = 1.
The Newton iterate is kept as its rfft spectrum.

Nested start: without an explicit initial field, and where the half grid is
valid (N divisible by 4, N >= 16), solve first solves the same problem on
every other sample of g and F (recursively, with the same tol) and starts
Newton from the spectral prolongation of that solution.  The half-grid
samples are a subset of the full ones, so the coarse metric is positive
definite too.  If the half-grid solve raises, or its prolongation leaves the
cone at the first residual, Newton starts from zero.  The half-grid solution
stays on the result (EllipticSolution.coarse) as a resolution witness;
newton_iters counts the full grid only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
    TorusGrid,
    cone_log_det,
    integrate_values,
    pin_heap_thresholds,
    volume_weights,
)
from .hermitian import inverse_stack, trace_pair
# unused here; perfbench/tracer.py patches them under this module
from .hermitian import log_det_ratio, min_eig_field  # noqa: F401
from .spectral import (
    complex_hessian_values,
    irfftn,
    matrix_hessian_values,
    mean_metric_symbol,
    prolong,
    rfftn,
)

# Newton stops once the sup residual is at most tol (NEWTON_TOL by default),
# or fails after NEWTON_MAX_ITERS iterations.  Each Newton step's BiCGStab
# stops below its forcing term, from KRYLOV_RTOL to FORCING_MAX relative
# residual (the contract is 10 times the forcing term), or after
# KRYLOV_MAX_ITER iterations; a Newton step halves at most BACKTRACK_LIMIT
# times.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITERS = 50
KRYLOV_RTOL = 1e-11
FORCING_MAX = 1e-2
KRYLOV_MAX_ITER = 400
BACKTRACK_LIMIT = 30


def _forcing_term(res_sup: float, tol: float) -> float:
    """Relative residual the Krylov solve of a Newton step at sup residual
    res_sup > 0 runs to (forcing terms after Dembo, Eisenstat & Steihaug
    1982 and Eisenstat & Walker 1996).

    The res_sup term leaves a linear error of about res_sup^2, the order of
    Newton's own, so convergence stays quadratic; 0.1 tol / res_sup stops the
    last step from solving past tol; FORCING_MAX keeps early directions good
    enough for the line search, and KRYLOV_RTOL is the floor.
    """
    return min(FORCING_MAX, max(res_sup, 0.1 * tol / res_sup, KRYLOV_RTOL))


@dataclass(frozen=True)
class NewtonStep:
    """One Newton iteration: the sup residual it started from, the forcing
    term its Krylov solve ran to, that solve's operator applies and achieved
    relative residual, and the accepted step size."""

    residual_sup: float
    forcing: float
    krylov_applies: int
    krylov_rel: float
    step_size: float


@dataclass(frozen=True)
class EllipticSolution:
    """Solution record with its residual certificate.

    steps holds this grid's Newton iterations, newton_iters counts them and
    krylov_applies sums the operator applies of their Krylov solves; coarse
    is the half-grid solution the iteration started from, or None.
    """

    b: float
    phi_tilde_inf: ScalarField
    residual_sup: float
    steps: Tuple[NewtonStep, ...]
    coarse: Optional["EllipticSolution"] = None

    @property
    def newton_iters(self) -> int:
        return len(self.steps)

    @property
    def krylov_applies(self) -> int:
        return sum(s.krylov_applies for s in self.steps)


def _residual_field(phi_hat, g):
    """G(phi) = log det ratio and the assembled (packed) evolving metric.

    Takes phi_hat = rfftn(phi), and Hess phi as flow.flow_rhs does.
    """
    if g.grid.complex_dim == 1:
        gprime = complex_hessian_values(phi_hat, g.grid)
    else:
        gprime = matrix_hessian_values(irfftn(phi_hat, g.grid.shape), g.grid)
    gprime += g.entries
    ratio = cone_log_det(gprime, 0.0, "Newton iterate left the positive cone")
    ratio -= g.log_det
    return ratio, gprime


def _projected_residual(ratio, f, w):
    """b, the omega^n mean of G(phi) - F, then G(phi) - F - b and its sup."""
    b = integrate_values(ratio - f.values, w)
    resid = ratio - f.values - b
    return b, resid, float(np.abs(resid).max())


class _Linearization:
    """Mean-projected Delta' with its pointwise-scaled spectral preconditioner.

    Splits g'^{-1} = alpha gbar^{-1} + A with alpha = 1/c = tr(gbar g'^{-1}) / n,
    so A is trace-free against gbar and vanishes for n = 1.  With H = Hess v,
    Delta' v = alpha tr(gbar^{-1} H) + sum_j a_j (H_j - r_j H_a): tr(gbar A) = 0
    fixes A_a, a = (A_d, 2 Re A_b, 2 Im A_b) are trace_pair's weights and
    r = gbar[1:] / gbar_a.  tr(gbar^{-1} H) = irfftn(S vh), with S the symbol
    of gbar^{i jbar} d_i d_jbar.  precondition maps a real field p to the rfft
    spectrum y = S^-1 rfftn(c p), k = 0 entry zero, and since S is nonzero
    off k = 0, irfftn(S y) = c p - mean(c p) exactly:
    alpha irfftn(S y) = p - alpha(x) mean(c p), a field, not a constant.
    apply(y, p) uses that identity; for n = 2 it and the general apply(vh)
    take H from matrix_hessian_values after one 1-field irfftn of vh.  For
    n = 1 apply(y, p) transforms nothing and apply(vh) transforms S vh.
    """

    def __init__(self, g: MetricField, gprime: np.ndarray):
        self.grid = g.grid
        n = g.grid.complex_dim
        coef = inverse_stack(gprime)
        g_mean = gprime.reshape(len(gprime), -1).mean(axis=1)
        self._gbar_inv = inverse_stack(g_mean)
        alpha = trace_pair(g_mean, coef) / n
        # g'^{-1}'s buffer becomes [c, a_1 .. a_{n*n-1}], with a = (A_d, 2 Re A_b, 2 Im A_b)
        for j, gbar_inv in enumerate(self._gbar_inv[1:], start=1):
            coef[j] -= gbar_inv * alpha
        coef[2:] *= 2.0
        np.divide(1.0, alpha, out=coef[0])
        self._scale, self._aniso = coef[0], coef[1:]
        self._ratio = g_mean[1:] / g_mean[0]
        self._sym = mean_metric_symbol(g_mean, self.grid)
        self._sym_inv = np.zeros_like(self._sym)
        nz = self._sym != 0
        self._sym_inv[nz] = 1.0 / self._sym[nz]

    def apply(self, vh: np.ndarray, pre: Optional[np.ndarray] = None) -> np.ndarray:
        """Mean-free Delta' v of the real field v whose rfft is vh.

        With pre, vh must be precondition(pre).  The Hessian annihilates
        constants, so the mean of v does not enter.
        """
        c = self._scale
        # form H before lap exists: the solve's memory peaks in this Hessian,
        # so lap is not held through it
        h = (matrix_hessian_values(irfftn(vh, self.grid.shape), self.grid)
             if len(self._aniso) else None)
        if pre is not None:
            lap = pre - (np.vdot(c, pre) / pre.size) / c
        elif h is None:
            lap = irfftn(self._sym * vh, self.grid.shape) / c
        else:
            lap = trace_pair(self._gbar_inv, h) / c
        if h is not None:
            for h_j, r_j in zip(h[1:], self._ratio):
                h_j -= r_j * h[0]
            lap += np.einsum("j...,j...->...", self._aniso, h[1:])
        return lap - lap.mean()

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Spectrum S^-1 rfftn(c r) of the preconditioned r, its k = 0 entry zero."""
        return self._sym_inv * rfftn(self._scale * r)


def _bicgstab(op, b, rtol, max_iter):
    """Right-preconditioned BiCGStab on the mean-zero subspace.

    The residuals live on the grid and the iterate x as the rfft spectrum
    that op.precondition returns; each apply gets its pre-image.  Returns
    (solution spectrum, relative_residual, applies), the residual taken from
    a fresh general apply of x, or the first residual norm that is not
    finite; deterministic, no randomness.
    """
    b = b - b.mean()
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(b.shape[:-1] + (b.shape[-1] // 2 + 1,), dtype=complex)
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    applies = 0
    for _ in range(max_iter):
        rho_new = float(np.vdot(r_hat, r).real)
        if rho_new == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega) if rho != 0 else 0.0
        rho = rho_new
        p = r + beta * (p - omega * v)
        y = op.precondition(p)
        v = op.apply(y, p)
        applies += 1
        denom = float(np.vdot(r_hat, v).real)
        if denom == 0.0:
            break
        alpha = rho / denom
        s = r - alpha * v
        rel = float(np.linalg.norm(s)) / bnorm
        if not np.isfinite(rel):
            return x, rel, applies
        if rel < rtol:
            x = x + alpha * y
            break
        z = op.precondition(s)
        t = op.apply(z, s)
        applies += 1
        tt = float(np.vdot(t, t).real)
        if tt == 0.0:
            break
        omega = float(np.vdot(t, s).real) / tt
        x = x + alpha * y + omega * z
        r = s - omega * t
        rel = float(np.linalg.norm(r)) / bnorm
        if not np.isfinite(rel):
            return x, rel, applies
        if rel < rtol:
            break
        if omega == 0.0:
            break
    return x, float(np.linalg.norm(op.apply(x) - b)) / bnorm, applies + 1


def _start_spectrum(initial: Optional[ScalarField], grid: TorusGrid) -> np.ndarray:
    """rfft spectrum of the mean-free initial field, zero when there is none."""
    return rfftn(np.zeros(grid.shape) if initial is None
                 else initial.values - initial.values.mean())


def _half_grid_solution(g: MetricField, f: ScalarField, tol: float) -> Optional[EllipticSolution]:
    """solve on every other sample of g and f, or None.

    None when the half grid is not valid (N/2 odd or below 8) or its solve
    raises a MaflowError.  Only the returned solution outlives the call, so
    the half-grid metric and forcing are freed before the fine Newton loop.
    """
    grid = g.grid
    N = grid.points_per_axis
    if N % 4 or N < 16:
        return None
    half = TorusGrid(grid.complex_dim, N // 2)
    every_other = (slice(None, None, 2),) * grid.real_dim
    entries = np.ascontiguousarray(g.entries[(slice(None),) + every_other])
    f_half = ScalarField(half, np.ascontiguousarray(f.values[every_other]))
    try:
        return solve(MetricField(half, entries), f_half, tol)
    except MaflowError:
        return None


def solve(g: MetricField, f: ScalarField, tol: float = NEWTON_TOL,
          initial: ScalarField = None) -> EllipticSolution:
    """Damped Newton iteration with mean-zero projection.

    At each iterate b is the omega^n mean of G(phi); the update solves the
    projected linearization, with backtracking (factor 1/2) accepting any
    step that stays in the positive cone and reduces the sup residual.
    Newton starts from initial (mean removed) when given, else from the
    prolonged half-grid solution (see the module docstring), else from zero.
    """
    if not (tol >= 1e-12):
        raise ValueError("tolerance below attainable round-off (need tol >= 1e-12)")
    grid = g.grid
    pin_heap_thresholds(grid)
    w = volume_weights(g)
    coarse = _half_grid_solution(g, f, tol) if initial is None else None
    phi_hat = _start_spectrum(initial if coarse is None else
                              ScalarField(grid, prolong(coarse.phi_tilde_inf.values, grid)),
                              grid)
    try:
        ratio, gprime = _residual_field(phi_hat, g)
    except PositivityViolation:
        if coarse is None:
            raise
        # the prolonged start left the cone: start from zero instead
        coarse = None
        phi_hat = _start_spectrum(None, grid)
        ratio, gprime = _residual_field(phi_hat, g)
    b, resid, res_sup = _projected_residual(ratio, f, w)

    steps = []
    while res_sup > tol:
        if len(steps) >= NEWTON_MAX_ITERS:
            raise MaxIterationsExceeded(
                f"residual {res_sup:.3e} after {NEWTON_MAX_ITERS} Newton iterations")
        eta = _forcing_term(res_sup, tol)
        lin = _Linearization(g, gprime)
        # the Krylov solve, where the memory of a solve peaks, reads only lin
        ratio = ratio_c = gprime = gprime_c = psi_hat = None
        psi_hat, rel, applies = _bicgstab(lin, -resid, eta, KRYLOV_MAX_ITER)
        lin = None
        if not rel <= 10.0 * eta:
            raise LinearSolveStagnation(
                f"Krylov relative residual {rel:.3e} above contract {10.0 * eta:.3e}")
        res_start = res_sup
        step_size = 1.0
        for _ in range(BACKTRACK_LIMIT):
            cand = phi_hat + step_size * psi_hat
            try:
                ratio_c, gprime_c = _residual_field(cand, g)
            except PositivityViolation:
                step_size *= 0.5
                continue
            b_c, resid_c, res_c = _projected_residual(ratio_c, f, w)
            if res_c < res_sup:
                phi_hat, gprime = cand, gprime_c
                b, resid, res_sup = b_c, resid_c, res_c
                break
            step_size *= 0.5
        else:
            raise LineSearchFailure(
                f"no damped step reduced sup residual {res_sup:.3e}")
        steps.append(NewtonStep(res_start, eta, applies, rel, step_size))

    phi = irfftn(phi_hat, grid.shape)
    tilde = phi - integrate_values(phi, w)
    return EllipticSolution(
        b=float(b),
        phi_tilde_inf=ScalarField(grid, tilde),
        residual_sup=res_sup,
        steps=tuple(steps),
        coarse=coarse,
    )


def linearization_check(g: MetricField, phi: ScalarField, direction: ScalarField) -> float:
    """Relative sup-norm gap between the central difference
    (G(phi+h d) - G(phi-h d)) / 2h, h = 1e-5, and the operator Newton solves
    with, _Linearization(g, g').apply(d), both with their grid mean removed."""
    h = 1e-5
    phi_hat, d_hat = rfftn(phi.values), rfftn(direction.values)
    ratio_p, _ = _residual_field(phi_hat + h * d_hat, g)
    ratio_m, _ = _residual_field(phi_hat - h * d_hat, g)
    fd = (ratio_p - ratio_m) / (2.0 * h)
    fd = fd - fd.mean()
    _, gprime = _residual_field(phi_hat, g)
    lap = _Linearization(g, gprime).apply(d_hat)
    scale = float(np.max(np.abs(lap)))
    if scale == 0.0:
        return float(np.max(np.abs(fd)))
    return float(np.max(np.abs(fd - lap)) / scale)


def preconditioned_apply_gap(g: MetricField, phi: ScalarField, direction: ScalarField) -> float:
    """Relative sup-norm gap between the two ways _Linearization(g, g') applies
    Delta' to y = precondition(d): the identity path apply(y, d) that
    BiCGStab runs and the general apply(y) that linearization_check tests."""
    _, gprime = _residual_field(rfftn(phi.values), g)
    lin = _Linearization(g, gprime)
    y = lin.precondition(direction.values)
    general = lin.apply(y)
    gap = float(np.max(np.abs(lin.apply(y, direction.values) - general)))
    scale = float(np.max(np.abs(general)))
    return gap / scale if scale > 0.0 else gap
