import numpy as np
import pytest

import maflow.elliptic
from maflow.config import config_from_kv
from maflow.elliptic import linearization_check, preconditioned_apply_gap, solve
from maflow.errors import (
    LinearSolveStagnation,
    LineSearchFailure,
    MaxIterationsExceeded,
    PositivityViolation,
)
from maflow.flow import StepControl, run
from maflow.grid import ScalarField, TorusGrid, integrate_values, volume_weights
from maflow.monitors import MonitorSuite
from maflow.presets import (
    ForcingPreset,
    MetricPreset,
    build_forcing,
    build_metric,
    random_band_limited,
)
from maflow.runner import build_problem
from maflow.spectral import rfftn
from maflow.verification import RUN1_KV, RUN2_KV, shell_decay

from conftest import field_from


def test_constant_forcing_gives_minus_c(grid1, nonkahler1):
    F = ScalarField(grid1, np.full(grid1.shape, 0.8))
    sol = solve(nonkahler1, F, tol=1e-12)
    # log-ratio = F + b with phi = 0 forces b = -c
    assert sol.b == pytest.approx(-0.8, abs=1e-12)
    assert np.max(np.abs(sol.phi_tilde_inf.values)) <= 1e-12
    assert sol.newton_iters == 0


def test_manufactured_solution(grid1, nonkahler1):
    F, exact = build_forcing(grid1, nonkahler1,
                             ForcingPreset("manufactured", amplitude=0.04,
                                           psi_kind="peaked"))
    sol = solve(nonkahler1, F, tol=1e-11)
    assert sol.residual_sup <= 1e-11
    assert np.max(np.abs(sol.phi_tilde_inf.values - exact.psi_tilde.values)) <= 1e-9
    assert sol.b == pytest.approx(exact.b, abs=1e-10)
    w = volume_weights(nonkahler1)
    assert abs(integrate_values(sol.phi_tilde_inf.values, w)) <= 1e-12


def test_solver_n2_self_certifies(grid2, nonkahler2):
    F = random_band_limited(grid2, 0.1, 1, seed=42)
    sol = solve(nonkahler2, F, tol=1e-10)
    assert sol.residual_sup <= 1e-10
    assert sol.newton_iters <= 15
    # cone membership of the solution
    from maflow.spectral import rfftn, symbol_hessian_values
    from maflow.grid import min_eig_field
    hess = symbol_hessian_values(rfftn(sol.phi_tilde_inf.values), grid2)
    assert float(np.min(min_eig_field(nonkahler2.entries + hess))) > 0


def test_b_identity_post_check(grid1, nonkahler1):
    from maflow.hermitian import log_det_ratio
    from maflow.spectral import rfftn, symbol_hessian_values

    F = random_band_limited(grid1, 0.1, 2, seed=5)
    sol = solve(nonkahler1, F, tol=1e-11)
    w = volume_weights(nonkahler1)
    hess = symbol_hessian_values(rfftn(sol.phi_tilde_inf.values), grid1)
    ratio = log_det_ratio(nonkahler1.entries + hess, nonkahler1.entries)
    b_identity = integrate_values(ratio - F.values, w)
    assert abs(b_identity - sol.b) <= 1e-12


def test_uniqueness_two_initial_guesses(grid1, nonkahler1):
    tol = 1e-11
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.08, max_mode=2, seed=3))
    sol_zero = solve(nonkahler1, F, tol=tol)
    # second guess: flow output at mid-run
    suite = MonitorSuite(holder_seed=1)
    mid = run(nonkahler1, F, horizon=2.0, ctrl=StepControl(),
              monitors=suite)
    sol_flow = solve(nonkahler1, F, tol=tol, initial=mid.final.phi_tilde)
    assert np.max(np.abs(sol_zero.phi_tilde_inf.values
                         - sol_flow.phi_tilde_inf.values)) <= 10 * tol
    assert abs(sol_zero.b - sol_flow.b) <= 10 * tol


@pytest.mark.parametrize("tol", [1e-13, float("nan")])
def test_solve_rejects_unattainable_or_nan_tol(grid1, nonkahler1, tol):
    # a NaN tolerance would skip the Newton loop and return the initial residual
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.08, max_mode=2, seed=3))
    with pytest.raises(ValueError, match="tol"):
        solve(nonkahler1, F, tol=tol)


def test_residual_field_rejects_nan(grid2, nonkahler2):
    phi = np.zeros(grid2.shape)
    phi[1, 2, 3, 4] = np.nan
    with pytest.raises(PositivityViolation, match=r"grid point \("):
        maflow.elliptic._residual_field(rfftn(phi), nonkahler2)


@pytest.mark.parametrize("n", [1, 2])
def test_spectrum_in_preconditioned_apply_matches_round_trip(n, nonkahler1, nonkahler2):
    # precondition hands apply a spectrum; the real-space composition it
    # replaces (precondition back to grid values, contract the full packed
    # g'^{-1} with the Hessian) is kept here as the reference for both the
    # identity path apply(y, r) and the general apply(y)
    from maflow.hermitian import inverse_stack, trace_pair
    from maflow.spectral import irfftn, rfftn, symbol_hessian_values

    g = nonkahler1 if n == 1 else nonkahler2
    grid = g.grid
    phi = random_band_limited(grid, 0.05, 2, seed=6).values
    _, gprime = maflow.elliptic._residual_field(rfftn(phi), g)
    lin = maflow.elliptic._Linearization(g, gprime)
    gp_inv = inverse_stack(gprime)
    r = random_band_limited(grid, 1.0, 3, seed=7).values + 0.3

    def old_precondition(r):
        out = irfftn(lin._sym_inv * rfftn(r), grid.shape)
        return out - out.mean()

    def old_apply(v):
        v = v - v.mean()
        lap = trace_pair(gp_inv, symbol_hessian_values(rfftn(v), grid))
        return lap - lap.mean()

    yh = lin.precondition(r)
    assert yh.shape == rfftn(r).shape and yh.flat[0] == 0
    ref = old_apply(old_precondition(lin._scale * r))
    for out in (lin.apply(yh, r), lin.apply(yh)):
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [8, 16])
def test_n2_matrix_hessians_match_the_symbol_reference(N):
    # the residual's g' and both Krylov applies take Hess from the per-axis
    # matrices; the 4-field symbol Hessian is the reference, on white noise,
    # which fills the Nyquist shell, and a non-Kaehler g'
    from maflow.hermitian import inverse_stack, trace_pair
    from maflow.spectral import symbol_hessian_values

    grid = TorusGrid(2, N)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3))
    rng = np.random.default_rng(N)
    phi_hat = rfftn(0.002 * rng.normal(size=grid.shape))
    _, gprime = maflow.elliptic._residual_field(phi_hat, g)
    want = g.entries + symbol_hessian_values(phi_hat, grid)
    assert np.max(np.abs(gprime - want)) <= 1e-13 * np.max(np.abs(want))
    lin = maflow.elliptic._Linearization(g, gprime)
    p = rng.normal(size=grid.shape)
    yh = lin.precondition(p)
    ref = trace_pair(inverse_stack(gprime), symbol_hessian_values(yh, grid))
    ref -= ref.mean()
    for out in (lin.apply(yh, p), lin.apply(yh)):
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kv", [
    dict(RUN2_KV, **{"metric.preset": "kahler_bump"}),
    dict(RUN1_KV, **{"grid.N": "16", "forcing.kind": "modes", "forcing.amplitude": "2",
                     "forcing.max_mode": "2", "forcing.seed": "5"}),
], ids=["kahler_bump_n2", "n1"])
def test_kahler_b_meets_its_closed_form(kv):
    # if d omega = 0 (every n = 1 metric, and kahler_bump), the integral of
    # det(g + Hess phi) is that of det g for every phi, so e^(F + b) has
    # omega^n mean 1: b = -log(mean e^F), a truth that needs neither Hessian
    _, g, F, _ = build_problem(config_from_kv(kv))
    sol = solve(g, F)
    assert sol.newton_iters >= 1
    exact = -np.log(integrate_values(np.exp(F.values), volume_weights(g)))
    assert abs(sol.b - exact) <= 1e-13


def test_n1_preconditioned_apply_runs_no_inverse_transform(monkeypatch, nonkahler1):
    # for n = 1 g'^{-1} is alpha gbar^{-1}: the identity leaves nothing to transform
    import maflow.spectral

    g = nonkahler1
    phi = random_band_limited(g.grid, 0.05, 2, seed=6).values
    _, gprime = maflow.elliptic._residual_field(rfftn(phi), g)
    lin = maflow.elliptic._Linearization(g, gprime)
    r = random_band_limited(g.grid, 1.0, 3, seed=7).values
    yh = lin.precondition(r)
    general = lin.apply(yh)

    def no_irfftn(*args, **kwargs):
        raise AssertionError("irfftn in the n = 1 preconditioned apply")

    for module in (maflow.spectral, maflow.elliptic):
        monkeypatch.setattr(module, "irfftn", no_irfftn)
    assert np.max(np.abs(lin.apply(yh, r) - general)) <= 1e-13 * np.max(np.abs(general))


def test_solve_transforms_each_field_once(monkeypatch, grid2, nonkahler2):
    # the Newton iterate is kept as a spectrum: one rfftn of the initial phi
    # and one per precondition.  For n = 2 each residual and each Krylov
    # apply, preconditioned or the fresh residual's general one, takes one
    # Hessian, which reads one 1-field irfftn (no irfftn of S vh), and one
    # more irfftn gives the returned phi_tilde_inf; the symbol Hessian
    # does not run
    import maflow.spectral

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    E = maflow.elliptic
    for name in ("rfftn", "_residual_field", "_bicgstab", "complex_hessian_values"):
        monkeypatch.setattr(E, name, counted(name, getattr(E, name)))
    monkeypatch.setattr(E._Linearization, "precondition",
                        counted("precondition", E._Linearization.precondition))
    fields = []

    def spy_irfftn(module):
        real_irfftn = module.irfftn

        def irfftn(x, *args, **kwargs):
            fields.append(x.shape[:-grid2.real_dim])
            return real_irfftn(x, *args, **kwargs)
        monkeypatch.setattr(module, "irfftn", irfftn)

    def no_symbol_hessian(*args, **kwargs):
        raise AssertionError("symbol Hessian in the n = 2 oracle")

    spy_irfftn(E)
    spy_irfftn(maflow.spectral)
    monkeypatch.setattr(maflow.spectral, "symbol_hessian_values", no_symbol_hessian)
    F = random_band_limited(grid2, 0.1, 1, seed=42)
    sol = solve(nonkahler2, F, tol=1e-10)
    assert sol.newton_iters >= 1
    assert calls["_bicgstab"] == sol.newton_iters
    assert calls["rfftn"] == calls["precondition"] + 1
    assert sol.krylov_applies == calls["precondition"] + calls["_bicgstab"]
    assert calls["complex_hessian_values"] == calls["_residual_field"] + sol.krylov_applies
    assert fields == [()] * (calls["complex_hessian_values"] + 1)


def _count_applies(monkeypatch):
    """[points per axis, Krylov applies] per _bicgstab call inside
    elliptic.solve, in order (a half-grid start solves on its own grid first)."""
    E = maflow.elliptic
    per_solve = []
    real_apply, real_bicgstab = E._Linearization.apply, E._bicgstab

    def apply(self, vh, pre=None):
        per_solve[-1][1] += 1
        return real_apply(self, vh, pre)

    def bicgstab(op, *args, **kwargs):
        per_solve.append([op.grid.points_per_axis, 0])
        return real_bicgstab(op, *args, **kwargs)

    monkeypatch.setattr(E._Linearization, "apply", apply)
    monkeypatch.setattr(E, "_bicgstab", bicgstab)
    return per_solve


def _pin_forcing(monkeypatch):
    """Run every Krylov solve to the fixed KRYLOV_RTOL instead of the forcing terms."""
    E = maflow.elliptic
    monkeypatch.setattr(E, "_forcing_term", lambda res_sup, tol: E.KRYLOV_RTOL)


def test_scaled_preconditioner_is_exact_for_n1(monkeypatch, grid1, nonkahler1):
    # for n = 1 the scaled preconditioned operator is the identity plus a
    # rank-one mean correction, so each Krylov solve needs a few applies
    per_solve = _count_applies(monkeypatch)
    F = random_band_limited(grid1, 0.1, 1, seed=42)
    sol = solve(nonkahler1, F, tol=1e-11)
    # N = 16, so the solve starts from its N = 8 solution: one Krylov solve
    # per Newton iteration on each level
    assert sol.coarse is not None
    for level in (sol, sol.coarse):
        N = level.phi_tilde_inf.grid.points_per_axis
        assert level.newton_iters >= 1
        assert [n for n, _ in per_solve].count(N) == level.newton_iters
    assert len(per_solve) == sol.newton_iters + sol.coarse.newton_iters
    assert max(a for _, a in per_solve) <= 5


def test_scaled_preconditioner_beats_unscaled_n2(monkeypatch, grid2, nonkahler2):
    # the unscaled constant-coefficient preconditioner is kept here as the
    # reference; both must reach the same solution.  Unscaled, the identity
    # behind apply(y, pre) does not hold, so the reference runs the general
    # apply on every call.  Both solves run each Krylov solve to the fixed
    # KRYLOV_RTOL, so the counts compare the preconditioners, not the forcing
    E = maflow.elliptic
    _pin_forcing(monkeypatch)
    per_solve = _count_applies(monkeypatch)
    F = random_band_limited(grid2, 0.1, 1, seed=42)
    scaled = solve(nonkahler2, F, tol=1e-10)
    scaled_applies = sum(a for _, a in per_solve)
    per_solve.clear()
    counted_apply = E._Linearization.apply
    monkeypatch.setattr(E._Linearization, "precondition",
                        lambda self, r: self._sym_inv * rfftn(r))
    monkeypatch.setattr(E._Linearization, "apply",
                        lambda self, vh, pre=None: counted_apply(self, vh))
    unscaled = solve(nonkahler2, F, tol=1e-10)
    assert scaled.newton_iters == unscaled.newton_iters >= 1
    assert abs(scaled.b - unscaled.b) <= 1e-12
    assert scaled_applies <= 0.8 * sum(a for _, a in per_solve)


@pytest.mark.parametrize("tol", [1e-12, 1e-11, 1e-10, 1e-8, 1e-3])
def test_forcing_term_bounds(tol):
    E = maflow.elliptic
    for res_sup in np.geomspace(1.01 * tol, 1e3, 200):
        eta = E._forcing_term(res_sup, tol)
        # floor and cap
        assert E.KRYLOV_RTOL <= eta <= E.FORCING_MAX
        # quadratic: the linear error eta * res_sup is at most Newton's own,
        # res_sup^2, or the 0.1 tol the last step aims at (to round-off)
        assert eta * res_sup <= (1 + 1e-14) * max(res_sup ** 2, 0.1 * tol)
        # no oversolve: the linear error is at least 0.1 tol unless the cap binds
        assert eta * res_sup >= (1 - 1e-14) * min(0.1 * tol, E.FORCING_MAX * res_sup)
    # far from the solution the cap holds; the floor binds only for a tol
    # below solve's 1e-12, where the eta of the last steps would fall under it
    assert E._forcing_term(1.0, tol) == E.FORCING_MAX
    assert E._forcing_term(1e-20, 1e-40) == E.KRYLOV_RTOL


@pytest.fixture(scope="module")
def run2_problem():
    """Run 2's metric, forcing and elliptic.tol (n = 2, N = 16)."""
    cfg = config_from_kv(dict(RUN2_KV))
    _, g, F, _ = build_problem(cfg)
    return g, F, cfg.elliptic_tol


@pytest.mark.parametrize("case", ["nonkahler2", "run2"])
def test_forcing_terms_match_the_fixed_krylov_tolerance(monkeypatch, case, nonkahler2,
                                                        run2_problem):
    if case == "run2":
        g, F, tol = run2_problem
    else:
        g, F, tol = nonkahler2, random_band_limited(nonkahler2.grid, 0.1, 1, seed=42), 1e-10
    forcing_term = maflow.elliptic._forcing_term
    inexact = solve(g, F, tol=tol)
    _pin_forcing(monkeypatch)
    fixed = solve(g, F, tol=tol)
    for a, b in ((inexact, fixed), (inexact.coarse, fixed.coarse)):
        if a is None:
            assert b is None
            continue
        assert a.residual_sup <= tol
        assert a.newton_iters == b.newton_iters >= 1
        assert abs(a.b - b.b) <= 1e-12
        assert np.max(np.abs(a.phi_tilde_inf.values - b.phi_tilde_inf.values)) <= 1e-10
        assert a.krylov_applies < b.krylov_applies
        # each step's record: its forcing term, met within the 10x contract
        for step in a.steps:
            assert step.forcing == forcing_term(step.residual_sup, tol)
            assert step.krylov_rel <= 10 * step.forcing and 0 < step.step_size <= 1
        assert [s.forcing for s in b.steps] == [maflow.elliptic.KRYLOV_RTOL] * b.newton_iters
    assert (inexact.coarse is not None) == (case == "run2")


def test_nan_in_krylov_apply_is_a_stagnation(monkeypatch, grid2, nonkahler2):
    # NaN compares false against the 1e-10 contract; the Krylov solve must
    # stop at the first non-finite residual norm and solve must name it
    real = maflow.elliptic._Linearization.apply
    applies = []

    def nan_apply(self, vh, pre=None):
        applies.append(None)
        out = real(self, vh, pre)
        out[1, 2, 3, 4] = np.nan
        return out

    monkeypatch.setattr(maflow.elliptic._Linearization, "apply", nan_apply)
    F = random_band_limited(grid2, 0.1, 1, seed=42)
    with pytest.raises(LinearSolveStagnation, match="nan"):
        solve(nonkahler2, F, tol=1e-10)
    assert len(applies) <= 5


def test_linearization_check_constant_metric(grid1, flat1):
    phi = ScalarField(grid1, np.zeros(grid1.shape))
    direction = field_from(grid1, lambda c: np.cos(c[0]))
    err = linearization_check(flat1, phi, direction)
    assert err <= 1e-6


def test_linearization_check_constant_direction(grid1, nonkahler1):
    phi = ScalarField(grid1, np.zeros(grid1.shape))
    direction = ScalarField(grid1, np.full(grid1.shape, 2.0))
    err = linearization_check(nonkahler1, phi, direction)
    assert err <= 1e-12  # both sides vanish on constants


def test_linearization_check_random(grid2, nonkahler2):
    rng = np.random.default_rng(8)
    for _ in range(3):
        phi = random_band_limited(grid2, 0.08, 1, seed=int(rng.integers(1 << 30)))
        direction = random_band_limited(grid2, 1.0, 1, seed=int(rng.integers(1 << 30)))
        err = linearization_check(nonkahler2, phi, direction)
        assert err <= 1e-5


def test_linearization_check_sees_the_newton_operator(monkeypatch, grid2, nonkahler2):
    # the check compares against the operator Newton solves with, so a 1%
    # error in _Linearization.apply must show
    real = maflow.elliptic._Linearization.apply
    monkeypatch.setattr(maflow.elliptic._Linearization, "apply",
                        lambda self, v: 1.01 * real(self, v))
    phi = random_band_limited(grid2, 0.08, 1, seed=3)
    direction = random_band_limited(grid2, 1.0, 1, seed=4)
    assert linearization_check(nonkahler2, phi, direction) >= 1e-3


@pytest.mark.parametrize("n", [1, 2])
def test_preconditioned_apply_identity_matches_general_apply(n, nonkahler1, nonkahler2):
    # criterion 9 tests the general apply; BiCGStab runs the identity path
    g = nonkahler1 if n == 1 else nonkahler2
    rng = np.random.default_rng(93)
    for _ in range(3):
        phi = random_band_limited(g.grid, 0.08, 2, seed=int(rng.integers(1 << 30)))
        direction = random_band_limited(g.grid, 1.0, 2, seed=int(rng.integers(1 << 30)))
        assert preconditioned_apply_gap(g, phi, direction) <= 1e-12


def test_flow_newton_agreement_small(grid1, nonkahler1):
    # miniature version of the oracle agreement: n=1, short horizon
    g = build_metric(TorusGrid(1, 32), MetricPreset("hermitian_nonkahler",
                                                    eps=0.2, scale=0.4))
    F, _ = build_forcing(g.grid, g, ForcingPreset("modes", amplitude=0.05,
                                                  max_mode=2, seed=9))
    suite = MonitorSuite(holder_seed=1)
    flow_res = run(g, F, horizon=16.0, ctrl=StepControl(), monitors=suite)
    newton = solve(g, F, tol=1e-11)
    gap = np.max(np.abs(flow_res.final.phi_tilde.values
                        - newton.phi_tilde_inf.values))
    assert gap <= 1e-5


def _zero(grid):
    return ScalarField(grid, np.zeros(grid.shape))


@pytest.fixture(scope="module")
def run2_solutions(run2_problem):
    """The oracle on run 2's data (n = 2, N = 16): nested and explicit zero starts."""
    g, F, tol = run2_problem
    return solve(g, F, tol=tol), solve(g, F, tol=tol, initial=_zero(g.grid)), tol


def _modes_forcing_n1(grid1, nonkahler1):
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.08, max_mode=2, seed=3))
    return F


@pytest.mark.parametrize("n", [1, 2])
def test_nested_start_agrees_with_zero_start(n, grid1, nonkahler1, run2_solutions):
    if n == 1:
        F, tol = _modes_forcing_n1(grid1, nonkahler1), 1e-11
        nested = solve(nonkahler1, F, tol=tol)
        zero = solve(nonkahler1, F, tol=tol, initial=_zero(grid1))
    else:
        nested, zero, tol = run2_solutions
    N = nested.phi_tilde_inf.grid.points_per_axis
    assert nested.coarse is not None and zero.coarse is None
    assert nested.coarse.phi_tilde_inf.grid.points_per_axis == N // 2
    assert nested.residual_sup <= tol
    assert np.max(np.abs(nested.phi_tilde_inf.values - zero.phi_tilde_inf.values)) <= 10 * tol
    assert abs(nested.b - zero.b) <= 10 * tol


def test_nested_start_saves_full_grid_newton_iterations(run2_solutions):
    nested, zero, _ = run2_solutions
    assert nested.newton_iters < zero.newton_iters
    assert 0 < nested.krylov_applies < zero.krylov_applies


def test_shell_decay_of_run2_oracle(run2_solutions):
    # the limit is smooth: its l-infinity shells past the forcing modes fall
    nested, _, _ = run2_solutions
    witness = shell_decay(nested)
    assert len(witness["shell_amplitudes"]) == 5
    factor = witness["shell_decay_factor"]
    assert factor is not None and np.isfinite(factor) and factor > 1


def test_no_half_grid_below_n16(grid2, nonkahler2):
    # N = 8 has no valid half grid (N/2 = 4 < 8)
    F = random_band_limited(grid2, 0.1, 1, seed=42)
    assert solve(nonkahler2, F, tol=1e-10).coarse is None


def test_failed_half_grid_solve_restarts_from_zero(monkeypatch, grid1, nonkahler1):
    # a half-grid solve that raises leaves the fine solve exactly as a zero start
    F = _modes_forcing_n1(grid1, nonkahler1)
    ref = solve(nonkahler1, F, tol=1e-11, initial=_zero(grid1))
    real = maflow.elliptic.solve
    coarse_calls = []

    def coarse_fails(g, f, *args, **kwargs):
        if g.grid.points_per_axis < grid1.points_per_axis:
            coarse_calls.append(g.grid.points_per_axis)
            raise MaxIterationsExceeded("half-grid solve failed")
        return real(g, f, *args, **kwargs)

    monkeypatch.setattr(maflow.elliptic, "solve", coarse_fails)
    sol = real(nonkahler1, F, tol=1e-11)
    assert coarse_calls == [8]
    assert sol.coarse is None
    assert sol.b == ref.b and sol.newton_iters == ref.newton_iters
    assert np.array_equal(sol.phi_tilde_inf.values, ref.phi_tilde_inf.values)


def test_prolonged_start_outside_the_cone_restarts_from_zero(monkeypatch, grid1, nonkahler1):
    # a prolongation whose Hessian leaves the cone fails the first residual;
    # the fine solve then starts from zero
    F = _modes_forcing_n1(grid1, nonkahler1)
    ref = solve(nonkahler1, F, tol=1e-11, initial=_zero(grid1))
    real = maflow.elliptic.prolong
    monkeypatch.setattr(maflow.elliptic, "prolong",
                        lambda values, grid: 1e3 * real(values, grid))
    sol = solve(nonkahler1, F, tol=1e-11)
    assert sol.coarse is None
    assert sol.b == ref.b and sol.newton_iters == ref.newton_iters
    assert np.array_equal(sol.phi_tilde_inf.values, ref.phi_tilde_inf.values)


def test_backtracking_halves_a_step_that_leaves_the_cone(monkeypatch, grid1, nonkahler1):
    # a strong forcing from zero: the full first Newton step leaves the cone,
    # its half stays inside and reduces the residual, and every later step is full
    F = random_band_limited(grid1, 2.0, 2, 3)
    real = maflow.elliptic._residual_field
    cone_exits = []

    def counting(phi_hat, g):
        try:
            return real(phi_hat, g)
        except PositivityViolation:
            cone_exits.append(None)
            raise

    monkeypatch.setattr(maflow.elliptic, "_residual_field", counting)
    sol = solve(nonkahler1, F, tol=1e-10, initial=_zero(grid1))
    assert [s.step_size for s in sol.steps] == [0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert len(cone_exits) == 1
    assert sol.residual_sup <= 1e-10


def test_line_search_failure_when_no_damped_step_reduces_the_residual(grid1, nonkahler1):
    # a stronger forcing: Newton stalls at a sup residual of ~2.5e-5, where
    # no halving of the step down to BACKTRACK_LIMIT reduces it
    F = random_band_limited(grid1, 16.0, 2, 3)
    with pytest.raises(LineSearchFailure, match="no damped step reduced sup residual"):
        solve(nonkahler1, F, tol=1e-10, initial=_zero(grid1))
