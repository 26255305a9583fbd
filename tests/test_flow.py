import dataclasses

import numpy as np
import pytest

from maflow.errors import PositivityViolation, StepFailure, TailAlarm
from maflow.flow import StepControl, flow_rhs, make_state, run, step
from maflow.grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    integrate_values,
    volume_weights,
)
from maflow.monitors import HolderConfig, MonitorSuite
from maflow.presets import ForcingPreset, MetricPreset, build_forcing, build_metric
from maflow.spectral import rfftn

from conftest import field_from


def small_suite(**kw):
    kw.setdefault("holder", HolderConfig(rng_seed=5, sample_pairs=2000))
    return MonitorSuite(**kw)


def test_flow_rhs_zero_phi(grid1, nonkahler1):
    F = field_from(grid1, lambda c: np.cos(c[0]))
    rhs, gprime = flow_rhs(rfftn(np.zeros(grid1.shape)), nonkahler1, F.values)
    assert np.max(np.abs(rhs + F.values)) == 0.0
    assert np.max(np.abs(gprime - nonkahler1.entries)) == 0.0


def test_flow_rhs_constant_in_time(grid1, nonkahler1):
    # spatially constant phi has zero Hessian: rhs = -F for any constant
    F = ScalarField(grid1, np.full(grid1.shape, 0.3))
    for const in (0.0, -0.9, 2.5):
        rhs, _ = flow_rhs(rfftn(np.full(grid1.shape, const)), nonkahler1, F.values)
        assert np.max(np.abs(rhs + 0.3)) <= 1e-14


def test_flow_rhs_manufactured_zero(grid1, nonkahler1):
    F, exact = build_forcing(grid1, nonkahler1,
                             ForcingPreset("manufactured", amplitude=0.04,
                                           psi_kind="peaked"))
    rhs, _ = flow_rhs(rfftn(exact.psi.values), nonkahler1, F.values)
    assert np.max(np.abs(rhs - exact.b)) <= 1e-13


def test_flow_rhs_positivity_error_carries_index(grid1):
    g = build_metric(grid1, MetricPreset("flat"))
    # Hess(5 cos x) dips to -1.25, deep enough to leave the cone g = 1
    phi = field_from(grid1, lambda c: 5.0 * np.cos(c[0])).values
    with pytest.raises(PositivityViolation) as exc:
        flow_rhs(rfftn(phi), g, np.zeros(grid1.shape))
    assert exc.value.index is not None


def test_step_constant_forcing_exact(grid1, nonkahler1):
    F = ScalarField(grid1, np.full(grid1.shape, 0.7))
    ctrl = StepControl()
    state = make_state(nonkahler1, F)
    for _ in range(20):
        state = step(state, ctrl)
    assert np.max(np.abs(state.phi.values + 0.7 * state.t)) <= 1e-12
    assert np.max(np.abs(state.phi_tilde.values)) <= 1e-12
    assert state.step_count == 20


def _near_degenerate_problem():
    """The first state on a metric of 2e-6 under the forcing 1e4 cos x: a
    step leaves the cone unless dt is below ~1e-9, 17 rejected tries from
    1e-4 and past the halving floor from 0.1."""
    grid = TorusGrid(1, 16)
    g = MetricField(grid, np.full((1,) + grid.shape, 2e-6), lambda_floor=1e-7)
    return make_state(g, field_from(grid, lambda c: 1e4 * np.cos(c[0])))


def test_step_halving_on_near_degenerate_metric():
    # a strong forcing Hessian trips the guard, dt halvings are recorded,
    # and the step still completes
    state = _near_degenerate_problem()
    new = step(state, StepControl(dt_max=1e-4))
    assert state.flow_run.stats["halvings"] >= 1
    assert new.t > state.t


def test_run_reports_stepper_stats(monkeypatch):
    # the guard raised to 0.55 of the metric: the full-size first steps graze
    # it, halve, and the run still reaches the horizon
    import maflow.flow

    grid = TorusGrid(1, 16)
    g = MetricField(grid, np.full((1,) + grid.shape, 2e-3), lambda_floor=1e-4)
    F = field_from(grid, lambda x: 0.5 * np.cos(x[0]))
    monkeypatch.setattr(maflow.flow, "EPS_PD", 0.55)
    res = run(g, F, horizon=1.0, ctrl=StepControl(), monitors=small_suite())
    stats = res.stats
    assert stats["halvings"] >= 1
    assert stats["steps"] == res.final.step_count
    assert 0 < stats["dt_min"] < stats["dt_max"] <= 0.1 + 1e-12


def test_run_stats_keys_and_types(grid1, nonkahler1):
    # RunResult.stats is the run's FlowRun.stats: the counters in this order,
    # pc_gap_max a float from the start, dt_min and dt_max from the first step
    res = run(nonkahler1, _modes_problem(grid1, nonkahler1), horizon=1.0, ctrl=StepControl(),
              monitors=small_suite())
    assert res.stats is res.final.flow_run.stats
    assert [(k, type(v)) for k, v in res.stats.items()] == [
        ("steps", int), ("halvings", int), ("rhs_calls", int), ("pc_steps", int),
        ("pc_gap_max", float), ("dense_emits", int), ("retakes", int),
        ("dt_min", float), ("dt_max", float)]


def test_frozen_metric_key_runs_once_per_make_state(monkeypatch, grid1, nonkahler1):
    # gbar is taken when make_state builds the run; the steps read it from there
    import maflow.flow

    real = maflow.flow._frozen_metric_key
    calls = []
    monkeypatch.setattr(maflow.flow, "_frozen_metric_key", lambda g: calls.append(1) or real(g))
    state = make_state(nonkahler1, _modes_problem(grid1, nonkahler1))
    for _ in range(5):
        state = step(state, StepControl())
    assert len(calls) == 1 and state.flow_run.stats["steps"] == 5


def test_step_failure_at_the_halving_floor_names_the_last_try():
    # from dt_max = 0.1 the halving floor comes first: 21 rejected tries,
    # the last at 0.1 * 2^-20, which the message names with that count
    state = _near_degenerate_problem()
    with pytest.raises(StepFailure) as exc:
        step(state, StepControl())
    assert state.flow_run.stats["halvings"] == 21 and exc.value.dt == 0.1 * 2.0 ** -20
    assert str(exc.value).startswith(
        "step failed after 21 rejected tries at t=0.000000 (last dt=9.537e-08): ")


def test_steps_are_scale_covariant(grid1, nonkahler1):
    # the metric c g carries the solution c phi(t / c): ten steps of c dt on
    # c g match ten steps of dt on g, with the cone guard and the halving
    # floor scaled alike (an absolute guard of 1e-6 fails the first step)
    c = 2.0 ** -30
    cg = MetricField(grid1, c * nonkahler1.entries, lambda_floor=1e-12)
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    ends = []
    for g, dt in ((nonkahler1, 0.1), (cg, c * 0.1)):
        state = make_state(g, F)
        for _ in range(10):
            state = step(state, StepControl(dt_max=dt))
        ends.append(state)
    ref, scaled = ends
    assert scaled.t == pytest.approx(c * ref.t, rel=1e-12)
    phi, u = ref.phi.values, ref.dphi_dt.values
    assert np.max(np.abs(scaled.phi.values / c - phi)) <= 1e-12 * np.max(np.abs(phi))
    assert np.max(np.abs(scaled.dphi_dt.values - u)) <= 1e-12 * np.max(np.abs(u))


def test_step_size_is_dt_max_clipped_to_landing(grid1, nonkahler1):
    # dt = min(dt_max, t_land - t): no stiffness cap, whatever the grid spacing
    F = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    state = make_state(nonkahler1, F)
    assert step(state, StepControl(dt_max=0.3)).t == 0.3
    assert step(state, StepControl(dt_max=0.3), t_land=0.5).t == 0.3
    landed = step(state, StepControl(dt_max=0.3), t_land=0.2)
    assert landed.t == 0.2
    assert step(landed, StepControl(dt_max=10.0), t_land=0.7).t == 0.7


def _phi_at_1(g, F, dt, etdrk4_only):
    """phi at t = 1 from steps of dt_max = dt; etdrk4_only clears each
    state's history, so every step is an ETDRK4 step."""
    state = make_state(g, F)
    while state.t < 1.0 - 1e-12:
        if etdrk4_only:
            state = dataclasses.replace(state, history=())
        state = step(state, StepControl(dt_max=dt), t_land=1.0)
    return state.phi.values


def test_step_fourth_order_in_time(grid1, nonkahler1):
    # halving dt_max cuts the error against a dt/8 run by ~16x (ETDRK4)
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    ref = _phi_at_1(nonkahler1, F, 0.1 / 8, True)
    err_dt = np.max(np.abs(_phi_at_1(nonkahler1, F, 0.1, True) - ref))
    err_half = np.max(np.abs(_phi_at_1(nonkahler1, F, 0.05, True) - ref))
    assert err_half > 0 and err_dt >= 10 * err_half


def test_adams_steps_third_order_in_time(grid1, nonkahler1):
    # once dt is steady the steps are exponential Adams PECE steps: halving
    # dt cuts the error against an ETDRK4 run at dt/8 by ~8x (6.4x measured
    # from 0.05 to 0.025; a second-order scheme would give 4x)
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    ref = _phi_at_1(nonkahler1, F, 0.1 / 8, True)
    err_dt = np.max(np.abs(_phi_at_1(nonkahler1, F, 0.05, False) - ref))
    err_half = np.max(np.abs(_phi_at_1(nonkahler1, F, 0.025, False) - ref))
    assert err_half > 0 and err_dt >= 5.5 * err_half


@pytest.mark.parametrize("n", [1, 2])
def test_flow_rhs_rejects_nan(n, nonkahler1, nonkahler2):
    # NaN compares false against the guard's floor; the guard must still fire
    g = nonkahler1 if n == 1 else nonkahler2
    phi = np.zeros(g.grid.shape)
    phi[(1,) * g.grid.real_dim] = np.nan
    with pytest.raises(PositivityViolation) as exc:
        flow_rhs(rfftn(phi), g, np.zeros(g.grid.shape))
    assert exc.value.index is not None
    assert "grid point (" in str(exc.value)


def test_step_nan_stage_ends_in_step_failure(monkeypatch, grid1, nonkahler1):
    # a stage that turns non-finite halves dt like a cone violation, then fails
    F = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    state = make_state(nonkahler1, F)
    # a batched transform keeps its leading axes: the Hessian's is (n*n,) + grid
    monkeypatch.setattr("maflow.spectral.irfftn",
                        lambda a, shape: np.full(a.shape[:-len(shape)] + shape, np.nan))
    with pytest.raises(StepFailure) as exc:
        step(state, StepControl())
    assert state.flow_run.stats["halvings"] == 21
    assert "grid point (0, 0)" in str(exc.value)


def test_run_zero_forcing_stationary(grid1, nonkahler1):
    F = ScalarField(grid1, np.zeros(grid1.shape))
    res = run(nonkahler1, F, horizon=1.0, ctrl=StepControl(), monitors=small_suite())
    assert np.max(np.abs(res.final.phi.values)) == 0.0
    recs = res.series.records
    assert all(r.sup_dphidt == 0.0 for r in recs)
    assert all(abs(r.trace_max - 1.0) <= 1e-12 for r in recs)
    assert all(abs(r.eig_min - 1.0) <= 1e-12 for r in recs)
    # Q = log n + 1 everywhere for phi == 0
    assert all(abs(r.Q_max - (np.log(1.0) + 1.0)) <= 1e-12 for r in recs)


def test_run_emission_clock_and_cache_coherence(grid1, nonkahler1):
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    res = run(nonkahler1, F, horizon=1.0, ctrl=StepControl(),
              monitors=small_suite())
    ts = [r.t for r in res.series.records]
    assert ts == pytest.approx(list(np.arange(0, 1.05, 0.1)), abs=1e-12)
    final = res.final
    rhs, gprime = flow_rhs(rfftn(final.phi.values), nonkahler1, F.values)
    assert np.max(np.abs(final.dphi_dt.values - rhs)) <= 1e-12
    assert np.max(np.abs(final.gprime - gprime)) <= 1e-12
    w = volume_weights(nonkahler1)
    assert abs(integrate_values(final.phi_tilde.values, w)) <= 1e-12


def test_run_comparison_principle(grid1, nonkahler1):
    # F1 <= F2 pointwise implies phi1 >= phi2 at matched times
    w = volume_weights(nonkahler1)
    F1 = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    F2 = ScalarField(grid1, F1.values + 0.05 * (1.0 + np.cos(grid1.axis_coordinates()[1])))
    ctrl = StepControl(dt_max=2e-3)  # dt_max binds: equal step sequences
    r1 = run(nonkahler1, F1, horizon=1.0, ctrl=ctrl, monitors=small_suite())
    r2 = run(nonkahler1, F2, horizon=1.0, ctrl=ctrl, monitors=small_suite())
    assert np.min(r1.final.phi.values - r2.final.phi.values) >= -1e-8


def test_run_max_principle_and_oscillation_decay(grid1, nonkahler1):
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.08, max_mode=2, seed=12))
    res = run(nonkahler1, F, horizon=3.0, ctrl=StepControl(),
              monitors=small_suite())
    recs = res.series.records
    sup_f = float(np.max(np.abs(F.values)))
    assert recs[0].sup_dphidt == pytest.approx(sup_f, abs=1e-14)
    assert all(r.sup_dphidt <= sup_f + 1e-8 for r in recs)
    osc = [r.osc_u for r in recs]
    assert all(osc[i + 1] <= osc[i] + 1e-8 for i in range(len(osc) - 1))


def test_run_manufactured_convergence_small():
    # N = 16 genuinely under-resolves the log-det harmonics of this forcing
    # (the tail alarm fires there); N = 32 resolves them
    grid = TorusGrid(1, 32)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3, scale=0.4))
    F, exact = build_forcing(grid, g,
                             ForcingPreset("manufactured", amplitude=0.04,
                                           psi_kind="peaked"))
    res = run(g, F, horizon=12.0, ctrl=StepControl(),
              monitors=small_suite())
    err = np.max(np.abs(res.final.phi_tilde.values - exact.psi_tilde.values))
    assert err <= 1e-5
    osc = [r.osc_u for r in res.series.records]
    assert osc[-1] < 1e-4 * osc[0]


def test_run_tail_alarm():
    # an aliased forcing mode (beyond Nyquist resolution needs) keeps phi rough
    grid = TorusGrid(1, 8)
    g = build_metric(grid, MetricPreset("flat"))
    coords = grid.axis_coordinates()
    F = ScalarField(grid, np.broadcast_to(
        0.5 * np.cos(4 * coords[0]), grid.shape).copy())  # Nyquist mode at N=8
    with pytest.raises(TailAlarm):
        run(g, F, horizon=0.5, ctrl=StepControl(), monitors=small_suite())


def test_initial_condition_is_zero(grid1, nonkahler1):
    F, _ = build_forcing(grid1, nonkahler1, ForcingPreset("const", value=1.0))
    res = run(nonkahler1, F, horizon=0.2, ctrl=StepControl(), monitors=small_suite())
    first = res.series.records[0]
    assert first.t == 0.0
    assert first.sup_dphidt == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_step_spectrum_stages_match_round_trip(n, nonkahler1, nonkahler2):
    # the stages hand spectra to flow_rhs; taking each stage back to grid
    # values and transforming again (the values-in path) gives the same step
    from maflow.flow import _etdrk4_coefficients, _frozen_metric_key
    from maflow.spectral import irfftn

    g = nonkahler1 if n == 1 else nonkahler2
    grid = g.grid
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    phi0 = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.02, max_mode=2,
                                                seed=9))[0].values
    state = make_state(g, F, phi_values=phi0)
    dt = 0.1
    new = step(state, StepControl(dt_max=dt))

    lin, E, E2, Q, f1, f2, f3, _, _ = _etdrk4_coefficients(grid, _frozen_metric_key(g), dt)

    def remainder(v_hat):
        rhs, _ = flow_rhs(rfftn(irfftn(v_hat, grid.shape)), g, F.values)
        return rfftn(rhs) - lin * v_hat

    u0, k1 = rfftn(state.phi.values), rfftn(state.dphi_dt.values)
    n0 = k1 - lin * u0
    a = E2 * u0 + Q * n0
    na = remainder(a)
    b = E2 * u0 + Q * na
    nb = remainder(b)
    c = E2 * a + Q * (2.0 * nb - n0)
    nc = remainder(c)
    phi1 = irfftn(E * u0 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc, grid.shape)
    scale = np.max(np.abs(phi1 - phi0))
    assert np.max(np.abs(new.phi.values - phi1)) <= 1e-12 * scale


def test_halving_chain_reuses_coefficients():
    # a metric so thin that full steps leave the cone: each step starts from
    # the last accepted size, not from dt_max, so the halving chains do not
    # build a coefficient set per halving; and a halved step's successor
    # tries that accepted size, not twice it, so the steps are not rejected
    # once each (2,629 halvings in 2,620 steps when they tried twice it)
    from maflow.flow import _etdrk4_coefficients

    grid = TorusGrid(1, 16)
    g = MetricField(grid, np.full((1,) + grid.shape, 1e-3), lambda_floor=1e-4)
    F = field_from(grid, lambda c: 2.0 * np.cos(c[0]))
    ctrl = StepControl()
    state = make_state(g, F)
    _etdrk4_coefficients.cache_clear()
    while state.t < 0.05 - 1e-12:
        state = step(state, ctrl, t_land=0.05)
    assert state.t == pytest.approx(0.05, abs=1e-12)
    assert 1 <= state.flow_run.stats["halvings"] < 2000
    assert _etdrk4_coefficients.cache_info().misses < 50


def test_step_transforms_rhs_stages_only(monkeypatch, grid1, nonkahler1):
    # a step starts from the state's phi_hat: its forward transforms are the
    # cached rhs and the three stage remainders, nothing else
    import maflow.flow

    F = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    state = make_state(nonkahler1, F)
    real = maflow.flow.rfftn
    calls = []
    monkeypatch.setattr(maflow.flow, "rfftn", lambda a: calls.append(1) or real(a))
    step(state, StepControl())
    assert state.flow_run.stats["halvings"] == 0
    assert len(calls) == 4


@pytest.mark.parametrize("n", [1, 2])
def test_state_phi_hat_is_spectrum_of_phi(n, nonkahler1, nonkahler2):
    g = nonkahler1 if n == 1 else nonkahler2
    F, _ = build_forcing(g.grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    state = make_state(g, F)
    for _ in range(5):
        state = step(state, StepControl())
        ref = rfftn(state.phi.values)
        assert np.max(np.abs(state.phi_hat - ref)) <= 1e-13 * np.max(np.abs(ref))


def _weights_reference(h):
    """Q, f1, f2, f3 over dt at h in 80-digit decimal arithmetic (limits at 0)."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 80
        h = Decimal(h)
        if h == 0:
            return [0.5] + [1.0 / 6.0] * 3
        e, h3 = h.exp(), h ** 3
        return [float(v) for v in (((h / 2).exp() - 1) / h,
                                   (-4 - h + e * (4 - 3 * h + h * h)) / h3,
                                   (2 + h + e * (h - 2)) / h3,
                                   (-4 - 3 * h - h * h + e * (4 - h)) / h3)]


def _phi_reference(h):
    """phi_1, phi_2, phi_3 at h in 80-digit decimal arithmetic (limits at 0)."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 80
        h = Decimal(h)
        if h == 0:
            return [1.0, 0.5, 1.0 / 6.0]
        e = h.exp()
        return [float(v) for v in ((e - 1) / h, (e - 1 - h) / h ** 2,
                                   (e - 1 - h - h * h / 2) / h ** 3)]


def test_phi_functions_match_decimal_reference():
    # phi_1..phi_3 as combinations of the ETDRK4 f1..f3, on both sides of
    # the contour split, at the AB3 / exponential Euler split and far out
    from maflow.flow import _etdrk4_weights, _phi_functions

    hs = np.array([0.0, -1e-8, -0.69, -0.71, -2.69, -5.0, -20.0, -500.0, -3000.0])
    got = np.array(_phi_functions(*_etdrk4_weights(hs)[1:]))
    for i, h in enumerate(hs):
        ref = np.array(_phi_reference(float(h)))
        assert np.all(np.abs(got[:, i] - ref) <= 1e-14 * np.abs(ref)), h


def test_adams_weights_at_zero_and_past_the_split():
    # at h = 0 the exponential Adams weights are the classical AB3 and AM3
    # ones; from |h| = ADAMS_AB1_MIN_ABS_H on the predictor is exponential
    # Euler, (phi_1, 0, 0); the corrector keeps AM3 on every mode
    from maflow.flow import (ADAMS_AB1_MIN_ABS_H, _adams_weights, _etdrk4_weights,
                             _phi_functions)

    hs = np.array([0.0, -0.999 * ADAMS_AB1_MIN_ABS_H, -ADAMS_AB1_MIN_ABS_H, -40.0])
    f = _etdrk4_weights(hs)[1:]
    beta, gamma = _adams_weights(*f, hs)
    assert np.allclose(beta[:, 0], np.array([23.0, -16.0, 5.0]) / 12, rtol=1e-14, atol=0)
    assert np.allclose(gamma[:, 0], np.array([5.0, 8.0, -1.0]) / 12, rtol=1e-14, atol=0)
    p1 = _phi_functions(*f)[0]
    assert np.all(beta[1:, 1] != 0.0)
    assert np.array_equal(beta[:, 2:], np.stack((p1[2:], 0.0 * p1[2:], 0.0 * p1[2:])))
    # each predictor's and the corrector's weights sum to phi_1: exact for constant N
    assert np.allclose(beta.sum(axis=0), p1, rtol=1e-13, atol=0)
    assert np.allclose(gamma.sum(axis=0), p1, rtol=1e-13, atol=0)


def test_etdrk4_weights_match_decimal_reference():
    # both sides of the closed-form / contour split, and its edge
    from maflow.flow import _etdrk4_weights

    hs = np.array([0.0, -1e-8, -0.5, -0.999, -1.0, -3.0, -50.0, -500.0])
    got = _etdrk4_weights(hs)
    for i, h in enumerate(hs):
        ref = np.array(_weights_reference(float(h)))
        assert np.all(np.abs(got[:, i] - ref) <= 1e-13 * np.abs(ref)), h


# ------------------------------------------------- steps past emissions

def _modes_problem(grid, g):
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    return F


def test_dt_max_within_emit_dt_lands_every_step_on_an_emission(grid1, nonkahler1):
    F = _modes_problem(grid1, nonkahler1)
    res = run(nonkahler1, F, horizon=1.0, ctrl=StepControl(dt_max=0.05),
              monitors=small_suite(emit_dt=0.05, field_interval=0.25))
    assert res.stats["steps"] == res.final.step_count == 20
    assert res.stats["dense_emits"] == 0
    # two ETDRK4 start-up steps, then 18 exponential Adams steps of two each
    assert res.stats["pc_steps"] == 18
    assert res.stats["rhs_calls"] == 1 + 2 * 4 + 2 * 18
    assert 0.0 < res.stats["pc_gap_max"] < 1e-2


def test_steps_past_emissions_agree_with_emission_landing(grid1, nonkahler1):
    # dt_max = 2 emit_dt: every other snapshot is dense output, on the same
    # clock; the gap is the step-size error of the stepper, not the interpolant's
    F = _modes_problem(grid1, nonkahler1)
    suite = small_suite(emit_dt=0.05, field_interval=0.25)
    landed = run(nonkahler1, F, horizon=3.0, ctrl=StepControl(dt_max=0.05), monitors=suite)
    passed = run(nonkahler1, F, horizon=3.0, ctrl=StepControl(dt_max=0.1), monitors=suite)
    assert passed.stats["steps"] == 30 and passed.stats["dense_emits"] == 30
    assert passed.stats["rhs_calls"] == 1 + 2 * 4 + 2 * 28 + 30
    assert [r.t for r in passed.series.records] == [r.t for r in landed.series.records]
    gap = np.max(np.abs(passed.final.phi_tilde.values - landed.final.phi_tilde.values))
    assert gap <= 1e-7
    for a, b in zip(landed.series.records, passed.series.records):
        if a.t >= 1.0:
            for col in ("sup_dphidt", "osc_u", "trace_max", "eig_min", "Q_max"):
                assert getattr(b, col) == pytest.approx(getattr(a, col), rel=1e-5)


def test_run_transforms_each_rhs_once(monkeypatch, grid1, nonkahler1):
    # the state's rhs spectrum is a step's first stage and the dense output's
    # slope at both ends: rfftn runs once for phi(0), once per step for its
    # start state's rhs, three times per ETDRK4 step (the first two) for the
    # stage remainders and once per exponential Adams step for the
    # predictor's, and once for the final state's rhs, which the last dense
    # snapshot reads
    import maflow.flow

    F = _modes_problem(grid1, nonkahler1)
    real = maflow.flow.rfftn
    calls = []
    monkeypatch.setattr(maflow.flow, "rfftn", lambda a: calls.append(1) or real(a))
    res = run(nonkahler1, F, horizon=1.0, ctrl=StepControl(dt_max=0.1),
              monitors=small_suite(emit_dt=0.05, field_interval=0.25))
    assert res.stats["steps"] == 10 and res.stats["dense_emits"] == 10
    assert len(calls) == 1 + 4 * 2 + 2 * 8 + 1


def test_dense_state_outside_the_cone_retakes_the_step(monkeypatch, grid1, nonkahler1):
    # the first dense state (t = 0.05) meets a guard above every eigenvalue
    # of g', so the real cone check rejects it: the step is re-taken from
    # t = 0 onto that emission, and the run goes on on the emission clock
    import maflow.flow

    F = _modes_problem(grid1, nonkahler1)
    real = maflow.flow._dense_state
    forced = []

    def strict_once(start, end, t):
        if not forced:
            forced.append(t)
            with monkeypatch.context() as m:
                m.setattr(maflow.flow, "EPS_PD", 1e3)
                return real(start, end, t)
        return real(start, end, t)

    monkeypatch.setattr(maflow.flow, "_dense_state", strict_once)
    res = run(nonkahler1, F, horizon=1.0, ctrl=StepControl(dt_max=0.1),
              monitors=small_suite(emit_dt=0.05, field_interval=0.25))
    assert forced == [pytest.approx(0.05)]
    stats = res.stats
    assert stats["retakes"] == 1 and stats["halvings"] == 0
    # kept: 0 -> 0.05, nine steps 0.05 -> 0.95 with a dense snapshot each, 0.95 -> 1
    assert res.final.step_count == 11 and stats["steps"] == 12
    assert stats["dense_emits"] == 9
    assert [r.t for r in res.series.records] == pytest.approx(
        [0.05 * j for j in range(21)], abs=1e-12)
    assert res.final.t == 1.0


@pytest.mark.parametrize("dt_max", [0.05, 0.1])
def test_run_tail_alarm_fires_on_nan_spectrum(monkeypatch, grid1, nonkahler1, dt_max):
    # NaN compares false against the threshold; the alarm must still fire,
    # at t = 0.05 for a step end (dt_max 0.05) and a dense state (dt_max 0.1)
    import maflow.flow

    F = _modes_problem(grid1, nonkahler1)
    real = maflow.flow.spectral_tail
    monkeypatch.setattr(maflow.flow, "spectral_tail",
                        lambda fh, grid: real(np.full_like(fh, np.nan), grid))
    with pytest.raises(TailAlarm, match="nan exceeds .* at t=0.050"):
        run(nonkahler1, F, horizon=1.0, ctrl=StepControl(dt_max=dt_max),
            monitors=small_suite(emit_dt=0.05, field_interval=0.25))


# ------------------------------------------------- exponential Adams steps

def _etdrk4_only(monkeypatch):
    """Make every flow.step an ETDRK4 step by clearing its state's history."""
    import maflow.flow

    real = maflow.flow.step
    monkeypatch.setattr(maflow.flow, "step", lambda state, *a, **kw: real(
        dataclasses.replace(state, history=()), *a, **kw))


def test_adams_stability_split_keeps_run1_at_q_079(monkeypatch):
    # run 1 with metric.eps = 0.43 puts the remainder at q ~ 0.79, past the
    # 0.70 that AB3/AM3 tolerates on its stiff modes: without the exponential
    # Euler split the spectral tail alarm fires during the initial layer; with
    # it the run finishes on ETDRK4's final phi_tilde (2.8e-13 apart measured;
    # at t = 10 the two still differ by 6e-8 from their different orders), and
    # from t = 1 on its u columns stay within 2e-2 of ETDRK4's (7.9e-3 and
    # 9.3e-3 measured; 1.0 and 0.8 with the split at |dt L| = 20)
    import maflow.flow
    from maflow.config import config_from_kv
    from maflow.runner import build_problem
    from maflow.verification import RUN1_KV

    cfg = config_from_kv(dict(RUN1_KV, **{"metric.eps": "0.43"}))
    _, g, F, _ = build_problem(cfg)

    def final(monitors=cfg.monitors):
        return run(g, F, horizon=cfg.horizon, ctrl=cfg.step, monitors=monitors)

    adams = final()
    assert adams.stats["pc_steps"] == adams.stats["steps"] - 2
    try:
        monkeypatch.setattr(maflow.flow, "ADAMS_AB1_MIN_ABS_H", np.inf)
        maflow.flow._etdrk4_coefficients.cache_clear()
        with pytest.raises(TailAlarm):
            final()
    finally:
        maflow.flow._etdrk4_coefficients.cache_clear()
    monkeypatch.undo()
    _etdrk4_only(monkeypatch)
    etdrk4 = final()
    assert etdrk4.stats["pc_steps"] == 0
    gap = np.max(np.abs(adams.final.phi_tilde.values - etdrk4.final.phi_tilde.values))
    assert gap <= 1e-10
    for a, b in zip(adams.series.records, etdrk4.series.records):
        if a.t >= 1.0:
            for col in ("sup_dphidt", "osc_u"):
                assert getattr(a, col) == pytest.approx(getattr(b, col), rel=2e-2), (a.t, col)


def _steady_state(g, F):
    """The state after two dt = 0.1 steps, whose history lets the next step be PECE."""
    state = make_state(g, F)
    for k in (1, 2):
        state = step(state, StepControl(), t_land=0.1 * k)
    assert state.flow_run.stats["pc_steps"] == 0 and len(state.history[1]) == 2
    return state


def test_adams_step_restarts_on_a_dt_change(grid1, nonkahler1):
    # a PECE step needs two earlier steps at its dt key; a landing step of
    # another size is ETDRK4 and starts the history again, at its own key
    F = _modes_problem(grid1, nonkahler1)
    state = _steady_state(nonkahler1, F)
    stats = state.flow_run.stats
    state = step(state, StepControl(), t_land=0.3)
    assert stats["pc_steps"] == 1 and stats["rhs_calls"] == 1 + 4 + 4 + 2
    assert state.history[0] == 0.1 and len(state.history[1]) == 2
    short = step(state, StepControl(), t_land=0.35)
    assert stats["pc_steps"] == 1 and stats["rhs_calls"] == 11 + 4
    assert short.history[0] == 0.05 and len(short.history[1]) == 1


def test_adams_predictor_outside_the_cone_halves_into_etdrk4(monkeypatch, grid1, nonkahler1):
    # a PECE step whose predictor leaves the cone is re-taken through the
    # halving path: at dt/2, as the ETDRK4 step a history-free state takes
    import maflow.flow

    F = _modes_problem(grid1, nonkahler1)
    state = _steady_state(nonkahler1, F)
    stats = state.flow_run.stats
    real = maflow.flow.flow_rhs
    raised = []

    def predictor_fails(phi_hat, g, fv, t=0.0):
        if not raised:
            raised.append(t)
            raise PositivityViolation("forced", index=0)
        return real(phi_hat, g, fv, t)

    monkeypatch.setattr(maflow.flow, "flow_rhs", predictor_fails)
    new = step(state, StepControl())
    monkeypatch.undo()
    assert raised == [pytest.approx(0.3)]
    assert stats["halvings"] == 1 and stats["pc_steps"] == 0
    ref = step(dataclasses.replace(state, history=()), StepControl(dt_max=0.05))
    assert new.t == ref.t == pytest.approx(0.25)
    assert np.array_equal(new.phi.values, ref.phi.values)
