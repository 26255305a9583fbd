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
    w = volume_weights(nonkahler1)
    F = ScalarField(grid1, np.full(grid1.shape, 0.7))
    ctrl = StepControl()
    state = make_state(nonkahler1, F, w)
    for _ in range(20):
        state = step(state, ctrl, nonkahler1, F, w)
    assert np.max(np.abs(state.phi.values + 0.7 * state.t)) <= 1e-12
    assert np.max(np.abs(state.phi_tilde.values)) <= 1e-12
    assert state.step_count == 20


def test_step_halving_on_near_degenerate_metric():
    # metric floor at 2 eps_pd: a strong forcing Hessian trips the guard,
    # dt halvings are recorded, and the step still completes
    grid = TorusGrid(1, 16)
    eps_pd = 1e-6
    mats = np.full(grid.shape + (1, 1), 2 * eps_pd, dtype=complex)
    g = MetricField(grid, mats, lambda_floor=1e-7)
    w = volume_weights(g)
    F = field_from(grid, lambda c: 1e4 * np.cos(c[0]))
    ctrl = StepControl(eps_pd=eps_pd, retry_limit=40)
    state = make_state(g, F, w, eps_pd=0.0)
    stats = {}
    new = step(state, ctrl, g, F, w, stats=stats)
    assert stats.get("halvings", 0) >= 1
    assert new.t > state.t


def test_run_reports_stepper_stats():
    # metric within a factor 2 of eps_pd: the full-size first steps graze the
    # guard, halve, and the run still reaches the horizon
    grid = TorusGrid(1, 16)
    c = 2e-3
    g = MetricField(grid, np.full(grid.shape + (1, 1), c, dtype=complex),
                    lambda_floor=1e-4)
    F = field_from(grid, lambda x: 0.5 * np.cos(x[0]))
    res = run(g, F, horizon=1.0, ctrl=StepControl(eps_pd=0.55 * c, retry_limit=5),
              monitors=small_suite())
    stats = res.stats
    assert stats["halvings"] >= 1
    assert stats["steps"] == res.final.step_count
    assert 0 < stats["dt_min"] < stats["dt_max"] <= 0.1 + 1e-12


def test_step_failure_after_retry_limit():
    grid = TorusGrid(1, 16)
    eps_pd = 1e-6
    mats = np.full(grid.shape + (1, 1), 2 * eps_pd, dtype=complex)
    g = MetricField(grid, mats, lambda_floor=1e-7)
    w = volume_weights(g)
    F = field_from(grid, lambda c: 1e4 * np.cos(c[0]))
    # dt_min too large to allow rescue halvings
    ctrl = StepControl(eps_pd=eps_pd, retry_limit=3, dt_min=1e-8, dt_max=1e-4)
    state = make_state(g, F, w, eps_pd=0.0)
    with pytest.raises(StepFailure):
        step(state, ctrl, g, F, w)


def test_step_size_is_dt_max_clipped_to_landing(grid1, nonkahler1):
    # dt = min(dt_max, t_land - t): no stiffness cap, whatever the grid spacing
    w = volume_weights(nonkahler1)
    F = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    state = make_state(nonkahler1, F, w)
    assert step(state, StepControl(dt_max=0.3), nonkahler1, F, w).t == 0.3
    assert step(state, StepControl(dt_max=0.3), nonkahler1, F, w, t_land=0.5).t == 0.3
    landed = step(state, StepControl(dt_max=0.3), nonkahler1, F, w, t_land=0.2)
    assert landed.t == 0.2
    assert step(landed, StepControl(dt_max=10.0), nonkahler1, F, w, t_land=0.7).t == 0.7


def test_step_fourth_order_in_time(grid1, nonkahler1):
    # halving dt_max cuts the error against a dt/8 run by ~16x (ETDRK4)
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    w = volume_weights(nonkahler1)

    def phi_at_1(dt):
        state = make_state(nonkahler1, F, w)
        while state.t < 1.0 - 1e-12:
            state = step(state, StepControl(dt_max=dt), nonkahler1, F, w, t_land=1.0)
        return state.phi.values

    ref = phi_at_1(0.1 / 8)
    err_dt = np.max(np.abs(phi_at_1(0.1) - ref))
    err_half = np.max(np.abs(phi_at_1(0.05) - ref))
    assert err_half > 0 and err_dt >= 10 * err_half


@pytest.mark.parametrize("n", [1, 2])
def test_flow_rhs_rejects_nan(n, nonkahler1, nonkahler2):
    # NaN compares false against eps_pd; the guard must still fire
    g = nonkahler1 if n == 1 else nonkahler2
    phi = np.zeros(g.grid.shape)
    phi[(1,) * g.grid.real_dim] = np.nan
    with pytest.raises(PositivityViolation) as exc:
        flow_rhs(rfftn(phi), g, np.zeros(g.grid.shape), eps_pd=1e-6)
    assert exc.value.index is not None
    assert "grid point (" in str(exc.value)


def test_step_nan_stage_ends_in_step_failure(monkeypatch, grid1, nonkahler1):
    # a stage that turns non-finite halves dt like a cone violation, then fails
    w = volume_weights(nonkahler1)
    F = field_from(grid1, lambda c: 0.05 * np.cos(c[0]))
    state = make_state(nonkahler1, F, w)
    monkeypatch.setattr("maflow.spectral.irfftn",
                        lambda a, shape: np.full(shape, np.nan))
    stats = {}
    with pytest.raises(StepFailure) as exc:
        step(state, StepControl(retry_limit=3), nonkahler1, F, w, stats=stats)
    assert stats["halvings"] == 4
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


def test_run_semigroup_restart(grid1, nonkahler1):
    F, _ = build_forcing(grid1, nonkahler1,
                         ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    ctrl = StepControl()
    direct = run(nonkahler1, F, horizon=2.0, ctrl=ctrl, monitors=small_suite())
    first = run(nonkahler1, F, horizon=1.0, ctrl=ctrl, monitors=small_suite())
    resumed = run(nonkahler1, F, horizon=2.0, ctrl=ctrl, monitors=small_suite(),
                  initial_state=first.final)
    gap = np.max(np.abs(resumed.final.phi.values - direct.final.phi.values))
    assert gap <= 1e-9


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
    w = volume_weights(g)
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    phi0 = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.02, max_mode=2,
                                                seed=9))[0].values
    state = make_state(g, F, w, phi_values=phi0)
    dt = 0.1
    new = step(state, StepControl(dt_max=dt), g, F, w)

    lin, E, E2, Q, f1, f2, f3 = _etdrk4_coefficients(grid, _frozen_metric_key(g), dt)

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
    g = MetricField(grid, np.full(grid.shape + (1, 1), 1e-3, dtype=complex),
                    lambda_floor=1e-4)
    w = volume_weights(g)
    F = field_from(grid, lambda c: 2.0 * np.cos(c[0]))
    ctrl = StepControl()
    state = make_state(g, F, w)
    _etdrk4_coefficients.cache_clear()
    stats = {}
    while state.t < 0.05 - 1e-12:
        state = step(state, ctrl, g, F, w, t_land=0.05, stats=stats)
    assert state.t == pytest.approx(0.05, abs=1e-12)
    assert 1 <= stats["halvings"] < 2000
    assert _etdrk4_coefficients.cache_info().misses < 50
