import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from maflow.errors import InsufficientSnapshots, NonPositiveU, SeriesTooShort
from maflow.flow import StepControl, make_state, run
from maflow.grid import ScalarField, TorusGrid, volume_weights
from maflow.hermitian import inverse_stack
from maflow.monitors import (
    CSV_COLUMNS,
    HolderConfig,
    MonitorRecord,
    MonitorSuite,
    contraction_and_decay,
    envelope_fit_inverse_time,
    harnack_check,
    holder_seminorm,
    liyau_quantity,
    monitor_Q,
    psi_surrogate,
    theta_at_integer_times,
    xi_surrogate,
)
from maflow.presets import ForcingPreset, MetricPreset, build_forcing, build_metric
from maflow.spectral import laplacian_values


def small_suite(**kw):
    kw.setdefault("holder", HolderConfig(rng_seed=5, sample_pairs=2000))
    return MonitorSuite(**kw)


@pytest.fixture(scope="module")
def mfd_run():
    grid = TorusGrid(1, 32)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.2, scale=0.4))
    F, exact = build_forcing(grid, g, ForcingPreset("manufactured", amplitude=0.04,
                                                    psi_kind="peaked"))
    suite = MonitorSuite(emit_dt=0.05, field_interval=0.25,
                         holder=HolderConfig(rng_seed=7, sample_pairs=5000))
    res = run(g, F, horizon=10.0, ctrl=StepControl(), monitors=suite)
    return g, F, exact, res


# ----------------------------------------------------------------- basic

def test_monitor_basic_t0_equals_supF(mfd_run):
    g, F, _, res = mfd_run
    rec0 = res.series.records[0]
    assert rec0.sup_dphidt == pytest.approx(float(np.max(np.abs(F.values))), abs=1e-14)


def test_trace_identity_pointwise(mfd_run):
    # tr_g g' - n = Laplacian(phi_tilde) at every grid point
    g, _, _, res = mfd_run
    final = res.final
    g_inv = inverse_stack(g.entries)
    from maflow.hermitian import trace_pair
    tr = trace_pair(g_inv, final.gprime)
    lap = laplacian_values(final.phi_tilde.values, g.grid, g_inv)
    assert np.max(np.abs((tr - 1.0) - lap)) <= 1e-10


def test_oscillation_nonincreasing(mfd_run):
    _, _, _, res = mfd_run
    osc = [r.osc_u for r in res.series.records]
    assert all(osc[i + 1] <= osc[i] + 1e-8 for i in range(len(osc) - 1))


# ----------------------------------------------------------------- Q monitor

def test_monitor_Q_stationary(grid1, flat1):
    w = volume_weights(flat1)
    F = ScalarField(grid1, np.zeros(grid1.shape))
    state = make_state(flat1, F, w)
    g_inv = inverse_stack(flat1.entries)
    q = monitor_Q(state, flat1, A=2.0, sup_phitilde_run=0.0, g_inv=g_inv)
    assert q == pytest.approx(np.log(1.0) + 1.0, abs=1e-13)


def test_monitor_Q_dominates_log_trace(mfd_run):
    g, _, _, res = mfd_run
    for rec in res.series.records:
        assert rec.Q_max >= np.log(rec.trace_max) + 1.0 - 1e-12


# ----------------------------------------------------------------- Hoelder

def test_holder_zero_for_constant_field(grid1, flat1):
    w = volume_weights(flat1)
    F = ScalarField(grid1, np.zeros(grid1.shape))
    snaps = [make_state(flat1, F, w, t=t) for t in (0.6, 0.8, 1.0)]
    cfg = HolderConfig(rng_seed=3, sample_pairs=4000, epsilon=0.5)
    assert holder_seminorm(snaps, flat1, cfg) == 0.0


def test_holder_insufficient_snapshots(grid1, flat1):
    w = volume_weights(flat1)
    F = ScalarField(grid1, np.zeros(grid1.shape))
    snaps = [make_state(flat1, F, w, t=0.6)]
    with pytest.raises(InsufficientSnapshots):
        holder_seminorm(snaps, flat1, HolderConfig(rng_seed=3))


def test_holder_single_mode_vs_exhaustive():
    # frozen-in-time single spatial mode; exhaustive all-pairs oracle on the
    # same snapshots brackets the sampled estimate
    grid = TorusGrid(1, 16)
    g = build_metric(grid, MetricPreset("flat"))
    coords = grid.axis_coordinates()
    bump = 0.1 * np.cos(coords[0])
    phi_vals = np.broadcast_to(-0.4 * np.cos(coords[0]), grid.shape).copy()
    # g' entries 1 + 0.1 cos(x1): encode via a synthetic state
    w = volume_weights(g)
    F = ScalarField(grid, np.zeros(grid.shape))
    states = []
    for t in (0.6, 1.0):
        st = make_state(g, F, w, phi_values=phi_vals, t=t)
        states.append(st)
    alpha = 0.5
    cfg = HolderConfig(alpha=alpha, epsilon=0.5, sample_pairs=200000, rng_seed=12)
    est = holder_seminorm(states, g, cfg)

    # exhaustive oracle over every space-time pair
    entry = states[0].gprime[0]
    pts = entry.reshape(-1)
    N = grid.points_per_axis
    idx = np.arange(pts.size)
    xs = np.stack(np.unravel_index(idx, grid.shape), axis=1) * grid.spacing
    times = np.array([0.6, 1.0])
    best = 0.0
    coords_all = []
    for t in times:
        for p in range(pts.size):
            coords_all.append((t, xs[p], pts[p]))
    vals = np.array([c[2] for c in coords_all])
    tarr = np.array([c[0] for c in coords_all])
    xarr = np.array([c[1] for c in coords_all])
    for a_ in range(len(coords_all)):
        dx = np.abs(xarr - xarr[a_])
        dx = np.minimum(dx, 2 * np.pi - dx)
        dist = np.maximum(np.sqrt(np.sum(dx**2, axis=1)),
                          np.sqrt(np.abs(tarr - tarr[a_])))
        mask = dist > 0
        q = np.abs(vals[mask] - vals[a_]) / dist[mask] ** alpha
        best = max(best, float(np.max(q)))
    assert 0.9 * best <= est <= best + 1e-12


def test_holder_column_running_max(mfd_run):
    _, _, _, res = mfd_run
    col = [r.holder_seminorm for r in res.series.records]
    assert all(col[i + 1] >= col[i] - 1e-15 for i in range(len(col) - 1))
    assert col[-1] > 0


# ----------------------------------------------------------------- Li-Yau

def test_liyau_constant_u(grid1, flat1):
    ginv = inverse_stack(flat1.entries)
    us = [np.full(grid1.shape, 2.0)] * 3
    t, v = liyau_quantity([0.5, 1.0, 1.5], us, [ginv] * 3, grid1, alpha_ly=1.5)
    assert np.max(np.abs(v)) <= 1e-12


def test_liyau_exponential_closed_form(grid1, flat1):
    # u = e^{-t}: |df|^2 = 0, f_t = -1, so the quantity is alpha * t
    ginv = inverse_stack(flat1.entries)
    times = [0.5, 1.0, 1.5, 2.0]
    us = [np.full(grid1.shape, np.exp(-t)) for t in times]
    t, v = liyau_quantity(times, us, [ginv] * 4, grid1, alpha_ly=1.5)
    assert np.allclose(v, 1.5 * t, atol=1e-10)


def test_liyau_nonpositive_raises(grid1, flat1):
    ginv = inverse_stack(flat1.entries)
    us = [np.full(grid1.shape, 1.0), np.full(grid1.shape, -0.1),
          np.full(grid1.shape, 1.0)]
    with pytest.raises(NonPositiveU):
        liyau_quantity([0.5, 1.0, 1.5], us, [ginv] * 3, grid1)


def test_liyau_envelope_on_run(mfd_run):
    g, F, _, res = mfd_run
    series = res.series
    shift = 1.5 * float(np.max(np.abs(F.values)))
    snaps = series.field_snaps
    times = [s.t for s in snaps]
    us = [s.u + shift for s in snaps]
    gpinvs = [inverse_stack(series.gprime_at(s)) for s in snaps]
    t_int, vals = liyau_quantity(times, us, gpinvs, g.grid, alpha_ly=1.5)
    mask = t_int > 0
    c1, c2 = envelope_fit_inverse_time(t_int[mask], vals[mask])
    assert np.isfinite(c1) and np.isfinite(c2)
    assert np.all(vals[mask] <= c1 + c2 / t_int[mask] + 1e-12)


# ----------------------------------------------------------------- Harnack

def test_harnack_exponential_closed_form(grid1):
    # u(t) = e^{-t} spatially constant: log sup/inf = t2 - t1 exactly,
    # so the fit returns C1 = 1, C2 = C3 = 0
    times = [0.25, 0.5, 0.75, 1.0]
    us = [np.full(grid1.shape, np.exp(-t)) for t in times]
    hr = harnack_check(times, us, 0.5, 1.0)
    assert hr.verifiable
    c1, c2, c3 = hr.constants
    assert c1 == pytest.approx(1.0, abs=1e-8)
    assert abs(c2) <= 1e-8 and abs(c3) <= 1e-8
    assert hr.lhs_sup == pytest.approx(np.exp(-0.5))
    assert hr.rhs_inf == pytest.approx(np.exp(-1.0))


def test_harnack_rejects_degenerate_window(grid1):
    us = [np.ones(grid1.shape)] * 3
    with pytest.raises(ValueError):
        harnack_check([0.5, 0.75, 1.0], us, 1.0, 1.0)


def test_harnack_unverifiable_flag(grid1):
    times = [0.25, 0.5, 0.75, 1.0]
    us = [np.ones(grid1.shape) for _ in times]
    us[-1] = -np.ones(grid1.shape)
    hr = harnack_check(times, us, 0.5, 1.0)
    assert not hr.verifiable


def test_xi_surrogates_on_run(mfd_run):
    g, _, _, res = mfd_run
    snaps = res.series.field_snaps
    rel_t, fields = xi_surrogate(snaps, 1)
    assert np.all(rel_t > 0)
    assert all(np.min(f) > 0 for f in fields)  # strict positivity off t = 0
    hr = harnack_check([float(t) for t in rel_t], fields, 0.5, 1.0)
    assert hr.verifiable and all(np.isfinite(hr.constants))
    rel_t2, fields2 = psi_surrogate(snaps, 1)
    assert all(np.min(f) > 0 for f in fields2)


# ----------------------------------------------------------------- contraction

def _synthetic_records(times, osc, supt=None):
    out = []
    supt = osc if supt is None else supt
    for t, o, s in zip(times, osc, supt):
        out.append(MonitorRecord(t=t, sup_dphidt=s, osc_u=o, trace_max=1.0,
                                 eig_min=1.0, eig_max=1.0, Q_max=1.0,
                                 holder_seminorm=0.0, liyau_max=0.0,
                                 mean_phitilde=0.0, sup_dphitilde=s))
    return out


def test_contraction_exponential_closed_form():
    times = np.arange(0.0, 6.01, 0.1)
    osc = np.exp(-times)
    recs = _synthetic_records(times, osc)
    delta, fit = contraction_and_decay(recs)
    assert delta == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert fit.eta == pytest.approx(1.0, abs=1e-10)
    assert fit.r_squared >= 1.0 - 1e-12
    assert not fit.degenerate


def test_contraction_stationary_convention():
    times = np.arange(0.0, 4.01, 0.1)
    osc = np.zeros_like(times)
    recs = _synthetic_records(times, osc)
    delta, fit = contraction_and_decay(recs)
    assert delta == 0.0
    assert fit.degenerate


def test_contraction_series_too_short():
    times = np.arange(0.0, 1.01, 0.1)
    recs = _synthetic_records(times, np.exp(-times))
    with pytest.raises(SeriesTooShort):
        contraction_and_decay(recs)


def test_theta_interpolation():
    times = np.array([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
    osc = 2.0 - times
    ms, th = theta_at_integer_times(times, osc)
    assert list(ms) == [0, 1, 2]
    assert np.allclose(th, [2.0, 1.0, 0.0])


# ----------------------------------------------------------------- CSV

def test_csv_columns_exact(mfd_run):
    _, _, _, res = mfd_run
    text = res.series.to_csv()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header == ("t,sup_dphidt,osc_u,trace_max,eig_min,eig_max,"
                      "Q_max,holder_seminorm,liyau_max,mean_phitilde")
    rows = text.strip().splitlines()[1:]
    assert len(rows) == len(res.series.records)
    assert all(len(r.split(",")) == 10 for r in rows)
    arr = np.array([[float(x) for x in r.split(",")] for r in rows])
    assert np.all(np.isfinite(arr))
    assert np.all(np.diff(arr[:, 0]) > 0)


def test_suite_validates_field_interval_multiple():
    with pytest.raises(ValueError):
        MonitorSuite(emit_dt=0.1, field_interval=0.25)
    MonitorSuite(emit_dt=0.05, field_interval=0.25)  # integer multiple: fine


def test_suite_validates_alpha_ly_range():
    with pytest.raises(ValueError):
        MonitorSuite(alpha_ly=2.5)
    with pytest.raises(ValueError):
        HolderConfig(alpha=1.5)


def test_sup_dphidt_nonincreasing_after_transient(mfd_run):
    _, _, _, res = mfd_run
    recs = [r for r in res.series.records if r.t >= 1.0]
    sups = [r.sup_dphidt for r in recs]
    assert all(sups[i + 1] <= sups[i] + 1e-10 for i in range(len(sups) - 1))


def test_trace_and_Q_running_max_attained_early(mfd_run):
    _, _, _, res = mfd_run
    horizon = res.final.t
    assert res.series.running_max_time("trace_max") <= horizon / 2
    assert res.series.running_max_time("Q_max") <= horizon / 2


# ----------------------------------------------------------------- single-pass finalize

def _reference_holder_pairs(times, gp_entries, grid, cfg):
    """Two-pass Hoelder sampler: stacks every eligible g' snapshot."""
    S, P, n = len(times), grid.num_points, grid.complex_dim
    rng = np.random.default_rng(cfg.rng_seed)
    sa = rng.integers(0, S, size=cfg.sample_pairs)
    sb = rng.integers(0, S, size=cfg.sample_pairs)
    pa = rng.integers(0, P, size=cfg.sample_pairs)
    pb = rng.integers(0, P, size=cfg.sample_pairs)
    stack = np.stack([np.asarray(gp).reshape(n * n, P) for gp in gp_entries])
    diff = stack[sa, :, pa] - stack[sb, :, pb]
    num = np.max(np.abs(diff[:, :n]), axis=1)
    if n == 2:
        num = np.maximum(num, np.hypot(diff[:, 2], diff[:, 3]))
    dt = np.abs(times[sa] - times[sb])
    coords_a = np.unravel_index(pa, grid.shape)
    coords_b = np.unravel_index(pb, grid.shape)
    d2 = 0.0
    for a in range(grid.real_dim):
        d = np.abs(coords_a[a] - coords_b[a]) * grid.spacing
        d = np.minimum(d, 2 * np.pi - d)
        d2 = d2 + d * d
    dist = np.maximum(np.sqrt(d2), np.sqrt(dt))
    mask = dist > 0
    quot = np.zeros(len(sa))
    quot[mask] = num[mask] / dist[mask] ** cfg.alpha
    return np.maximum(times[sa], times[sb]), quot


def _reference_liyau(times, u_list, gpinv_list, grid, alpha_ly):
    """List-based Li-Yau quantity: every log u and gradient held at once."""
    from maflow.spectral import holo_gradient
    from maflow.hermitian import trace_pair
    fs = [np.log(u) for u in u_list]
    grads = [holo_gradient(f, grid) for f in fs]
    out_t, out_v = [], []
    for j in range(1, len(times) - 1):
        f_t = (fs[j + 1] - fs[j - 1]) / (times[j + 1] - times[j - 1])
        v = grads[j]
        outer = [np.abs(v[..., i]) ** 2 for i in range(grid.complex_dim)]
        if grid.complex_dim == 2:
            cross = v[..., 0] * np.conj(v[..., 1])
            outer += [cross.real, cross.imag]
        grad2 = trace_pair(gpinv_list[j], np.stack(outer))
        out_t.append(times[j])
        out_v.append(float(times[j] * np.max(grad2 - alpha_ly * f_t)))
    return np.array(out_t), np.array(out_v)


def _carried(records, times, values):
    out = []
    for rec in records:
        j = np.searchsorted(times, rec.t + 1e-12) - 1
        out.append(float(values[j]) if j >= 0 else 0.0)
    return out


@pytest.fixture(scope="module")
def n2_run():
    grid = TorusGrid(2, 16)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3, scale=0.35))
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=1))
    suite = MonitorSuite(field_interval=0.5, holder=HolderConfig(rng_seed=21, sample_pairs=3000))
    return run(g, F, horizon=2.0, ctrl=StepControl(), monitors=suite), F


def test_finalize_matches_two_pass_reference(n2_run):
    res, F = n2_run
    series = res.series
    cfg, grid = series.suite.holder, series.g.grid
    eligible = [s for s in series.field_snaps if s.t >= cfg.epsilon]
    times = np.array([s.t for s in eligible])
    t_pair, quot = _reference_holder_pairs(
        times, [series.gprime_at(s) for s in eligible], grid, cfg)
    order = np.argsort(t_pair, kind="stable")
    holder_ref = _carried(series.records, t_pair[order], np.maximum.accumulate(quot[order]))
    assert [r.holder_seminorm for r in series.records] == holder_ref
    assert holder_ref[-1] > 0

    shift = 1.5 * float(np.max(np.abs(F.values)))
    snaps = series.field_snaps
    t_int, vals = _reference_liyau(
        [s.t for s in snaps], [s.u + shift for s in snaps],
        [inverse_stack(series.gprime_at(s)) for s in snaps], grid, 1.5)
    liyau_ref = _carried(series.records, t_int, vals)
    assert [r.liyau_max for r in series.records] == liyau_ref
    assert any(v != 0.0 for v in liyau_ref)

    states = [SimpleNamespace(t=s.t, gprime=series.gprime_at(s)) for s in snaps]
    assert holder_seminorm(states, series.g, cfg) == float(np.max(quot))


def test_liyau_accepts_iterators(n2_run):
    res, F = n2_run
    series = res.series
    snaps = series.field_snaps
    shift = 1.5 * float(np.max(np.abs(F.values)))
    times = [s.t for s in snaps]
    us = [s.u + shift for s in snaps]
    gpinvs = [inverse_stack(series.gprime_at(s)) for s in snaps]
    t_list, v_list = liyau_quantity(times, us, gpinvs, series.g.grid)
    t_gen, v_gen = liyau_quantity(iter(times), (u for u in us), iter(gpinvs), series.g.grid)
    assert np.array_equal(t_list, t_gen) and np.array_equal(v_list, v_gen)
    with pytest.raises(InsufficientSnapshots):
        liyau_quantity(iter(times[:2]), iter(us[:2]), iter(gpinvs[:2]), series.g.grid)


def _finalize_peak_bytes(horizon):
    grid = TorusGrid(1, 64)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.2, scale=0.4))
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    suite = MonitorSuite(field_interval=0.5, holder=HolderConfig(rng_seed=2, sample_pairs=200))
    series = run(g, F, horizon=horizon, ctrl=StepControl(), monitors=suite).series
    series.finalized = False
    tracemalloc.start()
    try:
        series.finalize()
        return len(series.field_snaps), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finalize_memory_flat_in_snapshot_count():
    # one snapshot's fields are 32 KB here; holding every g' or u would add
    # ~0.4 MB per extra 12 snapshots
    snaps_short, peak_short = _finalize_peak_bytes(2.0)
    snaps_long, peak_long = _finalize_peak_bytes(8.0)
    assert (snaps_short, snaps_long) == (5, 17)
    assert peak_long <= 1.1 * peak_short
