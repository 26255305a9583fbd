import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from maflow import flow
from maflow.errors import InsufficientSnapshots, NonPositiveU, SeriesTooShort
from maflow.flow import StepControl, make_state, run
from maflow.grid import ScalarField, TorusGrid
from maflow.hermitian import inverse_stack, trace_pair
from maflow.monitors import (
    CSV_COLUMNS,
    HolderConfig,
    MonitorRecord,
    MonitorSeries,
    MonitorSuite,
    _HolderSample,
    contraction_and_decay,
    envelope_fit_inverse_time,
    harnack_check,
    monitor_Q,
    theta_at_integer_times,
)
from maflow.presets import ForcingPreset, MetricPreset, build_forcing, build_metric
from maflow.spectral import complex_hessian_values, laplacian_values, rfftn
from maflow.verification import UnitWindows

from reference import liyau_quantity


def small_suite(**kw):
    kw.setdefault("holder", HolderConfig(rng_seed=5, sample_pairs=2000))
    return MonitorSuite(**kw)


class Recorder:
    """Observer that keeps a copy of every field snapshot a run hands it."""

    def __init__(self):
        self.t, self.phi, self.u, self.gprime = [], [], [], []

    def __call__(self, state):
        self.t.append(state.t)
        self.phi.append(state.phi.values.copy())
        self.u.append(state.dphi_dt.values.copy())
        self.gprime.append(state.gprime.copy())


@pytest.fixture(scope="module")
def mfd():
    grid = TorusGrid(1, 32)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.2, scale=0.4))
    F, exact = build_forcing(grid, g, ForcingPreset("manufactured", amplitude=0.04,
                                                    psi_kind="peaked"))
    suite = MonitorSuite(emit_dt=0.05, field_interval=0.25,
                         holder=HolderConfig(rng_seed=7, sample_pairs=5000))
    rec, windows = Recorder(), UnitWindows(grid, suite.alpha_ly, 10.0)
    res = run(g, F, horizon=10.0, ctrl=StepControl(), monitors=suite,
              observers=(rec, windows))
    return SimpleNamespace(g=g, F=F, exact=exact, res=res, rec=rec, windows=windows)


@pytest.fixture(scope="module")
def mfd_run(mfd):
    return mfd.g, mfd.F, mfd.exact, mfd.res


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
    tr = trace_pair(g_inv, final.gprime)
    lap = laplacian_values(final.phi_tilde.values, g.grid, g_inv)
    assert np.max(np.abs((tr - 1.0) - lap)) <= 1e-10


def test_oscillation_nonincreasing(mfd_run):
    _, _, _, res = mfd_run
    osc = [r.osc_u for r in res.series.records]
    assert all(osc[i + 1] <= osc[i] + 1e-8 for i in range(len(osc) - 1))


# ----------------------------------------------------------------- Q monitor

def test_monitor_Q_stationary(grid1, flat1):
    F = ScalarField(grid1, np.zeros(grid1.shape))
    state = make_state(flat1, F)
    trace_field = trace_pair(inverse_stack(flat1.entries), state.gprime)
    q = monitor_Q(state, trace_field, A=2.0, sup_phitilde_run=0.0)
    assert q == pytest.approx(np.log(1.0) + 1.0, abs=1e-13)


def test_monitor_Q_dominates_log_trace(mfd_run):
    g, _, _, res = mfd_run
    for rec in res.series.records:
        assert rec.Q_max >= np.log(rec.trace_max) + 1.0 - 1e-12


# ----------------------------------------------------------------- Hoelder

def _sampled_holder_max(states, grid, cfg):
    """Largest sampled quotient over the states with t >= cfg.epsilon."""
    eligible = [s for s in states if s.t >= cfg.epsilon]
    sample = _HolderSample(len(eligible), grid, cfg)
    for s in eligible:
        sample.add(s.t, s.gprime)
    return float(np.max(sample.quotients()[1]))


def test_holder_zero_for_constant_field(grid1, flat1):
    # F = 0 on the flat metric: phi stays 0 and g' = g at every snapshot
    F = ScalarField(grid1, np.zeros(grid1.shape))
    suite = MonitorSuite(holder=HolderConfig(rng_seed=3, sample_pairs=4000, epsilon=0.5))
    res = run(flat1, F, horizon=2.0, ctrl=StepControl(), monitors=suite)
    assert res.series.holder is not None
    assert all(r.holder_seminorm == 0.0 and r.liyau_max == 0.0 for r in res.series.records)


def test_holder_insufficient_snapshots(grid1, flat1):
    # only the snapshot at t = 2 lies past epsilon = 1.9: no pair to sample
    F = ScalarField(grid1, np.zeros(grid1.shape))
    suite = MonitorSuite(holder=HolderConfig(rng_seed=3, epsilon=1.9))
    res = run(flat1, F, horizon=2.0, ctrl=StepControl(), monitors=suite)
    assert res.series.holder is None
    assert all(r.holder_seminorm == 0.0 for r in res.series.records)


def test_wrong_snapshot_count_raises(grid1, flat1):
    # horizon 2 plans field snapshots at 0, 0.5, .., 2, four of them past
    # epsilon = 0.5; a series that sees only the emissions up to t = 1 has two
    state = make_state(flat1, ScalarField(grid1, np.zeros(grid1.shape)))
    series = MonitorSeries(state.flow_run, MonitorSuite(), horizon=2.0)
    assert series.holder.count == 4
    for j in range(11):
        series.emit(dataclasses.replace(state, t=j * 0.1))
    with pytest.raises(InsufficientSnapshots):
        series.finalize()
    sample = _HolderSample(2, grid1, HolderConfig(rng_seed=3))
    for t in (0.5, 1.0, 1.5):
        sample.add(t, flat1.entries)
    with pytest.raises(InsufficientSnapshots):
        sample.quotients()


def test_holder_single_mode_vs_exhaustive():
    # frozen-in-time single spatial mode; exhaustive all-pairs oracle on the
    # same snapshots brackets the sampled estimate
    grid = TorusGrid(1, 16)
    g = build_metric(grid, MetricPreset("flat"))
    coords = grid.axis_coordinates()
    bump = 0.1 * np.cos(coords[0])
    phi_vals = np.broadcast_to(-0.4 * np.cos(coords[0]), grid.shape).copy()
    # g' entries 1 + 0.1 cos(x1): encode via a synthetic state
    F = ScalarField(grid, np.zeros(grid.shape))
    states = []
    for t in (0.6, 1.0):
        st = make_state(g, F, phi_values=phi_vals, t=t)
        states.append(st)
    alpha = 0.5
    cfg = HolderConfig(alpha=alpha, epsilon=0.5, sample_pairs=200000, rng_seed=12)
    est = _sampled_holder_max(states, grid, cfg)

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
    us = [np.full(grid1.shape, 2.0)] * 3
    t, v = liyau_quantity([0.5, 1.0, 1.5], us, [flat1.entries] * 3, grid1, alpha_ly=1.5)
    assert np.max(np.abs(v)) <= 1e-12


def test_liyau_exponential_closed_form(grid1, flat1):
    # u = e^{-t}: |df|^2 = 0, f_t = -1, so the quantity is alpha * t
    times = [0.5, 1.0, 1.5, 2.0]
    us = [np.full(grid1.shape, np.exp(-t)) for t in times]
    t, v = liyau_quantity(times, us, [flat1.entries] * 4, grid1, alpha_ly=1.5)
    assert np.allclose(v, 1.5 * t, atol=1e-10)


def test_liyau_nonpositive_raises(grid1, flat1):
    us = [np.full(grid1.shape, 1.0), np.full(grid1.shape, -0.1),
          np.full(grid1.shape, 1.0)]
    with pytest.raises(NonPositiveU):
        liyau_quantity([0.5, 1.0, 1.5], us, [flat1.entries] * 3, grid1)


def test_liyau_envelope_on_run(mfd):
    shift = 1.5 * float(np.max(np.abs(mfd.F.values)))
    rec = mfd.rec
    us = [u + shift for u in rec.u]
    t_int, vals = liyau_quantity(rec.t, us, rec.gprime, mfd.g.grid, alpha_ly=1.5)
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
    hr = harnack_check(times, [np.max(u) for u in us], [np.min(u) for u in us], 0.5, 1.0)
    assert hr.verifiable
    c1, c2, c3 = hr.constants
    assert c1 == pytest.approx(1.0, abs=1e-8)
    assert abs(c2) <= 1e-8 and abs(c3) <= 1e-8
    assert hr.lhs_sup == pytest.approx(np.exp(-0.5))
    assert hr.rhs_inf == pytest.approx(np.exp(-1.0))


def test_harnack_rejects_degenerate_window(grid1):
    us = [np.ones(grid1.shape)] * 3
    with pytest.raises(ValueError):
        harnack_check([0.5, 0.75, 1.0], [1.0] * 3, [1.0] * 3, 1.0, 1.0)


def test_harnack_unverifiable_flag(grid1):
    times = [0.25, 0.5, 0.75, 1.0]
    us = [np.ones(grid1.shape) for _ in times]
    us[-1] = -np.ones(grid1.shape)
    hr = harnack_check(times, [np.max(u) for u in us], [np.min(u) for u in us], 0.5, 1.0)
    assert not hr.verifiable


def _reference_unit_windows(rec, grid, alpha_ly, horizon):
    """Criterion 10's unit windows from every recorded snapshot at once."""
    out = SimpleNamespace(windows=0, nonpositive=0, env_t=[], env_v=[], consts=[])
    times = np.array(rec.t)
    for m in range(1, int(horizon)):
        base = int(np.argmin(np.abs(times - (m - 1))))
        u0 = rec.u[base]
        if float(np.max(u0) - np.min(u0)) < 1e-10:
            continue
        out.windows += 1
        inside = [i for i, t in enumerate(rec.t) if 1e-9 < t - (m - 1) <= 1.0 + 1e-9]
        rel_t = [rec.t[i] - (m - 1) for i in inside]
        fields = [float(np.max(u0)) - rec.u[i] for i in inside]
        try:
            t_int, vals = liyau_quantity(rel_t, fields, [rec.gprime[i] for i in inside],
                                         grid, alpha_ly=alpha_ly)
            out.env_t.extend(t_int.tolist())
            out.env_v.extend(vals.tolist())
            out.consts.append(harnack_check(rel_t, [np.max(f) for f in fields],
                                            [np.min(f) for f in fields], 0.5, 1.0).constants)
        except NonPositiveU:
            out.nonpositive += 1
    return out


def test_unit_windows_match_recorded_surrogates(mfd):
    uw = mfd.windows
    ref = _reference_unit_windows(mfd.rec, mfd.g.grid, 1.5, 10.0)
    assert (uw.windows, uw.nonpositive) == (ref.windows, ref.nonpositive) == (9, 0)
    assert uw.env_t == ref.env_t and uw.env_v == ref.env_v
    assert uw.harnack_ok and uw.harnack_consts == ref.consts


def _unit_windows_peak(per_unit):
    """UnitWindows fed two unit windows of a decaying u, per_unit snapshots
    each, and the traced memory peak of feeding them."""
    grid = TorusGrid(1, 64)
    profile = 1.0 + 0.1 * np.cos(grid.axis_coordinates()[0]) * np.ones(grid.shape)
    gprime = np.ones((1,) + grid.shape)
    uw = UnitWindows(grid, 1.5, 3.0)
    tracemalloc.start()
    try:
        for k in range(2 * per_unit + 1):
            t = k / per_unit
            uw(SimpleNamespace(t=t, dphi_dt=SimpleNamespace(values=np.exp(-t) * profile),
                               gprime=gprime))
        return uw, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unit_windows_memory_flat_in_snapshots_per_window():
    # a window streams through one Li-Yau window: holding each snapshot's xi
    # and g' (64 KB here) would add ~2.3 MB over the 36 extra snapshots
    uw4, peak4 = _unit_windows_peak(4)
    uw40, peak40 = _unit_windows_peak(40)
    for uw in (uw4, uw40):
        assert (uw.windows, uw.nonpositive, uw.harnack_ok) == (2, 0, True)
        assert len(uw.harnack_consts) == 2
    assert len(uw40.env_t) == 2 * 38
    assert peak40 <= 1.1 * peak4


def test_xi_surrogates_on_run(mfd):
    # window 1 from the recorded snapshots: xi > 0 strictly off t = 0
    rec = mfd.rec
    sup0 = float(np.max(rec.u[0]))
    rel_t = [t for t in rec.t if 0 < t <= 1.0]
    fields = [sup0 - u for t, u in zip(rec.t, rec.u) if 0 < t <= 1.0]
    assert rel_t == [0.25, 0.5, 0.75, 1.0]
    assert all(np.min(f) > 0 for f in fields)
    hr = harnack_check(rel_t, [np.max(f) for f in fields], [np.min(f) for f in fields], 0.5, 1.0)
    assert hr.verifiable and all(np.isfinite(hr.constants))


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


# ----------------------------------------------------------------- streamed estimators

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
    rec = Recorder()
    return run(g, F, horizon=2.0, ctrl=StepControl(), monitors=suite, observers=(rec,)), F, rec


def test_finalize_matches_two_pass_reference(n2_run):
    res, F, rec = n2_run
    series = res.series
    cfg, grid = series.suite.holder, series.flow_run.g.grid
    assert rec.t == [0.0, 0.5, 1.0, 1.5, 2.0]
    # the series folds in the g' the state carries; it is g + Hess(phi) to
    # round-off (the step assembles it from its own spectrum of phi)
    gps = rec.gprime
    for phi, gp in zip(rec.phi, gps):
        rebuilt = series.flow_run.g.entries + complex_hessian_values(rfftn(phi), grid)
        assert np.max(np.abs(rebuilt - gp)) <= 1e-13
    eligible = [i for i, t in enumerate(rec.t) if t >= cfg.epsilon]
    times = np.array([rec.t[i] for i in eligible])
    t_pair, quot = _reference_holder_pairs(times, [gps[i] for i in eligible], grid, cfg)
    order = np.argsort(t_pair, kind="stable")
    holder_ref = _carried(series.records, t_pair[order], np.maximum.accumulate(quot[order]))
    assert [r.holder_seminorm for r in series.records] == holder_ref
    assert holder_ref[-1] == float(np.max(quot)) > 0

    shift = 1.5 * float(np.max(np.abs(F.values)))
    t_int, vals = _reference_liyau(rec.t, [u + shift for u in rec.u],
                                   [inverse_stack(gp) for gp in gps], grid, 1.5)
    liyau_ref = _carried(series.records, t_int, vals)
    assert [r.liyau_max for r in series.records] == liyau_ref
    assert any(v != 0.0 for v in liyau_ref)
    assert series.field_snaps == []


@pytest.mark.parametrize("which", ["mfd", "n2_run"])
def test_emitted_eig_range_matches_the_pencil_of_g_and_gprime(request, which):
    # emit reads the pencil's trace and determinant from the state (tr_g g'
    # and exp(u + F)); generalized_eig_range forms both from g and g'
    from maflow.hermitian import generalized_eig_range

    if which == "mfd":
        fix = request.getfixturevalue("mfd")
        series, rec = fix.res.series, fix.rec
    else:
        res, _, rec = request.getfixturevalue("n2_run")
        series = res.series
    by_t = {r.t: r for r in series.records}
    for t, gp in zip(rec.t, rec.gprime):
        lo, hi = generalized_eig_range(series.flow_run.g.entries, gp)
        r = by_t[t]
        assert abs(r.eig_min - float(np.min(lo))) <= 1e-12 * float(np.min(lo))
        assert abs(r.eig_max - float(np.max(hi))) <= 1e-12 * float(np.max(hi))


def test_liyau_window_keeps_one_gprime_between_adds(n2_run):
    from maflow.monitors import LiYauWindow

    res, F, rec = n2_run
    window = LiYauWindow(res.series.flow_run.g.grid)
    shift = 1.5 * float(np.max(np.abs(F.values)))
    for t, u, gp in zip(rec.t, rec.u, rec.gprime):
        window.add(t, u + shift, gp)
        assert window.gprime is gp and all(len(entry) == 2 for entry in window.window)
    assert len(window.times) == len(rec.t) - 2


def test_liyau_accepts_iterators(n2_run):
    res, F, rec = n2_run
    grid = res.series.flow_run.g.grid
    shift = 1.5 * float(np.max(np.abs(F.values)))
    us = [u + shift for u in rec.u]
    t_list, v_list = liyau_quantity(rec.t, us, rec.gprime, grid)
    t_gen, v_gen = liyau_quantity(iter(rec.t), (u for u in us), iter(rec.gprime), grid)
    assert np.array_equal(t_list, t_gen) and np.array_equal(v_list, v_gen)
    with pytest.raises(InsufficientSnapshots):
        liyau_quantity(iter(rec.t[:2]), iter(us[:2]), iter(rec.gprime[:2]), grid)


def _run_peak_bytes(horizon):
    grid = TorusGrid(1, 64)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.2, scale=0.4))
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    suite = MonitorSuite(field_interval=0.5, holder=HolderConfig(rng_seed=2, sample_pairs=200))
    snaps = []
    flow._etdrk4_coefficients.cache_clear()   # both runs build their coefficient sets
    tracemalloc.start()
    try:
        run(g, F, horizon=horizon, ctrl=StepControl(), monitors=suite,
            observers=(lambda state: snaps.append(state.t),))
        return len(snaps), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_flat_in_snapshot_count():
    # one snapshot's phi and u are 64 KB here; keeping them, or each g', would
    # add ~0.8 MB over the 12 extra snapshots of the longer run
    snaps_short, peak_short = _run_peak_bytes(2.0)
    snaps_long, peak_long = _run_peak_bytes(8.0)
    assert (snaps_short, snaps_long) == (5, 17)
    assert peak_long <= 1.1 * peak_short
