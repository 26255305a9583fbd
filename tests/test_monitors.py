import dataclasses
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from maflow import flow, monitors, verification
from maflow.config import config_from_kv
from maflow.errors import InsufficientSnapshots, NonPositiveU, SeriesTooShort
from maflow.flow import StepControl, make_state, run
from maflow.grid import ScalarField, TorusGrid
from maflow.hermitian import inverse_stack, trace_pair
from maflow.monitors import (
    CSV_COLUMNS,
    LIYAU_ALPHA,
    LiYauWindow,
    MonitorRecord,
    MonitorSeries,
    MonitorSuite,
    _grad_sq,
    _HolderSample,
    contraction_and_decay,
    envelope_fit_inverse_time,
    harnack_check,
    monitor_Q,
    theta_at_integer_times,
)
from maflow.presets import ForcingPreset, MetricPreset, build_forcing, build_metric
from maflow.runner import build_problem
from maflow.spectral import laplacian_values, rfftn, symbol_hessian_values
from maflow.verification import RUN1_KV, RUN2_KV, UnitWindows

from reference import (
    GprimeLiYauWindow,
    SortedHolderSample,
    finalize_reference,
    grad_sq_reference,
    liyau_quantity,
    unpack,
)


def seeded_suite(**kw):
    kw.setdefault("holder_seed", 5)
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
    suite = MonitorSuite(emit_dt=0.05, field_interval=0.25, holder_seed=7)
    rec, windows = Recorder(), UnitWindows(grid, 10.0)
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

def _sampled_holder_max(states, grid, seed):
    """Largest sampled quotient over the states with t >= HOLDER_EPSILON."""
    eligible = [s for s in states if s.t >= monitors.HOLDER_EPSILON]
    sample = _HolderSample(len(eligible), grid, seed)
    for s in eligible:
        sample.add(s.t, s.gprime)
    return float(sample.result()[1][-1])


def test_holder_zero_for_constant_field(grid1, flat1):
    # F = 0 on the flat metric: phi stays 0 and g' = g at every snapshot
    F = ScalarField(grid1, np.zeros(grid1.shape))
    suite = MonitorSuite(holder_seed=3)
    res = run(flat1, F, horizon=2.0, ctrl=StepControl(), monitors=suite)
    assert res.series.holder is not None
    assert all(r.holder_seminorm == 0.0 and r.liyau_max == 0.0 for r in res.series.records)


def test_holder_insufficient_snapshots(grid1, flat1, monkeypatch):
    # only the snapshot at t = 2 lies past epsilon = 1.9: no pair to sample
    monkeypatch.setattr(monitors, "HOLDER_EPSILON", 1.9)
    F = ScalarField(grid1, np.zeros(grid1.shape))
    suite = MonitorSuite(holder_seed=3)
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
    sample = _HolderSample(2, grid1, 3)
    for t in (0.5, 1.0, 1.5):
        sample.add(t, flat1.entries)
    with pytest.raises(InsufficientSnapshots):
        sample.result()


def test_holder_single_mode_vs_exhaustive(monkeypatch):
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
    alpha = monitors.HOLDER_ALPHA
    monkeypatch.setattr(monitors, "HOLDER_PAIRS", 200000)
    est = _sampled_holder_max(states, grid, 12)

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
    t, v = liyau_quantity([0.5, 1.0, 1.5], us, [flat1.entries] * 3, grid1)
    assert np.max(np.abs(v)) <= 1e-12


def test_liyau_exponential_closed_form(grid1, flat1):
    # u = e^{-t}: |df|^2 = 0, f_t = -1, so the quantity is alpha * t
    times = [0.5, 1.0, 1.5, 2.0]
    us = [np.full(grid1.shape, np.exp(-t)) for t in times]
    t, v = liyau_quantity(times, us, [flat1.entries] * 4, grid1)
    assert np.allclose(v, 1.5 * t, atol=1e-10)


def test_liyau_nonpositive_raises(grid1, flat1):
    us = [np.full(grid1.shape, 1.0), np.full(grid1.shape, -0.1),
          np.full(grid1.shape, 1.0)]
    with pytest.raises(NonPositiveU):
        liyau_quantity([0.5, 1.0, 1.5], us, [flat1.entries] * 3, grid1)


def test_liyau_nan_u_raises(grid1, flat1):
    # one NaN fails the guard too: it would reach log and the column otherwise
    mid = np.full(grid1.shape, 1.0)
    mid[3, 5] = np.nan
    us = [np.full(grid1.shape, 1.0), mid, np.full(grid1.shape, 1.0)]
    with pytest.raises(NonPositiveU):
        liyau_quantity([0.5, 1.0, 1.5], us, [flat1.entries] * 3, grid1)


def test_liyau_envelope_on_run(mfd):
    shift = 1.5 * float(np.max(np.abs(mfd.F.values)))
    rec = mfd.rec
    us = [u + shift for u in rec.u]
    t_int, vals = liyau_quantity(rec.t, us, rec.gprime, mfd.g.grid)
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


def _reference_unit_windows(rec, grid, horizon):
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
                                         grid)
            out.env_t.extend(t_int.tolist())
            out.env_v.extend(vals.tolist())
            out.consts.append(harnack_check(rel_t, [np.max(f) for f in fields],
                                            [np.min(f) for f in fields], 0.5, 1.0).constants)
        except NonPositiveU:
            out.nonpositive += 1
    return out


def test_unit_windows_match_recorded_surrogates(mfd):
    uw = mfd.windows
    ref = _reference_unit_windows(mfd.rec, mfd.g.grid, 10.0)
    assert (uw.windows, uw.nonpositive) == (ref.windows, ref.nonpositive) == (9, 0)
    assert uw.env_t == ref.env_t and uw.env_v == ref.env_v
    assert uw.harnack_ok and uw.harnack_consts == ref.consts


def _unit_windows_peak(per_unit):
    """UnitWindows fed two unit windows of a decaying u, per_unit snapshots
    each, and the traced memory peak of feeding them."""
    grid = TorusGrid(1, 64)
    profile = 1.0 + 0.1 * np.cos(grid.axis_coordinates()[0]) * np.ones(grid.shape)
    gprime = np.ones((1,) + grid.shape)
    uw = UnitWindows(grid, 3.0)
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
    # and g' (64 KB here) would add ~2.3 MB over the 36 extra snapshots.  The
    # first call imports scipy.optimize for the Harnack fit, inside its trace,
    # so it only warms up: the measured peaks do not depend on test order
    _unit_windows_peak(4)
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

def _reference_holder_pairs(times, gp_entries, grid, seed):
    """Two-pass Hoelder sampler: stacks every eligible g' snapshot."""
    S, P, n, m = len(times), grid.num_points, grid.complex_dim, monitors.HOLDER_PAIRS
    rng = np.random.default_rng(seed)
    sa = rng.integers(0, S, size=m)
    sb = rng.integers(0, S, size=m)
    pa = rng.integers(0, P, size=m)
    pb = rng.integers(0, P, size=m)
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
    quot[mask] = num[mask] / dist[mask] ** monitors.HOLDER_ALPHA
    return np.maximum(times[sa], times[sb]), quot


def _reference_grad_sq(f, gpinv, grid):
    """|d f|^2 = tr(g'^{-1} v v^*) from the complex gradient v = holo_gradient(f)
    and the packed inverse g'^{-1}."""
    from maflow.spectral import holo_gradient
    v = holo_gradient(f, grid)
    outer = [np.abs(v[..., i]) ** 2 for i in range(grid.complex_dim)]
    if grid.complex_dim == 2:
        cross = v[..., 0] * np.conj(v[..., 1])
        outer += [cross.real, cross.imag]
    return trace_pair(gpinv, np.stack(outer))


def _reference_liyau(times, u_list, gpinv_list, grid, alpha_ly):
    """List-based Li-Yau quantity: every log u and gradient held at once."""
    fs = [np.log(u) for u in u_list]
    out_t, out_v = [], []
    for j in range(1, len(times) - 1):
        f_t = (fs[j + 1] - fs[j - 1]) / (times[j + 1] - times[j - 1])
        grad2 = _reference_grad_sq(fs[j], gpinv_list[j], grid)
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
    suite = MonitorSuite(field_interval=0.5, holder_seed=21)
    rec = Recorder()
    return run(g, F, horizon=2.0, ctrl=StepControl(), monitors=suite, observers=(rec,)), F, rec


def test_finalize_matches_two_pass_reference(n2_run):
    res, F, rec = n2_run
    series = res.series
    seed, grid = series.suite.holder_seed, series.flow_run.g.grid
    assert rec.t == [0.0, 0.5, 1.0, 1.5, 2.0]
    # the series folds in the g' the state carries; it is g + Hess(phi) to
    # round-off (the step assembles it with the matrix Hessian of phi, the
    # reference is the symbol one)
    gps = rec.gprime
    for phi, gp in zip(rec.phi, gps):
        rebuilt = series.flow_run.g.entries + symbol_hessian_values(rfftn(phi), grid)
        assert np.max(np.abs(rebuilt - gp)) <= 1e-13
    eligible = [i for i, t in enumerate(rec.t) if t >= monitors.HOLDER_EPSILON]
    times = np.array([rec.t[i] for i in eligible])
    t_pair, quot = _reference_holder_pairs(times, [gps[i] for i in eligible], grid, seed)
    order = np.argsort(t_pair, kind="stable")
    holder_ref = _carried(series.records, t_pair[order], np.maximum.accumulate(quot[order]))
    assert [r.holder_seminorm for r in series.records] == holder_ref
    assert holder_ref[-1] == float(np.max(quot)) > 0

    shift = 1.5 * float(np.max(np.abs(F.values)))
    t_int, vals = _reference_liyau(rec.t, [u + shift for u in rec.u],
                                   [inverse_stack(gp) for gp in gps], grid, LIYAU_ALPHA)
    liyau_ref = np.array(_carried(series.records, t_int, vals))
    # the window forms |d f|^2 in closed form from g', the reference from the
    # inverse of g' and a complex gradient: they agree to round-off, not bits
    liyau = np.array([r.liyau_max for r in series.records])
    assert np.max(np.abs(liyau - liyau_ref)) <= 1e-13 * np.max(np.abs(liyau_ref))
    assert np.array_equal(liyau == 0.0, liyau_ref == 0.0)
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


def test_liyau_window_keeps_two_fs_and_one_grad_sq_between_adds(n2_run):
    # each snapshot's |d f|^2 is formed as it arrives (from the second on),
    # so the window keeps no g': the one it was handed dies with the caller's
    res, F, rec = n2_run
    grid = res.series.flow_run.g.grid
    window = LiYauWindow(grid)
    shift = 1.5 * float(np.max(np.abs(F.values)))
    for k, (t, u, gp) in enumerate(zip(rec.t, rec.u, rec.gprime)):
        handed = gp.copy()
        alive = weakref.ref(handed)
        window.add(t, u + shift, handed)
        del handed
        assert alive() is None
        assert [entry[0] for entry in window.window] == rec.t[max(0, k - 1):k + 1]
        assert all(entry[1].shape == grid.shape for entry in window.window)
        if k == 0:
            assert window.grad_sq is None
        else:
            assert np.array_equal(window.grad_sq, _grad_sq(window.window[1][1], gp, grid))
        assert set(vars(window)) == {"grid", "window", "grad_sq", "times", "values"}
    assert len(window.times) == len(rec.t) - 2


@pytest.mark.parametrize("n, N", [(1, 64), (2, 8), (2, 16)])
def test_grad_sq_gives_the_reference_bits(n, N):
    # the cross term formed in the dead half-derivative rows takes the same
    # operations in the same order as the three-temporary expression
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(3 * N + n)
    f = rng.standard_normal(grid.shape)
    gprime = _noise_gprime(grid, rng)
    assert np.array_equal(_grad_sq(f, gprime, grid), grad_sq_reference(f, gprime, grid))


def test_n2_monitors_hold_det_g_one_gprime_buffer_and_few_grad_sq_fields(n2_run):
    # n = 2, N = 16, fields of 0.52 MB: the series holds det g (one field)
    # and not the n*n fields of g^{-1}; the Hoelder sample holds g' at each
    # pair's earlier end, one (pairs, n*n) buffer, not one per end; and
    # _grad_sq peaks at most three fields above its output
    res, _, rec = n2_run
    flow_run, suite = res.series.flow_run, res.series.suite
    grid = flow_run.g.grid
    field = 8 * grid.num_points
    sample_bytes = monitors.HOLDER_PAIRS * (8 * 4 + 4 * 4 + 8)   # g', 4 int32, distance
    f = np.random.default_rng(5).standard_normal(grid.shape)
    gprime = rec.gprime[2]

    def traced():
        tracemalloc.start()
        try:
            sample = _HolderSample(4, grid, suite.holder_seed)
            held_sample = tracemalloc.get_traced_memory()[0]
            series = MonitorSeries(flow_run, suite, horizon=2.0)
            held_series = tracemalloc.get_traced_memory()[0] - held_sample
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = _grad_sq(f, gprime, grid)
            above = tracemalloc.get_traced_memory()[1] - base - out.nbytes
        finally:
            tracemalloc.stop()
        assert series.holder.count == sample.count == 4
        return held_sample, held_series, above

    traced()   # warm-up, as in the unit-window test
    held_sample, held_series, above = traced()
    assert held_sample <= sample_bytes + 0.05 * field
    assert held_series <= field + sample_bytes + 0.05 * field
    assert above <= 3.05 * field


def test_last_field_snapshot_forms_no_grad_sq(monkeypatch, grid1, flat1):
    # a window forms |d f|^2 from its second snapshot on; the series hands
    # the last planned field snapshot over without g', whose |d f|^2 no
    # value reads, and the window rejects an add after it
    calls = []
    real = monitors._grad_sq
    monkeypatch.setattr(monitors, "_grad_sq", lambda *a: calls.append(1) or real(*a))
    for kv, horizon, snapshots in ((RUN1_KV, 5, 21), (RUN2_KV, 2, 5)):
        calls.clear()
        res, _ = _flow_with_unit_windows(kv, horizon, False)
        assert len(res.series.liyau.times) == snapshots - 2 == len(calls)
    window = LiYauWindow(grid1)
    u = np.ones(grid1.shape)
    window.add(0.0, u, flat1.entries)
    window.add(0.5, u, None)
    assert window.grad_sq is None
    with pytest.raises(InsufficientSnapshots):
        window.add(1.0, u, flat1.entries)


def _flow_with_unit_windows(kv, horizon, unit_windows):
    cfg = config_from_kv(dict(kv, **{"flow.horizon": str(horizon)}))
    _, g, F, _ = build_problem(cfg)
    windows = UnitWindows(cfg.grid, cfg.horizon) if unit_windows else None
    res = run(g, F, horizon=cfg.horizon, ctrl=cfg.step, monitors=cfg.monitors,
              observers=(windows,) if unit_windows else ())
    return res, windows


@pytest.mark.parametrize("kv, horizon, unit_windows", [(RUN1_KV, 5, True), (RUN2_KV, 2, False)],
                         ids=["run1", "run2"])
def test_streamed_estimators_give_the_reference_bits(monkeypatch, kv, horizon, unit_windows):
    # the Hoelder sample without sort tables, its per-snapshot maxima and the
    # |d f|^2-holding Li-Yau window, against the sort-table sample with the
    # argsort over pair times and the g'-holding window: the same CSV text
    # (every value's repr) and, on run 1, the same unit-window envelopes
    res, windows = _flow_with_unit_windows(kv, horizon, unit_windows)
    with monkeypatch.context() as m:
        m.setattr(monitors, "_HolderSample", SortedHolderSample)
        m.setattr(monitors, "LiYauWindow", GprimeLiYauWindow)
        m.setattr(verification, "LiYauWindow", GprimeLiYauWindow)
        m.setattr(monitors.MonitorSeries, "finalize", finalize_reference)
        ref, ref_windows = _flow_with_unit_windows(kv, horizon, unit_windows)
    assert isinstance(ref.series.holder, SortedHolderSample)
    assert isinstance(res.series.holder, monitors._HolderSample)
    assert res.series.to_csv() == ref.series.to_csv()
    for col in ("holder_seminorm", "liyau_max"):
        assert len({getattr(r, col) for r in res.series.records}) > 2
    if unit_windows:
        assert windows.windows == ref_windows.windows == 4
        assert windows.env_t == ref_windows.env_t and windows.env_v == ref_windows.env_v
        assert windows.harnack_consts == ref_windows.harnack_consts


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


def _noise_gprime(grid, rng):
    """A packed PD g' of white-noise entries, with |b|^2 between 0.45 and 0.5 of a d."""
    a, d = np.exp(0.3 * rng.standard_normal((2,) + grid.shape))
    if grid.complex_dim == 1:
        return a[None]
    r = np.sqrt(rng.uniform(0.45, 0.5, grid.shape) * a * d)
    theta = rng.uniform(0.0, 2 * np.pi, grid.shape)
    return np.stack((a, d, r * np.cos(theta), r * np.sin(theta)))


@pytest.mark.parametrize("n, N", [(1, 64), (2, 8), (2, 16), (2, 24)])
def test_grad_sq_matches_inverse_and_complex_gradient(n, N):
    # white noise exercises every mode, the Nyquist shell included
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(N)
    f = rng.standard_normal(grid.shape)
    gprime = _noise_gprime(grid, rng)
    want = _reference_grad_sq(f, inverse_stack(gprime), grid)
    got = _grad_sq(f, gprime, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (2, 16)])
def test_grad_sq_exact_for_trig_polynomials(n, N):
    # f = sum_m c_m cos(k_m . x + theta_m) with every |k_a| < N/2 has
    # d_i f = -(k_{2i-1} - sqrt(-1) k_{2i}) / 2 sum_m c_m sin(k_m . x + theta_m),
    # and |d f|^2 = v^* g'^{-1} v by a dense solve
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(N + n)
    coords = [np.broadcast_to(c, grid.shape) for c in grid.axis_coordinates()]
    f = np.zeros(grid.shape)
    v = np.zeros(grid.shape + (n,), dtype=complex)
    for _ in range(6):
        k = rng.integers(-N // 2 + 1, N // 2, size=2 * n)
        c, theta = rng.normal(), rng.uniform(0, 6)
        phase = sum(ka * xa for ka, xa in zip(k, coords)) + theta
        f += c * np.cos(phase)
        for i in range(n):
            v[..., i] -= 0.5 * (k[2 * i] - 1j * k[2 * i + 1]) * c * np.sin(phase)
    gprime = _noise_gprime(grid, rng)
    sol = np.linalg.solve(unpack(gprime), v[..., None])[..., 0]
    want = np.einsum("...i,...i->...", np.conj(v), sol).real
    got = _grad_sq(f, gprime, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_liyau_add_allocates_few_fields(n2_run):
    # an evaluating add at n = 2, N = 16 peaks at 9 fields above its entry
    # (log u, f_t, the four half-derivatives and |d f|^2's buffers); with the
    # inverse of g', a complex gradient and its stacked outer products it took 21
    res, F, rec = n2_run
    shift = 1.5 * float(np.max(np.abs(F.values)))
    us = [u + shift for u in rec.u[:3]]
    window = LiYauWindow(res.series.flow_run.g.grid)
    for t, u, gp in zip(rec.t[:2], us, rec.gprime):
        window.add(t, u, gp)
    tracemalloc.start()
    try:
        window.add(rec.t[2], us[2], rec.gprime[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(window.times) == 1
    assert peak <= 12 * us[0].nbytes


def test_run2_traced_peak():
    # in grid fields of 0.52 MB (n = 2, N = 16): run 2's problem to horizon 2
    # peaks at 30 traced, in an Adams step's remainder after t = 0.5, its
    # ETDRK4 coefficient set (7 fields) built inside (a one-step run fills
    # the symbol tables first).  It peaked at 36, in a field snapshot's
    # Li-Yau |d f|^2, while the series held g^{-1} (4 fields), the Hoelder
    # sample g' at both ends of each pair and _grad_sq all four
    # half-derivative rows, and at 46 while the run held the emitted
    # state through the next step, the Li-Yau window the last snapshot's g'
    # and the Hoelder sample its sort tables, and at 56 with the stage spectra
    # held through _state_at and the window's inverse g' and complex gradient.
    field = 8 * 16 ** 4
    cfg = config_from_kv(dict(RUN2_KV, **{"flow.horizon": "2"}))
    _, g, F, _ = build_problem(cfg)
    run(g, F, horizon=0.1, ctrl=cfg.step, monitors=cfg.monitors)
    flow._etdrk4_coefficients.cache_clear()
    tracemalloc.start()
    try:
        run(g, F, horizon=2.0, ctrl=cfg.step, monitors=cfg.monitors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * field


def _run_peak_bytes(horizon):
    grid = TorusGrid(1, 64)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.2, scale=0.4))
    F, _ = build_forcing(grid, g, ForcingPreset("modes", amplitude=0.05, max_mode=2, seed=4))
    suite = MonitorSuite(field_interval=0.5, holder_seed=2)
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
