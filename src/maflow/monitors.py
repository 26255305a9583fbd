"""Runtime diagnostics mirroring the a priori estimates of the flow.

Each monitor reports a measured witness (bounds, contraction factors, decay
rates) rather than assuming any constant.  Scalars are recorded at every
snapshot; field-based diagnostics (Hoelder seminorm, Li-Yau and Harnack
quantities) run on a thinned set of stored field snapshots and are carried
forward between evaluations so every CSV row stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from .errors import (
    InsufficientSnapshots,
    NonPositiveU,
    SeriesTooShort,
)
from .grid import MetricField, TorusGrid, VolumeWeights, integrate_values
from .hermitian import generalized_eig_range, inverse_stack, trace_pair
from .spectral import complex_hessian_values, holo_gradient, rfftn

CSV_COLUMNS = (
    "t", "sup_dphidt", "osc_u", "trace_max", "eig_min", "eig_max",
    "Q_max", "holder_seminorm", "liyau_max", "mean_phitilde",
)


@dataclass(frozen=True)
class HolderConfig:
    """Sampling policy for the parabolic Hoelder seminorm estimator."""

    alpha: float = 0.5
    epsilon: float = 0.5
    sample_pairs: int = 20000
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        if not (self.sample_pairs >= 1):
            raise ValueError(f"sample_pairs must be at least 1, got {self.sample_pairs}")
        if not (self.rng_seed >= 0):
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class MonitorSuite:
    """Monitor configuration attached to a flow run."""

    emit_dt: float = 0.1
    field_interval: float = 0.5
    A: float = 2.0
    alpha_ly: float = 1.5
    shift_eps: float = 0.5
    holder: HolderConfig = dc_field(default_factory=HolderConfig)

    def __post_init__(self):
        if not (0 < self.emit_dt < math.inf and 0 < self.field_interval < math.inf):
            raise ValueError("emit_dt and field_interval must be positive and finite")
        ratio = self.field_interval / self.emit_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                "field_interval must be an integer multiple of emit_dt "
                f"(got {self.field_interval} / {self.emit_dt})"
            )
        if not (1.0 < self.alpha_ly < 2.0):
            raise ValueError("alpha_ly must lie in (1, 2)")
        if not (0 < self.A < math.inf):
            raise ValueError(f"A must be positive and finite, got {self.A}")
        if not (0 < self.shift_eps < math.inf):
            raise ValueError(f"shift_eps must be positive and finite, got {self.shift_eps}")


@dataclass
class MonitorRecord:
    """One snapshot row; holder/liyau are filled during series finalize."""

    t: float
    sup_dphidt: float
    osc_u: float
    trace_max: float
    eig_min: float
    eig_max: float
    Q_max: float
    holder_seminorm: float
    liyau_max: float
    mean_phitilde: float
    sup_dphitilde: float = 0.0       # internal, used by the decay fit

    def csv_values(self):
        return (self.t, self.sup_dphidt, self.osc_u, self.trace_max,
                self.eig_min, self.eig_max, self.Q_max, self.holder_seminorm,
                self.liyau_max, self.mean_phitilde)


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of an exponentially decaying series."""

    eta: float
    C: float
    r_squared: float
    window: Tuple[float, float]
    degenerate: bool = False
    n_samples: int = 0


@dataclass(frozen=True)
class FieldSnapshot:
    t: float
    phi: np.ndarray
    u: np.ndarray


def monitor_basic(state, g: MetricField, g_inv: np.ndarray, w: VolumeWeights) -> dict:
    """Zeroth/first/second-order witnesses at one snapshot."""
    u = state.dphi_dt.values
    sup_u = float(np.max(np.abs(u)))
    mean_u = integrate_values(u, w)
    sup_ut = float(np.max(np.abs(u - mean_u)))
    osc = float(np.max(u) - np.min(u))
    tr = trace_pair(g_inv, state.gprime)
    emin, emax = generalized_eig_range(g.entries, state.gprime)
    return {
        "sup_dphidt": sup_u,
        "sup_dphitilde": sup_ut,
        "osc_u": osc,
        "trace_max": float(np.max(tr)),
        "eig_min": float(np.min(emin)),
        "eig_max": float(np.max(emax)),
        "mean_phitilde": integrate_values(state.phi_tilde.values, w),
        "_trace_field": tr,
    }


def monitor_Q(state, g: MetricField, A: float, sup_phitilde_run: float,
              trace_field: Optional[np.ndarray] = None,
              g_inv: Optional[np.ndarray] = None) -> float:
    """Max over the grid of Q = log tr_g g' + exp(A (sup phitilde - phitilde)).

    ``sup_phitilde_run`` is the running supremum of phitilde over the run so
    far (the measurable analogue of the space-time supremum in the estimate).
    """
    if trace_field is None:
        if g_inv is None:
            g_inv = inverse_stack(g.entries)
        trace_field = trace_pair(g_inv, state.gprime)
    q = np.log(trace_field) + np.exp(A * (sup_phitilde_run - state.phi_tilde.values))
    return float(np.max(q))


def _torus_pair_distance(grid: TorusGrid, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Periodic Euclidean distance between flat grid indices."""
    coords_a = np.unravel_index(pts_a, grid.shape)
    coords_b = np.unravel_index(pts_b, grid.shape)
    N = grid.points_per_axis
    d2 = 0.0
    for a in range(grid.real_dim):
        m = np.abs(coords_a[a] - coords_b[a])
        d = np.minimum(m, N - m) * grid.spacing
        d2 = d2 + d * d
    return np.sqrt(d2)


class _HolderSample:
    """Seeded sample of parabolic Hoelder difference quotients of g'.

    The cfg.sample_pairs pairs of (snapshot, grid point) are drawn up front
    over the snapshot ``times``; ``add`` takes each snapshot's packed g' in
    that order and keeps only its sampled entries, two (pairs, n*n) buffers
    in all.  A quotient's numerator is max(|da|, |dd|, |db|).
    """

    def __init__(self, times: Sequence[float], grid: TorusGrid, cfg: HolderConfig):
        times, m = np.asarray(times, dtype=float), cfg.sample_pairs
        rng = np.random.default_rng(cfg.rng_seed)
        self.sa, self.sb = [rng.integers(0, len(times), size=m) for _ in range(2)]
        self.pa, self.pb = [rng.integers(0, grid.num_points, size=m) for _ in range(2)]
        ta, tb = times[self.sa], times[self.sb]
        self.t_pair = np.maximum(ta, tb)
        self.dist = np.maximum(_torus_pair_distance(grid, self.pa, self.pb),
                               np.sqrt(np.abs(ta - tb)))
        self.alpha, self.n = cfg.alpha, grid.complex_dim
        self.ga, self.gb = np.zeros((2, m, self.n ** 2))
        self.added = 0

    def add(self, gprime: np.ndarray):
        flat = gprime.reshape(len(gprime), -1)
        for snap, pts, buf in ((self.sa, self.pa, self.ga), (self.sb, self.pb, self.gb)):
            hit = snap == self.added
            buf[hit] = flat[:, pts[hit]].T
        self.added += 1

    def quotients(self):
        """(t_max_per_pair, quotient_per_pair), once every snapshot is added."""
        diff = self.ga - self.gb
        num = np.max(np.abs(diff[:, :self.n]), axis=1)
        if self.n == 2:
            num = np.maximum(num, np.hypot(diff[:, 2], diff[:, 3]))
        mask = self.dist > 0
        quot = np.zeros(len(num))
        quot[mask] = num[mask] / self.dist[mask] ** self.alpha
        return self.t_pair, quot


def holder_seminorm(snapshots: Sequence, g: MetricField, cfg: HolderConfig) -> float:
    """Monte-Carlo lower estimate of the parabolic Hoelder seminorm of g'.

    ``snapshots`` are FlowStates; only those with t >= cfg.epsilon enter.
    Deterministic for a fixed rng_seed.
    """
    eligible = [s for s in snapshots if s.t >= cfg.epsilon]
    if len(eligible) < 2:
        raise InsufficientSnapshots(
            f"need >= 2 snapshots with t >= {cfg.epsilon}, have {len(eligible)}"
        )
    sample = _HolderSample([s.t for s in eligible], g.grid, cfg)
    for s in eligible:
        sample.add(s.gprime)
    return float(np.max(sample.quotients()[1]))


def liyau_quantity(times: Iterable[float], u_list: Iterable[np.ndarray],
                   gpinv_list: Iterable[np.ndarray], grid: TorusGrid,
                   alpha_ly: float = 1.5, t_origin: float = 0.0):
    """Li-Yau quantity t (|d f|^2 - alpha f_t) maximized over the grid.

    f = log u with u > 0 at every sampled point (NonPositiveU otherwise);
    f_t by centered differences across adjacent snapshots, so values are
    produced at interior snapshot times.  ``t_origin`` shifts the time used
    in the prefactor (window-relative time for the unit-window surrogates).
    gpinv_list holds packed g'^{-1} fields, and |d f|^2 is the pairing
    tr(g'^{-1} v v^*) with v = (d_1 f, .., d_n f).  The inputs may be
    iterators: they are walked together with a window of three snapshots.

    Returns (interior_times, values).
    """
    if not (1.0 < alpha_ly < 2.0):
        raise ValueError("alpha_ly must lie in (1, 2)")
    out_t, out_v = [], []
    window = []     # (t, f, g'^{-1}) of the last three snapshots
    for t, u, gpinv in zip(times, u_list, gpinv_list):
        if np.min(u) <= 0:
            raise NonPositiveU(f"non-positive u (min {np.min(u):.3e}) in Li-Yau diagnostic")
        window = window[-2:] + [(t, np.log(u), gpinv)]
        if len(window) < 3:
            continue
        (t0, f0, _), (t1, f1, gpinv1), (t2, f2, _) = window
        f_t = (f2 - f0) / (t2 - t0)
        v = holo_gradient(f1, grid)
        outer = [np.abs(v[..., i]) ** 2 for i in range(grid.complex_dim)]
        if grid.complex_dim == 2:
            cross = v[..., 0] * np.conj(v[..., 1])
            outer += [cross.real, cross.imag]
        grad2 = trace_pair(gpinv1, np.stack(outer))
        out_t.append(t1)
        out_v.append(float((t1 - t_origin) * np.max(grad2 - alpha_ly * f_t)))
    if len(window) < 3:
        raise InsufficientSnapshots("need >= 3 snapshots for centered time differences")
    return np.array(out_t), np.array(out_v)


def envelope_fit_inverse_time(t_rel: np.ndarray, values: np.ndarray):
    """Smallest-ish (C1, C2) with values <= C1 + C2 / t, certified to hold.

    Least squares in the basis (1, 1/t) with coefficients clipped to >= 0,
    then C1 inflated by the worst residual so the envelope dominates.
    """
    t_rel = np.asarray(t_rel, dtype=float)
    basis = np.column_stack([np.ones_like(t_rel), 1.0 / t_rel])
    coef, _ = nnls(basis, np.maximum(np.asarray(values, dtype=float), 0.0))
    c1, c2 = float(coef[0]), float(coef[1])
    slack = float(np.max(values - (c1 + c2 / t_rel)))
    if slack > 0:
        c1 += slack
    return c1, c2


@dataclass(frozen=True)
class HarnackResult:
    """Fitted Harnack inequality over snapshot-time pairs."""

    lhs_sup: float
    rhs_inf: float
    constants: Optional[Tuple[float, float, float]]
    verifiable: bool
    max_log_violation: float = 0.0


def harnack_check(times: Sequence[float], u_list: Sequence[np.ndarray],
                  t1: float, t2: float, t_origin: float = 0.0) -> HarnackResult:
    """Check sup u(t1) <= inf u(t2) (t2/t1)^C2 exp(C3/(t2-t1) + C1 (t2-t1)).

    Constants are fitted (non-negative least squares, then inflated so no
    sampled pair violates) over all snapshot pairs s1 < s2 in the window;
    the reported lhs/rhs belong to the requested (t1, t2).  Times are taken
    relative to ``t_origin``.  Raises NonPositiveU when no pair admits the
    logarithms; flags verifiable=False when inf u(t2) <= 0.
    """
    rel = np.asarray(times, dtype=float) - t_origin
    if not (0.0 < t1 < t2):
        raise ValueError("need 0 < t1 < t2")
    idx1 = int(np.argmin(np.abs(rel - t1)))
    idx2 = int(np.argmin(np.abs(rel - t2)))
    if abs(rel[idx1] - t1) > 1e-9 or abs(rel[idx2] - t2) > 1e-9:
        raise ValueError("t1/t2 must coincide with snapshot times")
    lhs = float(np.max(u_list[idx1]))
    rhs = float(np.min(u_list[idx2]))
    if rhs <= 0 or lhs <= 0:
        return HarnackResult(lhs, rhs, None, verifiable=False)

    rows, targets = [], []
    for a in range(len(rel)):
        if rel[a] <= 0:
            continue
        for b_ in range(a + 1, len(rel)):
            sup_a = float(np.max(u_list[a]))
            inf_b = float(np.min(u_list[b_]))
            if sup_a <= 0 or inf_b <= 0:
                continue
            s1, s2 = rel[a], rel[b_]
            rows.append([s2 - s1, math.log(s2 / s1), 1.0 / (s2 - s1)])
            targets.append(math.log(sup_a) - math.log(inf_b))
    if not rows:
        raise NonPositiveU("no snapshot pair admits positive sup/inf for the Harnack fit")
    a_mat = np.array(rows)
    b_vec = np.array(targets)
    coef, _ = nnls(a_mat, np.maximum(b_vec, 0.0))
    resid = b_vec - a_mat @ coef
    worst = float(np.max(resid))
    if worst > 0:
        # absorb remaining violation into the (t2 - t1) coefficient
        coef = coef.copy()
        coef[0] += worst / float(np.min(a_mat[:, 0]))
    resid = b_vec - a_mat @ coef
    return HarnackResult(
        lhs, rhs, (float(coef[0]), float(coef[1]), float(coef[2])),
        verifiable=True, max_log_violation=float(np.max(resid)),
    )


def theta_at_integer_times(times: np.ndarray, osc: np.ndarray):
    """Oscillation linearly interpolated to integer times covered by the series."""
    t_lo, t_hi = float(times[0]), float(times[-1])
    ms = np.arange(math.ceil(t_lo - 1e-9), math.floor(t_hi + 1e-9) + 1)
    return ms, np.interp(ms, times, osc)


def contraction_and_decay(records: Sequence[MonitorRecord]):
    """Unit-time contraction factor and exponential decay fit.

    delta = max over integer m >= 2 of theta(m)/theta(m-1), skipping ratios
    whose denominator is below 1e-14 (0 by convention when nothing remains).
    The fit regresses log sup |d phitilde / dt| on t over the second half of
    the series; it is flagged degenerate when fewer than 10 positive samples
    remain there.
    """
    times = np.array([r.t for r in records])
    if len(times) < 3 or times[-1] - times[0] < 2.0:
        raise SeriesTooShort("series must span at least 3 integer times")
    osc = np.array([r.osc_u for r in records])
    ms, theta = theta_at_integer_times(times, osc)
    ratios = []
    for i in range(1, len(ms)):
        if ms[i] < 2:
            continue
        if theta[i - 1] < 1e-14:
            continue
        ratios.append(theta[i] / theta[i - 1])
    delta = float(max(ratios)) if ratios else 0.0

    t_mid = times[0] + 0.5 * (times[-1] - times[0])
    window = (float(t_mid), float(times[-1]))
    sup_ut = np.array([r.sup_dphitilde for r in records])
    mask = (times >= t_mid) & (sup_ut > 0)
    if int(np.sum(mask)) < 10:
        return delta, DecayFit(0.0, 0.0, 0.0, window, degenerate=True,
                               n_samples=int(np.sum(mask)))
    x = times[mask]
    y = np.log(sup_ut[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return delta, DecayFit(float(-slope), float(np.exp(intercept)), float(r2),
                           window, degenerate=False, n_samples=int(np.sum(mask)))


def _unit_window(field_snaps: Sequence[FieldSnapshot], m: int, make):
    """Times relative to m-1 and make(u) of the stored snapshots with
    m-1 < t <= m; the t = 0 slice is excluded."""
    inside = [s for s in field_snaps if 1e-9 < s.t - (m - 1) <= 1.0 + 1e-9]
    return np.array([s.t - (m - 1) for s in inside]), [make(s.u) for s in inside]


def xi_surrogate(field_snaps: Sequence[FieldSnapshot], m: int):
    """Positive surrogate xi_m(x, t) = sup_y u(y, m-1) - u(x, m-1+t).

    Returns (window_times_relative, fields) for the stored snapshots with
    m-1 < t <= m.  The t = 0 slice is excluded (xi vanishes at the argmax).
    """
    sup0 = float(np.max(_snap_at(field_snaps, float(m - 1)).u))
    return _unit_window(field_snaps, m, lambda u: sup0 - u)


def psi_surrogate(field_snaps: Sequence[FieldSnapshot], m: int):
    """Positive surrogate psi_m(x, t) = u(x, m-1+t) - inf_y u(y, m-1)."""
    inf0 = float(np.min(_snap_at(field_snaps, float(m - 1)).u))
    return _unit_window(field_snaps, m, lambda u: u - inf0)


def _snap_at(field_snaps: Sequence[FieldSnapshot], t: float) -> FieldSnapshot:
    for s in field_snaps:
        if abs(s.t - t) <= 1e-9:
            return s
    raise InsufficientSnapshots(f"no stored field snapshot at t = {t}")


def _carry_forward(records: Sequence[MonitorRecord], attr: str,
                   times: np.ndarray, values: np.ndarray):
    """Set each record's ``attr`` to the latest value at or before its time
    (0.0 before the first)."""
    for rec in records:
        j = np.searchsorted(times, rec.t + 1e-12) - 1
        setattr(rec, attr, float(values[j]) if j >= 0 else 0.0)


class MonitorSeries:
    """Ordered monitor records plus thinned field snapshots for a run."""

    def __init__(self, g: MetricField, w: VolumeWeights, suite: MonitorSuite):
        self.g = g
        self.w = w
        self.suite = suite
        self.g_inv = inverse_stack(g.entries)
        self.records: List[MonitorRecord] = []
        self.field_snaps: List[FieldSnapshot] = []
        self.sup_phitilde_run = -np.inf
        self.sup_F = None
        self.finalized = False

    def emit(self, state):
        self.sup_phitilde_run = max(self.sup_phitilde_run,
                                    float(np.max(state.phi_tilde.values)))
        basic = monitor_basic(state, self.g, self.g_inv, self.w)
        trace_field = basic.pop("_trace_field")
        q_max = monitor_Q(state, self.g, self.suite.A, self.sup_phitilde_run,
                          trace_field=trace_field)
        if self.sup_F is None:
            self.sup_F = basic["sup_dphidt"]  # phi(.,0) = 0 makes u(0) = -F
        rec = MonitorRecord(
            t=state.t, Q_max=q_max, holder_seminorm=0.0, liyau_max=0.0, **basic,
        )
        self.records.append(rec)
        iv = self.suite.field_interval
        k = round(state.t / iv)
        if abs(k * iv - state.t) <= 1e-9:
            self.field_snaps.append(FieldSnapshot(
                t=state.t, phi=state.phi.values.copy(), u=state.dphi_dt.values.copy(),
            ))

    # -- finalize ---------------------------------------------------------

    def gprime_at(self, snap: FieldSnapshot) -> np.ndarray:
        """Packed g' = g + Hess(phi) of a stored snapshot."""
        return self.g.entries + complex_hessian_values(rfftn(snap.phi), self.g.grid)

    def finalize(self):
        """Fill the Hoelder and Li-Yau columns in one pass over the field snapshots.

        Each snapshot's g' is built once for both estimators; the Hoelder
        sample keeps only its sampled entries and Li-Yau a three-snapshot
        window, so memory does not grow with the snapshot count.  Li-Yau
        runs on the shifted positive field u + (1 + shift_eps) sup|F|.
        """
        if self.finalized:
            return
        snaps, grid, cfg = self.field_snaps, self.g.grid, self.suite.holder
        eligible = [s.t for s in snaps if s.t >= cfg.epsilon]
        holder = _HolderSample(eligible, grid, cfg) if len(eligible) >= 2 else None

        def gprime(s):
            gp = self.gprime_at(s)
            if holder is not None and s.t >= cfg.epsilon:
                holder.add(gp)
            return gp

        gps = map(gprime, snaps)
        shift = (1.0 + self.suite.shift_eps) * (self.sup_F or 0.0)
        if shift > 0 and len(snaps) >= 3:  # a stationary run keeps the column at 0
            t_int, vals = liyau_quantity(
                [s.t for s in snaps], (s.u + shift for s in snaps),
                map(inverse_stack, gps), grid, alpha_ly=self.suite.alpha_ly)
            _carry_forward(self.records, "liyau_max", t_int, vals)
        if holder is not None:
            for _ in gps:  # the snapshots Li-Yau did not walk
                pass
            t_pair, quot = holder.quotients()
            order = np.argsort(t_pair, kind="stable")
            _carry_forward(self.records, "holder_seminorm", t_pair[order],
                           np.maximum.accumulate(quot[order]))
        self.finalized = True

    # -- derived summaries -------------------------------------------------

    def c_star(self) -> float:
        emin = min(r.eig_min for r in self.records)
        emax = max(r.eig_max for r in self.records)
        return max(emax, 1.0 / emin) if emin > 0 else float("inf")

    def running_max_time(self, attr: str) -> float:
        vals = [getattr(r, attr) for r in self.records]
        return self.records[int(np.argmax(vals))].t

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for rec in self.records:
            lines.append(",".join(repr(float(v)) for v in rec.csv_values()))
        return "\n".join(lines) + "\n"
