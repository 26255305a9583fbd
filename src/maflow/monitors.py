"""Runtime diagnostics mirroring the a priori estimates of the flow.

Each monitor reports a measured witness (bounds, contraction factors, decay
rates) rather than assuming any constant.  Scalars are recorded at every
snapshot from what the flow state already holds: u, phi_tilde and g'.  The
pencil g^{-1} g' needs no pass of its own: its trace is the trace field
tr_g g' that trace_max and Q read, and its determinant is exp(u + F), since
u = log det g' - log det g - F.  The field-based diagnostics (Hoelder
seminorm, Li-Yau quantity) stream: every field snapshot's g' is folded at
emission into the Hoelder sample and a three-snapshot Li-Yau window, handed
to any extra observers and dropped, so memory does not grow with the
snapshot count.  The Li-Yau window reads |d f|^2 from g' itself, in closed
form, and forms no inverse or complex gradient field.  finalize carries
their values forward between evaluations, so every CSV row stays finite.

A run loads numpy and scipy.fft only.  scipy.optimize (with scipy.linalg,
sparse and spatial, about 22 MB of resident memory) loads at the first
certified fit, which only verify's Harnack and envelope checks make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InsufficientSnapshots,
    MonitorOverflow,
    NonPositiveU,
    SeriesTooShort,
)
from .grid import MAX_POINTS, TorusGrid, integrate_values
from .hermitian import det_field, inverse_stack, pencil_eig_range, trace_pair
from .spectral import half_derivatives
# unused here; perfbench/tracer.py patches them under this module
from .hermitian import generalized_eig_range  # noqa: F401
from .spectral import complex_hessian_values, holo_gradient  # noqa: F401

CSV_COLUMNS = (
    "t", "sup_dphidt", "osc_u", "trace_max", "eig_min", "eig_max",
    "Q_max", "holder_seminorm", "liyau_max", "mean_phitilde",
)

# The Li-Yau column runs on u + (1 + LIYAU_SHIFT_EPS) sup|F|: by the maximum
# principle |u| <= sup|F|, so the shifted field is at least LIYAU_SHIFT_EPS sup|F| > 0.
LIYAU_SHIFT_EPS = 0.5


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
        if not (1 <= self.sample_pairs <= MAX_POINTS):
            raise ValueError(f"sample_pairs must lie in [1, {MAX_POINTS}], "
                             f"got {self.sample_pairs}")
        if not (self.rng_seed >= 0):
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class MonitorSuite:
    """Monitor configuration attached to a flow run."""

    emit_dt: float = 0.1
    field_interval: float = 0.5
    A: float = 2.0
    alpha_ly: float = 1.5
    holder: HolderConfig = dc_field(default_factory=HolderConfig)

    def __post_init__(self):
        if not (0 < self.emit_dt < math.inf and 0 < self.field_interval < math.inf):
            raise ValueError("emit_dt and field_interval must be positive and finite")
        ratio = self.field_interval / self.emit_dt
        if not (math.isfinite(ratio) and round(ratio) >= 1
                and abs(ratio - round(ratio)) <= 1e-9):
            raise ValueError(
                "field_interval must be a positive integer multiple of emit_dt "
                f"(got {self.field_interval} / {self.emit_dt})"
            )
        if not (1.0 < self.alpha_ly < 2.0):
            raise ValueError("alpha_ly must lie in (1, 2)")
        if not (0 < self.A < math.inf):
            raise ValueError(f"A must be positive and finite, got {self.A}")

    def emissions(self, horizon: float) -> int:
        """Emissions after t = 0 of a run to ``horizon``: its ratio to emit_dt.

        Raises ValueError unless horizon is a positive multiple of emit_dt
        (to 1e-9); NaN and inf fail before any rounding.
        """
        ratio = horizon / self.emit_dt
        count = round(ratio) if math.isfinite(ratio) else 0
        if count < 1 or abs(count * self.emit_dt - horizon) > 1e-9:
            raise ValueError(f"flow.horizon {horizon} must be a positive multiple of "
                             f"monitors.emit_dt {self.emit_dt}")
        return count


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
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of an exponentially decaying series."""

    eta: float
    C: float
    r_squared: float
    window: Tuple[float, float]
    degenerate: bool = False
    n_samples: int = 0


def monitor_basic(state, trace_field: np.ndarray) -> dict:
    """Zeroth/first/second-order witnesses at one snapshot.

    ``trace_field`` is tr_g g' at every grid point; F and the weights w are
    the state's flow_run's.  The eigenvalues of g^{-1} g' are the roots of
    the pencil of trace tr_g g' and determinant exp(u + F) (for n = 1,
    tr_g g' itself).  The sups of |u| and |u - mean u| are attained at the
    extremes of u, so they are read from max u and min u.
    """
    w = state.flow_run.w
    u = state.dphi_dt.values
    u_max, u_min = float(u.max()), float(u.min())
    mean_u = integrate_values(u, w)
    if len(state.gprime) == 1:
        emin = emax = trace_field
    else:
        emin, emax = pencil_eig_range(trace_field, np.exp(u + state.flow_run.f_values))
    return {
        "sup_dphidt": max(abs(u_max), abs(u_min)),
        "sup_dphitilde": max(abs(u_max - mean_u), abs(u_min - mean_u)),
        "osc_u": u_max - u_min,
        "trace_max": float(trace_field.max()),
        "eig_min": float(emin.min()),
        "eig_max": float(emax.max()),
        "mean_phitilde": integrate_values(state.phi_tilde.values, w),
    }


def monitor_Q(state, trace_field: np.ndarray, A: float, sup_phitilde_run: float) -> float:
    """Max over the grid of Q = log tr_g g' + exp(A (sup phitilde - phitilde)).

    ``trace_field`` is tr_g g' at every grid point.  ``sup_phitilde_run`` is
    the running supremum of phitilde over the run so far (the measurable
    analogue of the space-time supremum in the estimate).
    """
    # an exponent past float64's range gives inf, which emit turns into MonitorOverflow
    with np.errstate(over="ignore"):
        q = np.log(trace_field) + np.exp(A * (sup_phitilde_run - state.phi_tilde.values))
    return float(q.max())


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
    over the indices of the ``count`` snapshots to come; ``add`` takes each
    snapshot's time and packed g' in order and keeps only its sampled
    entries, two (pairs, n*n) buffers in all.  Each end's pair indices are
    sorted by snapshot once, so a snapshot's pairs are one slice.  A
    quotient's numerator is max(|da|, |dd|, |db|).
    """

    def __init__(self, count: int, grid: TorusGrid, cfg: HolderConfig):
        m = cfg.sample_pairs
        rng = np.random.default_rng(cfg.rng_seed)
        self.sa, self.sb = [rng.integers(0, count, size=m) for _ in range(2)]
        pa, pb = [rng.integers(0, grid.num_points, size=m) for _ in range(2)]
        self.space_dist = _torus_pair_distance(grid, pa, pb)
        # per end: pair indices by snapshot, their grid points, snapshot j's slice bounds
        self.ends = []
        for snap, pts in ((self.sa, pa), (self.sb, pb)):
            order = np.argsort(snap)
            self.ends.append((order, pts[order],
                              np.searchsorted(snap[order], np.arange(count + 1))))
        self.count, self.times = count, []
        self.alpha, self.n = cfg.alpha, grid.complex_dim
        self.ga, self.gb = np.zeros((2, m, self.n ** 2))

    def add(self, t: float, gprime: np.ndarray):
        j = len(self.times)
        if j < self.count:   # an extra snapshot only counts, and quotients raises
            flat = gprime.reshape(len(gprime), -1)
            for (order, pts, bounds), buf in zip(self.ends, (self.ga, self.gb)):
                lo, hi = bounds[j], bounds[j + 1]
                buf[order[lo:hi]] = flat[:, pts[lo:hi]].T
        self.times.append(t)

    def quotients(self):
        """(t_max_per_pair, quotient_per_pair), once all ``count`` snapshots are added."""
        if len(self.times) != self.count:
            raise InsufficientSnapshots(
                f"Hoelder sample drawn over {self.count} snapshots, {len(self.times)} added")
        times = np.array(self.times)
        ta, tb = times[self.sa], times[self.sb]
        dist = np.maximum(self.space_dist, np.sqrt(np.abs(ta - tb)))
        diff = self.ga - self.gb
        num = np.max(np.abs(diff[:, :self.n]), axis=1)
        if self.n == 2:
            num = np.maximum(num, np.hypot(diff[:, 2], diff[:, 3]))
        mask = dist > 0
        quot = np.zeros(len(num))
        quot[mask] = num[mask] / dist[mask] ** self.alpha
        return np.maximum(ta, tb), quot


class LiYauWindow:
    """Li-Yau quantity t (|d f|^2 - alpha f_t), maximized over the grid,
    over a stream of snapshots.

    ``add(t, u, gprime)`` takes one snapshot: u > 0 at every point
    (NonPositiveU otherwise, a NaN included), f = log u, and gprime the
    packed g', so |d f|^2 is the pairing tr(g'^{-1} v v^*) with
    v = (d_1 f, .., d_n f), formed by _grad_sq from f's half-derivatives and
    g' directly.  f_t is a centered difference across adjacent snapshots,
    so a value is produced at each interior snapshot time, from that
    snapshot's g' alone.  Between adds the window holds the last two
    snapshots' f and the newest g'.  alpha_ly lies in (1, 2), as
    MonitorSuite checks.
    """

    def __init__(self, grid: TorusGrid, alpha_ly: float = 1.5):
        self.grid, self.alpha_ly = grid, alpha_ly
        self.window = []      # (t, f) of the last two snapshots between adds
        self.gprime = None    # the newest snapshot's g', used once it is the middle
        self.times, self.values = [], []

    def add(self, t: float, u: np.ndarray, gprime: np.ndarray):
        if not u.min() > 0:   # written so that a NaN fails too
            raise NonPositiveU(f"non-positive u (min {u.min():.3e}) in Li-Yau diagnostic")
        self.window.append((t, np.log(u)))
        gp1, self.gprime = self.gprime, gprime
        if len(self.window) < 3:
            return
        (t0, f0), (t1, f1), (t2, f2) = self.window
        del self.window[0]
        grad_sq = _grad_sq(f1, gp1, self.grid)   # its buffers are gone before f_t is made
        f_t = (f2 - f0) / (t2 - t0)
        self.times.append(t1)
        self.values.append(float(t1 * (grad_sq - self.alpha_ly * f_t).max()))

    def result(self):
        """(interior_times, values); InsufficientSnapshots before three adds."""
        if not self.times:
            raise InsufficientSnapshots("need >= 3 snapshots for centered time differences")
        return np.array(self.times), np.array(self.values)


def _grad_sq(f: np.ndarray, gprime: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """|d f|^2 = tr(g'^{-1} v v^*) with v = (d_1 f, .., d_n f), from the packed g'.

    With d_i f = x_i - sqrt(-1) y_i (half_derivatives' rows x_1, y_1, ..) and
    g' = (a, d, b), it is (x^2 + y^2) / a for n = 1 and, for n = 2,
    (d |d_1 f|^2 + a |d_2 f|^2 - 2 Re(b conj(d_1 f conj(d_2 f)))) / (a d - |b|^2),
    where d_1 f conj(d_2 f) = x_1 x_2 + y_1 y_2 + sqrt(-1) (x_1 y_2 - x_2 y_1):
    no inverse field and no complex array.
    """
    x = half_derivatives(f, grid)
    num = x[0] * x[0]
    num += x[1] * x[1]
    if grid.complex_dim == 2:
        a, d, b_re, b_im = gprime
        num *= d
        term = x[2] * x[2]
        term += x[3] * x[3]
        term *= a
        num += term
        np.multiply(x[0], x[2], out=term)
        term += x[1] * x[3]
        term *= b_re
        term += b_im * (x[0] * x[3] - x[2] * x[1])
        term *= 2.0
        num -= term
        del term
    del x   # the derivatives go before det_field's temporaries are made
    num /= det_field(gprime)
    return num


def _certified_fit(basis: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Non-negative coefficients c with basis @ c >= targets on every row.

    Non-negative least squares on the targets clipped at 0, then c[0]
    raised by the worst residual over the smallest entry of basis[:, 0]
    (a positive column), so that no row is violated.
    """
    # imported here: scipy.optimize pulls in scipy.linalg, sparse and spatial
    from scipy.optimize import nnls

    coef, _ = nnls(basis, np.maximum(targets, 0.0))
    worst = float(np.max(targets - basis @ coef))
    if worst > 0:
        coef[0] += worst / float(np.min(basis[:, 0]))
    return coef


def envelope_fit_inverse_time(t_rel: np.ndarray, values: np.ndarray):
    """Smallest-ish (C1, C2) with values <= C1 + C2 / t, certified to hold:
    _certified_fit in the basis (1, 1/t)."""
    t_rel = np.asarray(t_rel, dtype=float)
    basis = np.column_stack([np.ones_like(t_rel), 1.0 / t_rel])
    c1, c2 = _certified_fit(basis, np.asarray(values, dtype=float))
    return float(c1), float(c2)


@dataclass(frozen=True)
class HarnackResult:
    """Fitted Harnack inequality over snapshot-time pairs."""

    lhs_sup: float
    rhs_inf: float
    constants: Optional[Tuple[float, float, float]]
    verifiable: bool


def harnack_check(times: Sequence[float], sups: Sequence[float], infs: Sequence[float],
                  t1: float, t2: float) -> HarnackResult:
    """Check sup u(t1) <= inf u(t2) (t2/t1)^C2 exp(C3/(t2-t1) + C1 (t2-t1)).

    sups and infs are sup u and inf u at each snapshot time.  Constants are
    fitted by _certified_fit, C1 raised so no sampled pair violates, over
    all snapshot pairs s1 < s2 in the window; the reported
    lhs/rhs belong to the requested (t1, t2).  Raises NonPositiveU when no
    pair admits the logarithms; flags verifiable=False when inf u(t2) <= 0.
    """
    rel = np.asarray(times, dtype=float)
    if not (0.0 < t1 < t2):
        raise ValueError("need 0 < t1 < t2")
    idx1 = int(np.argmin(np.abs(rel - t1)))
    idx2 = int(np.argmin(np.abs(rel - t2)))
    if abs(rel[idx1] - t1) > 1e-9 or abs(rel[idx2] - t2) > 1e-9:
        raise ValueError("t1/t2 must coincide with snapshot times")
    lhs = float(sups[idx1])
    rhs = float(infs[idx2])
    if rhs <= 0 or lhs <= 0:
        return HarnackResult(lhs, rhs, None, verifiable=False)

    rows, targets = [], []
    for a in range(len(rel)):
        if rel[a] <= 0:
            continue
        for b_ in range(a + 1, len(rel)):
            sup_a = float(sups[a])
            inf_b = float(infs[b_])
            if sup_a <= 0 or inf_b <= 0:
                continue
            s1, s2 = rel[a], rel[b_]
            rows.append([s2 - s1, math.log(s2 / s1), 1.0 / (s2 - s1)])
            targets.append(math.log(sup_a) - math.log(inf_b))
    if not rows:
        raise NonPositiveU("no snapshot pair admits positive sup/inf for the Harnack fit")
    coef = _certified_fit(np.array(rows), np.array(targets))
    return HarnackResult(lhs, rhs, tuple(float(c) for c in coef), verifiable=True)


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


def _carry_forward(records: Sequence[MonitorRecord], attr: str,
                   times: np.ndarray, values: np.ndarray):
    """Set each record's ``attr`` to the latest value at or before its time
    (0.0 before the first)."""
    for rec in records:
        j = np.searchsorted(times, rec.t + 1e-12) - 1
        setattr(rec, attr, float(values[j]) if j >= 0 else 0.0)


class MonitorSeries:
    """Ordered monitor records of a run; field estimators fed at emission.

    Each emitted state belongs to flow_run (a flow.FlowRun), whose metric
    g, forcing F and weights w the monitors read.  Emission j is a field
    snapshot when j is a multiple of field_interval / emit_dt.  Its g' =
    g + Hess(phi) is state.gprime, the one the step that produced the state
    assembled (no transform or Hessian runs here).  It is fed to the
    Hoelder sample when the planned time j * emit_dt is >= holder.epsilon
    and to the Li-Yau window on u + shift, shift = (1 + LIYAU_SHIFT_EPS) sup|F|
    (not at all when sup|F| = 0), then the state is handed to each
    ``observer(state)``.  The planned times fix the Hoelder snapshot count
    before the run, hence ``horizon``.  A shift past float64's range raises
    MonitorOverflow here, before the run takes a step.
    """

    def __init__(self, flow_run, suite: MonitorSuite, horizon: float,
                 observers: Sequence[Callable] = ()):
        g = flow_run.g
        self.flow_run = flow_run
        self.suite = suite
        self.observers = tuple(observers)
        self.g_inv = inverse_stack(g.entries)
        self.records: List[MonitorRecord] = []
        self.field_snaps: list = []   # always empty: fields are folded in at emission
        self.sup_phitilde_run = -np.inf
        sup_f = float(np.max(np.abs(flow_run.f_values)))
        self.shift = (1.0 + LIYAU_SHIFT_EPS) * sup_f
        if not math.isfinite(self.shift):
            raise MonitorOverflow(
                f"Li-Yau shift {1.0 + LIYAU_SHIFT_EPS:g} sup|F| = {self.shift} overflows "
                f"with sup|F| = {sup_f:.6g}")
        self.field_every = round(suite.field_interval / suite.emit_dt)
        count = sum(1 for j in range(0, suite.emissions(horizon) + 1, self.field_every)
                    if j * suite.emit_dt >= suite.holder.epsilon)
        self.holder = _HolderSample(count, g.grid, suite.holder) if count >= 2 else None
        self.liyau = LiYauWindow(g.grid, suite.alpha_ly)

    def emit(self, state):
        self.sup_phitilde_run = max(self.sup_phitilde_run,
                                    float(state.phi_tilde.values.max()))
        trace_field = trace_pair(self.g_inv, state.gprime)
        basic = monitor_basic(state, trace_field)
        q_max = monitor_Q(state, trace_field, self.suite.A, self.sup_phitilde_run)
        if not math.isfinite(q_max):
            raise MonitorOverflow(
                f"Q_max = {q_max} at t = {state.t:.6g}: exp(A (sup phi_tilde - phi_tilde)) "
                f"overflows with monitors.A = {self.suite.A:.6g}")
        j = len(self.records)
        self.records.append(MonitorRecord(
            t=state.t, Q_max=q_max, holder_seminorm=0.0, liyau_max=0.0, **basic,
        ))
        if j % self.field_every:
            return
        if self.holder is not None and j * self.suite.emit_dt >= self.suite.holder.epsilon:
            self.holder.add(state.t, state.gprime)
        if self.shift > 0:
            self.liyau.add(state.t, state.dphi_dt.values + self.shift, state.gprime)
        for observer in self.observers:
            observer(state)

    def finalize(self):
        """Carry the streamed Hoelder and Li-Yau values forward onto the records."""
        if self.liyau.times:
            _carry_forward(self.records, "liyau_max", *self.liyau.result())
        if self.holder is not None:
            t_pair, quot = self.holder.quotients()
            order = np.argsort(t_pair, kind="stable")
            _carry_forward(self.records, "holder_seminorm", t_pair[order],
                           np.maximum.accumulate(quot[order]))

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
