"""Reference helpers shared by the tests; the package never calls them.

``pack``/``unpack`` bridge the packed Hermitian layout of maflow.hermitian
and full (..., n, n) complex matrices, ``kahler_defect`` measures the
torsion of a metric preset, and ``liyau_quantity`` feeds a whole list of
snapshots to the streaming LiYauWindow.

``spectral_tail_reference``, ``SortedHolderSample`` with
``finalize_reference``, ``GprimeLiYauWindow`` and ``grad_sq_reference``
are earlier forms of maflow's code that held more memory: the tail from
the divided amplitudes, the Hoelder sample with per-end sort tables and an
argsort over the pair times, and the Li-Yau window that keeps the newest g'
and forms its |d f|^2 with a three-temporary cross term.  The tests check
that the package gives their bits.
"""

from typing import Iterable

import numpy as np

from maflow import monitors
from maflow.errors import InsufficientSnapshots, NonPositiveU
from maflow.grid import MetricField, TorusGrid
from maflow.hermitian import det_field
from maflow.monitors import LiYauWindow, _torus_pair_distance
from maflow.spectral import half_derivatives, holo_gradient


def pack(mats: np.ndarray) -> np.ndarray:
    """Packed real entries of a Hermitian (..., n, n) stack, shape (n*n,) + ...

    Reads the diagonal's real part and the upper off-diagonal entry only; the
    caller is responsible for the input being Hermitian.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] == 1:
        return np.ascontiguousarray(mats[..., 0, 0].real)[None]
    b = mats[..., 0, 1]
    return np.stack((mats[..., 0, 0].real, mats[..., 1, 1].real, b.real, b.imag))


def unpack(p: np.ndarray) -> np.ndarray:
    """Full Hermitian (..., n, n) complex stack of packed entries p."""
    n = 1 if len(p) == 1 else 2
    out = np.empty(p.shape[1:] + (n, n), dtype=complex)
    out[..., 0, 0] = p[0]
    if n == 2:
        out[..., 1, 1] = p[1]
        out[..., 0, 1] = p[2] + 1j * p[3]
        out[..., 1, 0] = p[2] - 1j * p[3]
    return out


def kahler_defect(g: MetricField) -> float:
    """Largest component of the torsion d(omega), zero iff the metric is Kaehler.

    Computes T_{k i jbar} = d_k g_{i jbar} - d_i g_{k jbar} by spectral
    differentiation of the packed entries; for n = 2 the components are
    d_1 conj(b) - d_2 a (jbar = 1) and d_1 d - d_2 b (jbar = 2), with
    b = g_{1 2bar}.  Meaningful for n >= 2.
    """
    if g.grid.complex_dim == 1:
        return 0.0
    a, d, b_re, b_im = (holo_gradient(e, g.grid) for e in g.entries)
    t1 = b_re[..., 0] - 1j * b_im[..., 0] - a[..., 1]
    t2 = d[..., 0] - (b_re[..., 1] + 1j * b_im[..., 1])
    return max(float(np.max(np.abs(t1))), float(np.max(np.abs(t2))))


def liyau_quantity(times: Iterable[float], u_list: Iterable[np.ndarray],
                   gprime_list: Iterable[np.ndarray], grid: TorusGrid):
    """(interior_times, values) of a LiYauWindow fed the given snapshots
    (packed g', not its inverse), which may be iterators."""
    window = LiYauWindow(grid)
    for t, u, gprime in zip(times, u_list, gprime_list):
        window.add(t, u, gprime)
    return window.result()


def spectral_tail_reference(fh: np.ndarray, grid: TorusGrid) -> float:
    """spectral.spectral_tail from the amplitudes |fh| / num_points themselves."""
    fh = np.abs(fh) / grid.num_points
    peak = float(fh.max())
    if peak == 0.0:
        return 0.0
    tail = max(float(fh[(slice(None),) * a + (grid.points_per_axis // 2,)].max())
               for a in range(grid.real_dim))
    return tail / peak


class SortedHolderSample:
    """monitors._HolderSample with each end's pair indices sorted by
    snapshot, so a snapshot's pairs are one slice; quotients returns the
    later snapshot's time per pair (see finalize_reference)."""

    def __init__(self, count: int, grid: TorusGrid, seed: int):
        m = monitors.HOLDER_PAIRS
        rng = np.random.default_rng(seed)
        self.sa, self.sb = [rng.integers(0, count, size=m) for _ in range(2)]
        pa, pb = [rng.integers(0, grid.num_points, size=m) for _ in range(2)]
        self.space_dist = _torus_pair_distance(grid, pa, pb)
        self.ends = []
        for snap, pts in ((self.sa, pa), (self.sb, pb)):
            order = np.argsort(snap)
            self.ends.append((order, pts[order],
                              np.searchsorted(snap[order], np.arange(count + 1))))
        self.count, self.times = count, []
        self.n = grid.complex_dim
        self.ga, self.gb = np.zeros((2, m, self.n ** 2))

    def add(self, t: float, gprime: np.ndarray):
        j = len(self.times)
        if j < self.count:
            flat = gprime.reshape(len(gprime), -1)
            for (order, pts, bounds), buf in zip(self.ends, (self.ga, self.gb)):
                lo, hi = bounds[j], bounds[j + 1]
                buf[order[lo:hi]] = flat[:, pts[lo:hi]].T
        self.times.append(t)

    def quotients(self):
        if len(self.times) != self.count:
            raise InsufficientSnapshots("Hoelder sample incomplete")
        times = np.array(self.times)
        ta, tb = times[self.sa], times[self.sb]
        dist = np.maximum(self.space_dist, np.sqrt(np.abs(ta - tb)))
        diff = self.ga - self.gb
        num = np.max(np.abs(diff[:, :self.n]), axis=1)
        if self.n == 2:
            num = np.maximum(num, np.hypot(diff[:, 2], diff[:, 3]))
        mask = dist > 0
        quot = np.zeros(len(num))
        quot[mask] = num[mask] / dist[mask] ** monitors.HOLDER_ALPHA
        return np.maximum(ta, tb), quot


def _carry_forward_reference(records, attr, times, values):
    for rec in records:
        j = np.searchsorted(times, rec.t + 1e-12) - 1
        setattr(rec, attr, float(values[j]) if j >= 0 else 0.0)


def finalize_reference(series):
    """MonitorSeries.finalize for a series built with SortedHolderSample:
    the running max over the pairs sorted by time, carried per record."""
    if series.liyau.times:
        _carry_forward_reference(series.records, "liyau_max", *series.liyau.result())
    if series.holder is not None:
        t_pair, quot = series.holder.quotients()
        order = np.argsort(t_pair, kind="stable")
        _carry_forward_reference(series.records, "holder_seminorm", t_pair[order],
                                 np.maximum.accumulate(quot[order]))


def grad_sq_reference(f: np.ndarray, gprime: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """monitors._grad_sq with the cross term b_im (x_1 y_2 - x_2 y_1) in temporaries."""
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
    num /= det_field(gprime)
    return num


class GprimeLiYauWindow:
    """monitors.LiYauWindow that keeps the newest g' and forms the middle
    snapshot's |d f|^2 (by grad_sq_reference) when the value is due."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.window = []
        self.gprime = None
        self.times, self.values = [], []

    def add(self, t: float, u: np.ndarray, gprime: np.ndarray):
        if not u.min() > 0:
            raise NonPositiveU(f"non-positive u (min {u.min():.3e}) in Li-Yau diagnostic")
        self.window.append((t, np.log(u)))
        gp1, self.gprime = self.gprime, gprime
        if len(self.window) < 3:
            return
        (t0, f0), (t1, f1), (t2, f2) = self.window
        del self.window[0]
        grad_sq = grad_sq_reference(f1, gp1, self.grid)
        f_t = (f2 - f0) / (t2 - t0)
        self.times.append(t1)
        self.values.append(float(t1 * (grad_sq - monitors.LIYAU_ALPHA * f_t).max()))

    def result(self):
        if not self.times:
            raise InsufficientSnapshots("need >= 3 snapshots for centered time differences")
        return np.array(self.times), np.array(self.values)
