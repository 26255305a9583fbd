"""Reference helpers shared by the tests; the package never calls them.

``pack``/``unpack`` bridge the packed Hermitian layout of maflow.hermitian
and full (..., n, n) complex matrices, ``kahler_defect`` measures the
torsion of a metric preset, and ``liyau_quantity`` feeds a whole list of
snapshots to the streaming LiYauWindow.
"""

from typing import Iterable

import numpy as np

from maflow.grid import MetricField, TorusGrid
from maflow.monitors import LiYauWindow
from maflow.spectral import holo_gradient


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
