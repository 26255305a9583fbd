"""Fourier differentiation on the periodic grid.

Conventions, pinned once and covered by exactness tests:

  * holomorphic derivative:  d_i = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) / 2
  * the Nyquist mode of every odd-order derivative factor is zeroed
    (symmetric rule); even powers keep the true Nyquist magnitude
  * derivatives are exact to round-off for trigonometric polynomials
    resolved below the Nyquist shell

The complex Hessian d_i d_jbar f of a real field f is computed from the rfft
spectrum of f, which the flow's stages already hold, and returned in the
packed layout of hermitian.py.  Every packed entry is a real, even Fourier
multiplier applied to that spectrum: -(1/4)|kappa_i|^2 on the diagonal and,
for n = 2, the real and imaginary parts of -(1/4) conj(kappa_1) kappa_2
(kappa_i = k_{2i-1} + sqrt(-1) k_{2i}) for b, so one batched real irfftn
yields all n*n entries.

All operations are pure functions of their inputs.  FFT work is routed
through scipy.fft so the worker count can be capped via MAFLOW_THREADS.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

from .grid import ComplexField, ScalarField, TorusGrid
from .hermitian import inverse_stack, trace_pair


def _workers():
    """Worker cap from MAFLOW_THREADS (0 or unset = automatic)."""
    raw = os.environ.get("MAFLOW_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    return None if v <= 0 else v


def fftn(a):
    return _sfft.fftn(a, workers=_workers())


def ifftn(a):
    return _sfft.ifftn(a, workers=_workers())


def rfftn(a):
    return _sfft.rfftn(a, workers=_workers())


def irfftn(a, shape):
    return _sfft.irfftn(a, s=shape, workers=_workers())


@lru_cache(maxsize=32)
def _wavenumbers(n: int, N: int, period: float):
    """Per-axis angular wavenumbers.

    Returns dict with:
      k_odd[a]   : wavenumbers with the Nyquist entry zeroed (odd factors)
      k_odd_r[a] : the same, trimmed to the rfft half-spectrum on the last axis
      k_even2_r[a]: squared wavenumbers with true Nyquist magnitude (rfft layout)
    """
    d = 2 * n
    k1 = 2.0 * np.pi * np.fft.fftfreq(N, d=period / N)
    k_odd_1d = k1.copy()
    k_odd_1d[N // 2] = 0.0

    def _axis(vec, a, rfft):
        if rfft and a == d - 1:
            vec = vec[:N // 2 + 1]
        shape = [1] * d
        shape[a] = len(vec)
        return vec.reshape(shape)

    return {
        "k_odd": [_axis(k_odd_1d, a, False) for a in range(d)],
        "k_odd_r": [_axis(k_odd_1d, a, True) for a in range(d)],
        "k_even2_r": [_axis(k1**2, a, True) for a in range(d)],
    }


def _wn(grid: TorusGrid):
    return _wavenumbers(grid.complex_dim, grid.points_per_axis, grid.period)


@lru_cache(maxsize=32)
def _hessian_symbol(n: int, N: int, period: float) -> np.ndarray:
    """Real rfft symbols of the packed complex Hessian, shape (n*n,) + rfft shape.

    Diagonal entries -(1/4)(k_{2i-1}^2 + k_{2i}^2) keep the true Nyquist
    magnitude (even powers); the two parts of -(1/4) conj(kappa_1) kappa_2
    use the zeroed-Nyquist wavenumbers.  Every symbol is even in k, so it
    maps the spectrum of a real field to the spectrum of a real field.
    """
    w = _wavenumbers(n, N, period)
    k, k2 = w["k_odd_r"], w["k_even2_r"]
    rows = [-0.25 * (k2[2 * i] + k2[2 * i + 1]) for i in range(n)]
    if n == 2:
        rows += [-0.25 * (k[0] * k[2] + k[1] * k[3]),
                 -0.25 * (k[0] * k[3] - k[1] * k[2])]
    shape = (N,) * (2 * n - 1) + (N // 2 + 1,)
    sym = np.stack([np.broadcast_to(r, shape) for r in rows])
    sym.setflags(write=False)
    return sym


def mean_metric_symbol(g_mean: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """rfft symbol of the constant-coefficient Laplacian gbar^{i jbar} d_i d_jbar.

    g_mean is one packed Hermitian PD matrix, shape (n*n,); the symbol is
    real and <= 0, with the Nyquist conventions of the Hessian symbols.
    """
    return trace_pair(inverse_stack(g_mean), _hessian_symbol(
        grid.complex_dim, grid.points_per_axis, grid.period))


def d_real(f: ScalarField, axis: int) -> ScalarField:
    """Spectral derivative along a real axis (Nyquist mode zeroed)."""
    grid = f.grid
    if not 0 <= axis < grid.real_dim:
        raise ValueError(f"axis {axis} out of range for real dimension {grid.real_dim}")
    fh = fftn(f.values)
    out = ifftn(1j * _wn(grid)["k_odd"][axis] * fh)
    return ScalarField(grid, out.real)


def d_holo(f: ScalarField, i: int) -> ComplexField:
    """Holomorphic derivative d_i f, 1-based index i."""
    grid = f.grid
    n = grid.complex_dim
    if not 1 <= i <= n:
        raise ValueError(f"holomorphic index {i} out of range 1..{n}")
    dx = d_real(f, 2 * (i - 1)).values
    dy = d_real(f, 2 * (i - 1) + 1).values
    return ComplexField(grid, 0.5 * (dx - 1j * dy))


def d_antiholo(f: ScalarField, i: int) -> ComplexField:
    """Antiholomorphic derivative d_ibar f, 1-based index i."""
    grid = f.grid
    n = grid.complex_dim
    if not 1 <= i <= n:
        raise ValueError(f"antiholomorphic index {i} out of range 1..{n}")
    dx = d_real(f, 2 * (i - 1)).values
    dy = d_real(f, 2 * (i - 1) + 1).values
    return ComplexField(grid, 0.5 * (dx + 1j * dy))


def holo_gradient(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stack of d_i f for i = 1..n, shape grid.shape + (n,)."""
    n = grid.complex_dim
    fh = fftn(values)
    w = _wn(grid)
    out = np.empty(grid.shape + (n,), dtype=complex)
    for i in range(n):
        sym = 0.5j * (w["k_odd"][2 * i] - 1j * w["k_odd"][2 * i + 1])
        out[..., i] = ifftn(sym * fh)
    return out


def complex_hessian_values(fh: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Packed complex Hessian d_i d_jbar f from fh = rfftn(f) of a real f.

    Returns the real array of shape (n*n,) + grid.shape of hermitian.py,
    from one batched irfftn of the n*n real symbols times fh.
    """
    sym = _hessian_symbol(grid.complex_dim, grid.points_per_axis, grid.period)
    return irfftn(sym * fh, grid.shape)


class HessianField:
    """Packed complex Hessian samples of a real field."""

    def __init__(self, grid: TorusGrid, entries: np.ndarray):
        n = grid.complex_dim
        if entries.shape != (n * n,) + grid.shape:
            raise ValueError("hessian sample array has wrong shape")
        self.grid = grid
        self.entries = entries


def complex_hessian(f: ScalarField) -> HessianField:
    return HessianField(f.grid, complex_hessian_values(rfftn(f.values), f.grid))


def laplacian_values(values: np.ndarray, grid: TorusGrid, ginv: np.ndarray) -> np.ndarray:
    """g^{i jbar} d_i d_jbar f for a packed inverse metric ginv."""
    return trace_pair(ginv, complex_hessian_values(rfftn(values), grid))


def laplacian(f: ScalarField, ginv: np.ndarray) -> ScalarField:
    """Variable-coefficient complex Laplacian g^{i jbar} d_i d_jbar f."""
    return ScalarField(f.grid, laplacian_values(f.values, f.grid, ginv))


def spectral_tail(values: np.ndarray, grid: TorusGrid) -> float:
    """Relative amplitude of the Nyquist shell of a real field.

    Mode amplitudes are |fft| / num_points; the tail is the largest amplitude
    among modes with any axis at the Nyquist index, relative to the largest
    amplitude overall (0 for the zero field).
    """
    N = grid.points_per_axis
    fh = np.abs(fftn(values)) / grid.num_points
    peak = float(np.max(fh))
    if peak == 0.0:
        return 0.0
    shell_mask = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.real_dim):
        sl = [slice(None)] * grid.real_dim
        sl[a] = N // 2
        shell_mask[tuple(sl)] = True
    return float(np.max(fh[shell_mask]) / peak)
