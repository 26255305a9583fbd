"""Fourier differentiation on the periodic grid.

Conventions, pinned once and covered by exactness tests:

  * holomorphic derivative:  d_i = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) / 2
  * the Nyquist mode of every odd-order derivative factor is zeroed
    (symmetric rule); even powers keep the true Nyquist magnitude
  * derivatives are exact to round-off for trigonometric polynomials
    resolved below the Nyquist shell

All operations are pure functions of their inputs.  FFT work is routed
through scipy.fft so the worker count can be capped via MAFLOW_THREADS.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

from .errors import ImaginaryResidue
from .grid import ComplexField, ScalarField, TorusGrid
from .hermitian import inverse_stack


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
    """Per-axis angular wavenumbers, full and rfft layouts.

    Returns dict with:
      k_odd[a]  : wavenumbers with the Nyquist entry zeroed (odd factors)
      k_even2[a]: squared wavenumbers with true Nyquist magnitude
      and the same arrays trimmed to the rfft half-spectrum on the last axis.
    """
    d = 2 * n
    k1 = 2.0 * np.pi * np.fft.fftfreq(N, d=period / N)
    k_odd_1d = k1.copy()
    k_odd_1d[N // 2] = 0.0
    k_even2_1d = k1**2

    def _axis(vec, a, length):
        shape = [1] * d
        shape[a] = length
        return vec.reshape(shape)

    half = N // 2 + 1
    k_odd, k_even2, k_odd_r, k_even2_r = [], [], [], []
    for a in range(d):
        k_odd.append(_axis(k_odd_1d, a, N))
        k_even2.append(_axis(k_even2_1d, a, N))
        if a == d - 1:
            k_odd_r.append(_axis(k_odd_1d[:half], a, half))
            k_even2_r.append(_axis(k_even2_1d[:half], a, half))
        else:
            k_odd_r.append(k_odd[-1])
            k_even2_r.append(k_even2[-1])
    return {
        "k_odd": k_odd,
        "k_even2": k_even2,
        "k_odd_r": k_odd_r,
        "k_even2_r": k_even2_r,
    }


def _wn(grid: TorusGrid):
    return _wavenumbers(grid.complex_dim, grid.points_per_axis, grid.period)


@lru_cache(maxsize=32)
def _hessian_symbols(n: int, N: int, period: float):
    """Fourier symbols of d_i d_jbar for the full complex spectrum.

    sym[i][j] = -(1/4) conj(kappa_i) kappa_j with kappa_i = k_{2i-1} + i k_{2i};
    diagonal entries use true Nyquist magnitudes (even powers), mixed entries
    use the zeroed-Nyquist wavenumbers.
    """
    w = _wavenumbers(n, N, period)
    sym = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                sym[i][j] = -0.25 * (w["k_even2"][2 * i] + w["k_even2"][2 * i + 1])
            else:
                kap_i = w["k_odd"][2 * i] + 1j * w["k_odd"][2 * i + 1]
                kap_j = w["k_odd"][2 * j] + 1j * w["k_odd"][2 * j + 1]
                sym[i][j] = -0.25 * np.conj(kap_i) * kap_j
    return sym


@lru_cache(maxsize=32)
def _laplace_symbol_r(n: int, N: int, period: float):
    """Real rfft symbol of the flat sum of d_i d_ibar (n=1 hot path uses it)."""
    w = _wavenumbers(n, N, period)
    s = 0.0
    for i in range(n):
        s = s - 0.25 * (w["k_even2_r"][2 * i] + w["k_even2_r"][2 * i + 1])
    return s


def mean_metric_symbol(g_mean: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """rfft symbol of the constant-coefficient Laplacian gbar^{i jbar} d_i d_jbar.

    g_mean is one Hermitian PD n x n matrix; the symbol is real and <= 0,
    with the Nyquist conventions of the Hessian symbols above.
    """
    n = grid.complex_dim
    w = _wn(grid)
    ginv = inverse_stack(g_mean[None, ...])[0]
    total = None
    for i in range(n):
        kap_i = w["k_odd_r"][2 * i] + 1j * w["k_odd_r"][2 * i + 1]
        for j in range(n):
            kap_j = w["k_odd_r"][2 * j] + 1j * w["k_odd_r"][2 * j + 1]
            if i == j:
                term = -0.25 * ginv[j, i].real * (
                    w["k_even2_r"][2 * i] + w["k_even2_r"][2 * i + 1])
            else:
                term = np.real(-0.25 * ginv[j, i] * np.conj(kap_i) * kap_j)
            total = term if total is None else total + term
    return np.broadcast_to(total, grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)).copy()


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


def complex_hessian_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Complex Hessian d_i d_jbar f, shape grid.shape + (n, n), exact Hermitian."""
    n = grid.complex_dim
    if n == 1:
        fh = rfftn(values)
        h = irfftn(_laplace_symbol_r(1, grid.points_per_axis, grid.period) * fh, grid.shape)
        out = h.astype(complex).reshape(grid.shape + (1, 1))
        return out
    sym = _hessian_symbols(n, grid.points_per_axis, grid.period)
    fh = fftn(values)
    out = np.empty(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        out[..., i, i] = ifftn(sym[i][i] * fh).real
        for j in range(i + 1, n):
            hij = ifftn(sym[i][j] * fh)
            out[..., i, j] = hij
            out[..., j, i] = np.conj(hij)
    return out


class HessianField:
    """Complex Hessian samples of a real field (Hermitian at every point)."""

    def __init__(self, grid: TorusGrid, mats: np.ndarray):
        n = grid.complex_dim
        if mats.shape != grid.shape + (n, n):
            raise ValueError("hessian sample array has wrong shape")
        self.grid = grid
        self.mats = mats


def complex_hessian(f: ScalarField) -> HessianField:
    return HessianField(f.grid, complex_hessian_values(f.values, f.grid))


def contract_inverse(ginv_mats: np.ndarray, h_mats: np.ndarray) -> np.ndarray:
    """Pointwise g^{i jbar} h_{i jbar} = tr(Ginv @ H) over the grid (complex)."""
    return np.einsum("...ij,...ji->...", ginv_mats, h_mats)


def laplacian_values(values: np.ndarray, grid: TorusGrid, ginv_mats: np.ndarray,
                     imag_tol: float = 1e-10) -> np.ndarray:
    h = complex_hessian_values(values, grid)
    lap = contract_inverse(ginv_mats, h)
    resid = float(np.max(np.abs(lap.imag))) if np.iscomplexobj(lap) else 0.0
    if resid > imag_tol:
        raise ImaginaryResidue(f"laplacian imaginary residue {resid:.3e} exceeds {imag_tol:.1e}")
    return lap.real if np.iscomplexobj(lap) else lap


def laplacian(f: ScalarField, metric_inv) -> ScalarField:
    """Variable-coefficient complex Laplacian g^{i jbar} d_i d_jbar f."""
    mats = metric_inv.mats if hasattr(metric_inv, "mats") else metric_inv
    return ScalarField(f.grid, laplacian_values(f.values, f.grid, mats))


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
