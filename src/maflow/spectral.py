"""Fourier differentiation on the 2*pi-periodic grid.

Every axis has period 2*pi, so the wavenumbers are the integers
-N/2 .. N/2 - 1, kept in one table in the rfft layout (the last axis
trimmed to 0..N/2).  Every derivative is a Fourier multiplier applied to
the rfft spectrum of a real field and transformed back with irfftn; no
complex-to-complex transform runs.  Conventions, pinned once and covered
by exactness tests:

  * holomorphic derivative:  d_i = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) / 2,
    and d_ibar f = conj(d_i f) for real f
  * the Nyquist mode of every odd-order derivative factor is zeroed
    (symmetric rule); even powers keep the true Nyquist magnitude
  * derivatives are exact to round-off for trigonometric polynomials
    resolved below the Nyquist shell

The complex Hessian d_i d_jbar f is computed from the rfft spectrum of f,
which the flow's stages already hold, and returned in the packed layout of
hermitian.py.  Every packed entry is a real, even Fourier multiplier:
-(1/4)|kappa_i|^2 on the diagonal and, for n = 2, the real and imaginary
parts of -(1/4) conj(kappa_1) kappa_2 (kappa_i = k_{2i-1} + sqrt(-1) k_{2i})
for b, so one batched real irfftn yields all n*n entries.  First
derivatives take one irfftn per real axis.

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
    # no caller in the package; kept because perfbench/tracer.py wraps it by name
    return _sfft.fftn(a, workers=_workers())


def ifftn(a):
    # no caller in the package; kept because perfbench/tracer.py wraps it by name
    return _sfft.ifftn(a, workers=_workers())


def rfftn(a):
    return _sfft.rfftn(a, workers=_workers())


def irfftn(a, shape):
    return _sfft.irfftn(a, s=shape, workers=_workers())


@lru_cache(maxsize=32)
def _wavenumbers(n: int, N: int):
    """Per-axis integer wavenumbers in the rfft layout, broadcastable.

    Returns (k_odd, k_even2): k_odd[a] has the Nyquist entry zeroed (odd
    factors), k_even2[a] = k^2 keeps the true Nyquist magnitude (even
    powers).  The last axis is trimmed to the rfft half-spectrum 0..N/2.
    """
    d = 2 * n
    k = np.fft.fftfreq(N, d=1.0 / N)
    k_odd = k.copy()
    k_odd[N // 2] = 0.0

    def _axis(vec, a):
        if a == d - 1:
            vec = vec[:N // 2 + 1]
        shape = [1] * d
        shape[a] = len(vec)
        return vec.reshape(shape)

    return [_axis(k_odd, a) for a in range(d)], [_axis(k * k, a) for a in range(d)]


@lru_cache(maxsize=32)
def _hessian_symbol(n: int, N: int) -> np.ndarray:
    """Real rfft symbols of the packed complex Hessian, shape (n*n,) + rfft shape.

    Diagonal entries -(1/4)(k_{2i-1}^2 + k_{2i}^2) keep the true Nyquist
    magnitude (even powers); the two parts of -(1/4) conj(kappa_1) kappa_2
    use the zeroed-Nyquist wavenumbers.  Every symbol is even in k, so it
    maps the spectrum of a real field to the spectrum of a real field.
    """
    k, k2 = _wavenumbers(n, N)
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
    return trace_pair(inverse_stack(g_mean),
                      _hessian_symbol(grid.complex_dim, grid.points_per_axis))


def _d_axis(fh: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    """Real derivative along a real axis from fh = rfftn(f) of a real f."""
    k_odd, _ = _wavenumbers(grid.complex_dim, grid.points_per_axis)
    return irfftn(1j * k_odd[axis] * fh, grid.shape)


def d_real(f: ScalarField, axis: int) -> ScalarField:
    """Spectral derivative along a real axis (Nyquist mode zeroed)."""
    grid = f.grid
    if not 0 <= axis < grid.real_dim:
        raise ValueError(f"axis {axis} out of range for real dimension {grid.real_dim}")
    return ScalarField(grid, _d_axis(rfftn(f.values), grid, axis))


def d_holo(f: ScalarField, i: int) -> ComplexField:
    """Holomorphic derivative d_i f, 1-based index i."""
    grid = f.grid
    n = grid.complex_dim
    if not 1 <= i <= n:
        raise ValueError(f"holomorphic index {i} out of range 1..{n}")
    return ComplexField(grid, holo_gradient(f.values, grid)[..., i - 1])


def d_antiholo(f: ScalarField, i: int) -> ComplexField:
    """Antiholomorphic derivative d_ibar f = conj(d_i f) of the real f, 1-based i."""
    return ComplexField(f.grid, np.conj(d_holo(f, i).values))


def holo_gradient(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stack of d_i f for i = 1..n of a real f, shape grid.shape + (n,).

    d_i f = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) f / 2 has real part
    d/dx_{2i-1} f / 2 and imaginary part -d/dx_{2i} f / 2, each written in
    place from one irfftn.
    """
    fh = rfftn(values)
    out = np.empty(grid.shape + (grid.complex_dim,), dtype=complex)
    for i in range(grid.complex_dim):
        out[..., i].real = 0.5 * _d_axis(fh, grid, 2 * i)
        out[..., i].imag = -0.5 * _d_axis(fh, grid, 2 * i + 1)
    return out


def complex_hessian_values(fh: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Packed complex Hessian d_i d_jbar f from fh = rfftn(f) of a real f.

    Returns the real array of shape (n*n,) + grid.shape of hermitian.py,
    from one batched irfftn of the n*n real symbols times fh.
    """
    sym = _hessian_symbol(grid.complex_dim, grid.points_per_axis)
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

    Mode amplitudes are |rfftn| / num_points (the half-spectrum holds every
    amplitude of a real field, since |f^(-k)| = |f^(k)|); the tail is the
    largest amplitude among modes with any axis at the Nyquist index,
    relative to the largest amplitude overall (0 for the zero field).
    """
    N = grid.points_per_axis
    fh = np.abs(rfftn(values)) / grid.num_points
    peak = float(np.max(fh))
    if peak == 0.0:
        return 0.0
    shell_mask = np.zeros(fh.shape, dtype=bool)
    for a in range(grid.real_dim):
        sl = [slice(None)] * grid.real_dim
        sl[a] = N // 2
        shell_mask[tuple(sl)] = True
    return float(np.max(fh[shell_mask]) / peak)
