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

The packed complex Hessian d_i d_jbar f of hermitian.py has two kernels
behind one entry point, complex_hessian_values.  symbol_hessian_values, the
transform-based reference, multiplies the spectrum by real, even symbols:
-(1/4)|kappa_i|^2 on the diagonal and, for n = 2, the real and imaginary
parts of -(1/4) conj(kappa_1) kappa_2 (kappa_i = k_{2i-1} + sqrt(-1) k_{2i})
for b, so one batched real irfftn yields all n*n entries.
matrix_hessian_values (n = 2) applies the same per-axis multipliers, with
the same Nyquist rules, as real N x N matrices along the axes of the grid
values.  half_derivatives, the Li-Yau monitor's 2n real half-derivatives,
has the same two kernels; half_derivative forms one row of the n = 2 kernel.
holo_gradient, the complex stack of the d_i f,
serves the tests as the transform-based reference.

All operations are pure functions of their inputs.  rfftn and irfftn call
the pocketfft extension that scipy.fft wraps, with the arguments scipy.fft's
own rfftn and irfftn pass it (one worker), so their bits are scipy.fft's
without its per-call dispatch; every caller reaches them by these names.
fftn and ifftn are imported only for perfbench/tracer.py, which wraps them
by name; rfft and irfft build the cached derivative matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from typing import Optional

import numpy as np
from scipy.fft import fftn, ifftn, irfft, rfft  # noqa: F401  fftn, ifftn: see above
from scipy.fft._pocketfft import pypocketfft

from .grid import TorusGrid
from .hermitian import inverse_stack, trace_pair


def rfftn(x: np.ndarray) -> np.ndarray:
    """rfft spectrum of a real float64 array over all its axes: scipy.fft.rfftn(x)."""
    return pypocketfft.r2c(x, range(x.ndim), True, 0, None, 1)


def irfftn(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Real array of the given shape from the rfft spectrum x over its last
    len(shape) axes (leading axes batch): scipy.fft.irfftn(x, shape)."""
    return pypocketfft.c2r(x, range(x.ndim - len(shape), x.ndim), shape[-1], False, 2, None, 1)


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


def _hessian_rows(n: int, N: int) -> list:
    """Real rfft symbols of the packed complex Hessian, one broadcastable
    array per packed entry.

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
    return rows


@lru_cache(maxsize=32)
def _hessian_symbol(n: int, N: int) -> np.ndarray:
    """_hessian_rows stacked at full size, shape (n*n,) + rfft shape."""
    shape = (N,) * (2 * n - 1) + (N // 2 + 1,)
    sym = np.stack([np.broadcast_to(r, shape) for r in _hessian_rows(n, N)])
    sym.setflags(write=False)
    return sym


def mean_metric_symbol(g_mean: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """rfft symbol of the constant-coefficient Laplacian gbar^{i jbar} d_i d_jbar.

    g_mean is one packed Hermitian PD matrix, shape (n*n,); the symbol is
    real and <= 0, with the Nyquist conventions of the Hessian symbols.  It
    is formed from the broadcastable rows, so no stacked symbol is made or
    cached; the values are those of trace_pair with _hessian_symbol.
    """
    return trace_pair(inverse_stack(g_mean),
                      _hessian_rows(grid.complex_dim, grid.points_per_axis))


def holo_gradient(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stack of d_i f for i = 1..n of a real f, shape grid.shape + (n,).

    d_i f = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) f / 2 has real part
    d/dx_{2i-1} f / 2 and imaginary part -d/dx_{2i} f / 2; the 2n real
    derivatives come from one batched irfftn.
    """
    fh = rfftn(values)
    k_odd, _ = _wavenumbers(grid.complex_dim, grid.points_per_axis)
    d = irfftn(np.stack([1j * k * fh for k in k_odd]), grid.shape)
    out = np.empty(grid.shape + (grid.complex_dim,), dtype=complex)
    for i in range(grid.complex_dim):
        out[..., i].real = 0.5 * d[2 * i]
        out[..., i].imag = -0.5 * d[2 * i + 1]
    return out


def symbol_hessian_values(fh: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Packed complex Hessian d_i d_jbar f from fh = rfftn(f) of a real f, by
    its Fourier symbols: the transform-based reference.

    Returns the real array of shape (n*n,) + grid.shape of hermitian.py,
    from one batched irfftn of the n*n real symbols times fh.
    """
    return irfftn(_hessian_symbol(grid.complex_dim, grid.points_per_axis) * fh, grid.shape)


def complex_hessian_values(fh: np.ndarray, grid: TorusGrid,
                           values: Optional[np.ndarray] = None) -> np.ndarray:
    """Packed complex Hessian of a real f from fh = rfftn(f): the symbols on
    fh for n = 1, the matrices on f's grid values for n = 2 (values, or one
    irfftn of fh when they are not given)."""
    if grid.complex_dim == 1:
        return symbol_hessian_values(fh, grid)
    if values is None:
        values = irfftn(fh, grid.shape)
    return matrix_hessian_values(values, grid)


@lru_cache(maxsize=32)
def _derivative_matrices(N: int):
    """Real N x N matrices (D1, D2) of d/dx / 2 and d^2/dx^2 / 4 on one axis.

    Column j is the derivative of the j-th unit vector, taken with the rfft
    multipliers of _wavenumbers: sqrt(-1) k / 2 with the Nyquist entry zeroed
    and -k^2 / 4 with the true Nyquist magnitude.  The halves and quarters
    are exact, so D1 along two axes and D2 along one are the Hessian
    symbols' factors to round-off.
    """
    k_odd, k2 = (w[-1].ravel() for w in _wavenumbers(1, N))
    eye_hat = rfft(np.eye(N), axis=0)
    mats = tuple(irfft(sym[:, None] * eye_hat, N, axis=0)
                 for sym in (0.5j * k_odd, -0.25 * k2))
    for m in mats:
        m.setflags(write=False)
    return mats


def _along(mat: np.ndarray, values: np.ndarray, axis: int, out=None) -> np.ndarray:
    """mat applied along one axis of values, as one BLAS matmul on a reshaped view."""
    N = len(mat)
    if axis == values.ndim - 1:
        a, b, shape = values.reshape(-1, N), mat.T, (-1, N)
    else:
        a, b, shape = mat, values.reshape(N ** axis, N, -1), (N ** axis, N, -1)
    res = np.matmul(a, b, out=None if out is None else out.reshape(shape))
    return res.reshape(values.shape)


def matrix_hessian_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Packed complex Hessian d_i d_jbar f from the grid values of a real f, n = 2.

    The operator of symbol_hessian_values, applied as the real matrices of
    _derivative_matrices along the axes: a = (D2_1 + D2_2) f, d = (D2_3 + D2_4) f
    and, from p = D1_1 f and q = D1_2 f, Re b = D1_3 p + D1_4 q and
    Im b = D1_4 p - D1_3 q (X_a: X along real axis a).  For N up to a few
    dozen this costs less than the batched irfftn of the four spectra.
    """
    D1, D2 = _derivative_matrices(grid.points_per_axis)
    out = np.empty((4,) + values.shape)
    for i in (0, 1):
        _along(D2, values, 2 * i, out[i])
        out[i] += _along(D2, values, 2 * i + 1)
    p = _along(D1, values, 0)
    _along(D1, p, 2, out[2])
    _along(D1, p, 3, out[3])
    del p
    q = _along(D1, values, 1)
    out[2] += _along(D1, q, 3)
    out[3] -= _along(D1, q, 2)
    return out


def half_derivative(values: np.ndarray, grid: TorusGrid, a: int, out=None) -> np.ndarray:
    """Row a (0-based) of half_derivatives for n = 2: one matmul, so a row
    formed again has the same bits."""
    D1, _ = _derivative_matrices(grid.points_per_axis)
    return _along(D1, values, a, out)


def half_derivatives(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The 2n real half-derivatives (d/dx_a) f / 2 of a real f, shape (2n,) + grid.shape.

    With x_a the a-th row (a = 1 .. 2n), d_i f = x_{2i-1} - sqrt(-1) x_{2i}.
    The multiplier is sqrt(-1) k / 2 with the Nyquist entry zeroed.  For n = 2
    it is D1 of _derivative_matrices along each axis, four matmuls and no
    transform; for n = 1 it is one batched irfftn, which gives the bits of
    holo_gradient's real and imaginary parts (up to the sign of the latter).
    """
    if grid.complex_dim == 2:
        out = np.empty((4,) + values.shape)
        for a in range(4):
            half_derivative(values, grid, a, out[a])
        return out
    fh = rfftn(values)
    k_odd, _ = _wavenumbers(1, grid.points_per_axis)
    return irfftn(np.stack([0.5j * k * fh for k in k_odd]), grid.shape)


def laplacian_values(values: np.ndarray, grid: TorusGrid, ginv: np.ndarray) -> np.ndarray:
    """g^{i jbar} d_i d_jbar f for a packed inverse metric ginv."""
    return trace_pair(ginv, symbol_hessian_values(rfftn(values), grid))


def prolong(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Trigonometric interpolant of a real field from a coarser grid, sampled on grid.

    values holds M points per axis (M even, M <= N); its rfft spectrum is
    zero-padded to N points per axis with the coarse Nyquist shell (any
    axis at index M/2) zeroed, as for the odd derivative factors.  Exact
    for trigonometric polynomials resolved below that shell; taking every
    (N/M)-th sample back gives values less their Nyquist-shell modes.
    """
    M, N = values.shape[0], grid.points_per_axis
    ch = rfftn(values)
    fh = np.zeros(grid.shape[:-1] + (N // 2 + 1,), dtype=complex)
    low = (slice(0, M // 2), slice(0, M // 2))            # k = 0 .. M/2 - 1
    high = (slice(M // 2 + 1, M), slice(N - M // 2 + 1, N))  # k = -M/2 + 1 .. -1
    for blocks in itertools.product((low, high), repeat=values.ndim - 1):
        src = tuple(b[0] for b in blocks) + (low[0],)
        dst = tuple(b[1] for b in blocks) + (low[1],)
        fh[dst] = ch[src]
    return irfftn(fh * (N / M) ** values.ndim, grid.shape)


def shell_amplitudes(fh: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Largest mode amplitude |fh| / num_points in each l-infinity shell
    s = max_a |k_a| = 0 .. N/2 of a real field f from fh = rfftn(f)."""
    _, k2 = _wavenumbers(grid.complex_dim, grid.points_per_axis)
    shell = np.sqrt(reduce(np.maximum, k2)).astype(int)
    amp = np.zeros(grid.points_per_axis // 2 + 1)
    np.maximum.at(amp, shell.ravel(), np.abs(fh).ravel() / grid.num_points)
    return amp


def spectral_tail(fh: np.ndarray, grid: TorusGrid) -> float:
    """Relative amplitude of the Nyquist shell of a real field f from fh = rfftn(f).

    Mode amplitudes are |fh| / num_points (the half-spectrum holds every
    amplitude of a real field, since |f^(-k)| = |f^(k)|); the tail is the
    largest amplitude among modes with any axis at the Nyquist index,
    relative to the largest amplitude overall (0 for the zero field).  The
    maxima of |fh| are divided by num_points: monotone, so the same bits.
    """
    fh = np.abs(fh)
    peak = float(fh.max()) / grid.num_points
    if peak == 0.0:
        return 0.0
    # the shell is the union of one index plane per axis: views, no mask
    tail = max(float(fh[(slice(None),) * a + (grid.points_per_axis // 2,)].max())
               for a in range(grid.real_dim))
    return tail / grid.num_points / peak
