import numpy as np
import pytest

from maflow.grid import ScalarField, TorusGrid, volume_weights, integrate
from maflow.hermitian import inverse_stack, unpack
from maflow.spectral import (
    complex_hessian,
    complex_hessian_values,
    d_antiholo,
    d_holo,
    d_real,
    laplacian,
    rfftn,
    spectral_tail,
)

from conftest import field_from


def test_d_real_trig_exact(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]))
    df = d_real(f, 0)
    expected = field_from(grid1, lambda c: np.cos(c[0]))
    assert np.max(np.abs(df.values - expected.values)) <= 1e-13


def test_d_real_constant_is_zero(grid1):
    f = ScalarField(grid1, np.full(grid1.shape, 2.25))
    assert np.max(np.abs(d_real(f, 0).values)) <= 1e-14
    assert np.max(np.abs(d_real(f, 1).values)) <= 1e-14


def test_d_real_resolution_doubling():
    # e^{sin x} is analytic but not band-limited; N = 32 resolves it to
    # round-off, so the derivative agrees with the 2N one at shared points
    outs = {}
    for N in (32, 64):
        grid = TorusGrid(1, N)
        f = field_from(grid, lambda c: np.exp(np.sin(c[0])))
        outs[N] = d_real(f, 0).values
    assert np.max(np.abs(outs[32] - outs[64][::2, ::2])) <= 1e-10


def test_d_real_commutes_across_axes(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) * np.cos(2 * c[1]) + np.cos(c[0]))
    a = d_real(d_real(f, 0), 1).values
    b = d_real(d_real(f, 1), 0).values
    assert np.max(np.abs(a - b)) <= 1e-12


def test_d_holo_conventions(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]) + np.sin(c[1]))
    dh = d_holo(f, 1)
    da = d_antiholo(f, 1)
    # conjugation identity for real fields
    assert np.max(np.abs(da.values - np.conj(dh.values))) <= 1e-14
    # x-independent slice: zero derivative
    g = ScalarField(grid1, np.full(grid1.shape, 1.0))
    assert np.max(np.abs(d_holo(g, 1).values)) <= 1e-14


def test_d_holo_then_antiholo_is_quarter_laplacian(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]) * np.cos(c[1]))
    dh = d_holo(f, 1).values
    # d_antiholo of the complex intermediate, done by parts
    re = ScalarField(grid1, dh.real.copy())
    im = ScalarField(grid1, dh.imag.copy())
    mixed = d_antiholo(re, 1).values + 1j * d_antiholo(im, 1).values
    lap_quarter = 0.25 * (d_real(d_real(f, 0), 0).values + d_real(d_real(f, 1), 1).values)
    assert np.max(np.abs(mixed - lap_quarter)) <= 1e-13


def test_hessian_constant_zero(grid2):
    f = ScalarField(grid2, np.full(grid2.shape, 0.3))
    h = complex_hessian(f)
    assert np.max(np.abs(h.entries)) <= 1e-14


def test_hessian_cos_closed_form(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]))
    h = complex_hessian(f)
    expected = field_from(grid1, lambda c: -0.25 * np.cos(c[0]))
    assert np.max(np.abs(h.entries[0] - expected.values)) <= 1e-13


def _fd4(vals, axis, h):
    def roll(k):
        return np.roll(vals, -k, axis=axis)
    return (-roll(2) + 8 * roll(1) - 8 * roll(-1) + roll(-2)) / (12 * h)


def test_hessian_matches_finite_differences():
    # independent 4th-order periodic finite-difference oracle; |k| <= 1 modes
    # keep the FD truncation (~ k^5 h^4 / 30 per derivative) near 1e-3
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(3)
    coords = grid.axis_coordinates()
    vals = np.zeros(grid.shape)
    for _ in range(6):
        k = rng.integers(-1, 2, size=4)
        vals = vals + rng.normal() * np.cos(sum(k[a] * coords[a] for a in range(4))
                                            + rng.uniform(0, 2 * np.pi))
    h = grid.spacing
    hess = unpack(complex_hessian_values(rfftn(vals), grid))
    for i in range(2):
        for j in range(2):
            dx_i, dy_i = 2 * i, 2 * i + 1
            dx_j, dy_j = 2 * j, 2 * j + 1
            # d_i d_jbar = 1/4 [(d_xi d_xj + d_yi d_yj) + i (d_xi d_yj - d_yi d_xj)]
            re = _fd4(_fd4(vals, dx_j, h), dx_i, h) + _fd4(_fd4(vals, dy_j, h), dy_i, h)
            im = _fd4(_fd4(vals, dy_j, h), dx_i, h) - _fd4(_fd4(vals, dx_j, h), dy_i, h)
            fd = 0.25 * (re + 1j * im)
            assert np.max(np.abs(hess[..., i, j] - fd)) <= 5e-3  # O(h^4)


def test_hessian_hermitian_pointwise(grid2):
    rng = np.random.default_rng(11)
    coords = grid2.axis_coordinates()
    vals = sum(rng.normal() * np.cos(sum(int(rng.integers(-2, 3)) * coords[a]
                                         for a in range(4)))
               for _ in range(5))
    vals = np.broadcast_to(vals, grid2.shape).copy()
    h = unpack(complex_hessian_values(rfftn(vals), grid2))
    assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) <= 1e-12


def test_laplacian_flat_closed_form(grid1, flat1):
    ginv = inverse_stack(flat1.entries)
    f = field_from(grid1, lambda c: np.cos(c[0]))
    lap = laplacian(f, ginv)
    expected = -0.25 * ginv[0] * np.cos(grid1.axis_coordinates()[0])
    assert np.max(np.abs(lap.values - np.broadcast_to(expected, grid1.shape))) <= 1e-13
    zero = laplacian(ScalarField(grid1, np.full(grid1.shape, 5.0)), ginv)
    assert np.max(np.abs(zero.values)) <= 1e-13


def test_laplacian_mean_zero_for_constant_metric(grid2, flat2):
    ginv = inverse_stack(flat2.entries)
    w = volume_weights(flat2)
    f = field_from(grid2, lambda c: np.sin(c[0]) * np.cos(c[2]) + np.cos(c[1] + c[3]))
    lap = laplacian(f, ginv)
    assert abs(integrate(lap, w)) <= 1e-12


def test_spectral_accuracy_refinement():
    # error shrinks at least 10x per doubling until round-off
    errs = []
    for N in (8, 16, 32):
        grid = TorusGrid(1, N)
        f = field_from(grid, lambda c: np.exp(np.sin(c[0]) + 0.5 * np.cos(c[1])))
        df = d_real(f, 0)
        exact = field_from(grid, lambda c: np.cos(c[0])
                           * np.exp(np.sin(c[0]) + 0.5 * np.cos(c[1])))
        errs.append(float(np.max(np.abs(df.values - exact.values))))
    assert errs[1] <= errs[0] / 10 or errs[1] <= 1e-12
    assert errs[2] <= errs[1] / 10 or errs[2] <= 1e-12


def test_linearity(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) + 0.3 * np.cos(c[1]))
    g = field_from(grid1, lambda c: np.cos(2 * c[0]))
    lhs = d_real(ScalarField(grid1, 2.0 * f.values + 3.0 * g.values), 0).values
    rhs = 2.0 * d_real(f, 0).values + 3.0 * d_real(g, 0).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_spectral_tail_flags_rough_fields(grid1):
    smooth = field_from(grid1, lambda c: np.cos(c[0]))
    assert spectral_tail(smooth.values, grid1) <= 1e-14
    rng = np.random.default_rng(0)
    rough = rng.normal(size=grid1.shape)
    assert spectral_tail(rough, grid1) > 1e-3


def test_holo_index_validation(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]))
    with pytest.raises(ValueError):
        d_holo(f, 0)
    with pytest.raises(ValueError):
        d_holo(f, 2)
    with pytest.raises(ValueError):
        d_real(f, 2)


def _c2c_hessian(vals, grid):
    """Complex Hessian by full complex FFTs, one entry at a time (test oracle).

    Diagonal symbols keep the true Nyquist magnitude; the mixed entry uses
    wavenumbers with the Nyquist mode zeroed.
    """
    n, N, d = grid.complex_dim, grid.points_per_axis, grid.real_dim
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k_odd = k.copy()
    k_odd[N // 2] = 0.0

    def ax(v, a):
        return v.reshape([N if b == a else 1 for b in range(d)])

    fh = np.fft.fftn(vals)
    out = np.empty(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                sym = -0.25 * (ax(k**2, 2 * i) + ax(k**2, 2 * i + 1))
                out[..., i, i] = np.fft.ifftn(sym * fh).real
            else:
                kap_i = ax(k_odd, 2 * i) + 1j * ax(k_odd, 2 * i + 1)
                kap_j = ax(k_odd, 2 * j) + 1j * ax(k_odd, 2 * j + 1)
                out[..., i, j] = np.fft.ifftn(-0.25 * np.conj(kap_i) * kap_j * fh)
    return out


@pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8), TorusGrid(2, 16, period=3.0)])
def test_packed_hessian_matches_c2c_oracle(grid):
    # white noise exercises every mode, the Nyquist shell included
    vals = np.random.default_rng(8).normal(size=grid.shape)
    want = _c2c_hessian(vals, grid)
    got = unpack(complex_hessian_values(rfftn(vals), grid))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
