import numpy as np
import pytest

from maflow.grid import TorusGrid, integrate_values, volume_weights
from maflow.hermitian import inverse_stack
from maflow.spectral import (
    complex_hessian_values,
    half_derivatives,
    holo_gradient,
    irfftn,
    laplacian_values,
    matrix_hessian_values,
    prolong,
    rfftn,
    shell_amplitudes,
    spectral_tail,
    symbol_hessian_values,
)

from conftest import field_from
from reference import spectral_tail_reference, unpack


def d_axis(vals, grid, a):
    """d/dx_a f read off holo_gradient: d_i f = (d/dx_{2i-1} - sqrt(-1) d/dx_{2i}) f / 2,
    so the odd axis is twice its real part and the even axis minus twice its
    imaginary part (0-based a = 2i-2 and 2i-1)."""
    dz = holo_gradient(vals, grid)[..., a // 2]
    return 2.0 * dz.real if a % 2 == 0 else -2.0 * dz.imag


def test_d_real_trig_exact(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]))
    df = d_axis(f.values, grid1, 0)
    expected = field_from(grid1, lambda c: np.cos(c[0]))
    assert np.max(np.abs(df - expected.values)) <= 1e-13


def test_d_real_constant_is_zero(grid1):
    f = np.full(grid1.shape, 2.25)
    assert np.max(np.abs(d_axis(f, grid1, 0))) <= 1e-14
    assert np.max(np.abs(d_axis(f, grid1, 1))) <= 1e-14


def test_d_real_resolution_doubling():
    # e^{sin x} is analytic but not band-limited; N = 32 resolves it to
    # round-off, so the derivative agrees with the 2N one at shared points
    outs = {}
    for N in (32, 64):
        grid = TorusGrid(1, N)
        f = field_from(grid, lambda c: np.exp(np.sin(c[0])))
        outs[N] = d_axis(f.values, grid, 0)
    assert np.max(np.abs(outs[32] - outs[64][::2, ::2])) <= 1e-10


def test_d_real_commutes_across_axes(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) * np.cos(2 * c[1]) + np.cos(c[0])).values
    a = d_axis(d_axis(f, grid1, 0), grid1, 1)
    b = d_axis(d_axis(f, grid1, 1), grid1, 0)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_d_holo_conventions(grid1):
    # d_1 = (d/dx - sqrt(-1) d/dy) / 2 on f = cos x + sin y
    f = field_from(grid1, lambda c: np.cos(c[0]) + np.sin(c[1]))
    dh = holo_gradient(f.values, grid1)[..., 0]
    x, y = grid1.axis_coordinates()
    assert np.max(np.abs(dh - 0.5 * (-np.sin(x) - 1j * np.cos(y)))) <= 1e-14
    # x-independent slice: zero derivative
    assert np.max(np.abs(holo_gradient(np.full(grid1.shape, 1.0), grid1))) <= 1e-14


def test_d_holo_then_antiholo_is_quarter_laplacian(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]) * np.cos(c[1])).values
    dh = holo_gradient(f, grid1)[..., 0]
    # d_1bar of the complex intermediate, done by parts (d_1bar h = conj(d_1 h) for real h)
    mixed = (np.conj(holo_gradient(dh.real.copy(), grid1)[..., 0])
             + 1j * np.conj(holo_gradient(dh.imag.copy(), grid1)[..., 0]))
    lap_quarter = 0.25 * (d_axis(d_axis(f, grid1, 0), grid1, 0)
                          + d_axis(d_axis(f, grid1, 1), grid1, 1))
    assert np.max(np.abs(mixed - lap_quarter)) <= 1e-13


def test_hessian_constant_zero(grid2):
    h = complex_hessian_values(rfftn(np.full(grid2.shape, 0.3)), grid2)
    assert np.max(np.abs(h)) <= 1e-14


def test_hessian_cos_closed_form(grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]))
    h = complex_hessian_values(rfftn(f.values), grid1)
    expected = field_from(grid1, lambda c: -0.25 * np.cos(c[0]))
    assert np.max(np.abs(h[0] - expected.values)) <= 1e-13


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
    lap = laplacian_values(f.values, grid1, ginv)
    expected = -0.25 * ginv[0] * np.cos(grid1.axis_coordinates()[0])
    assert np.max(np.abs(lap - np.broadcast_to(expected, grid1.shape))) <= 1e-13
    zero = laplacian_values(np.full(grid1.shape, 5.0), grid1, ginv)
    assert np.max(np.abs(zero)) <= 1e-13


def test_laplacian_mean_zero_for_constant_metric(grid2, flat2):
    ginv = inverse_stack(flat2.entries)
    w = volume_weights(flat2)
    f = field_from(grid2, lambda c: np.sin(c[0]) * np.cos(c[2]) + np.cos(c[1] + c[3]))
    lap = laplacian_values(f.values, grid2, ginv)
    assert abs(integrate_values(lap, w)) <= 1e-12


def test_spectral_accuracy_refinement():
    # error shrinks at least 10x per doubling until round-off
    errs = []
    for N in (8, 16, 32):
        grid = TorusGrid(1, N)
        f = field_from(grid, lambda c: np.exp(np.sin(c[0]) + 0.5 * np.cos(c[1])))
        df = d_axis(f.values, grid, 0)
        exact = field_from(grid, lambda c: np.cos(c[0])
                           * np.exp(np.sin(c[0]) + 0.5 * np.cos(c[1])))
        errs.append(float(np.max(np.abs(df - exact.values))))
    assert errs[1] <= errs[0] / 10 or errs[1] <= 1e-12
    assert errs[2] <= errs[1] / 10 or errs[2] <= 1e-12


def _trig_poly(n):
    """A trigonometric polynomial in every real axis with modes up to 3, below
    the Nyquist shell of N = 8, mixing signs across axes."""
    if n == 1:
        return lambda c: (0.3 + np.cos(3 * c[0] - c[1]) + 0.5 * np.sin(c[0] + 2 * c[1])
                          - 0.2 * np.cos(3 * c[1]))
    return lambda c: (0.3 + np.cos(3 * c[0] - c[3]) + 0.5 * np.sin(c[1] + 2 * c[2])
                      - 0.2 * np.cos(c[0] - 2 * c[1] + 3 * c[2] - c[3]) + 0.1 * np.sin(3 * c[3]))


@pytest.mark.parametrize("n", [1, 2])
def test_prolong_exact_for_trig_polynomials(n):
    coarse, fine = TorusGrid(n, 8), TorusGrid(n, 16)
    f = _trig_poly(n)
    out = prolong(field_from(coarse, f).values, fine)
    assert out.shape == fine.shape
    assert np.max(np.abs(out - field_from(fine, f).values)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_subsampling_after_prolong_is_identity(n):
    # exact on fields without coarse Nyquist-shell modes; a generic field
    # comes back less its shell, which prolong zeroes
    coarse, fine = TorusGrid(n, 8), TorusGrid(n, 16)
    v = np.random.default_rng(3).normal(size=coarse.shape)
    vh = rfftn(v)
    for a in range(coarse.real_dim):
        sl = [slice(None)] * coarse.real_dim
        sl[a] = 4
        vh[tuple(sl)] = 0.0
    no_shell = irfftn(vh, coarse.shape)
    shared = (slice(None, None, 2),) * coarse.real_dim
    assert np.max(np.abs(prolong(no_shell, fine)[shared] - no_shell)) <= 1e-13
    assert np.max(np.abs(prolong(v, fine)[shared] - no_shell)) <= 1e-13
    assert np.max(np.abs(no_shell - v)) > 1e-3


def test_linearity(grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) + 0.3 * np.cos(c[1]))
    g = field_from(grid1, lambda c: np.cos(2 * c[0]))
    lhs = d_axis(2.0 * f.values + 3.0 * g.values, grid1, 0)
    rhs = 2.0 * d_axis(f.values, grid1, 0) + 3.0 * d_axis(g.values, grid1, 0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_spectral_tail_flags_rough_fields(grid1):
    smooth = field_from(grid1, lambda c: np.cos(c[0]))
    assert spectral_tail(rfftn(smooth.values), grid1) <= 1e-14
    rng = np.random.default_rng(0)
    rough = rng.normal(size=grid1.shape)
    assert spectral_tail(rfftn(rough), grid1) > 1e-3


@pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 8)])
def test_spectral_tail_matches_nyquist_mask_reference(grid):
    # the shell read off one index plane per axis, against the boolean mask
    # of every mode with any axis at the Nyquist index, bit for bit
    N = grid.points_per_axis
    fh = rfftn(np.random.default_rng(4).normal(size=grid.shape))
    mask = np.zeros(fh.shape, dtype=bool)
    for a in range(grid.real_dim):
        sl = [slice(None)] * grid.real_dim
        sl[a] = N // 2
        mask[tuple(sl)] = True
    amp = np.abs(fh) / grid.num_points
    assert spectral_tail(fh, grid) == float(np.max(amp[mask]) / np.max(amp))


@pytest.mark.parametrize("n, N", [(1, 12), (1, 64), (2, 8), (2, 16)])
def test_spectral_tail_gives_the_reference_bits(n, N):
    # the maxima of |fh| divided by num_points, against the maxima of the
    # divided amplitudes: white-noise spectra over several decades, the zero
    # spectrum, and a NaN in the body or the Nyquist shell
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N)
    for _ in range(5):
        fh = rfftn(rng.standard_normal(grid.shape))
        fh *= np.exp(rng.uniform(-20.0, 20.0, fh.shape))
        tail = spectral_tail(fh, grid)
        assert np.float64(tail).tobytes() == np.float64(spectral_tail_reference(fh, grid)).tobytes()
        assert 0.0 < tail <= 1.0
    zero = np.zeros_like(fh)
    assert spectral_tail(zero, grid) == spectral_tail_reference(zero, grid) == 0.0
    for where in ((1,) * fh.ndim, (0,) * (fh.ndim - 1) + (N // 2,)):
        bad = fh.copy()
        bad[where] = np.nan
        assert np.isnan(spectral_tail(bad, grid)) and np.isnan(spectral_tail_reference(bad, grid))


def test_shell_amplitudes_sort_modes_by_linf_wavenumber(grid1):
    f = field_from(grid1, lambda c: 1.0 + np.cos(3 * c[0]) + 0.1 * np.sin(c[0] - 5 * c[1]))
    amp = shell_amplitudes(rfftn(f.values), grid1)
    want = np.zeros(grid1.points_per_axis // 2 + 1)
    want[[0, 3, 5]] = 1.0, 0.5, 0.05
    assert amp.shape == want.shape
    assert np.max(np.abs(amp - want)) <= 1e-14


def test_holo_index_validation(grid1, grid2):
    # the holomorphic index runs over 1..n: one gradient component per complex axis
    for grid in (grid1, grid2):
        f = field_from(grid, lambda c: np.cos(c[0]))
        assert holo_gradient(f.values, grid).shape == grid.shape + (grid.complex_dim,)


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


ORACLE_GRIDS = [TorusGrid(1, 16), TorusGrid(2, 8), TorusGrid(2, 16)]


@pytest.mark.parametrize("grid", ORACLE_GRIDS + [TorusGrid(2, 24)])
def test_packed_hessian_matches_c2c_oracle(grid):
    # white noise exercises every mode, the Nyquist shell included; the n = 2
    # matrix Hessian is held to the same oracle
    vals = np.random.default_rng(8).normal(size=grid.shape)
    want = _c2c_hessian(vals, grid)
    got = unpack(symbol_hessian_values(rfftn(vals), grid))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if grid.complex_dim == 2:
        got = unpack(matrix_hessian_values(vals, grid))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8)], ids=["n1", "n2"])
def test_complex_hessian_picks_its_kernel_from_n(grid):
    # n = 1: the symbols on the spectrum, given values or not; n = 2: the
    # matrices on the given values, or on the values of the spectrum
    vals = np.random.default_rng(9).normal(size=grid.shape)
    fh = rfftn(vals)
    if grid.complex_dim == 1:
        bare = given = symbol_hessian_values(fh, grid)
    else:
        bare = matrix_hessian_values(irfftn(fh, grid.shape), grid)
        given = matrix_hessian_values(vals, grid)
    assert np.array_equal(complex_hessian_values(fh, grid), bare)
    assert np.array_equal(complex_hessian_values(fh, grid, vals), given)


@pytest.mark.parametrize("N", [8, 16])
def test_matrix_hessian_exact_for_trig_polynomials(N):
    # f = sum_m c_m cos(k_m . x + theta_m) with every |k_a| < N/2 has
    # d_a d_b f = -sum_m k_a k_b c_m cos(k_m . x + theta_m)
    grid = TorusGrid(2, N)
    rng = np.random.default_rng(N)
    modes = [(rng.integers(-N // 2 + 1, N // 2, size=4), rng.normal(), rng.uniform(0, 6))
             for _ in range(6)]
    coords = [np.broadcast_to(c, grid.shape) for c in grid.axis_coordinates()]
    f = np.zeros(grid.shape)
    dd = np.zeros((4, 4) + grid.shape)
    for k, c, theta in modes:
        wave = c * np.cos(sum(ka * xa for ka, xa in zip(k, coords)) + theta)
        f += wave
        dd -= np.multiply.outer(np.outer(k, k), wave)
    want = 0.25 * np.stack((dd[0, 0] + dd[1, 1], dd[2, 2] + dd[3, 3],
                            dd[0, 2] + dd[1, 3], dd[0, 3] - dd[1, 2]))
    got = matrix_hessian_values(f, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_matrix_hessian_of_nyquist_modes():
    # the odd factor zeroes the Nyquist mode, so the mixed entries vanish,
    # while the even one keeps its true magnitude (N/2)^2 on the diagonal
    N = 8
    grid = TorusGrid(2, N)
    x0, _, x2, _ = grid.axis_coordinates()
    for f, da, dd in ((np.cos(N // 2 * x0), 1.0, 0.0),
                      (np.cos(N // 2 * x0) * np.cos(N // 2 * x2), 1.0, 1.0)):
        f = np.broadcast_to(f, grid.shape)
        a, d, b_re, b_im = matrix_hessian_values(f, grid)
        quarter = (N // 2) ** 2 / 4
        assert np.max(np.abs(a + da * quarter * f)) <= 1e-12
        assert np.max(np.abs(d + dd * quarter * f)) <= 1e-12
        assert np.max(np.abs(b_re)) <= 1e-12 and np.max(np.abs(b_im)) <= 1e-12


@pytest.mark.parametrize("n, N", [(1, 64), (2, 8), (2, 16), (2, 24)])
def test_half_derivatives_are_holo_gradient_parts(n, N):
    # d_i f = x_{2i-1} - sqrt(-1) x_{2i}; white noise exercises every mode, the
    # Nyquist shell included.  The n = 1 transform gives holo_gradient's bits,
    # the n = 2 matrices agree to round-off
    grid = TorusGrid(n, N)
    vals = np.random.default_rng(N).standard_normal(grid.shape)
    v = holo_gradient(vals, grid)
    want = np.stack([p for i in range(n) for p in (v[..., i].real, -v[..., i].imag)])
    got = half_derivatives(vals, grid)
    if n == 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (2, 16)])
def test_half_derivatives_exact_for_trig_polynomials(n, N):
    # f = sum_m c_m cos(k_m . x + theta_m) with every |k_a| < N/2 has
    # d/dx_a f / 2 = -(k_a / 2) sum_m c_m sin(k_m . x + theta_m); a Nyquist
    # mode added along each axis leaves them unchanged (its odd factor is zeroed)
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(N + n)
    coords = [np.broadcast_to(c, grid.shape) for c in grid.axis_coordinates()]
    f = sum(np.cos(N // 2 * x) for x in coords)
    want = np.zeros((2 * n,) + grid.shape)
    for _ in range(6):
        k = rng.integers(-N // 2 + 1, N // 2, size=2 * n)
        c, theta = rng.normal(), rng.uniform(0, 6)
        phase = sum(ka * xa for ka, xa in zip(k, coords)) + theta
        f = f + c * np.cos(phase)
        want -= np.multiply.outer(0.5 * k, c * np.sin(phase))
    got = half_derivatives(f, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _c2c_first_derivatives(vals, grid):
    """d/dx_a f (real) and d_i f (complex) by full complex FFTs (test oracle).

    The wavenumbers have the Nyquist mode zeroed; d_i f is one complex
    ifftn of the symbol (sqrt(-1)/2)(k_{2i-1} - sqrt(-1) k_{2i}).
    """
    n, N, d = grid.complex_dim, grid.points_per_axis, grid.real_dim
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k[N // 2] = 0.0
    ks = [k.reshape([N if b == a else 1 for b in range(d)]) for a in range(d)]
    fh = np.fft.fftn(vals)
    dx = [np.fft.ifftn(1j * ks[a] * fh).real for a in range(d)]
    dz = [np.fft.ifftn(0.5j * (ks[2 * i] - 1j * ks[2 * i + 1]) * fh) for i in range(n)]
    return dx, dz


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_first_derivatives_match_c2c_oracle(grid):
    # white noise exercises every mode, the Nyquist shell included
    vals = np.random.default_rng(9).normal(size=grid.shape)
    dx, dz = _c2c_first_derivatives(vals, grid)
    scale = max(np.max(np.abs(v)) for v in dx)
    for a in range(grid.real_dim):
        assert np.max(np.abs(d_axis(vals, grid, a) - dx[a])) <= 1e-13 * scale
    grad = holo_gradient(vals, grid)
    for i in range(grid.complex_dim):
        assert np.max(np.abs(grad[..., i] - dz[i])) <= 1e-13 * scale


def test_no_complex_to_complex_fft(monkeypatch):
    # every derivative, the flow (with its Li-Yau finalize), the tail monitor
    # and the torsion check run on real FFTs alone
    from maflow.flow import StepControl, run
    from maflow.monitors import MonitorSuite
    from maflow.presets import MetricPreset, build_metric
    from reference import kahler_defect

    def refuse(*args, **kwargs):
        raise AssertionError("complex-to-complex FFT called")

    for owner in ("maflow.spectral", "scipy.fft", "numpy.fft"):
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(f"{owner}.{name}", refuse)
    grid = TorusGrid(2, 8)
    g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.1))
    F = field_from(grid, lambda c: 0.05 * np.cos(c[0]) + 0.03 * np.sin(c[1] + c[3]))
    suite = MonitorSuite(field_interval=0.5, holder_seed=5)
    res = run(g, F, horizon=1.5, ctrl=StepControl(), monitors=suite)
    assert any(r.liyau_max != 0.0 for r in res.series.records)
    assert spectral_tail(rfftn(res.final.phi.values), grid) <= 1e-6
    assert kahler_defect(g) > 0.01
    holo_gradient(res.final.phi.values, grid)
    laplacian_values(res.final.phi.values, grid, inverse_stack(g.entries))
    prolong(res.final.phi.values, TorusGrid(2, 16))


def test_transforms_are_scipy_fft_bit_for_bit():
    # rfftn and irfftn call pocketfft as scipy.fft does, on one worker and
    # with no setting: the same bits on every shape the program transforms,
    # single fields and the batched stacks of symbol_hessian_values (n*n),
    # half_derivatives and holo_gradient (2n); and neither writes its input,
    # since step reuses a stage spectrum after transforming it back
    import scipy.fft

    from maflow.spectral import _hessian_symbol, _wavenumbers

    rng = np.random.default_rng(28)
    for n, N in [(1, 16), (1, 64), (2, 8), (2, 16)]:
        shape = TorusGrid(n, N).shape
        x = rng.standard_normal(shape)
        x0 = x.copy()
        xh = rfftn(x)
        assert np.array_equal(x, x0)
        assert np.array_equal(xh, scipy.fft.rfftn(x))
        k_odd, _ = _wavenumbers(n, N)
        for spectra in (xh, _hessian_symbol(n, N) * xh, np.stack([0.5j * k * xh for k in k_odd])):
            spectra0 = spectra.copy()
            back = irfftn(spectra, shape)
            assert np.array_equal(spectra, spectra0)
            assert np.array_equal(back, scipy.fft.irfftn(spectra, shape))


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_holo_gradient_batch_equals_per_axis_transforms(n, N):
    # one batched irfftn of the 2n derivative spectra gives the bits of 2n
    # separate ones
    from scipy.fft import irfftn, rfftn

    from maflow.spectral import _wavenumbers

    grid = TorusGrid(n, N)
    vals = np.random.default_rng(n).standard_normal(grid.shape)
    fh = rfftn(vals)
    k_odd, _ = _wavenumbers(n, N)
    got = holo_gradient(vals, grid)
    for i in range(n):
        re = 0.5 * irfftn(1j * k_odd[2 * i] * fh, grid.shape)
        im = -0.5 * irfftn(1j * k_odd[2 * i + 1] * fh, grid.shape)
        assert np.array_equal(got[..., i].real, re) and np.array_equal(got[..., i].imag, im)


@pytest.mark.parametrize("n", [1, 2])
def test_mean_metric_symbol_is_the_stacked_symbol_bit_for_bit(n, nonkahler1, nonkahler2):
    # the Laplacian symbol comes from the broadcast rows, never from the
    # cached 4-field stack, and the two give the same bits; so does the
    # Newton linearization's symbol, which mean_metric_symbol builds too
    from maflow.elliptic import _Linearization
    from maflow.hermitian import trace_pair
    from maflow.spectral import _hessian_symbol, mean_metric_symbol

    g = nonkahler1 if n == 1 else nonkahler2
    grid = g.grid
    g_mean = g.entries.reshape(len(g.entries), -1).mean(axis=1)
    stacked = trace_pair(inverse_stack(g_mean), _hessian_symbol(n, grid.points_per_axis))
    sym = mean_metric_symbol(g_mean, grid)
    assert sym.shape == rfftn(np.zeros(grid.shape)).shape
    assert np.array_equal(sym, stacked)
    assert np.array_equal(_Linearization(g, g.entries)._sym, stacked)


def test_n2_flow_and_oracle_stack_no_hessian_symbol():
    # every n = 2 Hessian of the flow and the oracle comes from the per-axis
    # matrices and every Laplacian symbol from the broadcast rows, so neither
    # makes (and caches) the 4-field symbol stack
    import maflow.flow
    from maflow.config import config_from_kv
    from maflow.elliptic import solve
    from maflow.runner import build_problem
    from maflow.spectral import _hessian_symbol
    from maflow.verification import RUN2_KV

    cfg = config_from_kv(dict(RUN2_KV))
    _, g, F, _ = build_problem(cfg)
    _hessian_symbol.cache_clear()
    maflow.flow._etdrk4_coefficients.cache_clear()   # so the flow forms its symbol
    maflow.flow.run(g, F, horizon=1.0, ctrl=cfg.step, monitors=cfg.monitors)
    solve(g, F)
    assert _hessian_symbol.cache_info().misses == 0
