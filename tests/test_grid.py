import math

import numpy as np
import pytest

from maflow.errors import GridMismatch, PositivityViolation
from maflow.grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    discrete_volume,
    form_factor,
    integrate,
    volume_normalize,
    volume_weights,
)
from maflow.hermitian import unpack
from maflow.presets import MetricPreset, build_metric, kahler_defect, random_band_limited
from maflow.spectral import spectral_tail

from conftest import field_from


def test_grid_invariants():
    with pytest.raises(ValueError):
        TorusGrid(1, 7)          # odd
    with pytest.raises(ValueError):
        TorusGrid(1, 6)          # below minimum
    with pytest.raises(ValueError):
        TorusGrid(3, 16)         # unsupported complex dimension
    with pytest.raises(ValueError):
        TorusGrid(2, 64, max_points=2 ** 20)  # over the memory budget
    g = TorusGrid(2, 8)
    assert g.spacing == pytest.approx(2 * math.pi / 8)
    assert g.shape == (8, 8, 8, 8)


def test_flat_presets_are_identity(grid1, grid2):
    g1 = build_metric(grid1, MetricPreset("flat"))
    assert np.allclose(unpack(g1.entries)[..., 0, 0], 1.0)
    g2 = build_metric(grid2, MetricPreset("flat"))
    eye = np.broadcast_to(np.eye(2), grid2.shape + (2, 2))
    assert np.allclose(unpack(g2.entries), eye)


def test_volume_normalize_flat_closed_form(grid1):
    # For g = I on the 2-torus of period 2 pi: Vol = 2 (2 pi)^2, so the scale
    # is 1 / (2 (2 pi)^2); the form-convention factor is form_factor(1) = 2.
    g = build_metric(grid1, MetricPreset("flat"))
    gn, lam = volume_normalize(g)
    expected = 1.0 / (form_factor(1) * (2 * math.pi) ** 2)
    assert lam == pytest.approx(expected, rel=1e-14)
    assert discrete_volume(gn) == pytest.approx(1.0, abs=1e-13)


def test_volume_normalize_idempotent(nonkahler2):
    gn, lam1 = volume_normalize(nonkahler2)
    gn2, lam2 = volume_normalize(gn)
    assert abs(lam2 - 1.0) <= 1e-13
    assert np.max(np.abs(unpack(gn2.entries) - unpack(gn.entries))) <= 1e-13
    w = volume_weights(gn)
    one = ScalarField(gn.grid, np.ones(gn.grid.shape))
    assert integrate(one, w) == pytest.approx(1.0, abs=1e-14)


def test_volume_normalize_resolution_stability():
    # quadrature oracle: doubling the resolution changes the discrete volume
    # of the trigonometric-polynomial metric below 1e-10
    vols = []
    for N in (8, 16):
        grid = TorusGrid(2, N)
        g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3))
        gn, _ = volume_normalize(g)
        vols.append(discrete_volume(gn))
    assert abs(vols[0] - vols[1]) <= 1e-10


def test_integrate_constant_and_symmetry(grid1, flat1, weights1):
    f = ScalarField(grid1, np.full(grid1.shape, 3.5))
    assert integrate(f, weights1) == pytest.approx(3.5, abs=1e-13)
    s = field_from(grid1, lambda c: np.sin(c[0]))
    assert abs(integrate(s, weights1)) <= 1e-14


def test_integrate_resolution_doubling():
    vals = []
    for N in (16, 32):
        grid = TorusGrid(1, N)
        g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3))
        w = volume_weights(g)
        f = field_from(grid, lambda c: np.sin(c[0]) ** 2)
        vals.append(integrate(f, w))
    assert abs(vals[0] - vals[1]) <= 1e-10


def test_integrate_grid_mismatch(weights1):
    other = TorusGrid(1, 32)
    f = ScalarField(other, np.zeros(other.shape))
    with pytest.raises(GridMismatch):
        integrate(f, weights1)


def test_metric_positivity_floor(grid2):
    with pytest.raises(PositivityViolation):
        build_metric(grid2, MetricPreset("hermitian_nonkahler", eps=0.9))


def test_preset_lambda_floor_and_smoothness(grid2):
    for name, kwargs in (
        ("flat", {}),
        ("kahler_bump", {"amp": 0.4}),
        ("hermitian_nonkahler", {"eps": 0.3}),
    ):
        g = build_metric(grid2, MetricPreset(name, **kwargs))
        assert g.min_eigenvalue() >= 0.1
        for i in range(2):
            for j in range(2):
                entry = unpack(g.entries)[..., i, j]
                for part in (entry.real, entry.imag):
                    if np.max(np.abs(part)) > 0:
                        assert spectral_tail(part.copy(), grid2) <= 1e-10


def test_nonkahler_has_torsion_kahler_does_not(grid2):
    g = build_metric(grid2, MetricPreset("hermitian_nonkahler", eps=0.3))
    assert g.min_eigenvalue() >= 0.1
    assert kahler_defect(g) > 0.01
    gk = build_metric(grid2, MetricPreset("kahler_bump", amp=0.4))
    assert kahler_defect(gk) <= 1e-12
    gf = build_metric(grid2, MetricPreset("flat"))
    assert kahler_defect(gf) <= 1e-14


def test_dw_oracle_independent_fft(grid2):
    # independent spectral differentiation of the sampled entries (plain
    # numpy FFT, no package machinery) reproduces the shipped torsion check
    g = build_metric(grid2, MetricPreset("hermitian_nonkahler", eps=0.3))
    N = grid2.points_per_axis
    k1 = np.fft.fftfreq(N, d=grid2.spacing) * 2 * np.pi
    k1[N // 2] = 0.0

    def d_axis(vals, axis):
        fh = np.fft.fftn(vals)
        shape = [1] * 4
        shape[axis] = N
        return np.fft.ifftn(1j * k1.reshape(shape) * fh)

    def d_holo_entry(entry, i):
        return 0.5 * (d_axis(entry, 2 * i) - 1j * d_axis(entry, 2 * i + 1))

    worst = 0.0
    for j in range(2):
        col = [d_holo_entry(unpack(g.entries)[..., i, j], k) for i in range(2) for k in range(2)]
        # T_{k i jbar} = d_k g_{i jbar} - d_i g_{k jbar}, here (k,i) = (0,1)
        t = (d_holo_entry(unpack(g.entries)[..., 1, j], 0)
             - d_holo_entry(unpack(g.entries)[..., 0, j], 1))
        worst = max(worst, float(np.max(np.abs(t))))
    assert worst > 0.01


def test_metric_hermitian_validation(grid1):
    bad = np.ones(grid1.shape + (1, 1), dtype=complex)
    bad[..., 0, 0] = 1.0 + 0.1j  # not Hermitian for a 1x1: imaginary diagonal
    with pytest.raises(ValueError):
        MetricField(grid1, bad)


def test_metric_floor_error_names_grid_point(grid2):
    mats = np.zeros(grid2.shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = mats[..., 1, 1] = 1.0
    mats[1, 2, 3, 4, 1, 1] = 0.05
    with pytest.raises(PositivityViolation) as exc:
        MetricField(grid2, mats)
    assert exc.value.index == np.ravel_multi_index((1, 2, 3, 4), grid2.shape)
    assert "grid point (1, 2, 3, 4)" in str(exc.value)


def _band_limited_loop(grid, amplitude, max_mode, seed):
    """The per-mode loop random_band_limited replaced (test oracle)."""
    rng = np.random.default_rng(seed)
    coords = grid.axis_coordinates()
    vals = np.zeros(grid.shape)
    d = grid.real_dim
    for k in np.ndindex(*(2 * max_mode + 1,) * d):
        kvec = np.array(k) - max_mode
        if not np.any(kvec):
            continue
        first = kvec[np.nonzero(kvec)[0][0]]
        if first < 0:
            continue
        norm2 = float(np.sum(kvec**2))
        c = rng.normal() / (1.0 + norm2)
        s = rng.normal() / (1.0 + norm2)
        phase = sum(kvec[a] * coords[a] for a in range(d))
        vals = vals + c * np.cos(phase) + s * np.sin(phase)
    peak = float(np.max(np.abs(vals)))
    return vals * (amplitude / peak)


@pytest.mark.parametrize("grid, max_mode, seed", [
    (TorusGrid(1, 16), 2, 4), (TorusGrid(1, 32), 3, 7),
    (TorusGrid(2, 8), 2, 1), (TorusGrid(2, 16), 2, 5),
])
def test_random_band_limited_matches_mode_loop(grid, max_mode, seed):
    amp = 0.05
    got = random_band_limited(grid, amp, max_mode, seed).values
    want = _band_limited_loop(grid, amp, max_mode, seed)
    assert np.max(np.abs(got - want)) <= 1e-14 * amp
