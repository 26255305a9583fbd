import math

import numpy as np
import pytest

from maflow.errors import PositivityViolation
from maflow.grid import MetricField, ScalarField, TorusGrid, integrate_values, volume_weights
from maflow.hermitian import log_det, min_eig_field
from maflow.presets import MetricPreset, build_metric, random_band_limited
from maflow.spectral import rfftn, spectral_tail

from conftest import field_from
from reference import kahler_defect, pack, unpack


def test_grid_invariants():
    with pytest.raises(ValueError):
        TorusGrid(1, 7)          # odd
    with pytest.raises(ValueError):
        TorusGrid(1, 6)          # below minimum
    with pytest.raises(ValueError):
        TorusGrid(3, 16)         # unsupported complex dimension
    with pytest.raises(ValueError):
        TorusGrid(2, 64)  # over the memory budget
    g = TorusGrid(2, 8)
    assert g.spacing == pytest.approx(2 * math.pi / 8)
    assert g.shape == (8, 8, 8, 8)


def test_flat_presets_are_identity(grid1, grid2):
    g1 = build_metric(grid1, MetricPreset("flat"))
    assert np.allclose(unpack(g1.entries)[..., 0, 0], 1.0)
    g2 = build_metric(grid2, MetricPreset("flat"))
    eye = np.broadcast_to(np.eye(2), grid2.shape + (2, 2))
    assert np.allclose(unpack(g2.entries), eye)


def test_integrate_constant_and_symmetry(grid1, flat1, weights1):
    assert integrate_values(np.full(grid1.shape, 3.5), weights1) == pytest.approx(3.5, abs=1e-13)
    s = field_from(grid1, lambda c: np.sin(c[0]))
    assert abs(integrate_values(s.values, weights1)) <= 1e-14


def test_integrate_resolution_doubling():
    vals = []
    for N in (16, 32):
        grid = TorusGrid(1, N)
        g = build_metric(grid, MetricPreset("hermitian_nonkahler", eps=0.3))
        w = volume_weights(g)
        f = field_from(grid, lambda c: np.sin(c[0]) ** 2)
        vals.append(integrate_values(f.values, w))
    assert abs(vals[0] - vals[1]) <= 1e-10


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
        assert np.min(min_eig_field(g.entries)) >= 0.1
        for i in range(2):
            for j in range(2):
                entry = unpack(g.entries)[..., i, j]
                for part in (entry.real, entry.imag):
                    if np.max(np.abs(part)) > 0:
                        assert spectral_tail(rfftn(part.copy()), grid2) <= 1e-10


def test_nonkahler_has_torsion_kahler_does_not(grid2):
    g = build_metric(grid2, MetricPreset("hermitian_nonkahler", eps=0.3))
    assert np.min(min_eig_field(g.entries)) >= 0.1
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


def test_metric_takes_packed_entries_only(grid1, grid2):
    # the full (..., n, n) stack of the old layout is a shape error
    with pytest.raises(ValueError, match="shape"):
        MetricField(grid2, np.ones(grid2.shape + (2, 2)))
    with pytest.raises(ValueError, match="shape"):
        MetricField(grid1, np.ones(grid1.shape))


def _with_value_at_one_point(grid, value):
    values = np.zeros(grid.shape)
    values[3, 5] = value
    return values


@pytest.mark.parametrize("values, match", [
    (_with_value_at_one_point(TorusGrid(1, 16), np.nan), "non-finite"),
    (_with_value_at_one_point(TorusGrid(1, 16), np.inf), "non-finite"),
    (np.zeros((16, 8)), "shape"),
])
def test_scalar_field_rejects_non_finite_or_misshaped_values(grid1, values, match):
    with pytest.raises(ValueError, match=match):
        ScalarField(grid1, values)


def test_metric_floor_error_names_grid_point(grid2):
    entries = np.zeros((4,) + grid2.shape)
    entries[0] = entries[1] = 1.0
    entries[1, 1, 2, 3, 4] = -0.05
    with pytest.raises(PositivityViolation) as exc:
        MetricField(grid2, entries)
    assert exc.value.index == np.ravel_multi_index((1, 2, 3, 4), grid2.shape)
    assert str(exc.value) == "metric eigenvalue -5.000e-02 not positive at grid point (1, 2, 3, 4)"


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_metric_needs_positive_eigenvalues(grid1, value):
    # the only floor is 0: a tiny positive metric is valid, a zero or NaN
    # sample is not
    assert MetricField(grid1, np.full((1,) + grid1.shape, 1e-300)).min_eig == 1e-300
    entries = np.ones((1,) + grid1.shape)
    entries[0, 3, 5] = value
    with pytest.raises(PositivityViolation, match=r"not positive at grid point \(3, 5\)"):
        MetricField(grid1, entries)


def _flat_def(grid, scale):
    n = grid.complex_dim

    def definition(coords):
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        out = np.zeros(shape + (n, n), dtype=complex)
        for i in range(n):
            out[..., i, i] = scale
        return out

    return definition


def _kahler_bump_def(grid, amp, scale):
    n = grid.complex_dim

    def definition(coords):
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        out = np.zeros(shape + (n, n), dtype=complex)
        if n == 1:
            h = -0.25 * amp * (np.cos(coords[0]) + 0.5 * np.sin(coords[1]))
            out[..., 0, 0] = scale * (1.0 + h)
            return out
        cross = np.cos(coords[0] + coords[2])
        out[..., 0, 0] = scale * (1.0 - 0.25 * amp * (np.cos(coords[0]) + 0.5 * cross))
        out[..., 1, 1] = scale * (1.0 - 0.25 * amp * (0.5 * np.sin(coords[2]) + 0.5 * cross))
        out[..., 0, 1] = scale * (-0.125 * amp * cross) + 0j
        out[..., 1, 0] = out[..., 0, 1]
        return out

    return definition


def _nonkahler_def(grid, eps, scale):
    n = grid.complex_dim

    def definition(coords):
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        out = np.zeros(shape + (n, n), dtype=complex)
        if n == 1:
            out[..., 0, 0] = scale * (1.0 + eps * (np.cos(coords[0]) + 0.5 * np.sin(coords[1])))
            return out
        out[..., 0, 0] = scale * (1.0 + eps * np.cos(coords[2]))
        out[..., 1, 1] = scale * (1.0 + eps * np.cos(coords[0]))
        off = scale * 0.5 * eps * (np.cos(coords[1]) + 1j * np.sin(coords[3]))
        out[..., 0, 1] = off
        out[..., 1, 0] = np.conj(off)
        return out

    return definition


def _full_matrix_entries(grid, preset):
    """The full-matrix preset build the packed rows replaced (test oracle):
    complex (..., n, n) samples, made exactly Hermitian, then packed."""
    if preset.name == "flat":
        definition = _flat_def(grid, preset.scale)
    elif preset.name == "kahler_bump":
        definition = _kahler_bump_def(grid, preset.amp, preset.scale)
    else:
        definition = _nonkahler_def(grid, preset.eps, preset.scale)
    mats = np.ascontiguousarray(
        np.broadcast_to(definition(grid.axis_coordinates()),
                        grid.shape + (grid.complex_dim,) * 2)
    ).astype(complex)
    return pack(0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2))))


@pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8)])
@pytest.mark.parametrize("name", ["flat", "kahler_bump", "hermitian_nonkahler"])
@pytest.mark.parametrize("params", [{}, {"eps": 0.17, "amp": 0.61, "scale": 2.7}])
def test_packed_presets_match_full_matrix_build(grid, name, params):
    preset = MetricPreset(name, **params)
    g = build_metric(grid, preset)
    want = _full_matrix_entries(grid, preset)
    assert g.entries.shape == want.shape
    assert np.array_equal(g.entries, want)
    assert np.array_equal(g.log_det, log_det(want))


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


def test_heap_thresholds_pinned_at_full_field_size(monkeypatch):
    # the mmap threshold is a full complex n x n field (4 MiB at n = 2,
    # N = 16) and the trim threshold -1 (no trim); grids whose fields fit
    # under glibc's starting 128 KiB threshold make no call
    import maflow.grid as G

    calls = []

    class FakeLibc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(G.os, "confstr_names", {"CS_GNU_LIBC_VERSION": 2}, raising=False)
    monkeypatch.setattr(G.ctypes, "CDLL", FakeLibc)
    monkeypatch.setattr(G, "_pinned_heap_size", 0)
    G.pin_heap_thresholds(TorusGrid(1, 64))
    assert calls == []
    G.pin_heap_thresholds(TorusGrid(2, 16))
    assert calls == [(-1, -1), (-3, 4 << 20)]


def test_heap_thresholds_never_lowered(monkeypatch):
    # flow.run and elliptic.solve pin their grid too, and the oracle's
    # half-grid level solves N = 8 inside N = 16: a smaller grid after a
    # larger one keeps the larger pin, and a larger one raises it
    import maflow.grid as G

    calls = []

    class FakeLibc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(G.os, "confstr_names", {"CS_GNU_LIBC_VERSION": 2}, raising=False)
    monkeypatch.setattr(G.ctypes, "CDLL", FakeLibc)
    monkeypatch.setattr(G, "_pinned_heap_size", 0)
    G.pin_heap_thresholds(TorusGrid(2, 16))
    G.pin_heap_thresholds(TorusGrid(2, 12))
    G.pin_heap_thresholds(TorusGrid(2, 16))
    assert calls == [(-1, -1), (-3, 4 << 20)]
    G.pin_heap_thresholds(TorusGrid(2, 20))
    assert calls[2:] == [(-1, -1), (-3, 16 * 4 * 20 ** 4)]


def test_only_manufactured_forcing_builds_volume_weights(monkeypatch, nonkahler1):
    # the omega^n weights normalize the manufactured F; the other kinds skip them
    import maflow.presets
    from maflow.presets import ForcingPreset, build_forcing

    calls = []
    monkeypatch.setattr(maflow.presets, "volume_weights",
                        lambda g: calls.append(g) or volume_weights(g))
    for kind in ("zero", "const", "modes"):
        build_forcing(nonkahler1.grid, nonkahler1, ForcingPreset(kind))
    assert calls == []
    build_forcing(nonkahler1.grid, nonkahler1, ForcingPreset("manufactured"))
    assert len(calls) == 1 and calls[0] is nonkahler1
