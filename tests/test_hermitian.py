import numpy as np
import pytest

from maflow.errors import EigRangeViolation, PositivityViolation
from maflow.hermitian import (
    frame_decompose,
    generalized_eig_range,
    inverse_stack,
    log_det_ratio,
    normal_frame,
    trace_pair,
)
from maflow.runner import fd_normal_frame_residual, random_normal_frame_instance

from conftest import random_hermitian_pd
from reference import pack, unpack


# ---------------------------------------------------------------- log det

def test_log_det_ratio_identity_and_scaling():
    g = np.eye(2, dtype=complex)
    assert log_det_ratio(pack(g), pack(g)) == pytest.approx(0.0, abs=1e-15)
    assert log_det_ratio(pack(2.0 * g), pack(g)) == pytest.approx(2 * np.log(2.0), rel=1e-14)


def test_log_det_ratio_matches_2x2_determinant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_hermitian_pd(rng, 2)
        b = random_hermitian_pd(rng, 2)
        det_a = (a[0, 0] * a[1, 1] - abs(a[0, 1]) ** 2).real
        det_b = (b[0, 0] * b[1, 1] - abs(b[0, 1]) ** 2).real
        assert log_det_ratio(pack(a), pack(b)) == pytest.approx(np.log(det_a / det_b), abs=1e-13)


def test_log_det_ratio_cocycle():
    rng = np.random.default_rng(9)
    a, b, c = (pack(random_hermitian_pd(rng, 2)) for _ in range(3))
    lhs = log_det_ratio(a, b) + log_det_ratio(b, c)
    assert lhs == pytest.approx(log_det_ratio(a, c), abs=1e-12)


def test_log_det_ratio_no_overflow():
    big = 1e200 * np.eye(2, dtype=complex)
    small = 1e-200 * np.eye(2, dtype=complex)
    val = log_det_ratio(pack(big), pack(small))
    assert np.isfinite(val)
    assert val == pytest.approx(800 * np.log(10.0), rel=1e-12)


def test_log_det_ratio_positivity_violation():
    bad = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(PositivityViolation):
        log_det_ratio(pack(bad), pack(np.eye(2, dtype=complex)))


# ---------------------------------------------------------------- traces

def test_trace_pair_trivial_cases():
    eye = pack(np.eye(2, dtype=complex))
    assert trace_pair(eye, eye) == pytest.approx(2.0)
    assert trace_pair(eye, pack(np.diag([3.0, 4.0]).astype(complex))) == pytest.approx(7.0)


def test_trace_pair_eigenvalue_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = random_hermitian_pd(rng, 2)
        gp = random_hermitian_pd(rng, 2)
        ginv = inverse_stack(pack(g))
        val = trace_pair(ginv, pack(gp))
        eigs = np.linalg.eigvals(np.linalg.inv(g) @ gp)
        assert val == pytest.approx(float(np.sum(eigs.real)), abs=1e-12)


def test_inverse_stack_contract():
    rng = np.random.default_rng(4)
    mats = np.stack([random_hermitian_pd(rng, 2) for _ in range(40)])
    inv = unpack(inverse_stack(pack(mats)))
    prod = np.einsum("sij,sjk->sik", mats, inv)
    eye = np.broadcast_to(np.eye(2), prod.shape)
    assert np.max(np.abs(prod - eye)) <= 1e-12


def test_generalized_eig_range_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_hermitian_pd(rng, 2)
        gp = random_hermitian_pd(rng, 2)
        lo, hi = generalized_eig_range(pack(g[None, ...]), pack(gp[None, ...]))
        eigs = np.sort(np.linalg.eigvals(np.linalg.inv(g) @ gp).real)
        assert lo[0] == pytest.approx(eigs[0], abs=1e-12)
        assert hi[0] == pytest.approx(eigs[1], abs=1e-12)


# ---------------------------------------------------------------- normal frame

def test_normal_frame_already_normal():
    nf = normal_frame(np.eye(2), np.zeros((2, 2, 2)), np.diag([2.0, 1.0]))
    assert np.allclose(nf.linear_map, np.eye(2))
    assert np.max(np.abs(nf.quadratic_coeffs)) == 0.0


def test_normal_frame_diagonal_rescale():
    nf = normal_frame(np.diag([4.0, 1.0]), np.zeros((2, 2, 2)), np.zeros((2, 2)))
    assert np.allclose(nf.linear_map, np.diag([0.5, 1.0]))


def test_normal_frame_descending_eigenvalues():
    rng = np.random.default_rng(3)
    g0, dg0, hess0 = random_normal_frame_instance(rng)
    nf = normal_frame(g0, dg0, hess0)
    h1 = nf.linear_map.T @ hess0 @ np.conj(nf.linear_map)
    d = np.diag(h1).real
    assert d[0] >= d[1]
    assert abs(h1[0, 1]) <= 1e-12


def test_normal_frame_quadratic_symmetry_and_sparsity():
    rng = np.random.default_rng(8)
    g0, dg0, hess0 = random_normal_frame_instance(rng)
    nf = normal_frame(g0, dg0, hess0)
    b = nf.quadratic_coeffs
    assert np.max(np.abs(b - np.swapaxes(b, 1, 2))) == 0.0
    n = b.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i not in (j, k):
                    assert b[i, j, k] == 0.0


def test_normal_frame_pullback_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g0, dg0, hess0 = random_normal_frame_instance(rng)
        nf = normal_frame(g0, dg0, hess0)
        lin = nf.linear_map
        assert np.max(np.abs(lin.T @ g0 @ np.conj(lin) - np.eye(2))) <= 1e-10
        h1 = lin.T @ hess0 @ np.conj(lin)
        assert abs(h1[0, 1]) <= 1e-10
        assert fd_normal_frame_residual(g0, dg0, nf) <= 1e-6


def test_normal_frame_eigenvalue_invariance():
    # eigenvalues of g0^{-1} hess0 survive the coordinate change exactly
    rng = np.random.default_rng(13)
    g0, dg0, hess0 = random_normal_frame_instance(rng)
    nf = normal_frame(g0, dg0, hess0)
    h1 = nf.linear_map.T @ hess0 @ np.conj(nf.linear_map)
    transformed = np.sort(np.diag(h1).real)
    original = np.sort(np.linalg.eigvals(np.linalg.inv(g0) @ hess0).real)
    assert np.max(np.abs(transformed - original)) <= 1e-12


def test_normal_frame_rejects_non_pd():
    with pytest.raises(PositivityViolation):
        normal_frame(np.diag([1.0, -1.0]), np.zeros((2, 2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------- frame decomposition

def test_frame_decompose_scalar():
    fd = frame_decompose(np.array([[3.0]]), (1.0, 5.0))
    assert fd.frame.shape == (1, 1)
    assert fd.betas[0] == pytest.approx(3.0)


def test_frame_decompose_identity():
    fd = frame_decompose(np.eye(2, dtype=complex), (0.5, 2.0))
    assert np.max(np.abs(fd.reconstruct() - np.eye(2))) <= 1e-13
    assert np.min(fd.betas) > 0
    assert np.allclose(fd.frame[0], [1, 0]) and np.allclose(fd.frame[1], [0, 1])


def test_frame_decompose_random_batch():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(300):
        a = random_hermitian_pd(rng, 2, lo=0.2, hi=5.0)
        fd = frame_decompose(a, (0.2, 5.0))
        worst = max(worst, float(np.max(np.abs(fd.reconstruct() - a))))
        assert np.min(fd.betas) > 0
        assert np.max(np.abs(np.linalg.norm(fd.frame, axis=1) - 1.0)) <= 1e-14
    assert worst <= 1e-12


def test_frame_decompose_eig_range_violation():
    with pytest.raises(EigRangeViolation):
        frame_decompose(np.diag([0.05, 1.0]).astype(complex), (0.2, 5.0))
    with pytest.raises(EigRangeViolation):
        frame_decompose(np.diag([1.0, 9.0]).astype(complex), (0.2, 5.0))


def test_frame_decompose_beta_continuity():
    # measured Lipschitz bound: |beta(a + da) - beta(a)| <= K |da|
    rng = np.random.default_rng(31)
    ks = []
    for _ in range(50):
        a = random_hermitian_pd(rng, 2, lo=0.5, hi=3.0)
        if abs(a[0, 1]) < 1e-3:
            continue
        da = 1e-7 * random_hermitian_pd(rng, 2, lo=0.5, hi=1.0)
        f0 = frame_decompose(a, (0.2, 5.0))
        f1 = frame_decompose(a + da, (0.2, 5.0))
        if len(f0.betas) != len(f1.betas):
            continue
        ks.append(float(np.max(np.abs(f1.betas - f0.betas))
                        / np.max(np.abs(da))))
    assert ks and max(ks) <= 50.0


def test_frame_decompose_beta_floor_certificate():
    fd = frame_decompose(np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, 2.0]]), (0.2, 5.0))
    c1, c2 = fd.bounds
    assert 0 < c1 <= np.min(fd.betas)
    assert np.max(fd.betas) <= c2
    # standard-basis weights keep the documented reserve of the smallest eigenvalue
    evs = np.linalg.eigvalsh(fd.reconstruct())
    assert fd.betas[0] >= 0.1 * evs[0] - 1e-12
    assert fd.betas[1] >= 0.1 * evs[0] - 1e-12


# ---------------------------------------------------------------- packed kernels

def _pd_stack(n, count=60, seed=5):
    rng = np.random.default_rng(seed + n)
    return np.stack([random_hermitian_pd(rng, n, lo=0.2, hi=5.0) for _ in range(count)])


@pytest.mark.parametrize("n", [1, 2])
def test_pack_unpack_roundtrip(n):
    mats = _pd_stack(n)
    p = pack(mats)
    assert p.shape == (n * n, len(mats)) and p.dtype == np.float64
    assert np.array_equal(unpack(p), mats)


@pytest.mark.parametrize("n", [1, 2])
def test_packed_kernels_match_linalg(n):
    from maflow.hermitian import det_field, log_det, min_eig_field, trace_inverse

    g, gp = _pd_stack(n, seed=1), _pd_stack(n, seed=2)
    pg, pgp = pack(g), pack(gp)

    def close(got, want):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    close(det_field(pg), np.linalg.det(g).real)
    close(log_det(pg), np.log(np.linalg.det(g).real))
    close(log_det_ratio(pgp, pg), np.log(np.linalg.det(gp).real / np.linalg.det(g).real))
    close(min_eig_field(pg), np.linalg.eigvalsh(g)[:, 0])
    inv = np.linalg.inv(g)
    got_inv = unpack(inverse_stack(pg))
    assert np.max(np.abs(got_inv - inv)) <= 1e-12 * np.max(np.abs(inv))
    close(trace_inverse(pg), np.trace(inv, axis1=1, axis2=2).real)
    close(trace_pair(pg, pgp), np.trace(g @ gp, axis1=1, axis2=2).real)
    lo, hi = generalized_eig_range(pg, pgp)
    eigs = np.sort(np.linalg.eigvals(np.linalg.solve(g, gp)).real, axis=1)
    close(lo, eigs[:, 0])
    close(hi, eigs[:, -1])


def test_packed_log_det_names_the_bad_sample():
    mats = _pd_stack(2, count=10)
    mats[7] = np.diag([1.0, -0.5])
    with pytest.raises(PositivityViolation) as exc:
        log_det_ratio(pack(mats), pack(_pd_stack(2, count=10)))
    assert exc.value.index == 7


# ---------------------------------------------------------------- cone and log det

def _cone_reference(p, floor):
    """log det after the separate cone check: min_eig_field, then log_det."""
    from maflow.hermitian import log_det, min_eig_field
    return log_det(p) if min_eig_field(p).min() > floor else None


@pytest.mark.parametrize("n", [1, 2])
def test_log_det_above_matches_min_eig_and_log_det(n):
    # the kernel returns log_det's bits only inside the cone, and certifies
    # any floor well below the smallest eigenvalue; cone_log_det, which
    # decides exactly where the kernel declines, matches the separate check
    # at every floor, including just below and just above the eigenvalue
    from maflow.grid import cone_log_det
    from maflow.hermitian import log_det_above, min_eig_field

    rng = np.random.default_rng(40 + n)
    for trial in range(20):
        p = pack(_pd_stack(n, count=200, seed=trial))
        lam = float(min_eig_field(p).min())
        for floor in (0.0, 1e-6 * lam, lam * (1 - 1e-9), lam * (1 + 1e-9), 2 * lam):
            got, want = log_det_above(p, floor), _cone_reference(p, floor)
            if got is not None:
                assert want is not None and np.array_equal(got, want), (trial, floor)
            if floor <= 1e-6 * lam:
                assert got is not None, (trial, floor)
            if want is None:
                with pytest.raises(PositivityViolation):
                    cone_log_det(p, floor, "field")
            else:
                assert np.array_equal(cone_log_det(p, floor, "field"), want)
        # an indefinite sample anywhere is outside the cone at every floor >= 0
        bad = p.copy()
        bad[0, rng.integers(200)] = -1.0
        assert log_det_above(bad, 0.0) is None and _cone_reference(bad, 0.0) is None


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_log_det_above_rejects_non_finite_entries(n, value):
    from maflow.hermitian import log_det_above, min_eig_field

    for row in range(n * n):
        p = pack(_pd_stack(n, count=30, seed=9))
        p[row, 11] = value
        assert log_det_above(p, 0.0) is None, row
        assert log_det_above(p, 1e-6) is None, row
        # the guard it replaces rejects them too, except +inf for n = 1,
        # whose smallest eigenvalue is that entry
        if not (n == 1 and value == np.inf):
            with np.errstate(invalid="ignore"):
                assert not min_eig_field(p).min() > 0.0, row


def test_cone_log_det_words_a_failure_from_the_smallest_eigenvalue():
    from maflow.grid import cone_log_det

    mats = _pd_stack(2, count=12)
    mats[4] = np.diag([0.5, 2e-7])
    p = pack(mats).reshape(4, 3, 4)
    with pytest.raises(PositivityViolation) as exc:
        cone_log_det(p, 1e-6, "evolving metric", t=0.25)
    assert exc.value.index == 4 and exc.value.t == 0.25
    assert str(exc.value) == ("evolving metric at t=0.250000: eigenvalue 2.000e-07 not "
                              "above 1.000e-06 at grid point (1, 0)")
    assert np.array_equal(cone_log_det(p, 1e-7, "evolving metric"),
                          _cone_reference(p, 1e-7))
