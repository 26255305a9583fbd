"""Pointwise Hermitian matrix kernels and the two constructive lemmas.

Packed layout.  A field of Hermitian n x n matrices M(x), n = 1 or 2, is one
real array of shape (n*n,) + grid.shape: [a] for n = 1 and [a, d, Re b, Im b]
for n = 2, with a = M[0, 0], d = M[1, 1] and b = M[0, 1].  The metric g, the
evolving metric g' = g + Hess(phi), complex Hessians and inverses all use it,
so every field is Hermitian by construction.  A single matrix packs to shape
(n*n,).  The kernels below (determinant, smallest eigenvalue, log det,
inverse, trace pairings, pencil eigenvalues) are closed forms on that array.

``log_det_above`` is the one log-det path of a solve: the Cholesky pivots
of p give log det and certify, by reductions alone, that every eigenvalue
exceeds a floor (grid.cone_log_det checks exactly where they cannot).  The
pencil g^{-1} g' has closed-form eigenvalues from its trace and determinant
(``pencil_eig_range``); a flow state holds both, as tr_g g' and exp(u + F).

``normal_frame`` builds holomorphic coordinates centered at a point in which
the metric is the identity, the holomorphic derivatives of its diagonal
entries vanish, and a given Hermitian form is diagonal.

``frame_decompose`` writes a Hermitian positive-definite matrix as a sum of
rank-one projectors with strictly positive weights and unit vectors that
include the standard basis.  Both lemmas work on single full matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import EigRangeViolation, PositivityViolation, ShiftFailure

# Fraction of the smallest eigenvalue reserved on the standard-basis weights
# by frame_decompose; half of it is the positivity floor each call certifies.
_DIAG_RESERVE = 0.1


def det_field(p: np.ndarray) -> np.ndarray:
    """det of each packed Hermitian sample."""
    if len(p) == 1:
        return p[0]
    return p[0] * p[1] - p[2] * p[2] - p[3] * p[3]


def min_eig_field(p: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each packed Hermitian sample."""
    if len(p) == 1:
        return p[0]
    half_gap = 0.5 * (p[0] - p[1])
    return 0.5 * (p[0] + p[1]) - np.sqrt(half_gap * half_gap + p[2] * p[2] + p[3] * p[3])


def log_det(p: np.ndarray) -> np.ndarray:
    """log det of each packed Hermitian PD sample via its Cholesky diagonals.

    log det = log a + log(d - |b|^2 / a) stays finite wherever the entries
    do, even when det itself would overflow.  Raises PositivityViolation
    (with the flat index of the first bad sample) outside the PD cone.
    """
    a = p[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = a if len(p) == 1 else p[1] - (p[2] * p[2] + p[3] * p[3]) / a
        ok = (a > 0) & (s > 0)
    if not np.all(ok):
        raise PositivityViolation(
            "Cholesky failed: matrix left the positive-definite cone",
            index=int(np.argmin(ok)),
        )
    return np.log(a) if len(p) == 1 else np.log(a) + np.log(s)


def log_det_above(p: np.ndarray, floor: float) -> Optional[np.ndarray]:
    """log det of each packed Hermitian sample, once every eigenvalue of
    every sample is certified to exceed floor >= 0; None where the
    certificate fails, and at any NaN or infinite entry.

    log det is log_det's formula on the Cholesky pivots a and
    s = d - |b|^2 / a, so its value is log_det's to the bit.  The same
    pivots certify the cone by reductions alone: the last pivot of
    p - floor I is s - floor - (d - s) floor / (a - floor), which exceeds
    min s - floor (1 + max d / (min a - floor)) wherever a > floor.  The
    certificate fails only within a factor of about max d / min a of the
    floor; there the caller decides (grid.cone_log_det).
    """
    a = p[0]
    a_min = a.min()
    if not (a_min > floor and a.max() < np.inf):
        return None
    if len(p) == 1:
        return np.log(a)
    with np.errstate(invalid="ignore", over="ignore"):
        s = p[2] * p[2]
        s += p[3] * p[3]
        np.divide(s, a, out=s)
        np.subtract(p[1], s, out=s)
        if not s.min() > floor * (1.0 + p[1].max() / (a_min - floor)):
            return None
        out = np.log(a)
        out += np.log(s, out=s)
    return out


def log_det_ratio(gp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """log det(gp) - log det(g) for packed Hermitian PD fields (or matrices)."""
    return log_det(gp) - log_det(g)


def trace_pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tr(P Q) of packed Hermitian samples, e.g. g^{i jbar} g'_{i jbar}.

    For n = 2 this is a a' + d d' + 2 Re(b conj b'); it is real because both
    factors are Hermitian by construction.
    """
    if len(p) == 1:
        return p[0] * q[0]
    return p[0] * q[0] + p[1] * q[1] + 2.0 * (p[2] * q[2] + p[3] * q[3])


def inverse_stack(p: np.ndarray) -> np.ndarray:
    """Packed inverse of each packed Hermitian PD sample."""
    if len(p) == 1:
        return 1.0 / p
    out = np.stack((p[1], p[0], -p[2], -p[3]))
    out /= det_field(p)
    return out


def trace_inverse(p: np.ndarray) -> np.ndarray:
    """tr(A^{-1}) of each packed Hermitian PD sample, without the inverse."""
    if len(p) == 1:
        return 1.0 / p[0]
    return (p[0] + p[1]) / det_field(p)


def generalized_eig_range(g: np.ndarray, gp: np.ndarray):
    """Pointwise eigenvalues of g^{-1} gp for packed Hermitian PD pairs.

    Returns (eig_min_field, eig_max_field).  The pencil's trace is
    (d a' + a d' - 2 Re(b conj b')) / det g and its determinant
    det g' / det g, so no inverse of g is formed; the eigenvalues are real
    and positive whenever both inputs are PD.
    """
    if len(g) == 1:
        r = gp[0] / g[0]
        return r, r
    det_g = det_field(g)
    tr = (g[1] * gp[0] + g[0] * gp[1] - 2.0 * (g[2] * gp[2] + g[3] * gp[3])) / det_g
    return pencil_eig_range(tr, det_field(gp) / det_g)


def pencil_eig_range(tr: np.ndarray, det: np.ndarray):
    """The two eigenvalues (low, high) of each real-spectrum 2 x 2 pencil of
    trace tr and determinant det: (tr -+ sqrt(max(tr^2 - 4 det, 0))) / 2."""
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


@dataclass(frozen=True)
class NormalFrame:
    """Holomorphic normal coordinates at the base point (w = 0).

    The change of coordinates is z = L (w + 1/2 b(w, w)), i.e. ``linear_map``
    maps new to old coordinates and ``quadratic_coeffs`` b[i, j, k] (symmetric
    in j, k) are the second-order coefficients expressed in the new frame.
    """

    linear_map: np.ndarray
    quadratic_coeffs: np.ndarray

    def map_points(self, w: np.ndarray) -> np.ndarray:
        """Apply the coordinate change to a (..., n) array of new coordinates."""
        quad = 0.5 * np.einsum("ijk,...j,...k->...i", self.quadratic_coeffs, w, w)
        return np.einsum("im,...m->...i", self.linear_map, w + quad)

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """Holomorphic Jacobian dZ^i/dw^a at points w, shape (..., n, n)."""
        n = self.linear_map.shape[0]
        jq = np.einsum("mak,...k->...ma", self.quadratic_coeffs, w)
        eye = np.eye(n)
        return np.einsum("im,...ma->...ia", self.linear_map, eye + jq)


def normal_frame(g0: np.ndarray, dg0: np.ndarray, hess0: np.ndarray) -> NormalFrame:
    """Construct the coordinates of the holomorphic normal-frame lemma.

    Parameters
    ----------
    g0 : (n, n) Hermitian PD metric value at the base point.
    dg0 : (n, n, n) holomorphic metric derivatives, dg0[k, i, j] = d_k g_{i jbar}.
    hess0 : (n, n) Hermitian form (the potential's complex Hessian) to diagonalize.

    Three stages: (1) L1 from the inverse Cholesky transpose of g0 pulls the
    metric to the identity; (2) a unitary diagonalizes the transformed form,
    eigenvalues in descending order, while fixing the identity metric;
    (3) quadratic coefficients b^i_{jk}, supported on indices with i in
    {j, k}, kill the holomorphic derivatives of the diagonal metric entries.
    Stage order matters: the quadratic change alters neither the point values
    of the metric nor the complex Hessian at the base point.
    """
    g0 = np.asarray(g0, dtype=complex)
    dg0 = np.asarray(dg0, dtype=complex)
    hess0 = np.asarray(hess0, dtype=complex)
    n = g0.shape[0]

    try:
        c = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError as e:
        raise PositivityViolation(f"base metric not positive definite: {e}") from e
    # with g0 = C C^dagger, L1 = C^{-T} gives L1^T g0 conj(L1) = I
    l1 = np.linalg.inv(c).T

    h1 = l1.T @ hess0 @ np.conj(l1)
    h1 = 0.5 * (h1 + h1.conj().T)
    evals, vecs = np.linalg.eigh(h1)
    order = np.argsort(-evals, kind="stable")
    vecs = vecs[:, order]
    u = np.conj(vecs)
    lin = l1 @ u

    # Post-linear holomorphic metric derivatives D[c, a, b] = d_{w^c} g_{a bbar}(0).
    d_post = np.einsum("kc,ia,jb,kij->cab", lin, lin, np.conj(lin), dg0)
    b = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for k in range(n):
            target = -d_post[k, i, i]
            if k == i:
                b[i, i, i] = target
            else:
                # symmetric pair (i,k) and (k,i) both contribute once
                b[i, i, k] = target
                b[i, k, i] = target
    return NormalFrame(linear_map=lin, quadratic_coeffs=b)


@dataclass(frozen=True)
class FrameDecomposition:
    """Rank-one frame decomposition a = sum_nu beta_nu gamma_nu gamma_nu^*."""

    frame: np.ndarray   # (N, n) unit vectors, rows gamma_nu
    betas: np.ndarray   # (N,) strictly positive weights
    bounds: Tuple[float, float]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("v,vi,vj->ij", self.betas, self.frame, np.conj(self.frame))


def frame_decompose(a: np.ndarray, eig_range: Tuple[float, float]) -> FrameDecomposition:
    """Decompose a Hermitian PD matrix into positively weighted rank ones.

    The frame always contains the standard basis e_1..e_n whose weights keep
    at least ``_DIAG_RESERVE`` of the smallest eigenvalue in reserve.  For
    n = 2 the remaining rank-one part c * v v^* (c = eig gap) is carried by a
    single unit vector u = cos(s) e_1 + sin(s) e^{i phi} e_2 whose phase
    matches the off-diagonal argument exactly and whose amplitude angle s is
    chosen so the diagonal load splits inside the reserve budget; the weight
    solve is then exact by construction.  Weights are Lipschitz in a.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    lam, lam_hi = float(eig_range[0]), float(eig_range[1])
    if not (0 < lam <= lam_hi):
        raise ValueError("eig_range must satisfy 0 < lam <= Lam")
    evals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    tol = 1e-12 * max(1.0, lam_hi)
    if evals[0] < lam - tol or evals[-1] > lam_hi + tol:
        raise EigRangeViolation(
            f"eigenvalues {evals} outside declared range [{lam}, {lam_hi}]"
        )

    if n == 1:
        frame = np.ones((1, 1), dtype=complex)
        betas = np.array([a[0, 0].real])
        return FrameDecomposition(frame, betas, (float(betas[0]), float(betas[0])))

    a11 = a[0, 0].real
    a22 = a[1, 1].real
    z = a[0, 1]
    lam1 = float(evals[0])

    if abs(z) == 0.0:
        frame = np.eye(2, dtype=complex)
        betas = np.array([a11, a22])
    else:
        # rank-one remainder R = a - lam1 * I, R11 R22 = |z|^2 exactly;
        # clip tiny negative round-off when an eigenvector aligns with an axis
        r11 = max(a11 - lam1, 0.0)
        r22 = max(a22 - lam1, 0.0)
        budget = (1.0 - _DIAG_RESERVE) * lam1
        t = np.sqrt((r22 + budget) / (r11 + budget))
        load1 = abs(z) / t
        load2 = abs(z) * t
        w = load1 + load2
        cos_s = np.sqrt(load1 / w)
        sin_s = np.sqrt(load2 / w)
        phase = z / abs(z)
        u = np.array([cos_s, sin_s * np.conj(phase)], dtype=complex)
        frame = np.vstack([np.eye(2, dtype=complex), u[None, :]])
        betas = np.array([a11 - load1, a22 - load2, w])

    floor = _DIAG_RESERVE * lam * 0.5
    if np.any(betas <= 0) or betas[0] < floor or betas[1] < floor:
        raise ShiftFailure(
            f"positivity floor not met (betas {betas}); eig_range too wide for the frame"
        )
    fd = FrameDecomposition(frame, betas, (float(np.min(betas)), float(np.max(betas))))
    err = float(np.max(np.abs(fd.reconstruct() - a)))
    if err > 1e-11 * max(1.0, lam_hi):
        raise ShiftFailure(f"reconstruction residual {err:.3e} too large")
    return fd
