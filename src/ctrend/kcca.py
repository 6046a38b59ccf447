"""Regularized kernel CCA between an embedded feed and its pool.

Solves the generalized eigenproblem

    [ 0      Kx Ky ] [alpha]         [ Kx^2 + kappa I        0       ] [alpha]
    [ Ky Kx  0     ] [beta ] = lambda[      0          Ky^2 + kappa I] [beta ]

for its top eigenpair, on kernels centered with training statistics. The
right-hand side is block diagonal, so the problem is reduced to a standard
symmetric one by factoring it in the eigenbasis of each kernel, where the
squared-kernel regularizer is diagonal: with K = U diag(theta) U^T, writing
alpha = U a and rescaling by sqrt(theta^2 + kappa) turns the system into a
plain singular value problem on a small matrix whose top singular value is
the eigenvalue. Eigenvectors carrying lambda != 0 always lie in the kernel
ranges (the kappa I term forces any null-space component to zero), so the
reduction is exact, not an approximation.

Only the first canonical pair is computed. The kernels are linear (Gram
matrices), which is what makes primal-weight recovery possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DegenerateProjection,
    NumericalFailure,
    ShapeMismatch,
    SingularRhs,
    TooFewSamples,
)

KAPPA_FLOOR = 1e-8

# relative eigenvalue cutoff separating kernel range from numerical null space
RANK_RTOL = 1e-12


def pearson_correlation(u: np.ndarray, v: np.ndarray) -> float:
    """Pearson correlation, clamped to [-1, 1] against floating point spill.

    Raises DegenerateProjection when either series has zero variance.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ShapeMismatch(f"series lengths differ: {u.shape} vs {v.shape}")
    du = u - u.mean()
    dv = v - v.mean()
    nu = np.linalg.norm(du)
    nv = np.linalg.norm(dv)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateProjection("projected series has zero variance")
    return float(np.clip(du @ dv / (nu * nv), -1.0, 1.0))


def linear_kernel(a: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Gram matrix A^T A of a d x n data matrix, exactly symmetrized."""
    n = a.shape[1]
    if n < 2:
        raise TooFewSamples(f"kernel needs at least 2 samples, got {n}")
    if sp.issparse(a):
        k = (a.T @ a).toarray()
    else:
        a = np.asarray(a, dtype=float)
        k = a.T @ a
    return (k + k.T) / 2.0


@dataclass
class CenteringMeans:
    """Training Gram row means and grand mean, for consistent test centering."""

    row_means: np.ndarray
    grand_mean: float


def center_kernel(k: np.ndarray) -> tuple[np.ndarray, CenteringMeans]:
    """Double-center a training Gram matrix: K <- H K H, H = I - 11^T/n."""
    k = np.asarray(k, dtype=float)
    row_means = k.mean(axis=1)
    grand = float(row_means.mean())
    centered = k - row_means[:, None] - row_means[None, :] + grand
    return (centered + centered.T) / 2.0, CenteringMeans(row_means, grand)


def center_cross(k_cross: np.ndarray, means: CenteringMeans) -> np.ndarray:
    """Center a train-rows x test-cols Gram block with training means only."""
    k_cross = np.asarray(k_cross, dtype=float)
    if k_cross.shape[0] != means.row_means.shape[0]:
        raise ShapeMismatch(
            f"cross block has {k_cross.shape[0]} rows, training had "
            f"{means.row_means.shape[0]} samples"
        )
    col_means = k_cross.mean(axis=0)
    return k_cross - col_means[None, :] - means.row_means[:, None] + means.grand_mean


@dataclass
class KccaModel:
    """First canonical pair in dual coordinates.

    ``lam`` is the Pearson correlation of the training projections (what
    the pipeline reports); ``eigenvalue`` is the raw top generalized
    eigenvalue, which coincides with ``lam`` up to the regularization and
    is exactly non-increasing in kappa.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lam: float
    eigenvalue: float
    kappa: float
    n_lags: int | None = None
    train_indices: np.ndarray | None = None
    side_norms: tuple[float, float] = (0.0, 0.0)


@dataclass
class PrimalWeights:
    """Input-space weights recovered from the dual solution.

    ``w_x`` has one column per lag, ordered tau = 1 .. n_lags; ``w_y`` is
    the pooled-side projection vector.
    """

    w_x: np.ndarray
    w_y: np.ndarray


def _psd_eigenbasis(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and vectors of a centered PSD kernel.

    Numerical null space is cut at RANK_RTOL relative to the top value.
    Raises DegenerateProjection when no variance is left.
    """
    try:
        theta, u = np.linalg.eigh(k)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"kernel eigendecomposition failed: {e}") from None
    theta = theta[::-1]
    u = u[:, ::-1]
    if theta.size == 0 or theta[0] <= 0.0:
        raise DegenerateProjection("kernel has no positive eigenvalue")
    keep = theta > theta[0] * RANK_RTOL
    return theta[keep], u[:, keep]


def _reduced_problem(theta_x: np.ndarray, theta_y: np.ndarray,
                     cross: np.ndarray, kappas: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(theta^2 + kappa) of each side and the reduced matrix M per kappa.

    Leading axes of ``theta_x`` (..., rx), ``theta_y`` (..., ry) and
    ``cross`` (..., rx, ry) index a stack of problems; the kappa axis comes
    right after them: M is (..., k, rx, ry). Raises SingularRhs for a kappa
    below KAPPA_FLOOR.
    """
    kappas = np.asarray(kappas, dtype=float)
    if kappas.min() < KAPPA_FLOOR:
        raise SingularRhs(
            f"kappa={kappas.min():g} below floor {KAPPA_FLOOR:g}; right-hand "
            f"side would be singular on centered kernels"
        )
    sqrt_dx = np.sqrt(theta_x[..., None, :] ** 2 + kappas[:, None])
    sqrt_dy = np.sqrt(theta_y[..., None, :] ** 2 + kappas[:, None])
    m = (theta_x[..., None, :] / sqrt_dx)[..., :, None] * cross[..., None, :, :] \
        * (theta_y[..., None, :] / sqrt_dy)[..., None, :]
    return sqrt_dx, sqrt_dy, m


def _canonical_pairs(theta_x: np.ndarray, theta_y: np.ndarray,
                     cross: np.ndarray, kappas: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenpair of the reduced problem for a whole batch of kappas.

    ``cross`` is Ux^T Uy restricted to the kept components. Returns, per
    kappa, the eigenvalue and the coefficient rows a, b such that
    alpha = Ux a, beta = Uy b. Uses a full SVD of each reduced matrix.
    """
    sqrt_dx, sqrt_dy, m = _reduced_problem(theta_x, theta_y, cross, kappas)
    try:
        uu, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"reduced eigensolve did not converge: {e}") from None
    return s[:, 0], uu[:, :, 0] / sqrt_dx, vt[:, 0, :] / sqrt_dy


def _top_pairs(theta_x: np.ndarray, theta_y: np.ndarray, cross: np.ndarray,
               kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_canonical_pairs` for a stack of problems, top pair only.

    ``theta_x`` (g, rx), ``theta_y`` (g, ry) and ``cross`` (g, rx, ry) give
    per problem and kappa the eigenvalue (g, k) and the rows a (g, k, rx),
    b (g, k, ry). Instead of a full SVD of each reduced matrix M it takes
    the top eigenvector of the smaller Gram matrix (M^T M or M M^T) and
    recovers the other side as M v / s; the reduction stays exact. Where M
    is zero the recovered side is zero rather than undefined.
    """
    sqrt_dx, sqrt_dy, m = _reduced_problem(theta_x, theta_y, cross, kappas)
    mt = np.swapaxes(m, -1, -2)
    small_right = m.shape[-1] <= m.shape[-2]
    try:
        _, vecs = np.linalg.eigh(mt @ m if small_right else m @ mt)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"reduced eigensolve did not converge: {e}") from None
    top = vecs[..., -1]
    other = ((m if small_right else mt) @ top[..., None])[..., 0]
    s = np.linalg.norm(other, axis=-1)
    other = np.divide(other, s[..., None], out=np.zeros_like(other),
                      where=s[..., None] > 0)
    u, v = (other, top) if small_right else (top, other)
    return s, u / sqrt_dx, v / sqrt_dy


def solve_kcca(kx: np.ndarray, ky: np.ndarray, kappa: float,
               n_lags: int | None = None,
               train_indices: np.ndarray | None = None) -> KccaModel:
    """Solve for the first canonical pair on centered training kernels.

    Sign convention: beta's largest-magnitude entry is positive, and alpha
    is flipped along with it so the training correlation stays +lam.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    if kx.shape != ky.shape or kx.shape[0] != kx.shape[1]:
        raise ShapeMismatch(f"kernels must be square and equal-sized, "
                            f"got {kx.shape} and {ky.shape}")
    if kx.shape[0] < 2:
        raise TooFewSamples("need at least 2 training samples")
    theta_x, ux = _psd_eigenbasis(kx)
    theta_y, uy = _psd_eigenbasis(ky)
    lams, a, b = _canonical_pairs(theta_x, theta_y, ux.T @ uy, np.array([kappa]))
    alpha = ux @ a[0]
    beta = uy @ b[0]
    if beta[np.argmax(np.abs(beta))] < 0:
        alpha = -alpha
        beta = -beta
    u = kx @ alpha
    v = ky @ beta
    lam = pearson_correlation(u, v)
    norms = (float(np.linalg.norm(u - u.mean())),
             float(np.linalg.norm(v - v.mean())))
    return KccaModel(alpha, beta, lam, float(lams[0]), kappa, n_lags=n_lags,
                     train_indices=train_indices, side_norms=norms)


def project(model: KccaModel, kx_block: np.ndarray, ky_block: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Dual projections u = alpha^T Kx(:, t), v = beta^T Ky(:, t).

    Blocks have training rows and arbitrary time columns and must already
    be centered with the training means (see :func:`center_cross`).
    """
    kx_block = np.atleast_2d(np.asarray(kx_block, dtype=float))
    ky_block = np.atleast_2d(np.asarray(ky_block, dtype=float))
    if kx_block.shape[0] != model.alpha.shape[0]:
        raise ShapeMismatch(
            f"kx block has {kx_block.shape[0]} rows, model has "
            f"{model.alpha.shape[0]} training samples"
        )
    if ky_block.shape[0] != model.beta.shape[0]:
        raise ShapeMismatch(
            f"ky block has {ky_block.shape[0]} rows, model has "
            f"{model.beta.shape[0]} training samples"
        )
    u = model.alpha @ kx_block
    v = model.beta @ ky_block
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NumericalFailure("projection produced non-finite values")
    return u, v


def recover_primal(model: KccaModel, x_embedded, y_trimmed) -> PrimalWeights:
    """Input-space weights w_x(tau) and w_y from the dual coefficients.

    ``x_embedded`` is the (W * n_lags) x n embedded training matrix and
    ``y_trimmed`` the W x n trimmed training pool. Because the dual
    vectors of a centered kernel sum to zero, centering the data here
    would not change the result; raw matrices are expected.
    """
    x = x_embedded.matrix if hasattr(x_embedded, "matrix") else x_embedded
    n_lags = getattr(x_embedded, "n_lags", None) or model.n_lags
    if n_lags is None:
        raise ShapeMismatch("number of lags unknown; pass an EmbeddedMatrix "
                            "or a model with n_lags set")
    if x.shape[1] != model.alpha.shape[0]:
        raise ShapeMismatch(
            f"embedded matrix has {x.shape[1]} columns, model has "
            f"{model.alpha.shape[0]} training samples"
        )
    if x.shape[0] % n_lags != 0:
        raise ShapeMismatch(
            f"embedded row count {x.shape[0]} not divisible by {n_lags} lags"
        )
    w_flat = np.asarray(x @ model.alpha).ravel()
    blocks = w_flat.reshape(n_lags, -1)  # block b holds lag n_lags - b
    w_x = blocks[::-1].T  # column tau-1 holds lag tau
    w_y = np.asarray(y_trimmed @ model.beta).ravel()
    return PrimalWeights(w_x, w_y)
