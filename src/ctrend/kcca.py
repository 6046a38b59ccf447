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
reduction is exact, not an approximation. A cut eigenvalue is zero
(:func:`_batched_eigenbases`).

Each side is factored once (:class:`_SideFactor`) in whichever space is
smaller: the covariance of its dense training columns when the feature
dimension is at most the sample count (primal), the centered Gram matrix
otherwise (dual). Both give the centered-kernel spectrum and hold it the
same way: the kept eigenvalues ``theta`` and unit eigenvectors ``z`` (as
rows) of the centered training kernel, plus the map ``t`` from centered
evaluation data (columns on the primal route, a centered cross-Gram block
on the dual) to eigenbasis coordinates. So the solve, the projections and
the cross term z_x z_y^T do not depend on the route; only building a side
and recovering its primal weight do. :func:`_fit_pair` solves, orients and
measures the pair on two factors; ``solve_kcca`` and the per-fold fit of
``evaluation`` both run it. The batched inner scorer and the LSA baseline
take a top singular triple from the smaller Gram (:func:`_top_singular`).

Only the first canonical pair is computed. The kernels are linear (Gram
matrices), which is what makes primal-weight recovery possible. A side's
weight is one vector over its data rows; how those rows are laid out,
such as the lag blocks of an embedding, is up to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    BadKappa,
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


def _batched_eigenbases(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a centered PSD kernel, or a stack of them, in one
    ``eigh`` call, descending. The spectrum cut: an eigenvalue at or below
    RANK_RTOL times the top one is set to 0."""
    try:
        theta, u = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"kernel eigendecomposition failed: {e}") from None
    theta = theta[..., ::-1]
    top = theta.max(axis=-1, initial=0.0, keepdims=True)
    return np.where(theta > top * RANK_RTOL, theta, 0.0), u[..., ::-1]


def _psd_eigenbasis(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One kernel's kept eigenpairs, or DegenerateProjection. The vectors
    are a column-major copy: the last bits of the BLAS calls downstream
    depend on that layout."""
    theta, u = _batched_eigenbases(k)
    rank = np.count_nonzero(theta)
    if rank == 0:
        raise DegenerateProjection("kernel has no positive eigenvalue")
    return theta[:rank], np.array(u[:, :rank], order="F")


def _cols(m, idx) -> np.ndarray:
    """Dense float columns ``idx`` of a matrix or of a column source."""
    sub = m.cols(idx) if hasattr(m, "cols") else m[:, idx]
    return sub.toarray() if sp.issparse(sub) else np.asarray(sub, dtype=float)


class _SideFactor:
    """Centered, spectrally factored view of one side's training columns,
    on the primal or the dual route (see the module docstring).

    ``data_full`` is a d x n matrix, or a column source that never holds
    it, such as the lag embeddings of ``evaluation``: an object with
    ``shape``, ``cols(idx)`` (``m[:, idx]``) and ``cols_dot(idx, c)`` (the
    flat ``m[:, idx] @ c``, formed in pieces of its choosing). The dual
    route reads columns only for the primal weight; its Gram matrix over
    all columns is ``gram``, which the primal route ignores.

    Both routes hold the same solve-facing representation: ``theta``, the
    kept eigenvalues of the centered training kernel, ``z`` (r x n), its
    unit eigenvectors as rows, and ``t``, the map :meth:`project_batch`
    applies to what :meth:`prepare_cols` gives. On the dual route
    z = t = U^T, from the Gram matrix's ``eigh``. On the primal route, with
    the centered training columns Ac = U diag(sigma) V^T from the
    covariance's ``eigh``, z = (U / sigma)^T Ac and t = diag(sigma) U^T.
    """

    def __init__(self, data_full, train_idx, gram=None):
        self.data_full = data_full
        self.train_idx = np.asarray(train_idx, dtype=int)
        n = len(self.train_idx)
        d = data_full.shape[0]
        self.primal = d <= n
        if self.primal:
            a = _cols(data_full, self.train_idx)
            self.mean = a.mean(axis=1)
            ac = a - self.mean[:, None]
            self.theta, u = _psd_eigenbasis(ac @ ac.T)
            sigma = np.sqrt(self.theta)
            self.z = (u / sigma).T @ ac
            self.t = sigma[:, None] * u.T
        else:
            self.k_full = gram
            k_train = self.k_full[np.ix_(self.train_idx, self.train_idx)]
            kc, self.means = center_kernel(k_train)
            self.theta, u = _psd_eigenbasis(kc)
            self.z = self.t = u.T

    @classmethod
    def of_centered(cls, kc: np.ndarray) -> "_SideFactor":
        """Factor of a centered kernel; no data side, only the solve."""
        side = cls.__new__(cls)
        side.theta, u = _psd_eigenbasis(kc)
        side.z = u.T
        return side

    def dual_coef(self, a: np.ndarray) -> np.ndarray:
        return self.z.T @ a

    def train_projection(self, a: np.ndarray) -> np.ndarray:
        return self.z.T @ (self.theta * a)

    def primal_weight(self, a: np.ndarray) -> np.ndarray:
        if self.primal:
            return self.t.T @ a
        m, c = self.data_full, self.dual_coef(a)
        if hasattr(m, "cols"):
            return m.cols_dot(self.train_idx, c)
        return np.asarray(m[:, self.train_idx] @ c).ravel()

    def prepare_cols(self, idx) -> np.ndarray:
        """Centered evaluation data for :meth:`project_batch`."""
        idx = np.asarray(idx, dtype=int)
        if self.primal:
            return _cols(self.data_full, idx) - self.mean[:, None]
        return center_cross(self.k_full[np.ix_(self.train_idx, idx)], self.means)

    def project_batch(self, a_rows: np.ndarray, prepared: np.ndarray) -> np.ndarray:
        """Project a whole batch of coefficient rows at once: (k, m)."""
        return a_rows @ self.t @ prepared


def _divide_or_zero(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b is not positive: a component, pair or series
    with nothing left contributes nothing."""
    return np.divide(a, b, out=np.zeros_like(a), where=b > 0)


def _check_kappas(kappas) -> np.ndarray:
    """The regularizers as a float array. Raises BadKappa for one that is
    not finite and SingularRhs for one below KAPPA_FLOOR."""
    kappas = np.asarray(kappas, dtype=float)
    if not np.isfinite(kappas).all():
        raise BadKappa(f"kappa={kappas[~np.isfinite(kappas)][0]:g} is not a "
                       f"finite number")
    if kappas.min() < KAPPA_FLOOR:
        raise SingularRhs(
            f"kappa={kappas.min():g} below floor {KAPPA_FLOOR:g}; right-hand "
            f"side would be singular on centered kernels"
        )
    return kappas


def _reduced_problem(theta_x: np.ndarray, theta_y: np.ndarray,
                     cross: np.ndarray, kappas: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(theta^2 + kappa) of each side and the reduced matrix M per kappa.

    Leading axes of ``theta_x`` (..., rx), ``theta_y`` (..., ry) and
    ``cross`` (..., rx, ry) index a stack of problems; the kappa axis comes
    right after them: M is (..., k, rx, ry).
    """
    kappas = _check_kappas(kappas)
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


def _top_singular(m, mt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top singular triple s, u, v of a dense (..., p, q) stack M or of one
    scipy sparse M, given M and ``mt`` = M^T. One side is the top
    eigenvector of the smaller Gram matrix (densified), the other is
    recovered as M v / s or M^T u / s, and is zero where M is zero."""
    small_right = m.shape[-1] <= m.shape[-2]
    gram = mt @ m if small_right else m @ mt
    try:
        _, vecs = np.linalg.eigh(gram.toarray() if sp.issparse(gram) else gram)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"reduced eigensolve did not converge: {e}") from None
    top = vecs[..., -1]
    other = ((m if small_right else mt) @ top[..., None])[..., 0]
    s = np.linalg.norm(other, axis=-1)
    other = _divide_or_zero(other, s[..., None])
    return (s, other, top) if small_right else (s, top, other)


def _top_pairs(theta_x: np.ndarray, theta_y: np.ndarray, cross: np.ndarray,
               kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_canonical_pairs`' top pair by :func:`_top_singular`, for a
    stack: ``theta_x`` (g, rx), ``theta_y`` (g, ry) and ``cross`` (g, rx, ry)
    give the eigenvalue (g, k) and the rows a (g, k, rx), b (g, k, ry)."""
    sqrt_dx, sqrt_dy, m = _reduced_problem(theta_x, theta_y, cross, kappas)
    s, u, v = _top_singular(m, np.swapaxes(m, -1, -2))
    return s, u / sqrt_dx, v / sqrt_dy


def _fit_pair(sx: _SideFactor, sy: _SideFactor, kappa: float
              ) -> tuple[KccaModel, np.ndarray, np.ndarray]:
    """First canonical pair of two side factors at one kappa, as a model
    and the coefficient rows a, b in the sides' eigenbases. Sign: beta's
    largest-magnitude entry is positive, alpha flips along with it."""
    lams, a, b = _canonical_pairs(sx.theta, sy.theta, sx.z @ sy.z.T,
                                  np.array([kappa]))
    a, b = a[0], b[0]
    beta = sy.dual_coef(b)
    if beta[np.argmax(np.abs(beta))] < 0:
        a, b, beta = -a, -b, -beta
    u = sx.train_projection(a)
    v = sy.train_projection(b)
    model = KccaModel(sx.dual_coef(a), beta, pearson_correlation(u, v),
                      float(lams[0]), kappa)
    return model, a, b


def solve_kcca(kx: np.ndarray, ky: np.ndarray, kappa: float) -> KccaModel:
    """First canonical pair on centered training kernels, by the same
    fit (:func:`_fit_pair`) that ``analyze`` runs per fold."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    if kx.shape != ky.shape or kx.shape[0] != kx.shape[1]:
        raise ShapeMismatch(f"kernels must be square and equal-sized, "
                            f"got {kx.shape} and {ky.shape}")
    if kx.shape[0] < 2:
        raise TooFewSamples("need at least 2 training samples")
    return _fit_pair(_SideFactor.of_centered(kx), _SideFactor.of_centered(ky),
                     kappa)[0]


def project(model: KccaModel, kx_block: np.ndarray, ky_block: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Dual projections u = alpha^T Kx(:, t), v = beta^T Ky(:, t).

    Blocks have training rows and arbitrary time columns and must already
    be centered with the training means (see :func:`center_cross`).
    """
    out = []
    for name, coef, block in (("kx", model.alpha, kx_block),
                              ("ky", model.beta, ky_block)):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[0] != coef.shape[0]:
            raise ShapeMismatch(f"{name} block has {block.shape[0]} rows, model "
                                f"has {coef.shape[0]} training samples")
        out.append(coef @ block)
    if not all(np.isfinite(w).all() for w in out):
        raise NumericalFailure("projection produced non-finite values")
    return out[0], out[1]
