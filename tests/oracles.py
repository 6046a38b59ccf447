"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the library's code paths: kernels by
double loops, pooling by dense Python loops, CCA in input space via
whitened covariances, the generalized eigenproblem via scipy's direct
two-matrix solver, LSA directions by power iteration, and JSON text one
value at a time.
"""

import json
import math

import numpy as np
import scipy.linalg as sla


def naive_gram(a: np.ndarray) -> np.ndarray:
    """Entrywise dot-product Gram matrix, O(n^2 d) double loop."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = float(np.dot(a[:, i], a[:, j]))
    return k


def dense_pool_mean(mats: list[np.ndarray], exclude: int) -> np.ndarray:
    """Entrywise mean over all matrices except one, via explicit loops."""
    kept = [np.asarray(m, dtype=float) for i, m in enumerate(mats) if i != exclude]
    out = np.zeros_like(kept[0])
    for m in kept:
        out += m
    return out / len(kept)


def input_space_cca(x: np.ndarray, y: np.ndarray, rcond: float = 1e-10) -> float:
    """Top canonical correlation of two views, classical covariance route.

    Centers both views, whitens each covariance through its eigenbasis and
    takes the top singular value of the whitened cross-covariance. Only
    valid when both feature dimensions are below the sample count.
    """
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    cxx = xc @ xc.T
    cyy = yc @ yc.T
    cxy = xc @ yc.T

    def inv_sqrt(c):
        vals, vecs = np.linalg.eigh(c)
        keep = vals > vals.max() * rcond
        return vecs[:, keep] / np.sqrt(vals[keep])

    wx = inv_sqrt(cxx)
    wy = inv_sqrt(cyy)
    s = np.linalg.svd(wx.T @ cxy @ wy, compute_uv=False)
    return float(s[0])


def generalized_eig_top(kx: np.ndarray, ky: np.ndarray, kappa: float) -> float:
    """Largest eigenvalue of the coupled kernel system, solved directly.

    Builds the full 2n x 2n symmetric-definite pencil (off-diagonal kernel
    products against the block-diagonal squared-kernel regularizer) and
    hands it to scipy's generalized eigensolver.
    """
    n = kx.shape[0]
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = kx @ ky
    a[n:, :n] = ky @ kx
    b = np.zeros((2 * n, 2 * n))
    b[:n, :n] = kx @ kx + kappa * np.eye(n)
    b[n:, n:] = ky @ ky + kappa * np.eye(n)
    vals = sla.eigh(a, b, eigvals_only=True)
    return float(vals[-1])


def power_iteration_top(c: np.ndarray, iters: int = 2000, seed: int = 0
                        ) -> np.ndarray:
    """Top eigenvector of a symmetric PSD matrix by plain power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(c.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = c @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return v
        w /= nw
        if np.linalg.norm(w - v) < 1e-14 or np.linalg.norm(w + v) < 1e-14:
            v = w
            break
        v = w
    return v


def brute_lagged_pearson(x_series: np.ndarray, y_series: np.ndarray,
                         tau: int) -> float:
    """Pearson correlation of x shifted back by tau against y, by hand."""
    u = x_series[:len(x_series) - tau] if tau else x_series
    v = y_series[tau:]
    u = u - u.mean()
    v = v - v.mean()
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def json_text(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats, one value per
    recursive call; NaN and infinities become null. Arrays are written as
    their nested lists."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if math.isnan(x) or math.isinf(x) else format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return json_text(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_text(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + json_text(v)
                              for k, v in sorted(obj.items())) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
