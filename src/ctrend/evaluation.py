"""Blocked time-series cross-validation, grid search and feed ranking.

The outer loop splits the trimmed time axis into contiguous blocks, holds
one out for testing and discards the samples right after it whose
embedding windows would otherwise reach into the test block. Inside each
training block a nested blocked CV picks the number of lags and the
regularizer from a grid. Per fold the canonical pair is fit, the held-out
correlation is recorded, and feeds are ranked by their mean fold score.

No lag embedding is kept. One reader, :class:`_LagEmbedding`, reads a
feed's lag-L embedding from the raw feed a whole lag block at a time
(lag-L column j stacks raw columns j+trim-L .. j+trim-1); it is the
bottom row block of the lag-max embedding. The Grams of the lags that
can take the dual route come from one transient read of the lag-max
embedding per feed, and the dual weight is formed a lag block at a time,
so no full copy of the training columns is made. The solver core is in
:mod:`kcca`: the side factors, the spectrum cut and the one canonical
fit, which the final fold fit shares with ``solve_kcca``. Inner folds on
the primal route (dense embedding no wider than the fold's training set)
are scored in memory-bounded batches from segment moments
(:func:`_score_fold_primal`, one stacked solve per lag whatever ranks the
folds keep), the others one at a time on side factors
(:func:`_score_fold_generic`). :func:`_fit_feed_fold` lays the flat feed
weight out as ``w_x``, W x n_lags, column tau-1 for lag tau. The LSA
baseline takes its directions from the batch's ``kcca._top_singular``.

:func:`analyze` runs stateless tasks (:func:`_fit_run`), feed-major: each
feed's outer folds in ``min(jobs, n_folds)`` contiguous runs, then its
shuffle control in the same runs, each on the feed's columns permuted by
the same seed. A task builds the feed's working set that it fits on (its
pool, Grams, and dense copies of the feed and pool where a fold can take
the primal route, :func:`_dense_copy`; a feed wider than its trimmed time
axis keeps the caller's sparse ones), and the set is dropped when the
task returns; the feed's first run also scores the baseline on it. So a
process holds one working set at a time, whatever the number of feeds,
and each of the up to ``jobs`` worker processes holds up to one. All
randomness is confined to the shuffle control, with per-feed seeds
derived from the master seed, the feed id and the task purpose; given
identical inputs the whole analysis is deterministic regardless of
worker count.
"""

from __future__ import annotations

import hashlib
import numbers
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .embedding import pool_excluding
from .exceptions import (
    BadSeed,
    BadSetting,
    DegenerateProjection,
    DuplicateFeed,
    NotEnoughFeeds,
    SeriesTooShort,
    ShapeMismatch,
    TooFewFolds,
    TooShortForFolds,
    UnknownFeed,
)
from .kcca import (
    KccaModel,
    linear_kernel,
    pearson_correlation,
    _batched_eigenbases,
    _canonical_pairs,
    _check_kappas,
    _cols,
    _divide_or_zero,
    _fit_pair,
    _SideFactor,
    _top_pairs,
    _top_singular,
)

# dense conversion threshold for embedded matrices (elements)
_DENSE_LIMIT = 4_000_000

# memory bound of one batch of the primal inner scorer (bytes): a batch of
# c folds holds about 4c D x D matrices (scatter, the eigh input and output
# and the previous lag's basis), D = lag-max embedding + pool dimension
_BATCH_BYTES = 32 * 2**20


@dataclass(frozen=True)
class Fold:
    """One train/test split with its post-test discard buffer."""

    test_indices: np.ndarray
    train_indices: np.ndarray
    discarded_indices: np.ndarray


@dataclass
class FoldPlan:
    """Contiguous blocked folds over a (possibly gapped) time index list."""

    n_folds: int
    n_lags: int
    axis: np.ndarray
    folds: list[Fold]


def _check_count(name: str, value) -> None:
    """BadSetting unless ``value`` is an integer (a numpy one too, but not
    a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadSetting(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class HyperGrid:
    """Grid of lag counts and regularizers for the nested search."""

    lags: tuple[int, ...] = tuple(range(1, 11))
    kappas: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1)

    def __post_init__(self):
        for name in ("lags", "kappas"):
            values = getattr(self, name)
            if isinstance(values, np.ndarray) and values.ndim == 1:
                values = values.tolist()
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise BadSetting(f"{name} must be a sequence of numbers, such as "
                                 f"a tuple or a 1-D array, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        if not self.lags or not self.kappas:
            raise BadSetting("hyperparameter grid must be non-empty")
        for lag in self.lags:
            _check_count("lags", lag)
        for kappa in self.kappas:
            if isinstance(kappa, bool) or not isinstance(kappa, numbers.Real):
                raise BadSetting(f"kappas must be numbers, got {kappa!r}")
        if min(self.lags) < 1:
            raise BadSetting("lags must be >= 1")
        _check_kappas(self.kappas)
        for name, values in (("lags", self.lags), ("kappas", self.kappas)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise BadSetting(f"{name} repeat {', '.join(map(str, repeated))}; "
                                 f"list each value once")

    @property
    def max_lag(self) -> int:
        return max(self.lags)


def plan_folds(axis, n_folds: int, n_lags: int) -> FoldPlan:
    """Split a time axis into contiguous test blocks with discard buffers.

    ``axis`` is either the axis length (planned over 0..T_eff-1) or an
    explicit sorted index array, as used for the nested plans over a
    training block with a hole in it. Block lengths differ by at most one.
    For each fold, indices whose time value lies within ``n_lags`` after
    the test block go to the discard buffer: their embedding windows
    overlap the test block, so training on them would leak test data.
    Raises BadSetting for a count that is not an integer, a negative
    ``n_lags`` or an index array that is not strictly increasing."""
    _check_count("n_folds", n_folds)
    _check_count("n_lags", n_lags)
    if n_lags < 0:
        raise BadSetting(f"n_lags must be at least 0, got {n_lags}")
    if n_folds < 2:
        raise TooFewFolds(f"blocked CV needs at least 2 folds, got {n_folds}")
    if np.isscalar(axis):
        axis = np.arange(int(axis))
    else:
        axis = np.asarray(axis, dtype=int)
        if axis.ndim != 1 or (np.diff(axis) <= 0).any():
            raise BadSetting("the time axis must be a 1-D array of strictly "
                             "increasing indices")
    n = len(axis)
    if n < n_folds * (n_lags + 2):
        raise TooShortForFolds(
            f"axis of length {n} cannot support {n_folds} folds with "
            f"{n_lags} lags (need at least {n_folds * (n_lags + 2)})"
        )
    bounds = np.linspace(0, n, n_folds + 1).astype(int)
    folds = []
    for i in range(n_folds):
        test = axis[bounds[i]:bounds[i + 1]]
        hi = test[-1]
        discard_mask = (axis > hi) & (axis <= hi + n_lags)
        train_mask = np.ones(n, dtype=bool)
        train_mask[bounds[i]:bounds[i + 1]] = False
        train_mask &= ~discard_mask
        folds.append(Fold(test, axis[train_mask], axis[discard_mask]))
    return FoldPlan(n_folds, n_lags, axis, folds)


def _dense_copy(w: int, t: int, trim: int) -> bool:
    """Whether a W x T feed's working set holds dense copies of the feed and
    pool under the size cap: when some fold can take the primal route. The
    pool has W rows, a lag-L embedding W*L, and no fold trains on more than
    T - trim columns. A wider feed's folds all take the dual route."""
    return w <= t - trim


@dataclass
class FoldOutcome:
    """Everything the report needs from one (feed, fold) fit."""

    fold: int
    n_lags: int
    kappa: float
    correlation: float
    degenerate: bool
    model: KccaModel | None
    w_x: np.ndarray | None  # oriented, W x n_lags, column tau-1 = lag tau
    w_y: np.ndarray | None
    correlogram: list[tuple[int, float | None]]
    inner_scores: np.ndarray | None = field(default=None, repr=False)


class _LagEmbedding:
    """The lag-``lag`` embedding of a feed on the axis trimmed by ``trim``,
    read from the feed's working copy ``x_raw`` and never stored: column j
    stacks the raw columns j+trim-lag .. j+trim-1 top to bottom, so the
    bottom block is lag 1. It is ``dense`` exactly when the copy is, which
    decides the primal route's eligibility and the format of :meth:`cols`.
    A column source of :class:`kcca._SideFactor` whose every read takes
    whole lag blocks, each the feed's rows at shifted columns.
    """

    def __init__(self, x_raw, lag: int, trim: int):
        self.x_raw, self.lag, self.trim = x_raw, lag, trim
        self.dense = not sp.issparse(x_raw)
        self.shape = (x_raw.shape[0] * lag, x_raw.shape[1] - trim)

    def _block(self, idx, b: int):
        """Lag block ``b`` of columns ``idx``, 0 at the top (lag ``lag``)."""
        return self.x_raw[:, np.asarray(idx, dtype=int) + self.trim - self.lag + b]

    def cols(self, idx):
        """All rows of columns ``idx``: csc where the embedding is sparse,
        else dense and column-major."""
        if not self.dense:
            return sp.vstack([self._block(idx, b) for b in range(self.lag)],
                             format="csc")
        w = self.x_raw.shape[0]
        out = np.empty((self.shape[0], len(idx)), order="F")
        for b in range(self.lag):
            out[b * w:(b + 1) * w] = self._block(idx, b)
        return out

    def cols_dot(self, idx, c: np.ndarray) -> np.ndarray:
        """``cols(idx) @ c``, formed one lag block at a time, so that no
        more than one block is held."""
        return np.concatenate([np.asarray(self._block(idx, b) @ c).ravel()
                               for b in range(self.lag)])


def _lag_grams(x, trim: int, top: int, lags, small: bool) -> dict:
    """Full-axis Gram matrix of each lag in ``lags``, from one transient
    read of the lag-``top`` embedding of ``x`` (:func:`_gram_input`), each
    lag's being its bottom row block."""
    if not lags:
        return {}
    emb = _LagEmbedding(x, top, trim)
    emb_max = _gram_input(emb.cols(np.arange(emb.shape[1])), small)
    w = x.shape[0]
    return {lag: linear_kernel(emb_max[w * (top - lag):]) for lag in lags}


def _gram_input(m, small: bool):
    """``m``, dense and column-major where it is sparse and ``small``."""
    return m.toarray(order="F") if small and sp.issparse(m) else m


class _FeedData:
    """Per-feed precomputed views shared by every fold and grid point.

    ``emb[lag]`` is the lag's embedding on the axis trimmed by ``trim`` (at
    least the largest lag), read a lag block at a time from the raw feed
    (:class:`_LagEmbedding`). No embedding is kept. ``gram_x`` maps each
    lag wider than ``min_train`` (the fewest training columns any fold
    will factor, so every lag that can take the dual route) to its
    full-axis Gram matrix (:func:`_lag_grams`); ``gram_y`` is the trimmed
    pool's when the pool is wider than ``min_train``, else None. Both come
    from the caller's matrices before any dense copy exists; feed and pool
    share W x T, so one size decision makes both Gram inputs dense and
    column-major under the cap. ``x_raw`` and ``pool_raw`` are dense copies
    under the cap where some fold can take the primal route
    (:func:`_dense_copy`), else the caller's matrices.
    """

    def __init__(self, x_raw, pool_raw, grid: HyperGrid, trim: int,
                 min_train: int):
        if trim < grid.max_lag:
            raise SeriesTooShort(f"trim {trim} is below the largest lag "
                                 f"{grid.max_lag}; use trim >= {grid.max_lag}")
        w, t = x_raw.shape
        self.trim = trim
        self.grid = grid
        small = w * t <= _DENSE_LIMIT
        # a Gram needs two samples; no fold factors fewer
        grams = t - trim >= 2
        self.gram_x = _lag_grams(x_raw, trim, grid.max_lag, [
            lag for lag in grid.lags if grams and w * lag > min_train], small)
        self.gram_y = (linear_kernel(_gram_input(pool_raw[:, trim:], small))
                       if grams and pool_raw.shape[0] > min_train else None)
        if small and _dense_copy(w, t, trim):
            x_raw, pool_raw = (m.toarray() if sp.issparse(m) else m
                               for m in (x_raw, pool_raw))
        self.x_raw, self.pool_raw = x_raw, pool_raw
        self.pool_trim = pool_raw[:, trim:]
        self.emb = {lag: _LagEmbedding(x_raw, lag, trim) for lag in grid.lags}


def _fewest_train(outer_trains, n_inner: int, trim: int) -> int:
    """Fewest training columns any fold factors: the smallest training set
    of the inner plans over ``outer_trains``, which contain them."""
    return min(len(f.train_indices) for train in outer_trains
               for f in plan_folds(np.asarray(train, dtype=int), n_inner, trim).folds)


def _pearson_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlations; zero-variance rows score 0."""
    du = u - u.mean(axis=1, keepdims=True)
    dv = v - v.mean(axis=1, keepdims=True)
    den = np.linalg.norm(du, axis=1) * np.linalg.norm(dv, axis=1)
    num = np.einsum("ij,ij->i", du, dv)
    return np.clip(_divide_or_zero(num, den), -1.0, 1.0)


def _fold_moments(data: _FeedData, plan: FoldPlan, fold_ids
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Training mean and centered scatter of each fold, from segment moments.

    Works on Z, the lag-max embedding stacked on the trimmed pool, over the
    plan's axis. The axis is cut wherever some fold's test block or discard
    buffer starts or ends, so every segment lies wholly inside or outside
    each fold's training set. Count, mean and centered Z Z^T are computed
    once per segment that some fold trains on; a fold's scatter is then the
    sum over its training segments of M2_s + n_s d_s d_s^T with
    d_s = mean_s - mean, in segment order (Chan, Golub & LeVeque 1979).
    Test and discard segments never enter it. Returns means (folds, D) and
    scatters (folds, D, D).
    """
    axis = plan.axis
    z = np.vstack((_cols(data.emb[data.grid.max_lag], axis),
                   _cols(data.pool_trim, axis)))
    folds = [plan.folds[i] for i in fold_ids]
    spans = []  # per fold: [test start, discard end) in axis positions
    cuts = {0, len(axis)}
    for fold in folds:
        start = int(np.searchsorted(axis, fold.test_indices[0]))
        end = start + len(fold.test_indices)
        spans.append((start, end + len(fold.discarded_indices)))
        cuts.update((start, end, spans[-1][1]))
    cuts = sorted(cuts)
    starts = np.asarray(cuts[:-1])
    train = np.array([(starts < lo) | (starts >= hi) for lo, hi in spans])
    counts = np.diff(cuts).astype(float)
    seg_mean = np.zeros((len(counts), z.shape[0]))
    scatter = np.zeros((len(folds), z.shape[0], z.shape[0]))
    for j in np.flatnonzero(train.any(axis=0)):
        zc = z[:, cuts[j]:cuts[j + 1]]
        seg_mean[j] = zc.mean(axis=1)
        zc = zc - seg_mean[j][:, None]
        m2 = zc @ zc.T
        for f in np.flatnonzero(train[:, j]):
            scatter[f] += m2
    means = np.empty((len(folds), z.shape[0]))
    for f, own in enumerate(train):
        n_s = counts[own]
        means[f] = n_s @ seg_mean[own] / n_s.sum()
        delta = seg_mean[own] - means[f]
        scatter[f] += (delta * n_s[:, None]).T @ delta
    return means, scatter


def _score_fold_primal(data: _FeedData, plan: FoldPlan, fold_ids,
                       kappas: np.ndarray) -> np.ndarray:
    """Score every (lag, kappa) grid point on a batch of inner folds.

    All folds are scored together: moments come from :func:`_fold_moments`,
    the lag-L covariance is the lag-max one's trailing sub-block of
    ``data.emb[L].shape[0]`` rows, each lag runs one ``eigh`` over
    the folds' covariance blocks, and the top pair comes from the small
    side via one :func:`_top_pairs` call per lag for all folds. A cut
    eigenvalue is zero and whitens to zero, so folds of any kept ranks share
    the solve, and a fold with no pool variance, or a lag with no feed
    variance, scores zero. Returns a (lags, kappas) table per fold.
    """
    grid = data.grid
    d_max = data.emb[grid.max_lag].shape[0]
    n_k = len(kappas)
    means, scatter = _fold_moments(data, plan, fold_ids)
    theta_y, p_y = _batched_eigenbases(scatter[:, d_max:, d_max:])
    sig_y = np.sqrt(theta_y)[:, None, :]
    white_y = _divide_or_zero(p_y, sig_y)
    # per fold, the feed- and pool-side weights of every (lag, kappa) row
    w_x = np.zeros((len(fold_ids), len(grid.lags), n_k, d_max))
    w_y = np.zeros((len(fold_ids), len(grid.lags), n_k, theta_y.shape[1]))
    for li, lag in enumerate(grid.lags):
        rows = slice(d_max - data.emb[lag].shape[0], d_max)
        theta_x, p_x = _batched_eigenbases(scatter[:, rows, rows])
        sig_x = np.sqrt(theta_x)[:, None, :]
        cross = (np.swapaxes(_divide_or_zero(p_x, sig_x), 1, 2)
                 @ scatter[:, rows, d_max:]) @ white_y
        _, a, b = _top_pairs(theta_x, theta_y, cross, kappas)
        w_x[:, li, :, rows] = (a * sig_x) @ np.swapaxes(p_x, 1, 2)
        w_y[:, li] = (b * sig_y) @ np.swapaxes(p_y, 1, 2)

    tables = np.zeros((len(fold_ids), len(grid.lags), n_k))
    for f, i in enumerate(fold_ids):
        test = plan.folds[i].test_indices
        x_te = _cols(data.emb[grid.max_lag], test) - means[f, :d_max, None]
        y_te = _cols(data.pool_trim, test) - means[f, d_max:, None]
        u = w_x[f].reshape(-1, d_max) @ x_te
        v = w_y[f].reshape(-1, w_y.shape[-1]) @ y_te
        tables[f] = _pearson_rows(u, v).reshape(len(grid.lags), n_k)
    return tables


def _score_fold_generic(data: _FeedData, train_idx, test_idx,
                        kappas: np.ndarray) -> np.ndarray:
    grid = data.grid
    scores = np.zeros((len(grid.lags), len(kappas)))
    try:
        sy = _SideFactor(data.pool_trim, train_idx, data.gram_y)
    except DegenerateProjection:
        return scores  # pool side has no variance: fold scores zero
    prep_y = sy.prepare_cols(test_idx)
    for li, lag in enumerate(grid.lags):
        try:
            sx = _SideFactor(data.emb[lag], train_idx, data.gram_x.get(lag))
        except DegenerateProjection:
            continue  # counts as zero for every kappa
        _, a, b = _canonical_pairs(sx.theta, sy.theta, sx.z @ sy.z.T, kappas)
        scores[li] = _pearson_rows(sx.project_batch(a, sx.prepare_cols(test_idx)),
                                   sy.project_batch(b, prep_y))
    return scores


def select_best_grid_point(scores: np.ndarray, grid: HyperGrid
                           ) -> tuple[int, float]:
    """Best (n_lags, kappa) by mean score; ties prefer fewer lags, then
    a larger regularizer (simpler models)."""
    best = None
    for li, lag in enumerate(grid.lags):
        for ki, kappa in enumerate(grid.kappas):
            key = (scores[li, ki], -lag, kappa)
            if best is None or key > best[0]:
                best = (key, lag, kappa)
    return best[1], best[2]


def _nested_select(data: _FeedData, train_positions, n_inner: int
                   ) -> tuple[int, float, np.ndarray]:
    grid = data.grid
    inner_plan = plan_folds(np.asarray(train_positions, dtype=int), n_inner,
                            data.trim)
    kappas = np.asarray(grid.kappas)
    emb_max = data.emb[grid.max_lag]
    d_max = emb_max.shape[0]
    # primal when the embedding is dense and no wider than the fold's
    # training set; those folds are scored in batches of _BATCH_BYTES
    primal = [i for i, fold in enumerate(inner_plan.folds)
              if emb_max.dense and d_max <= len(fold.train_indices)]
    side = d_max + data.pool_trim.shape[0]
    size = max(1, _BATCH_BYTES // (4 * 8 * side * side))
    tables = {}
    for lo in range(0, len(primal), size):
        ids = primal[lo:lo + size]
        tables.update(zip(ids, _score_fold_primal(data, inner_plan, ids,
                                                  kappas)))
    scores = np.zeros((len(grid.lags), len(kappas)))
    for i, fold in enumerate(inner_plan.folds):
        if i in tables:
            scores += tables[i]
        else:
            scores += _score_fold_generic(data, fold.train_indices,
                                          fold.test_indices, kappas)
    scores /= n_inner
    lag, kappa = select_best_grid_point(scores, grid)
    return lag, kappa, scores


def _lag_series(w_x: np.ndarray, w_y: np.ndarray, x_feed, pool, eval_times
                ) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-lag feed projections w_x(tau)^T X(:, t - tau), tau = 1..n_lags,
    and the pool projection w_y^T Y(:, t), over absolute evaluation times.
    Raises ShapeMismatch unless ``w_x`` is W x n_lags and ``w_y`` has one
    entry per pool row, and SeriesTooShort unless there are times, t - tau
    never underruns and t lies before the end of feed and pool."""
    eval_times = np.asarray(eval_times, dtype=int)
    if np.ndim(w_x) != 2 or len(w_x) != x_feed.shape[0] or \
            np.shape(w_y) != (pool.shape[0],):
        raise ShapeMismatch(f"w_x must be W x n_lags and w_y have one entry per "
                            f"pool row, for a feed of {x_feed.shape[0]} rows and "
                            f"a pool of {pool.shape[0]}; got {np.shape(w_x)} "
                            f"and {np.shape(w_y)}")
    t = min(x_feed.shape[1], pool.shape[1])
    n_lags = w_x.shape[1]
    if not len(eval_times) or eval_times.min() < n_lags:
        got = f"starts at {eval_times.min()}" if len(eval_times) else "is empty"
        raise SeriesTooShort(f"evaluation times for {n_lags} lags must start at "
                             f"{n_lags} or later; the list {got}")
    if eval_times.max() >= t:
        raise SeriesTooShort(f"evaluation times must lie before the series end "
                             f"T = {t}; the last is {eval_times.max()}")
    series_x = [w_x[:, tau - 1] @ _cols(x_feed, eval_times - tau)
                for tau in range(1, n_lags + 1)]
    return series_x, w_y @ _cols(pool, eval_times)


def canonical_correlogram(w_x: np.ndarray, w_y: np.ndarray, x_feed, pool,
                          eval_times: np.ndarray
                          ) -> list[tuple[int, float | None]]:
    """Lag-resolved correlation between per-lag feed and pool projections.

    ``w_x`` is W x n_lags, column tau-1 the feed weight at lag tau, and
    ``w_y`` the pool weight, as a fold's outcome holds them. For each lag
    tau, correlates w_x(tau)^T X(:, t - tau) against w_y^T Y(:, t) over
    the evaluation times. Lags whose series degenerate are reported as
    None.
    """
    series_x, series_y = _lag_series(w_x, w_y, x_feed, pool, eval_times)
    out: list[tuple[int, float | None]] = []
    for tau, series in enumerate(series_x, start=1):
        try:
            rho = pearson_correlation(series, series_y)
        except DegenerateProjection:
            rho = None
        out.append((tau, rho))
    return out


def _fit_feed_fold(data: _FeedData, fold: Fold, fold_index: int,
                   n_inner: int) -> FoldOutcome:
    lag, kappa, inner_scores = _nested_select(data, fold.train_indices, n_inner)
    try:
        sx = _SideFactor(data.emb[lag], fold.train_indices, data.gram_x.get(lag))
        sy = _SideFactor(data.pool_trim, fold.train_indices, data.gram_y)
    except DegenerateProjection:
        return FoldOutcome(fold_index, lag, kappa, 0.0, True, None, None, None,
                           [], inner_scores)
    model, a, b = _fit_pair(sx, sy, kappa)

    degenerate = False
    try:
        c = pearson_correlation(
            sx.project_batch(a[None], sx.prepare_cols(fold.test_indices))[0],
            sy.project_batch(b[None], sy.prepare_cols(fold.test_indices))[0])
    except DegenerateProjection:
        c = 0.0
        degenerate = True

    # W x lag, column tau-1 for lag tau: embedded row block b holds lag lag-b
    w_x = sx.primal_weight(a).reshape(lag, -1)[::-1].T
    w_y = sy.primal_weight(b)
    # reported with the dominant pooled-side weight positive; flipping both
    # sides together leaves every correlation unchanged
    if w_y[np.argmax(np.abs(w_y))] < 0:
        w_x, w_y = -w_x, -w_y
    correlogram = canonical_correlogram(w_x, w_y, data.x_raw, data.pool_raw,
                                        fold.test_indices + data.trim)
    return FoldOutcome(fold_index, lag, kappa, c, degenerate, model,
                       w_x, w_y, correlogram, inner_scores)


# ---------------------------------------------------------------------------
# baselines and controls

def lsa_direction(m) -> np.ndarray:
    """Unit-norm top eigenvector of M M^T for a dense or sparse M, from
    :func:`kcca._top_singular`, with its largest-magnitude entry positive.
    Raises DegenerateProjection when M is zero."""
    s, v, _ = _top_singular(m, m.T)
    if s == 0:
        raise DegenerateProjection("kernel has no positive eigenvalue")
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def lsa_baseline(x_feed, pool, plan: FoldPlan, lags, trim: int
                 ) -> tuple[list[float], list[list[float | None]]]:
    """Per-fold score of the strongest-topic baseline.

    Both directions come from uncentered variance maximization on the
    training columns (feed unembedded, pool trimmed); the fold score is
    the best test correlation over the same lag grid the main method
    searches. Returns fold scores and the per-lag table behind the max.
    """
    pool_trim = pool[:, trim:]
    x_trim = x_feed[:, trim:]
    fold_scores: list[float] = []
    per_lag_all: list[list[float | None]] = []
    for fold in plan.folds:
        try:
            v_x = lsa_direction(x_trim[:, fold.train_indices])
            v_y = lsa_direction(pool_trim[:, fold.train_indices])
        except DegenerateProjection:
            fold_scores.append(0.0)
            per_lag_all.append([None] * len(lags))
            continue
        # the same feed direction at every lag
        w_x = np.repeat(v_x[:, None], max(lags), axis=1)
        rho = dict(canonical_correlogram(w_x, v_y, x_feed, pool,
                                         fold.test_indices + trim))
        per_lag = [rho[tau] for tau in lags]
        defined = [r for r in per_lag if r is not None]
        fold_scores.append(max(defined) if defined else 0.0)
        per_lag_all.append(per_lag)
    return fold_scores, per_lag_all


def _sample_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform permutation, resampled if it comes out as the identity."""
    perm = rng.permutation(n)
    identity = np.arange(n)
    while n > 5 and np.array_equal(perm, identity):
        perm = rng.permutation(n)
    return perm


def shuffle_control(corpus: Corpus, feed_id: str, seed, grid: HyperGrid | None = None,
                    n_folds: int = 10, n_inner: int = 10) -> list[FoldOutcome]:
    """Rerun the full pipeline for one feed with its columns time-shuffled.

    Only the feed's own matrix is permuted; the pool stays untouched, so
    any surviving correlation estimates the null score distribution.
    ``seed`` is a non-negative integer or a ``SeedSequence``; analyze's
    control for the feed is this with ``derive_seed(seed, feed_id, 0, "shuffle")``.
    """
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)
    ctx = _context(corpus, grid or HyperGrid(), n_folds, n_inner)
    return _fit_run(ctx, feed_id, range(n_folds), False, seed)[0]


# ---------------------------------------------------------------------------
# reports and ranking

@dataclass
class FeedReport:
    """Per-feed cross-validation summary."""

    feed_id: str
    fold_correlations: list[float]
    percentiles: dict[str, float]
    chosen: list[dict]
    correlogram: list[tuple[int, float | None]]
    top_terms: list[tuple[str, float, int]]
    degenerate_folds: list[int]
    lsa_fold_scores: list[float] | None = None
    lsa_per_lag: list[list[float | None]] | None = None
    shuffle_fold_scores: list[float] | None = None


@dataclass
class Ranking:
    """Feeds ordered by mean fold correlation, ties by feed id."""

    entries: list[tuple[str, float]]


def rank_feeds(reports: list[FeedReport]) -> Ranking:
    counts = {len(r.fold_correlations) for r in reports}
    if len(counts) > 1:
        raise ValueError(f"reports disagree on fold count: {sorted(counts)}")
    entries = sorted(((r.feed_id, float(np.mean(r.fold_correlations)))
                      for r in reports), key=lambda e: (-e[1], e[0]))
    return Ranking(entries)


def emit_trend(w_x: np.ndarray, w_y: np.ndarray, x_feed, pool,
               eval_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical trend and its prediction over the given absolute times,
    from weights laid out as :func:`canonical_correlogram` takes them.

    Both series are normalized to unit sum of squares; their Pearson
    correlation equals the fold test correlation on the same indices.
    """
    series_x, y = _lag_series(w_x, w_y, x_feed, pool, eval_times)
    yhat = sum(series_x, np.zeros(len(y)))
    ny = np.linalg.norm(y)
    nyhat = np.linalg.norm(yhat)
    if ny == 0.0 or nyhat == 0.0:
        raise DegenerateProjection("trend series has zero energy")
    return y / ny, yhat / nyhat


# ---------------------------------------------------------------------------
# full pipeline

@dataclass
class AnalysisResult:
    """Complete output of :func:`analyze` for one corpus."""

    n_folds: int
    grid: HyperGrid
    seed: int
    trim: int
    n_inner: int
    reports: list[FeedReport]
    ranking: Ranking
    fold_outcomes: dict[str, list[FoldOutcome]]
    plan: FoldPlan


def derive_seed(master: int, feed_id: str, fold: int, purpose: str
                ) -> np.random.SeedSequence:
    """Stable per-task seed from the master seed, feed, fold and purpose."""
    fh = int.from_bytes(hashlib.sha256(feed_id.encode()).digest()[:4], "big")
    ph = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "big")
    return np.random.SeedSequence([int(master), fh, int(fold), ph])


_CTX: dict = {}


def _init_worker(context):
    global _CTX
    _CTX = context


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadSeed(f"seed must be a non-negative integer, got {seed!r}")


def _context(corpus: Corpus, grid: HyperGrid, n_folds: int, n_inner: int) -> dict:
    """The outer plan and ``min_train``; checks the fold counts and the
    inner CV before any fit."""
    _check_count("n_folds", n_folds)
    _check_count("n_inner", n_inner)
    trim = grid.max_lag
    plan = plan_folds(corpus.T - trim, n_folds, trim)
    _check_inner_cv(plan, n_inner)
    return {
        "corpus": corpus,
        "plan": plan,
        "grid": grid,
        "trim": trim,
        "n_inner": n_inner,
        "min_train": _fewest_train([f.train_indices for f in plan.folds],
                                   n_inner, trim),
    }


def _fit_run(ctx: dict, feed_id: str, folds: range, with_lsa: bool,
             shuffle_seed=None):
    """Fit outer folds ``folds`` of one feed, and with ``with_lsa`` score
    its baseline, on a working set built here and dropped on return; with
    ``shuffle_seed``, on the feed's columns permuted (the shuffle control)."""
    corpus, plan = ctx["corpus"], ctx["plan"]
    x = corpus.feed(feed_id).matrix
    if shuffle_seed is not None:
        x = x[:, _sample_permutation(np.random.default_rng(shuffle_seed), corpus.T)]
    data = _FeedData(x, pool_excluding(corpus, feed_id), ctx["grid"],
                     ctx["trim"], ctx["min_train"])
    outcomes = [_fit_feed_fold(data, plan.folds[i], i, ctx["n_inner"])
                for i in folds]
    if not with_lsa:
        return outcomes, None
    return outcomes, lsa_baseline(data.x_raw, data.pool_raw, plan,
                                  ctx["grid"].lags, ctx["trim"])


def _run_task(task):
    """:func:`_fit_run` on the worker's context (see ``_init_worker``)."""
    return _fit_run(_CTX, *task)


def best_fold(outcomes, field=getattr):
    """The fold whose weights the report shows, or None if no fold has any:
    the highest held-out correlation, then the lower fold index.

    ``outcomes`` are FoldOutcome objects, or models.json fold entries with
    ``field=dict.get``.
    """
    usable = [o for o in outcomes if field(o, "w_x") is not None]
    return max(usable, key=lambda o: (field(o, "correlation"), -field(o, "fold")),
               default=None)


def top_terms(w_x: np.ndarray, terms: list[str], k: int
              ) -> list[tuple[str, float, int]]:
    """Strongest terms of a convolution, by |weight| summed over lags.

    Each row reports the term's weight at its strongest lag, normalized by
    the overall strongest weight so the top row is +-1.0. Raises BadSetting
    for a negative ``k``.
    """
    _check_top_k(k)
    importance = np.abs(w_x).sum(axis=1)
    order = sorted(range(len(terms)), key=lambda w: (-importance[w], terms[w]))
    rows = []
    for w in order[:k]:
        if importance[w] == 0.0:
            break
        tau = int(np.argmax(np.abs(w_x[w]))) + 1
        rows.append((terms[w], float(w_x[w, tau - 1]), tau))
    if rows:
        top = max(abs(r[1]) for r in rows)
        if top > 0:
            rows = [(t, v / top, tau) for t, v, tau in rows]
    return rows


def _check_top_k(k: int) -> None:
    _check_count("top_k", k)
    if k < 0:
        raise BadSetting(f"top_k must be at least 0, got {k}")


def mean_correlogram(correlograms: list[list[tuple[int, float | None]]]
                     ) -> list[tuple[int, float | None]]:
    """Fold-mean correlogram; lags undefined everywhere stay None."""
    max_lag = max((len(c) for c in correlograms), default=0)
    out: list[tuple[int, float | None]] = []
    for tau in range(1, max_lag + 1):
        vals = [dict(c).get(tau) for c in correlograms]
        vals = [v for v in vals if v is not None]
        out.append((tau, float(np.mean(vals)) if vals else None))
    return out


def _check_inner_cv(plan: FoldPlan, n_inner: int) -> None:
    """Fail before any fitting when the shortest outer training block cannot
    hold the inner CV, naming the corpus length or inner fold count that
    would."""
    if n_inner < 2:
        raise TooFewFolds(f"inner CV needs at least 2 folds, got {n_inner}")
    trim, k = plan.n_lags, plan.n_folds
    need = n_inner * (trim + 2)

    def shortest(p: FoldPlan) -> int:
        return min(len(f.train_indices) for f in p.folds)

    have = shortest(plan)
    if have >= need:
        return
    # plan_folds guarantees k >= 2. A non-last fold drops at least
    # floor(T_eff / k) test samples and trim discards, which bounds T_eff
    # from below; step up from there
    t_eff = max(-(-(need + trim - 1) * k // (k - 1)), k * (trim + 2))
    while shortest(plan_folds(t_eff, k, trim)) < need:
        t_eff += 1
    fixes = [f"T >= {t_eff + trim}"]
    if have // (trim + 2) >= 2:
        fixes.append(f"--inner-folds <= {have // (trim + 2)}")
    raise TooShortForFolds(
        f"inner CV: the shortest outer training block has {have} samples, "
        f"too few for {n_inner} inner folds with {trim} lags (need at least "
        f"{need}); use " + " or ".join(fixes)
    )


def analyze(corpus: Corpus, grid: HyperGrid | None = None, n_folds: int = 10,
            seed: int = 0, feed_ids: list[str] | None = None,
            with_lsa: bool = False, with_shuffle: bool = False,
            jobs: int = 1, n_inner: int = 10, top_k: int = 10
            ) -> AnalysisResult:
    """Run the whole trend-setter pipeline over a corpus.

    Optionally restricts scoring to ``feed_ids`` (pools are always built
    from the full corpus). ``jobs`` > 1 fans the tasks out to worker
    processes; the reduction order is fixed, so reports are identical for
    any worker count. Raises BadSetting for a count that is not an integer
    (``n_folds``, ``n_inner``, ``jobs``, ``top_k``), ``jobs`` below 1, a
    ``feed_ids`` that is empty or not a list of strings, or a negative
    ``top_k``, before any fit.
    """
    _check_seed(seed)
    _check_count("jobs", jobs)
    if jobs < 1:
        raise BadSetting(f"jobs must be at least 1, got {jobs}")
    _check_top_k(top_k)
    corpus.validate()
    if corpus.F < 2:
        raise NotEnoughFeeds(f"analysis needs at least 2 feeds, got {corpus.F}")
    context = _context(corpus, grid or HyperGrid(), n_folds, n_inner)

    if feed_ids is None:
        feed_ids = corpus.feed_ids
    elif not isinstance(feed_ids, (list, tuple)) or not all(
            isinstance(f, str) for f in feed_ids):
        raise BadSetting(f"feed_ids must be a list of strings, got {feed_ids!r}")
    elif not feed_ids:
        raise BadSetting("feed filter is empty; name at least one feed, or "
                         "pass None for all")
    else:
        unknown = set(feed_ids) - set(corpus.feed_ids)
        if unknown:
            raise UnknownFeed(f"no feed named {sorted(unknown)!r}")
        repeated = sorted({f for f in feed_ids if feed_ids.count(f) > 1})
        if repeated:
            raise DuplicateFeed(f"feed filter names {repeated!r} more than "
                                f"once; list each feed once")

    # feed-major: each feed's outer folds in min(jobs, n_folds) contiguous
    # runs, the first also scoring the baseline, then its shuffle control
    # in the same runs, each permuting the feed's columns with one seed
    k = min(jobs, n_folds)
    runs = [range(n_folds * r // k, n_folds * (r + 1) // k) for r in range(k)]
    tasks = []
    for feed_id in feed_ids:
        tasks += [(feed_id, run, with_lsa and run.start == 0) for run in runs]
        if with_shuffle:
            shuffle_seed = derive_seed(seed, feed_id, 0, "shuffle")
            tasks += [(feed_id, run, False, shuffle_seed) for run in runs]

    if jobs > 1:
        # a fork pool starts all its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_init_worker,
                                 initargs=(context,)) as executor:
            results = list(executor.map(_run_task, tasks))
    else:
        results = [_fit_run(context, *t) for t in tasks]

    results = iter(results)
    reports = []
    fold_outcomes: dict[str, list[FoldOutcome]] = {}
    for feed_id in feed_ids:
        ran = [next(results) for _ in runs]
        outcomes = [o for fits, _ in ran for o in fits]
        fold_outcomes[feed_id] = outcomes
        corrs = [o.correlation for o in outcomes]
        p25, p50, p75 = np.percentile(corrs, [25, 50, 75])
        best = best_fold(outcomes)
        terms = corpus.vocabulary.terms
        top = [] if best is None else top_terms(best.w_x, terms, top_k)
        report = FeedReport(
            feed_id=feed_id,
            fold_correlations=corrs,
            percentiles={"p25": float(p25), "p50": float(p50), "p75": float(p75)},
            chosen=[{"fold": o.fold, "n_lags": o.n_lags, "kappa": o.kappa}
                    for o in outcomes],
            correlogram=mean_correlogram([o.correlogram for o in outcomes]),
            top_terms=top,
            degenerate_folds=[o.fold for o in outcomes if o.degenerate],
        )
        if with_lsa:
            report.lsa_fold_scores, report.lsa_per_lag = ran[0][1]
        if with_shuffle:
            report.shuffle_fold_scores = [o.correlation for _ in runs
                                          for o in next(results)[0]]
        reports.append(report)

    return AnalysisResult(n_folds, context["grid"], seed, context["trim"], n_inner,
                          reports, rank_feeds(reports), fold_outcomes, context["plan"])
