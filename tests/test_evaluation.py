import importlib.util
import re
import tracemalloc
import warnings
import weakref
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ctrend import (
    HyperGrid,
    ToyConfig,
    analyze,
    canonical_correlogram,
    emit_trend,
    generate_toy,
    lsa_baseline,
    lsa_direction,
    pearson_correlation,
    plan_folds,
    pool_excluding,
    project,
    rank_feeds,
    shuffle_control,
    solve_kcca,
)
from ctrend import evaluation
from ctrend.cli import main as cli_main
from ctrend.corpus import Corpus, FeedSeries, Vocabulary, load_corpus
from ctrend.embedding import embed_columns
from ctrend.evaluation import (
    FeedReport,
    _FeedData,
    _Grams,
    _LagEmbedding,
    _batched_eigenbases,
    _fit_feed_fold,
    _fold_moments,
    _nested_select,
    _sample_permutation,
    _score_fold_generic,
    _score_fold_primal,
    derive_seed,
    mean_correlogram,
    select_best_grid_point,
    top_terms,
)
from ctrend.exceptions import (
    BadKappa,
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
from ctrend.kcca import (
    _SideFactor,
    _cols,
    _psd_eigenbasis,
    _top_pairs,
    center_cross,
    center_kernel,
    linear_kernel,
)
from ctrend.reporting import (
    build_models,
    build_report,
    dumps,
    write_analysis_outputs,
    write_topwords_from_models,
)
from ctrend.synth import LeaderConfig, generate_leader
from oracles import brute_lagged_pearson, power_iteration_top

T0 = datetime(2011, 10, 1, tzinfo=timezone.utc)


def corpus_from(mats, ids=None):
    W, T = np.asarray(mats[0]).shape
    ids = ids or [f"f{i}" for i in range(len(mats))]
    feeds = [FeedSeries(fid, sp.csc_matrix(np.asarray(m, dtype=float)))
             for fid, m in zip(ids, mats)]
    return Corpus(Vocabulary([f"t{i}" for i in range(W)]), T0, 1.0, T, feeds,
                  synthetic=True)


SMALL_GRID = HyperGrid(lags=(1, 2, 3, 4), kappas=(1e-4, 1e-2, 1.0))


# ---------------------------------------------------------------------------
# fold planning

def test_plan_folds_discard_rule():
    plan = plan_folds(100, 10, 5)
    fold = plan.folds[2]  # test block 20..29
    assert list(fold.test_indices) == list(range(20, 30))
    assert list(fold.discarded_indices) == list(range(30, 35))
    assert set(fold.train_indices) == set(range(100)) - set(range(20, 35))


def test_plan_folds_first_block():
    plan = plan_folds(100, 10, 5)
    fold = plan.folds[0]
    assert list(fold.test_indices) == list(range(10))
    assert list(fold.discarded_indices) == list(range(10, 15))


def test_plan_folds_last_block_no_discard():
    plan = plan_folds(100, 10, 5)
    assert len(plan.folds[-1].discarded_indices) == 0


def test_plan_folds_too_short():
    with pytest.raises(TooShortForFolds):
        plan_folds(50, 10, 10)


@pytest.mark.parametrize("n_folds", [0, 1])
def test_plan_folds_needs_two_folds(n_folds):
    with pytest.raises(TooFewFolds):
        plan_folds(100, n_folds, 2)


@pytest.mark.parametrize("n_folds, n_lags, name", [
    (2.5, 1, "n_folds must be an integer"),
    (3, 1.5, "n_lags must be an integer"),
    (3, True, "n_lags must be an integer"),
    (3, -1, "n_lags must be at least 0"),
], ids=["float-folds", "float-lags", "bool-lags", "negative-lags"])
def test_plan_folds_names_bad_counts(n_folds, n_lags, name):
    with pytest.raises(BadSetting, match=name):
        plan_folds(100, n_folds, n_lags)


@pytest.mark.parametrize("axis", [
    np.r_[np.arange(20), np.arange(19, 40)],  # a repeated index
    np.arange(40)[::-1],
    np.arange(40).reshape(2, 20),
], ids=["repeated", "descending", "2-d"])
def test_plan_folds_names_an_axis_that_is_not_increasing(axis):
    with pytest.raises(BadSetting, match="strictly increasing"):
        plan_folds(axis, 2, 1)


def test_plan_folds_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_folds = int(rng.integers(2, 8))
        n_lags = int(rng.integers(1, 6))
        n = int(rng.integers(n_folds * (n_lags + 2), 200))
        plan = plan_folds(n, n_folds, n_lags)
        seen = []
        sizes = []
        for fold in plan.folds:
            test = set(fold.test_indices)
            train = set(fold.train_indices)
            disc = set(fold.discarded_indices)
            assert not test & train and not test & disc and not train & disc
            assert test | train | disc == set(range(n))
            hi = max(test)
            assert disc == {i for i in range(hi + 1, hi + 1 + n_lags) if i < n}
            seen.extend(sorted(test))
            sizes.append(len(test))
        assert seen == list(range(n))  # test blocks tile the axis exactly once
        assert max(sizes) - min(sizes) <= 1


def test_plan_folds_gapped_axis_discards_by_time():
    # axis with a hole, as in nested plans: discard follows time values
    axis = np.array([0, 1, 2, 3, 4, 5, 20, 21, 22, 23, 24, 25])
    plan = plan_folds(axis, 2, 3)
    fold = plan.folds[0]
    assert list(fold.test_indices) == [0, 1, 2, 3, 4, 5]
    # times 6, 7, 8 are not on the axis; nothing to discard
    assert list(fold.discarded_indices) == []
    fold1 = plan.folds[1]
    assert list(fold1.test_indices) == [20, 21, 22, 23, 24, 25]


def test_hypergrid_validation():
    with pytest.raises(ValueError):
        HyperGrid(lags=())
    with pytest.raises(ValueError):
        HyperGrid(lags=(0, 1))
    with pytest.raises(ValueError):
        HyperGrid(kappas=(1e-12,))


@pytest.mark.parametrize("lags, message", [
    ((), "hyperparameter grid must be non-empty"),
    ((0, 1), "lags must be >= 1"),
    ((1, 1), "lags repeat 1; list each value once")])
def test_hypergrid_raises_bad_setting(lags, message):
    with pytest.raises(BadSetting, match=re.escape(message)):
        HyperGrid(lags=lags)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_hypergrid_names_a_kappa_that_is_not_finite(kappa):
    with pytest.raises(BadKappa, match=f"kappa={kappa} is not a finite number"):
        HyperGrid(kappas=(1e-2, kappa))


@pytest.mark.parametrize("lags, kappas, message", [
    ((1, 2, 1), (1.0,), "lags repeat 1; list each value once"),
    ((1,), (1e-2, 0.01, 1.0), "kappas repeat 0.01; list each value once")])
def test_hypergrid_rejects_repeated_values(lags, kappas, message):
    with pytest.raises(ValueError) as exc:
        HyperGrid(lags=lags, kappas=kappas)
    assert str(exc.value) == message


def test_hypergrid_takes_lags_from_a_numpy_array():
    grid = HyperGrid(lags=np.arange(1, 4))
    assert grid == HyperGrid(lags=(1, 2, 3))
    assert grid.lags == (1, 2, 3) and grid.max_lag == 3


def test_hypergrid_takes_kappas_from_a_numpy_array():
    grid = HyperGrid(kappas=np.array([1e-2, 1.0]))
    assert grid == HyperGrid(kappas=(1e-2, 1.0))
    assert hash(grid) == hash(HyperGrid(kappas=(1e-2, 1.0)))


@pytest.mark.parametrize("lags", [3, np.int64(3), np.array(3)],
                         ids=["int", "numpy-int", "0-d-array"])
def test_hypergrid_names_lags_that_are_not_a_sequence(lags):
    with pytest.raises(BadSetting, match="lags must be a sequence of numbers"):
        HyperGrid(lags=lags)


# ---------------------------------------------------------------------------
# selection

def test_select_best_tie_breaks():
    grid = HyperGrid(lags=(1, 2), kappas=(0.1, 1.0))
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert select_best_grid_point(scores, grid) == (1, 1.0)
    scores = np.array([[0.4, 0.5], [0.5, 0.5]])
    assert select_best_grid_point(scores, grid) == (1, 1.0)
    scores = np.array([[0.4, 0.4], [0.6, 0.5]])
    assert select_best_grid_point(scores, grid) == (2, 0.1)


def test_nested_select_single_point():
    c = generate_toy(ToyConfig(T=300, seed=0))
    grid = HyperGrid(lags=(3,), kappas=(1e-2,))
    fold = plan_folds(c.T - 3, 5, 3).folds[0]
    data = _FeedData(c.feed("X").matrix, pool_excluding(c, "X"), grid, 3)
    lag, kappa, scores = _nested_select(data, fold.train_indices, 5)
    assert (lag, kappa) == (3, 1e-2)
    assert scores.shape == (1, 1)


def test_nested_select_covers_true_lag():
    c = generate_toy(ToyConfig(T=800, seed=1))
    trim = SMALL_GRID.max_lag
    fold = plan_folds(c.T - trim, 5, trim).folds[0]
    data = _FeedData(c.feed("X").matrix, pool_excluding(c, "X"), SMALL_GRID,
                     trim)
    lag, _, _ = _nested_select(data, fold.train_indices, 5)
    assert lag >= 3


def test_nested_select_rejects_trim_below_largest_lag():
    c = generate_toy(ToyConfig(T=300, seed=0))
    with pytest.raises(SeriesTooShort, match="trim 2 .* largest lag 4"):
        _FeedData(c.feed("X").matrix, pool_excluding(c, "X"), SMALL_GRID, 2)


def test_nested_select_too_short():
    c = generate_toy(ToyConfig(T=300, seed=0))
    data = _FeedData(c.feed("X").matrix, pool_excluding(c, "X"), SMALL_GRID,
                     SMALL_GRID.max_lag)
    with pytest.raises(TooShortForFolds):  # no inner plan fits 40 columns
        _nested_select(data, np.arange(40), 10)


# ---------------------------------------------------------------------------
# test correlation and route consistency



def test_correlation_noiseless_limit():
    c = generate_toy(ToyConfig(T=1200, gamma=0.999999, seed=2))
    fold = plan_folds(c.T - 4, 5, 4).folds[2]
    data = _FeedData(c.feed("X").matrix, pool_excluding(c, "X"),
                     SMALL_GRID, 4)
    out = _fit_feed_fold(data, fold, 2, 5)
    assert out.correlation > 0.99


def test_toy_median_fold_correlation():
    c = generate_toy(ToyConfig(T=800, seed=10))
    res = analyze(c, SMALL_GRID, n_folds=5, n_inner=5)
    assert res.reports[0].percentiles["p50"] >= 0.7


def test_correlation_via_kernel_blocks_matches_fold():
    """The dual (kernel) route reproduces the pipeline's fold score."""
    c = generate_toy(ToyConfig(T=400, seed=3))
    grid = HyperGrid(lags=(3,), kappas=(1e-2,))
    pool = pool_excluding(c, "X")
    plan = plan_folds(c.T - 3, 5, 3)
    fold = plan.folds[1]
    data = _FeedData(c.feed("X").matrix, pool, grid, 3)
    out = _fit_feed_fold(data, fold, 1, 5)
    emb = _cols(data.emb[3], np.arange(c.T - 3))
    pool_trim = _cols(data.pool, np.arange(c.T - 3))
    tr, te = fold.train_indices, fold.test_indices
    kx, mx = center_kernel(linear_kernel(emb[:, tr]))
    ky, my = center_kernel(linear_kernel(pool_trim[:, tr]))
    m = solve_kcca(kx, ky, 1e-2)
    c_kernel = pearson_correlation(*project(
        m, center_cross(emb[:, tr].T @ emb[:, te], mx),
        center_cross(pool_trim[:, tr].T @ pool_trim[:, te], my)))
    assert abs(c_kernel - out.correlation) < 1e-9
    assert abs(m.lam - out.model.lam) < 1e-9


def test_fold_fit_dual_route_matches_kernel_solve():
    """Tall data (embedded dim > training samples) drives the Gram route;
    the fold fit must still equal the explicit kernel-space solution."""
    rng = np.random.default_rng(20)
    latent = rng.standard_normal(104)
    mats = []
    for shift in (2, 0, 0):
        load = rng.standard_normal(40)[:, None]
        mats.append(0.8 * load * latent[shift:shift + 100][None, :]
                    + 0.3 * rng.standard_normal((40, 100)))
    c = corpus_from(mats)
    grid = HyperGrid(lags=(2,), kappas=(1e-2,))
    pool = pool_excluding(c, "f0")
    plan = plan_folds(c.T - 2, 4, 2)
    fold = plan.folds[1]
    assert 40 * 2 > len(fold.train_indices)  # forces the dual route
    data = _FeedData(c.feed("f0").matrix, pool, grid, 2)
    out = _fit_feed_fold(data, fold, 1, 4)
    emb = _cols(data.emb[2], np.arange(c.T - 2))
    pool_trim = _cols(data.pool, np.arange(c.T - 2))
    tr, te = fold.train_indices, fold.test_indices
    kx, mx = center_kernel(linear_kernel(emb[:, tr]))
    ky, my = center_kernel(linear_kernel(pool_trim[:, tr]))
    m = solve_kcca(kx, ky, 1e-2)
    c_kernel = pearson_correlation(*project(
        m, center_cross(emb[:, tr].T @ emb[:, te], mx),
        center_cross(pool_trim[:, tr].T @ pool_trim[:, te], my)))
    assert abs(m.lam - out.model.lam) < 1e-9
    assert abs(c_kernel - out.correlation) < 1e-9


def _source(m):
    """All columns of a plain matrix as a column source: the pool reader of
    a working set with no lag and no trim."""
    return _LagEmbedding(m, 0, 0, _Grams(((m, (0,)),), 0, True))


def test_side_factor_routes_agree():
    rng = np.random.default_rng(4)
    full = rng.standard_normal((6, 60))
    idx = np.arange(10, 50)
    primal = _SideFactor(full, idx)
    assert primal.primal
    dual = _SideFactor(_source(sp.csc_matrix(np.vstack([full] * 12))), idx)
    assert not dual.primal
    # kernel spectra of the stacked matrix are 12x the originals
    assert np.allclose(dual.theta[:len(primal.theta)], 12 * primal.theta,
                       rtol=1e-10)

    # both routes hold the same unit eigenvectors, up to the sign of each row
    def kept_rows(p, d):
        z = d.z[:len(p.theta)]
        signs = np.sign(np.sum(p.z * z, axis=1))
        assert np.allclose(signs[:, None] * z, p.z, atol=1e-9)
        return signs

    sx = kept_rows(primal, dual)
    other = rng.standard_normal((4, 60))
    primal_y = _SideFactor(other, idx)
    dual_y = _SideFactor(_source(sp.csc_matrix(np.vstack([other] * 12))), idx)
    assert primal_y.primal and not dual_y.primal
    sy = kept_rows(primal_y, dual_y)
    # so the cross term z_x z_y^T agrees over all four route pairs, up to
    # the signs of its rows and columns
    rx, ry = len(primal.theta), len(primal_y.theta)
    want = primal.z @ primal_y.z.T
    for fx, gx in ((primal, np.ones(rx)), (dual, sx)):
        for fy, gy in ((primal_y, np.ones(ry)), (dual_y, sy)):
            cross = (fx.z @ fy.z.T)[:rx, :ry]
            assert np.allclose(gx[:, None] * cross * gy[None, :], want,
                               atol=1e-9)


def test_degenerate_projection_scored_zero():
    mats = [np.zeros((2, 60)), np.random.default_rng(5).random((2, 60))]
    c = corpus_from(mats)
    grid = HyperGrid(lags=(1,), kappas=(1e-2,))
    fold = plan_folds(59, 4, 1).folds[0]
    data = _FeedData(c.feed("f0").matrix, pool_excluding(c, "f0"),
                     grid, 1)
    out = _fit_feed_fold(data, fold, 0, 4)
    assert out.degenerate
    assert out.correlation == 0.0


# ---------------------------------------------------------------------------
# correlogram

def test_correlogram_peaks_at_planted_lag():
    c = generate_toy(ToyConfig(T=900, seed=6))
    res = analyze(c, SMALL_GRID, n_folds=5, n_inner=5)
    cg = dict(res.reports[0].correlogram)
    vals = {t: r for t, r in cg.items() if r is not None}
    assert max(vals, key=vals.get) == 3


def test_correlogram_white_noise_small():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 400))
    y = rng.standard_normal((3, 400))
    w_x, w_y = rng.standard_normal((3, 4)), rng.standard_normal(3)
    eval_times = np.arange(4, 400)
    rows = canonical_correlogram(w_x, w_y, x, y, eval_times)
    for tau, rho in rows:
        assert abs(rho) < 3.0 / np.sqrt(len(eval_times))


def test_correlogram_matches_brute_force():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 200))
    y = rng.standard_normal((2, 200))
    w_x, w_y = rng.standard_normal((2, 3)), rng.standard_normal(2)
    eval_times = np.arange(3, 200)
    rows = dict(canonical_correlogram(w_x, w_y, x, y, eval_times))
    sy = w_y @ y
    for tau in (1, 2, 3):
        sx = w_x[:, tau - 1] @ x
        want = brute_lagged_pearson(sx[3 - tau:], sy[3 - tau:], tau)
        assert abs(rows[tau] - want) < 1e-12


@pytest.mark.parametrize("times, got", [(np.arange(1, 40), "starts at 1"),
                                       (np.arange(0), "is empty")])
def test_lag_series_names_times_that_underrun_the_lags(times, got):
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 40)), rng.standard_normal((2, 40))
    message = f"evaluation times for 2 lags must start at 2 or later; the list {got}"
    for emit in (canonical_correlogram, emit_trend):
        with pytest.raises(SeriesTooShort, match=message):
            emit(np.ones((2, 2)), np.ones(2), x, y, times)
    if len(times):  # a trim below the largest lag: fold 0's times start at 1
        with pytest.raises(SeriesTooShort, match=message):
            lsa_baseline(x, y, plan_folds(39, 2, 1), (1, 2), 1)


def _lag_series_case():
    """A toy feed and pool (T = 300) with weights for 2 lags."""
    c = generate_toy(ToyConfig(T=300, seed=0))
    x, pool = c.feed("X").matrix, pool_excluding(c, "X")
    return x, pool, np.ones((x.shape[0], 2)), np.ones(pool.shape[0])


@pytest.mark.parametrize("times, pool_t, last", [
    (np.arange(2, 301), 300, 300),
    (np.array([5, 400]), 300, 400),
    (np.arange(2, 300), 299, 299),  # the pool ends first
], ids=["at-the-end", "past-the-end", "past-the-pool"])
def test_lag_series_names_times_past_the_series_end(times, pool_t, last):
    x, pool, w_x, w_y = _lag_series_case()
    message = (f"evaluation times must lie before the series end "
               f"T = {pool_t}; the last is {last}")
    for emit in (canonical_correlogram, emit_trend):
        with pytest.raises(SeriesTooShort, match=message):
            emit(w_x, w_y, x, pool[:, :pool_t], times)


@pytest.mark.parametrize("case", ["w_x-rows", "w_x-1d", "w_y-length"])
def test_lag_series_names_mismatched_shapes(case):
    x, pool, w_x, w_y = _lag_series_case()
    if case == "w_x-rows":
        w_x = w_x[1:]
    elif case == "w_x-1d":
        w_x = w_x[:, 0]
    else:
        w_y = np.ones(len(w_y) + 1)
    message = re.escape(
        f"w_x must be W x n_lags and w_y have one entry per pool row, for a "
        f"feed of {x.shape[0]} rows and a pool of {pool.shape[0]}; got "
        f"{np.shape(w_x)} and {np.shape(w_y)}")
    for emit in (canonical_correlogram, emit_trend):
        with pytest.raises(ShapeMismatch, match=message):
            emit(w_x, w_y, x, pool, np.arange(2, 200))


def test_correlogram_bounds_and_degenerate():
    x = np.zeros((2, 50))
    y = np.random.default_rng(9).standard_normal((2, 50))
    rows = canonical_correlogram(np.ones((2, 2)), np.ones(2), x, y, np.arange(2, 50))
    assert all(r is None for _, r in rows)


def test_mean_correlogram_skips_undefined():
    rows = mean_correlogram([[(1, 0.5), (2, None)], [(1, 0.7)]])
    assert rows[0] == (1, pytest.approx(0.6))
    assert rows[1] == (2, None)


# ---------------------------------------------------------------------------
# LSA baseline

def test_lsa_direction_matches_power_iteration():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((5, 40))
    v = lsa_direction(m)
    v_oracle = power_iteration_top(m @ m.T)
    align = abs(v @ v_oracle)
    assert align > 1 - 1e-6
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert v[np.argmax(np.abs(v))] > 0


def test_lsa_direction_gram_route():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((30, 8))  # d > n: n-side Gram route
    v = lsa_direction(m)
    v_oracle = power_iteration_top(m @ m.T)
    assert abs(v @ v_oracle) > 1 - 1e-6


def test_lsa_direction_degenerate():
    with pytest.raises(DegenerateProjection):
        lsa_direction(np.zeros((3, 5)))


def test_lsa_direction_one_term_or_one_sample():
    m = np.random.default_rng(12).standard_normal((1, 9))
    assert np.array_equal(lsa_direction(m), [1.0])
    assert np.array_equal(lsa_direction(sp.csc_matrix(m)), [1.0])
    with pytest.raises(DegenerateProjection):
        lsa_direction(np.zeros((1, 9)))
    assert np.allclose(lsa_direction(np.array([[3.0], [-4.0]])), [-0.6, 0.8],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(30, 8), (5, 40), (1, 9), (7, 1)])
def test_lsa_direction_sparse_matches_dense(shape):
    # d > n, d < n, one term, one sample
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = rng.random(shape) * (rng.random(shape) < 0.6)
    m[0, 0] = 1.0
    dense = lsa_direction(m)
    sparse = lsa_direction(sp.csc_matrix(m))
    assert sparse.shape == dense.shape == (shape[0],)
    assert np.allclose(sparse, dense, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(dense) - 1) < 1e-12


def test_lsa_identical_feeds_score_near_one():
    # a smooth shared series: the best lagged copy stays highly correlated
    t = np.linspace(0, 4 * np.pi, 200)
    base = np.vstack([np.sin(t / 4) + 2, np.cos(t / 8) + 2])
    rng = np.random.default_rng(12)
    x = base + 1e-4 * rng.standard_normal(base.shape)
    y = base + 1e-4 * rng.standard_normal(base.shape)
    plan = plan_folds(200 - 2, 4, 2)
    scores, per_lag = lsa_baseline(x, y, plan, (1, 2), 2)
    assert len(scores) == 4
    assert min(scores) > 0.9
    assert all(len(row) == 2 for row in per_lag)


def test_feed_dirs_of_colliding_ids_are_numbered(tmp_path):
    """Feed ids that sanitize to one directory name get numbered ones, in
    report order."""
    rng = np.random.default_rng(14)
    c = corpus_from([rng.random((2, 60)) for _ in range(3)], ids=["a/b", "a_b", "c"])
    res = analyze(c, HyperGrid(lags=(1,), kappas=(1e-2,)), n_folds=2, n_inner=2,
                  feed_ids=["a/b", "a_b"])
    paths = write_analysis_outputs(res, c, "h", tmp_path)
    assert (paths["a/b"].name, paths["a_b"].name) == ("a_b", "a_b_1")
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["a_b", "a_b_1"]


def test_lsa_baseline_scores_a_degenerate_fold_zero(monkeypatch):
    """A fold whose feed training columns are all zero has no LSA direction:
    it scores 0.0 with no per-lag value, and no correlogram is formed."""
    rng = np.random.default_rng(13)
    plan = plan_folds(60 - 2, 3, 2)
    x = np.zeros((3, 60))
    test = plan.folds[0].test_indices + 2
    x[:, test] = rng.random((3, len(test)))  # nonzero only there
    scored = []

    def counted(w_x, w_y, x_feed, pool, eval_times, _fn=canonical_correlogram):
        scored.append(eval_times[0])
        return _fn(w_x, w_y, x_feed, pool, eval_times)

    monkeypatch.setattr(evaluation, "canonical_correlogram", counted)
    scores, per_lag = lsa_baseline(x, rng.random((3, 60)), plan, (1, 2), 2)
    assert len(scores) == len(per_lag) == 3
    assert scores[0] == 0.0 and per_lag[0] == [None, None]
    assert scored == [f.test_indices[0] + 2 for f in plan.folds[1:]]


def test_ct_beats_lsa_on_multi_feed_family():
    """Where the pooled variance direction mixes components a feed cannot
    predict, the canonical objective clearly out-scores the variance
    baseline (mean over seeds; individual seeds can tie when the top
    variance direction happens to be predictable)."""
    from ctrend import LeaderConfig, generate_leader
    grid = HyperGrid(lags=(1, 2, 3, 4, 5), kappas=(1e-4, 1e-2, 1e0))
    gaps = []
    for seed in range(6):
        res = analyze(generate_leader(LeaderConfig(T=1200, seed=seed)), grid,
                      n_folds=5, n_inner=5, with_lsa=True)
        r = res.reports[0]  # the leader feed
        gaps.append(np.mean(r.fold_correlations) - np.mean(r.lsa_fold_scores))
    assert np.mean(gaps) > 0.1


def test_top_terms_recover_planted_support():
    """The strongest reported terms of the leader's convolution are the
    terms its trend was planted on (checked via the generator's
    documented draw order)."""
    from ctrend import LeaderConfig, generate_leader
    for seed in (0, 1, 2):
        cfg = LeaderConfig(T=1200, seed=seed)
        rng = np.random.default_rng(cfg.seed)
        rng.standard_normal(cfg.T + cfg.leader_lag)   # trend
        rng.integers(0, 2, size=cfg.F - 1)            # follower jitters
        k = max(1, round(cfg.trend_sparsity * cfg.W))
        support = {int(i) for i in rng.choice(cfg.W, size=k, replace=False)}
        res = analyze(generate_leader(cfg),
                      HyperGrid(lags=(1, 2, 3, 4, 5), kappas=(1e-4, 1e-2, 1e0)),
                      n_folds=5, n_inner=5)
        leader = res.reports[0]
        top3 = [int(term[4:]) for term, _, _ in leader.top_terms[:3]]
        assert all(t in support for t in top3)


def test_lsa_in_analysis_report():
    c = generate_toy(ToyConfig(T=500, seed=13))
    res = analyze(c, SMALL_GRID, n_folds=5, n_inner=5, with_lsa=True)
    r = res.reports[0]
    assert len(r.lsa_fold_scores) == 5
    assert all(-1 <= s <= 1 for s in r.lsa_fold_scores)


# ---------------------------------------------------------------------------
# shuffle control

def test_sample_permutation_resamples_identity():
    class FakeRng:
        def __init__(self):
            self.calls = 0

        def permutation(self, n):
            self.calls += 1
            if self.calls == 1:
                return np.arange(n)
            return np.arange(n)[::-1]

    rng = FakeRng()
    perm = _sample_permutation(rng, 10)
    assert rng.calls == 2
    assert not np.array_equal(perm, np.arange(10))


def test_sample_permutation_tiny_axis_allows_identity():
    class IdentityRng:
        def permutation(self, n):
            return np.arange(n)

    perm = _sample_permutation(IdentityRng(), 4)
    assert np.array_equal(perm, np.arange(4))


def test_shuffle_control_kills_correlation():
    c = generate_toy(ToyConfig(T=700, seed=14))
    outs = shuffle_control(c, "X", derive_seed(14, "X", 0, "shuffle"),
                           SMALL_GRID, n_folds=5, n_inner=5)
    score = np.mean([o.correlation for o in outs])
    assert abs(score) < 0.3


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("make", [
    lambda: generate_toy(ToyConfig(T=400, seed=23)),
    lambda: generate_leader(LeaderConfig(F=3, W=6, T=300, seed=23)),
], ids=["toy", "leader"])
def test_shuffle_control_is_the_task_analyze_runs(make, jobs):
    c = make()
    res = analyze(c, SMALL_GRID, n_folds=4, n_inner=4, seed=23, with_shuffle=True,
                  jobs=jobs)
    for report in res.reports:
        outs = shuffle_control(c, report.feed_id,
                               derive_seed(23, report.feed_id, 0, "shuffle"),
                               SMALL_GRID, n_folds=4, n_inner=4)
        assert (np.array([o.correlation for o in outs]).tobytes()
                == np.array(report.shuffle_fold_scores).tobytes())


def test_shuffle_seed_is_pinned():
    state = derive_seed(0, "leader", 0, "shuffle").generate_state(4)
    assert state.tolist() == [714076322, 3378994584, 4062609436, 3812051071]


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True, None])
def test_bad_seed_is_named_before_any_fit(monkeypatch, seed):
    monkeypatch.setattr(evaluation, "_fit_feed_fold", None)  # a fit would fail
    c = generate_toy(ToyConfig(T=300, seed=0))
    with pytest.raises(BadSeed, match="seed must be a non-negative integer"):
        analyze(c, SMALL_GRID, n_folds=4, n_inner=4, seed=seed, with_shuffle=True)
    with pytest.raises(BadSeed, match="seed must be a non-negative integer"):
        shuffle_control(c, "X", seed, SMALL_GRID, n_folds=4, n_inner=4)


@pytest.mark.parametrize("setting, message", [
    ({"jobs": 0}, "jobs must be at least 1, got 0"),
    ({"jobs": -2}, "jobs must be at least 1, got -2"),
    ({"feed_ids": []}, "feed filter is empty"),
    ({"feed_ids": [], "jobs": 2}, "feed filter is empty"),
    ({"top_k": -1}, "top_k must be at least 0, got -1"),
    # a string would be iterated as one-character feed ids
    ({"feed_ids": "XY"}, "feed_ids must be a list of strings, got 'XY'"),
    ({"feed_ids": ["X", 1]}, r"feed_ids must be a list of strings, got \['X', 1\]"),
    ({"feed_ids": {"X"}}, r"feed_ids must be a list of strings, got \{'X'\}")])
def test_analyze_names_a_bad_setting_before_any_fit(monkeypatch, setting, message):
    monkeypatch.setattr(evaluation, "_fit_feed_fold", None)  # a fit would fail
    c = generate_toy(ToyConfig(T=400, seed=0))
    with pytest.raises(BadSetting, match=message) as exc:
        analyze(c, HyperGrid(lags=(1, 2)), n_folds=4, n_inner=4, **setting)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call, message", [
    (lambda c: HyperGrid(lags=(1.5,)), "lags must be an integer, got 1.5"),
    (lambda c: HyperGrid(lags=(1, 2.0)), "lags must be an integer, got 2.0"),
    (lambda c: HyperGrid(lags=(True,)), "lags must be an integer, got True"),
    (lambda c: HyperGrid(kappas=("a",)), "kappas must be numbers, got 'a'"),
    (lambda c: HyperGrid(kappas=(True,)), "kappas must be numbers, got True"),
    (lambda c: analyze(c, SMALL_GRID, n_folds=3.0, n_inner=4),
     "n_folds must be an integer, got 3.0"),
    (lambda c: analyze(c, SMALL_GRID, n_folds=4, n_inner=2.5),
     "n_inner must be an integer, got 2.5"),
    (lambda c: analyze(c, SMALL_GRID, n_folds=4, n_inner=4, jobs=1.5),
     "jobs must be an integer, got 1.5"),
    (lambda c: analyze(c, SMALL_GRID, n_folds=4, n_inner=4, top_k=2.5),
     "top_k must be an integer, got 2.5"),
    (lambda c: shuffle_control(c, "X", 0, SMALL_GRID, n_folds=3.0, n_inner=4),
     "n_folds must be an integer, got 3.0"),
    (lambda c: shuffle_control(c, "X", 0, SMALL_GRID, n_folds=4, n_inner=True),
     "n_inner must be an integer, got True")],
    ids=["lag-float", "lag-whole-float", "lag-bool", "kappa-str", "kappa-bool",
         "n_folds", "n_inner", "jobs", "top_k", "shuffle-n_folds",
         "shuffle-n_inner"])
def test_wrongly_typed_settings_are_named_before_any_fit(monkeypatch, call,
                                                         message):
    monkeypatch.setattr(evaluation, "_fit_feed_fold", None)  # a fit would fail
    c = generate_toy(ToyConfig(T=400, seed=0))
    with pytest.raises(BadSetting, match=re.escape(message)):
        call(c)


def test_numpy_integer_settings_are_accepted():
    c = generate_toy(ToyConfig(T=400, seed=0))
    plain = analyze(c, HyperGrid(lags=(1, 2), kappas=(1e-2,)), n_folds=4,
                    n_inner=4, top_k=3)
    grid = HyperGrid(lags=(np.int64(1), np.int32(2)), kappas=(np.float64(1e-2),))
    numpy = analyze(c, grid, n_folds=np.int64(4), n_inner=np.int64(4),
                    jobs=np.int64(1), top_k=np.int64(3))
    assert [r.fold_correlations for r in numpy.reports] == \
        [r.fold_correlations for r in plain.reports]


def test_top_terms_rejects_a_negative_count(tmp_path):
    terms = [f"t{i}" for i in range(6)]
    w_x = np.arange(1.0, 7.0)[:, None]
    assert len(top_terms(w_x, terms, 6)) == 6
    with pytest.raises(BadSetting, match="top_k must be at least 0, got -1"):
        top_terms(w_x, terms, -1)  # would drop the weakest term
    models = {"seed": 0, "corpus_hash": "h", "trim": 2, "feeds": {"X": [
        {"fold": 0, "n_lags": 1, "correlation": 0.5, "w_x": [[1.0]] * 6,
         "w_y": [1.0] * 6, "test_positions": [0, 1]}]}}
    c = generate_toy(ToyConfig(T=400, seed=0))
    with pytest.raises(BadSetting, match="top_k must be at least 0, got -1"):
        write_topwords_from_models(models, c, "X", tmp_path / "t.csv", top_k=-1)


def test_shuffle_control_names_infeasible_inner_cv():
    c = generate_toy(ToyConfig(T=140, seed=1))
    with pytest.raises(TooShortForFolds, match="inner CV.*--inner-folds <= 8"):
        shuffle_control(c, "X", 0, HyperGrid(lags=tuple(range(1, 11))))


# ---------------------------------------------------------------------------
# ranking

def report_with(feed_id, corrs):
    return FeedReport(feed_id, list(corrs), {}, [], [], [], [])


def test_rank_singleton():
    r = rank_feeds([report_with("only", [0.5, 0.6])])
    assert r.entries == [("only", pytest.approx(0.55))]


def test_rank_ties_alphabetical():
    r = rank_feeds([report_with("b", [0.5]), report_with("a", [0.5]),
                    report_with("c", [0.9])])
    assert [e[0] for e in r.entries] == ["c", "a", "b"]


def test_rank_fold_count_mismatch():
    with pytest.raises(ValueError):
        rank_feeds([report_with("a", [0.5]), report_with("b", [0.5, 0.6])])


def test_ranking_invariant_under_common_rescaling():
    c1 = generate_toy(ToyConfig(T=600, seed=15))
    scaled = corpus_from([3.7 * f.matrix.toarray() for f in c1.feeds],
                         ids=[f.feed_id for f in c1.feeds])
    r1 = analyze(c1, SMALL_GRID, n_folds=5, n_inner=5).ranking
    r2 = analyze(scaled, SMALL_GRID, n_folds=5, n_inner=5).ranking
    assert [e[0] for e in r1.entries] == [e[0] for e in r2.entries]


@pytest.mark.parametrize("n_folds, n_inner", [(0, 4), (1, 4), (4, 0), (4, 1)])
def test_analyze_needs_two_folds_each_level(n_folds, n_inner):
    c = generate_toy(ToyConfig(T=300, seed=0))
    with pytest.raises(TooFewFolds):
        analyze(c, SMALL_GRID, n_folds=n_folds, n_inner=n_inner)


def test_analyze_requires_two_feeds():
    c = corpus_from([np.random.default_rng(0).random((2, 100))])
    with pytest.raises(NotEnoughFeeds):
        analyze(c, SMALL_GRID, n_folds=4, n_inner=4)


def _sparse_dual_corpus(seed, n_feeds=3, w=100, t=80):
    """Sparse feeds with W * L > n on every fold, so Grams are built in
    each worker's _FeedData and every fold takes the dual route."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal(t + 1)
    mats = []
    for shift in (1,) + (0,) * (n_feeds - 1):
        load = rng.standard_normal(w)[:, None] * (rng.random((w, 1)) < 0.2)
        noise = rng.standard_normal((w, t)) * (rng.random((w, t)) < 0.05)
        mats.append(load * latent[shift:shift + t][None, :] + noise)
    return corpus_from(mats)


@pytest.mark.parametrize("make", [
    lambda: generate_toy(ToyConfig(T=500, seed=21)),
    lambda: generate_leader(LeaderConfig(F=4, W=8, T=400, seed=21)),
    lambda: _sparse_dual_corpus(21),
], ids=["toy", "leader", "dual"])
def test_analyze_parallel_matches_serial(make):
    c = make()
    kw = dict(grid=SMALL_GRID, n_folds=5, n_inner=5, seed=21,
              with_lsa=True, with_shuffle=True)
    serial = analyze(c, **kw)
    parallel = analyze(c, jobs=2, **kw)
    for build in (build_report, build_models):
        assert dumps(build(serial, "h")) == dumps(build(parallel, "h"))


def test_analyze_feed_filter():
    c = generate_toy(ToyConfig(T=500, seed=16))
    res = analyze(c, SMALL_GRID, n_folds=5, n_inner=5, feed_ids=["X"])
    assert [r.feed_id for r in res.reports] == ["X"]
    with pytest.raises(UnknownFeed):
        analyze(c, SMALL_GRID, feed_ids=["Z"])
    with pytest.raises(DuplicateFeed, match="'X'"):
        analyze(c, SMALL_GRID, n_folds=5, n_inner=5, feed_ids=["X", "Y", "X"])


# ---------------------------------------------------------------------------
# one feed's working set at a time

def _three_feed_run(monkeypatch):
    """Analyze a 4-feed leader corpus with LSA and the shuffle control,
    counting pool builds and the _FeedData objects alive at each build."""
    alive = weakref.WeakSet()
    alive_at_build = []
    init = _FeedData.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)
        alive_at_build.append(len(alive))

    pools = []

    def counted_pool(corpus, feed_id):
        pools.append(feed_id)
        return pool_excluding(corpus, feed_id)

    monkeypatch.setattr(_FeedData, "__init__", tracked_init)
    monkeypatch.setattr(evaluation, "pool_excluding", counted_pool)
    c = generate_leader(LeaderConfig(F=4, W=6, T=300, seed=5))
    analyze(c, HyperGrid(lags=(1, 2), kappas=(1e-2,)), n_folds=3, n_inner=3,
            feed_ids=["leader", "follower1", "follower2"], with_lsa=True,
            with_shuffle=True)
    return alive_at_build, pools


def test_analyze_holds_one_feed_data_at_a_time(monkeypatch):
    alive_at_build, _ = _three_feed_run(monkeypatch)
    # at --jobs 1, one run of all folds and one shuffle control per feed
    assert len(alive_at_build) == 6
    assert max(alive_at_build) == 1


def test_analyze_pools_once_per_feed_and_shuffle_task(monkeypatch):
    _, pools = _three_feed_run(monkeypatch)
    assert pools == [f for f in ("leader", "follower1", "follower2")
                     for _ in range(2)]


def test_analyze_leaves_no_worker_state():
    c = generate_toy(ToyConfig(T=300, seed=6))
    for jobs in (1, 2):
        analyze(c, HyperGrid(lags=(1, 2), kappas=(1e-2,)), n_folds=3, n_inner=3,
                with_lsa=True, with_shuffle=True, jobs=jobs)
        assert evaluation._CTX == {}


@pytest.fixture
def serial_pool(monkeypatch):
    """``ProcessPoolExecutor`` replaced by a pool that runs the tasks here,
    in order, and records its worker count and tasks: no process starts."""
    seen = {}

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            seen["max_workers"] = max_workers
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            seen["tasks"] = list(tasks)
            return map(fn, seen["tasks"])

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(evaluation, "_CTX", {})
    return seen


@pytest.mark.parametrize("jobs, feeds, shuffle, workers", [
    (32, ["X"], False, 3),  # 3 folds, so 3 one-fold runs: 3 tasks
    (32, ["X", "Y"], True, 12),  # per feed, 3 runs and 3 shuffle-control runs
    (2, ["X", "Y"], True, 2),
], ids=["few-tasks", "shuffle-control", "jobs"])
def test_analyze_starts_no_more_workers_than_tasks(serial_pool, jobs, feeds,
                                                    shuffle, workers):
    c = generate_toy(ToyConfig(T=300, seed=6))
    kw = dict(grid=HyperGrid(lags=(1, 2), kappas=(1e-2,)), n_folds=3, n_inner=3,
              feed_ids=feeds, with_lsa=True, with_shuffle=shuffle)
    parallel = analyze(c, jobs=jobs, **kw)
    assert serial_pool["max_workers"] == workers
    serial = analyze(c, **kw)
    for build in (build_report, build_models):
        assert dumps(build(serial, "h")) == dumps(build(parallel, "h"))


def test_shuffle_control_runs_in_the_feed_runs(serial_pool):
    c = generate_leader(LeaderConfig(F=3, W=6, T=300, seed=23))
    res = analyze(c, SMALL_GRID, n_folds=4, n_inner=4, seed=23, with_shuffle=True,
                  jobs=3)
    runs = [range(0, 1), range(1, 2), range(2, 4)]
    for feed_id in c.feed_ids:
        own = [t for t in serial_pool["tasks"] if t[0] == feed_id]
        assert [t[1] for t in own] == runs + runs
        seeds = [t[3].entropy for t in own[len(runs):]]
        assert seeds == [derive_seed(23, feed_id, 0, "shuffle").entropy] * len(runs)
    for report in res.reports:
        outs = shuffle_control(c, report.feed_id,
                               derive_seed(23, report.feed_id, 0, "shuffle"),
                               SMALL_GRID, n_folds=4, n_inner=4)
        assert (np.array([o.correlation for o in outs]).tobytes()
                == np.array(report.shuffle_fold_scores).tobytes())


def _dual_route_peak(n_feeds):
    """tracemalloc peak of analyze on a corpus with W * L >> n."""
    rng = np.random.default_rng(7)
    c = corpus_from([rng.random((300, 120)) for _ in range(n_feeds)])
    tracemalloc.start()
    try:
        analyze(c, HyperGrid(lags=(1, 2), kappas=(1e-2,)), n_folds=3, n_inner=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_peak_memory_does_not_grow_with_feed_count():
    assert _dual_route_peak(6) < 1.5 * _dual_route_peak(2)


# ---------------------------------------------------------------------------
# trend emission

def test_emit_trend_unit_energy_and_consistency():
    c = generate_toy(ToyConfig(T=600, seed=17))
    grid = HyperGrid(lags=(3,), kappas=(1e-2,))
    pool = pool_excluding(c, "X")
    plan = plan_folds(c.T - 3, 5, 3)
    fold = plan.folds[2]
    out = _fit_feed_fold(_FeedData(c.feed("X").matrix, pool, grid, 3),
                         fold, 2, 5)
    x = c.feed("X").matrix
    times = fold.test_indices + 3
    y, yhat = emit_trend(out.w_x, out.w_y, x, pool, times)
    assert abs((y ** 2).sum() - 1.0) < 1e-10
    assert abs((yhat ** 2).sum() - 1.0) < 1e-10
    assert abs(pearson_correlation(y, yhat) - out.correlation) < 1e-10


def test_emit_trend_constant_weight_varying_pool():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 50))
    y = rng.standard_normal((2, 50))
    trend, _ = emit_trend(np.ones((2, 2)), np.ones(2), x, y, np.arange(2, 50))
    assert trend.std() > 0


# ---------------------------------------------------------------------------
# leak-freedom (desk-size version of the acceptance property)

def test_training_blind_to_test_block():
    c = generate_toy(ToyConfig(T=500, seed=19))
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2, 1.0))
    trim = grid.max_lag
    pool = pool_excluding(c, "X")
    plan = plan_folds(c.T - trim, 5, trim)
    for fold in plan.folds[:2]:
        base = _fit_feed_fold(_FeedData(c.feed("X").matrix, pool, grid, trim),
                              fold, fold.test_indices[0], 5)
        rng = np.random.default_rng(99)
        corrupted = [f.matrix.toarray() for f in c.feeds]
        test_times = fold.test_indices + trim
        for m in corrupted:
            m[:, test_times] = rng.standard_normal((m.shape[0], len(test_times)))
        c2 = corpus_from(corrupted, ids=[f.feed_id for f in c.feeds])
        data2 = _FeedData(c2.feed("X").matrix, pool_excluding(c2, "X"),
                          grid, trim)
        redo = _fit_feed_fold(data2, fold, fold.test_indices[0], 5)
        assert np.array_equal(base.model.alpha, redo.model.alpha)
        assert np.array_equal(base.model.beta, redo.model.beta)
        assert base.model.lam == redo.model.lam
        assert (base.n_lags, base.kappa) == (redo.n_lags, redo.kappa)
        # the buffer is structurally excluded from training
        assert not set(fold.discarded_indices) & set(fold.train_indices)


# ---------------------------------------------------------------------------
# batched primal inner scoring

def _scoring_data(x, pool, grid, n_outer, n_inner, outer=0):
    """Feed data and inner plan of outer fold ``outer``, as nested
    selection builds them, with trim at the largest lag."""
    trim = grid.max_lag
    fold = plan_folds(x.shape[1] - trim, n_outer, trim).folds[outer]
    return (_FeedData(x, pool, grid, trim),
            plan_folds(fold.train_indices, n_inner, trim))


def _generic_tables(data, plan):
    kappas = np.asarray(data.grid.kappas)
    return np.stack([_score_fold_generic(data, f.train_indices, f.test_indices,
                                         kappas) for f in plan.folds])


def _batched_tables(data, plan):
    ids = list(range(len(plan.folds)))
    return _score_fold_primal(data, plan, ids, np.asarray(data.grid.kappas))


def test_batched_scorer_matches_generic_on_toy():
    c = generate_toy(ToyConfig(T=800, seed=1))
    data, plan = _scoring_data(c.feed("X").matrix, pool_excluding(c, "X"),
                               SMALL_GRID, 5, 5, outer=2)
    batched, generic = _batched_tables(data, plan), _generic_tables(data, plan)
    assert np.abs(batched - generic).max() < 1e-12
    assert np.abs(generic).max() > 0.5


def test_batched_scorer_matches_generic_on_leader():
    c = generate_leader(LeaderConfig(F=5, W=12, T=2000, seed=3))
    grid = HyperGrid(lags=tuple(range(1, 7)))
    data, plan = _scoring_data(c.feed("leader").matrix,
                               pool_excluding(c, "leader"), grid, 10, 10,
                               outer=4)
    batched, generic = _batched_tables(data, plan), _generic_tables(data, plan)
    assert np.abs(batched - generic).max() < 1e-12


def _rank_cut_fixture():
    """Duplicated feed rows force a rank cut everywhere; a term that only
    occurs inside one inner test block cuts that fold's rank further."""
    rng = np.random.default_rng(7)
    T, grid = 600, HyperGrid(lags=(1, 2, 3), kappas=(1e-3, 1e-1, 1.0))
    latent = rng.standard_normal(T + 2)
    base = latent[2:][None, :] * rng.standard_normal((2, 1)) \
        + 0.5 * rng.standard_normal((2, T))
    x = np.vstack([base, base, np.zeros((1, T))])
    pool = latent[:T][None, :] * rng.standard_normal((3, 1)) \
        + 0.5 * rng.standard_normal((3, T))
    _, plan = _scoring_data(x, pool, grid, 5, 5)
    hidden = plan.folds[1].test_indices + grid.max_lag  # raw times
    x[4, hidden] = rng.standard_normal(len(hidden))
    data, _ = _scoring_data(x, pool, grid, 5, 5)
    return data, plan


def _kept_ranks(data, plan, fold_ids, side):
    """Per fold, the kept rank of the lag-max feed side or of the pool side."""
    d_max = data.emb[data.grid.max_lag].shape[0]
    _, scatter = _fold_moments(data, plan, fold_ids)
    block = slice(None, d_max) if side == "x" else slice(d_max, None)
    theta, _ = _batched_eigenbases(scatter[:, block, block])
    return np.count_nonzero(theta, axis=-1), d_max


def test_batched_scorer_rank_cut_groups_folds():
    """The folds keep different ranks, and one stacked solve per lag takes
    them all."""
    data, plan = _rank_cut_fixture()
    ranks, d_max = _kept_ranks(data, plan, range(len(plan.folds)), "x")
    assert ranks.max() < d_max
    assert ranks[1] < ranks[0] == ranks[2]

    batched, generic = _batched_tables(data, plan), _generic_tables(data, plan)
    assert np.abs(batched - generic).max() < 1e-12


def test_batched_scorer_one_top_pairs_call_per_lag(monkeypatch):
    data, plan = _rank_cut_fixture()
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return _top_pairs(*args)

    monkeypatch.setattr(evaluation, "_top_pairs", counted)
    _batched_tables(data, plan)
    assert len(calls) == len(data.grid.lags)
    assert all(shape[0] == len(plan.folds) for shape in calls)


def test_batched_scorer_mixes_full_cut_and_constant_pool_folds():
    """One batch holds a full-rank fold, a rank-cut fold and a fold that
    trains on a constant pool. The pool varies only in fold 2's test block
    and its discard buffer, so fold 2 trains on a constant pool and fold 3
    tests on a few varying pool samples; a feed row that varies only around
    fold 3's test block cuts fold 3's rank alone."""
    rng = np.random.default_rng(11)
    T, grid = 600, HyperGrid(lags=(1, 2, 3), kappas=(1e-3, 1e-1, 1.0))
    x = np.vstack([rng.standard_normal((3, T)), np.zeros((1, T))])
    pool = np.full((3, T), 0.5)
    _, plan = _scoring_data(x, pool, grid, 5, 5)
    hidden = plan.folds[3].test_indices + grid.max_lag  # raw times
    x[3, hidden] = rng.standard_normal(len(hidden))
    fold = plan.folds[2]
    times = np.concatenate((fold.test_indices, fold.discarded_indices)) \
        + grid.max_lag
    pool[:, times] = x[:, times - 1].sum(axis=0) \
        + 0.1 * rng.standard_normal((3, len(times)))
    data, _ = _scoring_data(x, pool, grid, 5, 5)
    ids = [0, 2, 3]
    ranks_x, d_max = _kept_ranks(data, plan, ids, "x")
    ranks_y, _ = _kept_ranks(data, plan, ids, "y")
    assert ranks_x[0] == d_max and ranks_x[2] < d_max
    assert ranks_y[1] == 0 and ranks_y[0] == ranks_y[2] == 3

    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _score_fold_primal(data, plan, ids, np.asarray(grid.kappas))
    generic = _generic_tables(data, plan)[ids]
    assert np.all(batched[1] == 0.0)
    assert np.abs(generic[2]).max() > 0.05
    assert np.abs(batched - generic).max() < 1e-12


def test_batched_scorer_constant_pool_fold_scores_zero():
    rng = np.random.default_rng(8)
    T, grid = 500, HyperGrid(lags=(1, 2), kappas=(1e-2, 1.0))
    x = rng.standard_normal((3, T))
    pool = np.full((3, T), 0.5)
    _, plan = _scoring_data(x, pool, grid, 4, 4)
    # the pool varies only inside fold 2's test block, so fold 2 trains on
    # a constant pool while every other fold sees that block in training
    times = plan.folds[2].test_indices + grid.max_lag
    pool[:, times] = x[:, times - 1] + 0.1 * rng.standard_normal((3, len(times)))
    data, _ = _scoring_data(x, pool, grid, 4, 4)
    with np.errstate(all="raise"):
        batched = _batched_tables(data, plan)
    generic = _generic_tables(data, plan)
    assert np.all(batched[2] == 0.0)
    assert np.abs(batched - generic).max() < 1e-12


def test_nested_select_mixes_routes_when_folds_are_narrower_than_d(monkeypatch):
    """Inner folds with fewer training columns than the embedding dimension
    take the generic route; the others are batched. The mean table still
    equals the all-generic one."""
    import ctrend.evaluation as ev
    routes = []
    for name in ("_score_fold_primal", "_score_fold_generic"):
        def spy(*args, _fn=getattr(ev, name), _name=name):
            routes.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ev, name, spy)
    rng = np.random.default_rng(9)
    grid = HyperGrid(lags=(1,), kappas=(1e-2, 1.0))
    T = 300
    outer = plan_folds(T - 1, 5, 1).folds[0]
    inner = plan_folds(outer.train_indices, 5, 1)
    sizes = [len(f.train_indices) for f in inner.folds]
    w = max(sizes)  # d = w: the last fold (no discard) is primal, others not
    assert min(sizes) < w
    latent = rng.standard_normal(T)
    x = np.outer(rng.standard_normal(w), latent) + rng.standard_normal((w, T))
    pool = np.outer(rng.standard_normal(4), np.roll(latent, 1)) \
        + 0.5 * rng.standard_normal((4, T))
    data = _FeedData(x, pool, grid, 1)
    _, _, scores = _nested_select(data, outer.train_indices, 5)
    narrow = sum(n < w for n in sizes)
    assert sorted(routes) == ["_score_fold_generic"] * narrow + ["_score_fold_primal"]
    expected = _generic_tables(data, inner).sum(axis=0) / 5
    assert np.abs(scores - expected).max() < 1e-12


def test_nested_select_splits_primal_folds_into_bounded_batches(monkeypatch):
    """Under a tiny memory bound every primal fold is its own batch; the
    folds stay on the primal route and the table matches the one-batch
    one."""
    import ctrend.evaluation as ev
    c = generate_toy(ToyConfig(T=600, seed=5))
    data, _ = _scoring_data(c.feed("X").matrix, pool_excluding(c, "X"),
                            SMALL_GRID, 5, 5, outer=1)
    train = plan_folds(600 - SMALL_GRID.max_lag, 5, SMALL_GRID.max_lag
                       ).folds[1].train_indices
    batches = []

    def spy(data, plan, fold_ids, kappas, _fn=ev._score_fold_primal):
        batches.append(list(fold_ids))
        return _fn(data, plan, fold_ids, kappas)

    monkeypatch.setattr(ev, "_score_fold_primal", spy)
    whole = _nested_select(data, train, 5)
    monkeypatch.setattr(ev, "_BATCH_BYTES", 0)
    monkeypatch.setattr(ev, "_score_fold_generic", None)  # must not be called
    split = _nested_select(data, train, 5)
    assert batches == [[0, 1, 2, 3, 4], [0], [1], [2], [3], [4]]
    assert whole[:2] == split[:2]
    assert np.abs(whole[2] - split[2]).max() < 1e-12


def test_fold_moments_match_two_pass_and_ignore_held_out_columns():
    c = generate_toy(ToyConfig(T=600, seed=4))
    grid = SMALL_GRID
    top = trim = grid.max_lag
    x = c.feed("X").matrix.toarray()
    pool = pool_excluding(c, "X").toarray()
    data, plan = _scoring_data(x, pool, grid, 5, 5, outer=3)
    ids = list(range(len(plan.folds)))
    means, scatter = _fold_moments(data, plan, ids)
    z = np.vstack((embed_columns(x, top)[:, trim - top:], pool[:, trim:]))
    rng = np.random.default_rng(10)

    def raw_times(cols):  # raw feed columns that lag-max columns read
        return {j + trim - top + b for j in cols for b in range(top)}

    for f, fold in enumerate(plan.folds):
        zt = z[:, fold.train_indices]
        mu = zt.mean(axis=1)
        direct = (zt - mu[:, None]) @ (zt - mu[:, None]).T
        assert np.abs(means[f] - mu).max() <= 1e-12 * np.abs(mu).max()
        assert np.abs(scatter[f] - direct).max() <= 1e-12 * np.abs(direct).max()

        # corrupt the raw feed where only held-out columns read it, and
        # the raw pool at the held-out times
        held = np.concatenate([fold.test_indices, fold.discarded_indices])
        only_held = sorted(raw_times(held) - raw_times(fold.train_indices))
        assert only_held
        x2, pool2 = x.copy(), pool.copy()
        x2[:, only_held] = 1e3 * rng.standard_normal((x.shape[0], len(only_held)))
        pool2[:, held + trim] = -7.0
        data2, _ = _scoring_data(x2, pool2, grid, 5, 5, outer=3)
        means2, scatter2 = _fold_moments(data2, plan, ids)
        assert np.array_equal(means2[f], means[f])
        assert np.array_equal(scatter2[f], scatter[f])


# ---------------------------------------------------------------------------
# lag embeddings read from the raw feed

def _dual_feed(w=300, t=120, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((w, t)) * (rng.random((w, t)) < 0.3)
    return sp.csc_matrix(x), sp.csc_matrix(rng.random((w, t)))


def _force_dense_copies(monkeypatch):
    """The working set of a feed no wider than T - trim, whatever its width:
    dense copies of the feed and pool under the size cap."""
    monkeypatch.setattr(evaluation, "_dense_copy", lambda w, t, trim: True)


def test_dual_weight_chunks_equal_the_full_copy_product(monkeypatch):
    """The dual-route primal weight, formed one lag block at a time, against
    the product with a copy of all the training columns of the embedding:
    bit for bit on sparse columns, where a row sums in column order however
    its rows are cut. A dense lag block may round differently in the last
    bit (W = 1003 is not a multiple of 4, the row group of OpenBLAS's
    dgemv)."""
    rng = np.random.default_rng(11)
    w, t, lag = 1003, 160, 3
    x = rng.standard_normal((w, t)) * (rng.random((w, t)) < 0.1)
    idx = np.sort(rng.choice(t - lag, 120, replace=False))
    a = rng.standard_normal(len(idx))  # coefficients over the kept ranks
    grid = HyperGrid(lags=(lag,), kappas=(1.0,))

    def weights(x_in):
        """The primal weight from the lag embedding and from its full copy."""
        emb = _FeedData(x_in, x_in, grid, lag).emb[lag]
        side = _SideFactor(emb, idx)
        assert not side.primal
        a_kept = a[:len(side.theta)]
        full = embed_columns(x_in, lag)[:, idx] @ side.dual_coef(a_kept)
        return emb, side.primal_weight(a_kept), np.asarray(full).ravel()

    # W > T - trim: a csc feed keeps sparse columns, a dense one dense ones
    emb, got, want = weights(sp.csc_matrix(x))
    assert not emb.dense and np.array_equal(got, want)
    emb, got, want = weights(x)
    assert emb.dense and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # a dense copy of the csc feed, as a feed no wider than T - trim has
    _force_dense_copies(monkeypatch)
    emb, got, want = weights(sp.csc_matrix(x))
    assert emb.dense and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_dual_weight_allocates_no_more_than_one_lag_block():
    """On a dense embedding that takes the dual route (W <= T - trim <
    W * L), recovering the primal weight copies one lag block of the
    training columns at a time, never all of them."""
    rng = np.random.default_rng(3)
    w, t, lag = 60, 160, 4
    x = rng.standard_normal((w, t))
    grid = HyperGrid(lags=(lag,), kappas=(1.0,))
    emb = _FeedData(x, x, grid, lag).emb[lag]
    assert emb.dense and w <= t - lag < w * lag
    idx = np.arange(t - lag)
    side = _SideFactor(emb, idx)
    assert not side.primal
    a = rng.standard_normal(len(side.theta))
    block_bytes = 8 * w * len(idx)
    tracemalloc.start()
    try:
        weight = side.primal_weight(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weight.shape == (w * lag,)
    assert peak < 1.5 * block_bytes
    full = embed_columns(x, lag) @ side.dual_coef(a)
    assert np.abs(weight - full).max() <= 1e-14 * np.abs(full).max()


def _gram_work(monkeypatch, corpus, **kw):
    """Analyze ``corpus``; returns each working set's Grams (``_Grams``,
    with the lags of its reads, 0 for the pool, in ``reads``) and the
    number of Gram matrices computed. Undoes its patches on return."""
    books, kernels, asking = [], [], []
    init, get, cols = _Grams.__init__, _Grams.get, _LagEmbedding.cols

    def tracked_init(self, *args):
        init(self, *args)
        self.reads = []
        books.append(self)

    def tracked_get(self, lag, n):
        asking.append(self)
        try:
            return get(self, lag, n)
        finally:
            asking.pop()

    def counted_cols(self, idx):
        if asking:  # a read for Grams
            asking[-1].reads.append(self.lag)
        return cols(self, idx)

    def counted_kernel(m, _fn=linear_kernel):
        kernels.append(m.shape)
        return _fn(m)

    monkeypatch.setattr(_Grams, "__init__", tracked_init)
    monkeypatch.setattr(_Grams, "get", tracked_get)
    monkeypatch.setattr(_LagEmbedding, "cols", counted_cols)
    monkeypatch.setattr(evaluation, "linear_kernel", counted_kernel)
    analyze(corpus, **kw)
    monkeypatch.undo()
    return books, len(kernels)


def test_leader_shaped_feed_builds_no_gram(monkeypatch):
    """A feed no wider than its folds' training sets reads nothing for
    Grams; a text-shaped feed (W > T - trim) does one read of its lag-max
    embedding and one of its pool per working set, and builds each Gram
    once."""
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2,))
    c = generate_leader(LeaderConfig(F=4, W=6, T=300, seed=5))
    books, kernels = _gram_work(monkeypatch, c, grid=grid, n_folds=3,
                                n_inner=3, with_lsa=True, with_shuffle=True)
    assert len(books) == 8 and kernels == 0
    assert all(b.reads == [] and b.built == {} for b in books)
    # one working set per analysed feed and per shuffle control
    d = _sparse_dual_corpus(3)
    books, kernels = _gram_work(monkeypatch, d, grid=grid, n_folds=3,
                                n_inner=2, feed_ids=["f0", "f1"],
                                with_shuffle=True)
    assert len(books) == 4 and kernels == 4 * 4
    for b in books:
        assert b.reads == [3, 0] and sorted(b.built) == [0, 1, 2, 3]


def test_each_gram_is_built_once_per_working_set(monkeypatch):
    """On a feed whose widest lag takes the dual route in the inner folds
    and the primal route in the final fit, only that lag's Gram is built,
    once per working set, from one read; the pool stays primal."""
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2,))
    c = generate_leader(LeaderConfig(F=3, W=60, T=300, seed=5))
    books, kernels = _gram_work(monkeypatch, c, grid=grid, n_folds=3,
                                n_inner=3, feed_ids=["leader"])
    assert len(books) == 1 and kernels == 1
    assert books[0].reads == [3] and sorted(books[0].built) == [3]


@pytest.mark.parametrize("limit", [evaluation._DENSE_LIMIT, 0],
                         ids=["dense", "sparse"])
def test_lag_grams_of_a_csc_feed_are_kernels_of_embed_columns(monkeypatch, limit):
    """Each lag's Gram is the kernel of the bottom row block of the public
    lag-max embedding, densified column-major under the size cap, bit for
    bit."""
    x, pool = _dual_feed()
    w, t = x.shape
    trim, top = 4, 3
    monkeypatch.setattr(evaluation, "_DENSE_LIMIT", limit)
    data = _FeedData(x, pool, HyperGrid(lags=(1, 2, 3), kappas=(1.0,)), trim)
    emb_max = embed_columns(x[:, trim - top:], top)
    if limit:
        emb_max = emb_max.toarray(order="F")
    data.emb[1].gram(80)  # a fold of 80 training columns: every lag is wider
    assert sorted(data.pool.grams.built) == [0, 1, 2, 3]
    for lag in (1, 2, 3):
        assert np.array_equal(data.emb[lag].gram(80),
                              linear_kernel(emb_max[w * (top - lag):]))


def test_dual_feed_keeps_no_array_as_large_as_the_lag_max_embedding():
    x, pool = _dual_feed()
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2,))
    emb_bytes = 8 * x.shape[0] * 3 * (x.shape[1] - 3)
    tracemalloc.start()
    try:
        data = _FeedData(x, pool, grid, 3)
        gram_y = data.pool.gram(80)
        biggest = max(tr.size for tr in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert sorted(data.pool.grams.built) == [0, 1, 2, 3]
    assert np.array_equal(gram_y, linear_kernel(pool.toarray()[:, 3:]))
    assert biggest < emb_bytes / 2


def test_wide_sparse_feed_keeps_a_sparse_working_set(monkeypatch):
    """W > T - trim: no fold can take the primal route, so the working set
    holds the caller's sparse feed and pool, and no dense copy of either,
    while every Gram keeps the bits it has from dense copies."""
    x, pool = _dual_feed()
    w, t = x.shape
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2,))
    tracemalloc.start()
    try:
        data = _FeedData(x, pool, grid, 3)
        data.pool.gram(80)
        biggest = max(tr.size for tr in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert data.x_raw is x and data.pool_raw is pool
    assert not any(emb.dense for emb in data.emb.values())
    assert biggest < 8 * w * t
    _force_dense_copies(monkeypatch)
    dense = _FeedData(x, pool, grid, 3)
    assert isinstance(dense.x_raw, np.ndarray) and dense.emb[3].dense
    for reader, copy in zip([*data.emb.values(), data.pool],
                            [*dense.emb.values(), dense.pool]):
        assert np.array_equal(reader.gram(80), copy.gram(80))
    assert sorted(data.pool.grams.built) == sorted(dense.pool.grams.built) \
        == [0, 1, 2, 3]


def test_analysis_on_a_sparse_working_set_matches_dense_copies(monkeypatch):
    """The same analysis with the working set forced dense: every Gram, and
    so every solve, is bit-identical; only the products formed from the
    sparse columns after it (weights, correlograms, the baseline) may
    round differently."""
    c = _sparse_dual_corpus(5)
    assert c.W > c.T - SMALL_GRID.max_lag
    kw = dict(grid=SMALL_GRID, n_folds=3, n_inner=3, seed=5, with_lsa=True)
    sparse = analyze(c, **kw)
    _force_dense_copies(monkeypatch)
    dense = analyze(c, **kw)
    assert sparse.ranking.entries == dense.ranking.entries
    for rs, rd in zip(sparse.reports, dense.reports):
        assert rs.fold_correlations == rd.fold_correlations
        assert rs.chosen == rd.chosen
        assert np.allclose(rs.lsa_fold_scores, rd.lsa_fold_scores,
                           rtol=0, atol=1e-12)
        for ls, ld in zip(rs.lsa_per_lag, rd.lsa_per_lag):
            assert [v is None for v in ls] == [v is None for v in ld]
            assert all(abs(a - b) <= 1e-12 for a, b in zip(ls, ld) if a is not None)
    fitted = 0
    for fid in c.feed_ids:
        for os_, od in zip(sparse.fold_outcomes[fid], dense.fold_outcomes[fid]):
            assert np.array_equal(os_.inner_scores, od.inner_scores)
            if od.w_x is None:
                assert os_.w_x is None
                continue
            fitted += 1
            assert np.abs(os_.w_x - od.w_x).max() <= 1e-12
            assert np.abs(os_.w_y - od.w_y).max() <= 1e-12
            for (tau, a), (tau_d, b) in zip(os_.correlogram, od.correlogram):
                assert tau == tau_d and (a is None) == (b is None)
                assert a is None or abs(a - b) <= 1e-12
    assert fitted


def test_benchmark_text_corpus_builds_a_sparse_working_set(tmp_path):
    """The text benchmark's seed-0 corpus (W = 2982 terms, T = 600 bins)
    reaches the sparse working set, as analyze builds it for a feed."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "textgen", root / "perfbench" / "textgen.py")
    textgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(textgen)
    docs = textgen.write_jsonl(0, tmp_path / "docs.jsonl")
    assert cli_main(["featurize", "--docs", str(docs), "--out",
                     str(tmp_path / "text"), "--T", str(textgen.T),
                     "--t0", textgen.T0.isoformat()]) == 0
    c = load_corpus(tmp_path / "text")
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2, 1.0))
    ctx = evaluation._context(c, grid, 5, 5)
    x = c.feed("leader").matrix
    assert c.W > c.T - ctx["trim"]
    data = _FeedData(x, pool_excluding(c, "leader"), grid, ctx["trim"])
    assert data.x_raw is x and sp.issparse(data.pool_raw)
    assert not any(emb.dense for emb in data.emb.values())
    inner = plan_folds(ctx["plan"].folds[0].train_indices, 5, ctx["trim"])
    data.pool.gram(len(inner.folds[0].train_indices))
    assert sorted(data.pool.grams.built) == [0, 1, 2, 3]


@pytest.mark.parametrize("d", [12, 36, 72])
def test_batched_eigenbases_bit_equal_per_matrix(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((6, d + 4, d + 9))
    full = a @ a.transpose(0, 2, 1)
    for stack in (full[:, :d, :d], full[:, 4:, 4:]):  # sub-block views
        theta, u = _batched_eigenbases(stack)
        rank = np.count_nonzero(theta, axis=-1)
        for i in range(len(stack)):
            ref_theta, ref_u = _psd_eigenbasis(stack[i])
            assert rank[i] == len(ref_theta)
            assert np.array_equal(theta[i, :rank[i]], ref_theta)
            assert np.array_equal(u[i, :, :rank[i]], ref_u)
