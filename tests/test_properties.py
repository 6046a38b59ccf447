"""Property-based checks of invariants over generated shapes and inputs."""

import tempfile
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ctrend import (
    Corpus,
    FeedSeries,
    Vocabulary,
    evaluation,
    load_corpus,
    store_corpus,
    tfidf_normalize,
)
from ctrend.embedding import embed_columns
from ctrend.evaluation import HyperGrid, _FeedData, _fit_feed_fold
from ctrend.kcca import _cols, center_kernel, linear_kernel, solve_kcca
from ctrend.reporting import build_models, build_report, dumps

from oracles import generalized_eig_top, json_text


@st.composite
def feed_cases(draw):
    w = draw(st.integers(1, 4))
    lags = tuple(sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=5))))
    trim = max(lags) + draw(st.integers(0, 3))
    t = trim + draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((w, t)) * (rng.random((w, t)) < 0.6)
    pool = rng.standard_normal((w, t))
    # default: everything dense; 0: everything sparse; W * (T - trim): a
    # sparse feed whose lag-1 block alone would fit, which stays sparse too
    limit = draw(st.sampled_from([evaluation._DENSE_LIMIT, 0, w * (t - trim)]))
    return x, pool, HyperGrid(lags=lags, kappas=(1.0,)), trim, limit


def _materialized(x_in, grid, trim):
    """The lag embeddings as the Grams see them: each lag is a row block of
    the public lag-max embedding, dense and column-major where the feed is
    dense or under the size cap ``_DENSE_LIMIT`` (W x T cells)."""
    top = grid.max_lag
    emb_max = embed_columns(x_in[:, trim - top:], top)
    w, t = x_in.shape
    if not sp.issparse(x_in) or w * t <= evaluation._DENSE_LIMIT:
        emb_max = np.asfortranarray(emb_max.toarray() if sp.issparse(emb_max)
                                    else emb_max)
    return {lag: emb_max[w * (top - lag):] for lag in grid.lags}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=feed_cases(), sparse_input=st.booleans(), picks=st.data())
def test_lag_embedding_is_row_block_of_lag_max(case, sparse_input, picks):
    """Columns gathered from the raw feed equal the lag-max embedding's
    row block, with the layout its fancy-indexed columns had."""
    x, pool, grid, trim, limit = case
    x_in = sp.csc_matrix(x) if sparse_input else x
    w, t = x.shape
    idx = np.asarray(picks.draw(st.lists(st.integers(0, t - trim - 1),
                                         min_size=1, max_size=t - trim)))
    with mock.patch.object(evaluation, "_DENSE_LIMIT", limit):
        data = _FeedData(x_in, sp.csc_matrix(pool), grid, trim)
    # the working copy is dense under the size cap where some fold can take
    # the primal route (W <= T - trim); old: the lag-max embedding it stacks
    sparse = sparse_input and not (w * t <= limit and w <= t - trim)
    x_copy = x_in.toarray() if sparse_input and not sparse else x_in
    top = grid.max_lag
    kept = embed_columns(x_copy[:, trim - top:], top)
    old = {lag: kept[w * (top - lag):] for lag in grid.lags}
    for lag in grid.lags:
        emb = data.emb[lag]
        ref = embed_columns(x_in, lag)[:, trim - lag:]
        assert emb.dense != sparse
        assert sp.issparse(old[lag]) == sparse
        assert emb.shape == ref.shape
        got = _cols(emb, idx)
        want = ref[:, idx]
        want = want.toarray() if sp.issparse(want) else want
        assert np.array_equal(got, want)
        was = old[lag][:, idx]
        was = was.toarray() if sp.issparse(was) else was
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
            (was.flags.c_contiguous, was.flags.f_contiguous)
    assert data.pool.grams.built == {}  # no Gram until a dual side asks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=feed_cases(), as_input=st.sampled_from([np.asarray, sp.csc_matrix,
                                                    sp.csr_matrix]))
def test_dual_gram_is_kernel_of_materialized_row_block(case, as_input):
    """Each Gram is the kernel of a row block of the public lag-max
    embedding, whose type and memory layout its input keeps too (BLAS may
    round differently per layout): dense and column-major under the size
    cap, whatever the input's format. A request from a fold of n training
    columns builds every lag's Gram, all wider than n, and then the pool's
    exactly when the pool is wider than n, the kernel of the trimmed pool by
    the same rule, whether or not the working set keeps a dense copy."""
    x, pool, grid, trim, limit = case
    x_in = as_input(x)
    w, t = x.shape
    if t - trim < 2:
        return  # a Gram needs two samples
    inputs = []  # every kernel input, in call order

    def layout(m):
        return sp.issparse(m) or (m.flags.c_contiguous, m.flags.f_contiguous)

    def spy(m, _fn=linear_kernel):
        inputs.append(m)
        return _fn(m)

    n = x.shape[0] * min(grid.lags) - 1  # every lag is wider
    with mock.patch.object(evaluation, "_DENSE_LIMIT", limit), \
            mock.patch.object(evaluation, "linear_kernel", spy):
        data = _FeedData(x_in, sp.csc_matrix(pool), grid, trim)
        data.emb[grid.max_lag].gram(n)
        old = _materialized(x_in, grid, trim)
    built = data.pool.grams.built
    # the lag Grams come first; lag inputs by row count, which differs per lag
    seen = {m.shape[0]: layout(m) for m in inputs[:len(grid.lags)]}
    pool_calls = inputs[len(grid.lags):]
    assert len(seen) == len(grid.lags)
    for lag in grid.lags:
        assert np.array_equal(built[lag], linear_kernel(old[lag]))
        assert seen[old[lag].shape[0]] == layout(old[lag])
    if pool.shape[0] > n:
        pool_in = sp.csc_matrix(pool)
        old_pool = pool_in[:, trim:]
        if w * t <= limit:
            old_pool = old_pool.toarray(order="F")
        assert len(pool_calls) == 1
        assert layout(pool_calls[0]) == layout(old_pool)
        assert np.array_equal(built[0], linear_kernel(old_pool))
    else:
        assert pool_calls == [] and 0 not in built


# ---------------------------------------------------------------------------
# blocked folds and their training moments on gapped axes

@st.composite
def gapped_plans(draw, max_lags=5):
    """A sorted time axis with random holes (as a nested plan over a
    training block sees it), a fold count and a lag count it can hold."""
    n_folds, n_lags = draw(st.integers(2, 6)), draw(st.integers(1, max_lags))
    n = draw(st.integers(n_folds * (n_lags + 2), n_folds * (n_lags + 2) + 40))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, n_lags, n_lags + 1, 9]),
                          min_size=n - 1, max_size=n - 1))
    axis = np.cumsum([draw(st.integers(0, 3))] + steps)
    return axis, n_folds, n_lags


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=gapped_plans())
def test_plan_folds_partitions_a_gapped_axis(case):
    axis, n_folds, n_lags = case
    plan = evaluation.plan_folds(axis, n_folds, n_lags)
    assert np.array_equal(plan.axis, axis)
    assert np.array_equal(np.concatenate([f.test_indices for f in plan.folds]),
                          axis)  # contiguous test blocks tile the axis in order
    sizes = [len(f.test_indices) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1
    for fold in plan.folds:
        hi = fold.test_indices[-1]
        assert np.array_equal(fold.discarded_indices,
                              axis[(axis > hi) & (axis <= hi + n_lags)])
        parts = np.concatenate([fold.test_indices, fold.train_indices,
                                fold.discarded_indices])
        assert len(parts) == len(axis)
        assert np.array_equal(np.sort(parts), axis)  # disjoint, and cover it
        assert np.all(np.diff(fold.train_indices) > 0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=gapped_plans(max_lags=3), shape=st.tuples(st.integers(1, 3),
                                                     st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1), picks=st.data())
def test_fold_moments_equal_two_pass_over_training_columns(case, shape, seed,
                                                           picks):
    """Segment moments give each fold's training mean and scatter of the
    lag-max embedding stacked on the trimmed pool, as a two-pass sum."""
    axis, n_folds, trim = case
    w, w_pool = shape
    lags = tuple(range(1, trim + 1))
    rng = np.random.default_rng(seed)
    t = int(axis[-1]) + 1 + trim
    x = rng.standard_normal((w, t)) * (rng.random((w, t)) < 0.7)
    pool = 3.0 + rng.standard_normal((w_pool, t))  # a mean far from zero
    plan = evaluation.plan_folds(axis, n_folds, trim)
    ids = picks.draw(st.lists(st.integers(0, n_folds - 1), min_size=1,
                              unique=True))
    data = _FeedData(x, pool, HyperGrid(lags=lags, kappas=(1.0,)), trim)
    means, scatter = evaluation._fold_moments(data, plan, ids)
    z = np.vstack((embed_columns(x, trim), pool[:, trim:]))
    for f, i in enumerate(ids):
        zt = z[:, plan.folds[i].train_indices]
        mu = zt.mean(axis=1)
        direct = (zt - mu[:, None]) @ (zt - mu[:, None]).T
        assert np.allclose(means[f], mu, rtol=0, atol=1e-12 * np.abs(mu).max())
        assert np.allclose(scatter[f], direct, rtol=0,
                           atol=1e-12 * max(np.abs(direct).max(), 1.0))


# ---------------------------------------------------------------------------
# corpus disk format

# every finite double, plus the extremes a generic strategy rarely draws
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
                     1.7976931348623157e308]))


@st.composite
def corpora(draw):
    n_feeds, w = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    t = draw(st.integers(1, 8))
    tfidf = draw(st.booleans())
    feeds = []
    for i in range(n_feeds):
        cells = draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, t - 1)),
                              unique=True, max_size=w * t))  # may be empty
        value = st.integers(1, 9).map(float) if tfidf else _FINITE
        values = draw(st.lists(value, min_size=len(cells), max_size=len(cells)))
        rows = np.array([r for r, _ in cells], dtype=int)
        cols = np.array([c for _, c in cells], dtype=int)
        m = sp.coo_matrix((np.array(values, dtype=float), (rows, cols)), shape=(w, t))
        feeds.append(FeedSeries(f"feed{i}", m.tocsc()))
    # negative values are allowed in synthetic corpora only
    c = Corpus(Vocabulary([f"w{j}" for j in range(w)]),
               datetime(2011, 10, 1, tzinfo=timezone.utc), 1.0, t, feeds,
               synthetic=not tfidf)
    return tfidf_normalize(c) if tfidf else c


@settings(derandomize=True, max_examples=150, deadline=None)
@given(corpus=corpora())
def test_store_load_round_trip_is_bit_exact(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_corpus(store_corpus(corpus, tmp))
    assert back == corpus
    for a, b in zip(corpus.feeds, back.feeds):
        for name in ("data", "indices", "indptr"):
            assert getattr(a.matrix, name).dtype == getattr(b.matrix, name).dtype
        assert np.array_equal(a.matrix.data.view(np.int64),
                              b.matrix.data.view(np.int64))
        assert np.array_equal(a.matrix.indices, b.matrix.indices)
        assert np.array_equal(a.matrix.indptr, b.matrix.indptr)


# ---------------------------------------------------------------------------
# JSON writer

_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8,
                           np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))
_FINITE_ARRAYS = hnp.arrays(
    dtype=np.float64, shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
    elements=_FINITE)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.floats().map(np.float64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_), _ARRAYS, _FINITE_ARRAYS)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(obj=_VALUES)
def test_dumps_matches_value_by_value_writer(obj):
    assert dumps(obj) == json_text(obj) + "\n"


@pytest.mark.parametrize("array", [
    np.array([[0.1, -0.0, 1e300, 5e-324]]),      # 1 x n
    np.array([[1 / 3], [2.5], [-7.0]]),          # n x 1
    np.zeros((0, 3)),
    np.zeros((2, 0)),
    np.array([[1.0, np.nan], [np.inf, 2.0]]),    # non-finite: value by value
    np.arange(12.0).reshape(2, 3, 2) / 7,
    np.float32([[0.1, 0.2], [0.3, 0.4]]),
], ids=["1xn", "nx1", "0-row", "0-col", "nan", "3-d", "float32"])
def test_dumps_writes_2d_arrays_as_value_by_value_writer(array):
    assert dumps(array) == json_text(array) + "\n"


# ---------------------------------------------------------------------------
# one (feed, fold) fit on generated feeds

@st.composite
def fold_cases(draw):
    """A feed and its pool over T columns, the grid, the trim and one outer
    fold. The feed is narrow (W * L below the fold's training count, the
    primal factor) or wide (above it, the dual factor); a few of its rows
    may repeat others."""
    lags = tuple(sorted(draw(st.sets(st.integers(1, 3), min_size=1, max_size=2))))
    trim = max(lags)
    n_folds, n_inner = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    t = trim + draw(st.integers(45, 90))
    w = draw(st.one_of(st.integers(1, 4), st.integers(25, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latent = rng.standard_normal(t)
    x = np.outer(rng.standard_normal(w), latent) + rng.standard_normal((w, t))
    x *= rng.random((w, t)) < 0.7
    dup = draw(st.integers(0, min(w - 1, 3)))
    x[w - dup:] = x[:dup]
    pool = np.outer(rng.standard_normal(w), np.roll(latent, 1)) \
        + rng.standard_normal((w, t))
    plan = evaluation.plan_folds(t - trim, n_folds, trim)
    fold_i = draw(st.integers(0, n_folds - 1))
    return x, pool, lags, trim, plan, fold_i, n_inner


_FIT_FIELDS = ("alpha", "beta", "lam", "eigenvalue", "kappa")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=fold_cases(), sparse_input=st.booleans())
def test_fit_is_bit_identical_when_the_test_block_is_randomized(case, sparse_input):
    """Criterion 08 on generated feeds: the training of one outer fold
    never reads its test block, in the feed or in the pool."""
    x, pool, lags, trim, plan, fold_i, n_inner = case
    fold = plan.folds[fold_i]
    grid = HyperGrid(lags=lags, kappas=(1e-3, 1.0))

    def fit(x, pool):
        as_input = sp.csc_matrix if sparse_input else np.asarray
        # sparse input stays sparse, so that the generic route scores too
        limit = 0 if sparse_input else evaluation._DENSE_LIMIT
        with mock.patch.object(evaluation, "_DENSE_LIMIT", limit):
            data = _FeedData(as_input(x), as_input(pool), grid, trim)
            return _fit_feed_fold(data, fold, fold_i, n_inner)

    base = fit(x, pool)
    rng = np.random.default_rng(fold_i)
    times = fold.test_indices + trim
    x2, pool2 = x.copy(), pool.copy()
    x2[:, times] = rng.standard_normal((x.shape[0], len(times)))
    pool2[:, times] = rng.standard_normal((pool.shape[0], len(times)))
    redo = fit(x2, pool2)
    assert (base.n_lags, base.kappa) == (redo.n_lags, redo.kappa)
    assert np.array_equal(base.inner_scores, redo.inner_scores)
    if base.model is None:
        assert redo.model is None
        return
    for name in _FIT_FIELDS:
        assert np.array_equal(getattr(base.model, name), getattr(redo.model, name)), name
    assert np.array_equal(base.w_x, redo.w_x)
    assert np.array_equal(base.w_y, redo.w_y)


@st.composite
def route_cases(draw):
    """One fold of a feed at lag L (trim L) with W below, near or above the
    fold's training count n, so that W <= n < W * L occurs, with repeated
    rows, at one kappa, from dense or sparse input."""
    sparse_input = draw(st.booleans())
    lag = draw(st.integers(1, 3))
    t = draw(st.integers(40, 70))
    n = len(evaluation.plan_folds(t - lag, 2, lag).folds[0].train_indices)
    w = draw(st.sampled_from([max(1, n // 8), n - 1, n, n + 1, 2 * n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((max(1, w - w // 4), t))
    x = base[np.arange(w) % len(base)]  # the last quarter repeats rows
    pool = 0.5 * np.roll(x[:3], 1, axis=1).sum(axis=0) + rng.standard_normal((4, t))
    kappa = draw(st.sampled_from([1e-3, 1e-1, 1.0]))
    return x, pool, t, lag, kappa, sparse_input


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=route_cases())
def test_fit_eigenvalue_matches_kernel_solve_and_oracle(case):
    x, pool, t, lag, kappa, sparse_input = case
    grid = HyperGrid(lags=(lag,), kappas=(kappa,))
    fold = evaluation.plan_folds(t - lag, 2, lag).folds[0]
    as_input = sp.csc_matrix if sparse_input else np.asarray
    # sparse input stays sparse, so that the csc rows of the lag embedding
    # and the sparse Gram run too
    limit = 0 if sparse_input else evaluation._DENSE_LIMIT
    with mock.patch.object(evaluation, "_DENSE_LIMIT", limit):
        data = _FeedData(as_input(x), as_input(pool), grid, lag)
        out = _fit_feed_fold(data, fold, 0, 2)
    assert (out.n_lags, out.kappa) == (lag, kappa)
    emb = _cols(data.emb[lag], fold.train_indices)
    kx, _ = center_kernel(linear_kernel(emb))
    ky, _ = center_kernel(linear_kernel(_cols(data.pool, fold.train_indices)))
    reference = generalized_eig_top(kx, ky, kappa)
    assert abs(out.model.eigenvalue - solve_kcca(kx, ky, kappa).eigenvalue) < 1e-9
    assert abs(out.model.eigenvalue - reference) < 1e-9


# ---------------------------------------------------------------------------
# worker count

@st.composite
def jobs_cases(draw):
    """A corpus of 2-3 feeds, primal (W = 3) or dual (W = 30), a fold count
    of 2-4, a worker count above one and an optional one-feed filter."""
    n_feeds, n_folds = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    w, t = draw(st.sampled_from([3, 30])), draw(st.integers(50, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latent = rng.standard_normal(t + 1)
    feeds = []
    for i in range(n_feeds):  # feed0 leads the others by one step
        m = np.outer(rng.standard_normal(w), latent[int(i == 0):][:t]) \
            + rng.standard_normal((w, t))
        m *= rng.random((w, t)) < 0.5
        feeds.append(FeedSeries(f"feed{i}", sp.csc_matrix(m)))
    corpus = Corpus(Vocabulary([f"w{j}" for j in range(w)]),
                    datetime(2011, 10, 1, tzinfo=timezone.utc), 1.0, t, feeds,
                    synthetic=True)
    # n_folds + 1 (at most 4 workers) gives every fold a run of its own
    jobs = draw(st.sampled_from(sorted({2, 3, min(n_folds + 1, 4)})))
    feed_ids = draw(st.one_of(st.none(), st.sampled_from(corpus.feed_ids).map(
        lambda f: [f])))
    return corpus, n_folds, jobs, feed_ids


@settings(derandomize=True, max_examples=10, deadline=None)
@given(case=jobs_cases())
def test_report_and_models_bytes_do_not_depend_on_jobs(case):
    corpus, n_folds, jobs, feed_ids = case
    kw = dict(grid=HyperGrid(lags=(1, 2), kappas=(1e-2, 1.0)), n_folds=n_folds,
              n_inner=2, seed=3, feed_ids=feed_ids, with_lsa=True,
              with_shuffle=True)
    serial = evaluation.analyze(corpus, **kw)
    parallel = evaluation.analyze(corpus, jobs=jobs, **kw)
    for build in (build_report, build_models):
        assert dumps(build(parallel, "h")) == dumps(build(serial, "h"))
