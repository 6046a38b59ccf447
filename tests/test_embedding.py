import numpy as np
import pytest
import scipy.sparse as sp

from ctrend import analyze, embed_columns, pool_excluding
from ctrend.corpus import Corpus, FeedSeries, Vocabulary
from ctrend.evaluation import HyperGrid, _FeedData
from ctrend.exceptions import (
    NotEnoughFeeds,
    SeriesTooShort,
    TooShortForFolds,
    UnknownFeed,
)
from ctrend.kcca import _cols
from oracles import dense_pool_mean

from datetime import datetime, timezone

T0 = datetime(2011, 10, 1, tzinfo=timezone.utc)


def corpus_from(mats, ids=None):
    W, T = np.asarray(mats[0]).shape
    ids = ids or [f"f{i}" for i in range(len(mats))]
    feeds = [FeedSeries(fid, sp.csc_matrix(np.asarray(m, dtype=float)))
             for fid, m in zip(ids, mats)]
    return Corpus(Vocabulary([f"t{i}" for i in range(W)]), T0, 1.0, T, feeds,
                  synthetic=True)


def embed(mat, n_lags):
    return embed_columns(sp.csc_matrix(np.asarray(mat, dtype=float)),
                         n_lags).toarray()


# ---------------------------------------------------------------------------
# pooling

def test_pool_two_feeds_is_the_other():
    a = np.arange(8).reshape(2, 4)
    b = np.arange(8).reshape(2, 4) * 3 - 5.0
    c = corpus_from([a, b])
    assert np.array_equal(pool_excluding(c, "f0").toarray(), b)
    assert np.array_equal(pool_excluding(c, "f1").toarray(), a)


def test_pool_mean_of_equals():
    a = np.ones((2, 3))
    x = np.random.default_rng(0).random((2, 3))
    c = corpus_from([a, x, x])
    assert np.allclose(pool_excluding(c, "f0").toarray(), x)


def test_pool_matches_dense_oracle():
    rng = np.random.default_rng(1)
    mats = [(rng.random((5, 9)) < 0.5) * rng.random((5, 9)) for _ in range(4)]
    c = corpus_from(mats)
    for i in range(4):
        got = pool_excluding(c, f"f{i}").toarray()
        assert np.allclose(got, dense_pool_mean(mats, i), atol=1e-15)


def test_pool_unknown_feed():
    c = corpus_from([np.ones((1, 2)), np.ones((1, 2))])
    with pytest.raises(UnknownFeed):
        pool_excluding(c, "nope")


def test_pool_needs_two_feeds():
    c = corpus_from([np.ones((1, 2))])
    with pytest.raises(NotEnoughFeeds):
        pool_excluding(c, "f0")


def test_pool_linear_in_scaling():
    rng = np.random.default_rng(2)
    mats = [rng.random((3, 5)) for _ in range(3)]
    c1 = corpus_from(mats)
    c2 = corpus_from([7.5 * m for m in mats])
    p1 = pool_excluding(c1, "f0").toarray()
    p2 = pool_excluding(c2, "f0").toarray()
    assert np.allclose(p2, 7.5 * p1)


# ---------------------------------------------------------------------------
# temporal embedding

def test_embed_scalar_series():
    emb = embed([[1.0, 2.0, 3.0, 4.0]], 2)
    # columns for t = 2, 3 hold [x(t-2), x(t-1)]
    assert np.array_equal(emb, [[1.0, 2.0], [2.0, 3.0]])


def test_embed_single_lag_is_shift():
    x = np.random.default_rng(0).random((3, 6))
    assert np.array_equal(embed(x, 1), x[:, :-1])


def test_embed_shape():
    x = np.zeros((2, 10))
    assert embed_columns(sp.csc_matrix(x), 3).shape == (6, 7)
    assert embed_columns(x, 3).shape == (6, 7)


def test_embed_too_short():
    with pytest.raises(SeriesTooShort):
        embed(np.ones((1, 3)), 3)
    with pytest.raises(SeriesTooShort):
        embed(np.ones((1, 3)), 0)


def test_embed_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(10):
        W = int(rng.integers(1, 5))
        T = int(rng.integers(6, 30))
        n_lags = int(rng.integers(1, 5))
        x = rng.random((W, T))
        emb = embed(x, n_lags)
        assert np.array_equal(embed_columns(x, n_lags), emb)
        for j in range(T - n_lags):
            col = emb[:, j].reshape(n_lags, W)
            # block b of column j is x(:, j + b), i.e. lag n_lags - b
            assert np.array_equal(col, x[:, j:j + n_lags].T)


def test_embed_strict_causality():
    # column j must not contain data from absolute times >= j + n_lags
    rng = np.random.default_rng(5)
    x = rng.random((2, 20))
    n_lags = 4
    base = embed(x, n_lags)
    for t_mod in range(n_lags, 20):
        x2 = x.copy()
        x2[:, t_mod:] = 99.0
        emb2 = embed(x2, n_lags)
        same = t_mod - n_lags + 1  # columns fully before the modification
        assert np.array_equal(base[:, :same], emb2[:, :same])


# ---------------------------------------------------------------------------
# the trimmed pool of the feed data the pipeline fits on

def test_trim_pool_drops_head():
    c = corpus_from([np.arange(8.0).reshape(2, 4), np.ones((2, 4))])
    data = _FeedData(c.feeds[1].matrix, pool_excluding(c, "f1"),
                     HyperGrid(lags=(1, 2), kappas=(1.0,)), 2)
    assert data.pool.shape == (2, 2)
    assert np.array_equal(_cols(data.pool, [0, 1]),
                          np.arange(8.0).reshape(2, 4)[:, 2:])


def test_trim_pool_alignment_with_embedding():
    rng = np.random.default_rng(6)
    x = rng.random((2, 12))
    y = rng.random((2, 12))
    c = corpus_from([x, y])
    n_lags = 3
    data = _FeedData(c.feeds[0].matrix, pool_excluding(c, "f0"),
                     HyperGrid(lags=(n_lags,), kappas=(1.0,)), n_lags)
    cols = np.arange(12 - n_lags)
    emb = _cols(data.emb[n_lags], cols)
    trimmed = _cols(data.pool, cols)
    assert np.array_equal(emb, embed(x, n_lags))
    for j in cols:
        t = j + n_lags
        assert np.array_equal(trimmed[:, j], y[:, t])
        assert np.array_equal(emb[:, j].reshape(n_lags, 2).T, x[:, t - n_lags:t])


def test_trim_pool_too_short():
    c = corpus_from([np.ones((1, 3)), np.ones((1, 3))])
    grid = HyperGrid(lags=(3,), kappas=(1.0,))
    with pytest.raises(TooShortForFolds):
        analyze(c, grid, n_folds=2)  # trimming 3 leaves no time axis
    with pytest.raises(SeriesTooShort, match="trim 2 is below the largest lag 3"):
        _FeedData(c.feeds[0].matrix, pool_excluding(c, "f0"), grid, 2)
