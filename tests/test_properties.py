"""Property-based checks of invariants over generated shapes and inputs."""

import tempfile
from datetime import datetime, timezone
from unittest import mock

import numpy as np
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
from ctrend.evaluation import HyperGrid, _FeedData
from ctrend.reporting import dumps

from oracles import json_text


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
    # sparse feed whose lag-1 block is small enough to densify
    limit = draw(st.sampled_from([evaluation._DENSE_LIMIT, 0, w * (t - trim)]))
    return x, pool, HyperGrid(lags=lags, kappas=(1.0,)), trim, limit


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=feed_cases(), sparse_input=st.booleans())
def test_lag_embedding_is_row_block_of_lag_max(case, sparse_input):
    x, pool, grid, trim, limit = case
    x_in = sp.csc_matrix(x) if sparse_input else x
    w, t = x.shape
    with mock.patch.object(evaluation, "_DENSE_LIMIT", limit):
        data = _FeedData(x_in, sp.csc_matrix(pool), grid, trim)
    for lag in grid.lags:
        got = data.emb[lag]
        ref = embed_columns(x_in, lag)[:, trim - lag:]
        sparse = sparse_input and w * t > limit and w * lag * (t - trim) > limit
        assert sp.issparse(got) == sparse
        assert got.shape == ref.shape
        dense_got = got.toarray() if sp.issparse(got) else got
        dense_ref = ref.toarray() if sp.issparse(ref) else ref
        assert np.array_equal(dense_got, dense_ref)
    emb_max = data.emb[grid.max_lag]
    if isinstance(emb_max, np.ndarray):
        for lag in grid.lags:
            assert np.shares_memory(data.emb[lag], emb_max)


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
