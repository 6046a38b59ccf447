"""Property-based checks of invariants over generated shapes and inputs."""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ctrend import evaluation
from ctrend.embedding import embed_columns
from ctrend.evaluation import HyperGrid, _FeedData


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
