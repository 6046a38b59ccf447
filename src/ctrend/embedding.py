"""Leave-one-feed-out pooling and temporal (lag-stacked) embedding.

The pool of a feed is the entrywise mean of every other feed's matrix.
The temporal embedding stacks lagged copies of a feed matrix so that a
static projection of the stacked columns becomes a temporal convolution
over the feed's past. It drops the first ``n_lags`` time points instead
of zero-padding: every embedded column is fully observed, and embedded
column j only ever contains data from absolute times strictly before
j + n_lags.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .exceptions import NotEnoughFeeds, SeriesTooShort, UnknownFeed


def pool_excluding(c: Corpus, feed_id: str) -> sp.csc_matrix:
    """Mean of all feed matrices except ``feed_id`` (W x T)."""
    if c.F < 2:
        raise NotEnoughFeeds(f"pooling needs at least 2 feeds, corpus has {c.F}")
    others = [f.matrix for f in c.feeds if f.feed_id != feed_id]
    if len(others) == c.F:
        raise UnknownFeed(f"no feed named {feed_id!r}")
    acc = others[0].astype(float)
    for m in others[1:]:
        acc = acc + m
    return (acc / len(others)).tocsc()


def embed_columns(x: sp.spmatrix | np.ndarray, n_lags: int) -> sp.spmatrix | np.ndarray:
    """Lag-stack a raw W x T matrix into (W*n_lags) x (T-n_lags).

    Column j stacks the raw columns j .. j+n_lags-1 top to bottom, so the
    top block holds lag n_lags and the bottom block lag 1, relative to the
    absolute time t = j + n_lags the column predicts from.
    """
    if n_lags < 1:
        raise SeriesTooShort(f"need n_lags >= 1, got {n_lags}")
    T = x.shape[1]
    if T <= n_lags:
        raise SeriesTooShort(f"series length {T} too short for {n_lags} lags")
    blocks = [x[:, b:T - n_lags + b] for b in range(n_lags)]
    if sp.issparse(x):
        return sp.vstack(blocks, format="csc")
    return np.vstack(blocks)
