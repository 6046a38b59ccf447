"""Seeded synthetic corpora with planted temporal structure.

Two generators: a two-feed toy corpus where feed X publishes a shared
latent trend a fixed number of hours before feed Y, and an F-feed corpus
with a designated leader ahead of jittered followers. Both are used to
verify that the pipeline recovers the planted lag, weights and ranking.

Values are Gaussian and may be negative, unlike real term counts; the
corpora carry ``synthetic=True`` so validation relaxes non-negativity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import __version__
from .corpus import Corpus, FeedSeries, Vocabulary, store_corpus
from .exceptions import BadConfig

TOY_X_TERMS = ("Phone", "Volcano", "Airplane")
TOY_Y_TERMS = ("Cloud", "iPad", "Ash")

_T0 = datetime(2010, 1, 1, tzinfo=timezone.utc)


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadConfig(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ToyConfig:
    """Two feeds, three terms each, one shared latent trend."""

    T: int = 2000
    gamma: float = 0.9
    lag: int = 3
    w_x_star: tuple[float, float, float] = (0.05, 0.9, 0.4)
    w_y_star: tuple[float, float, float] = (0.9, 0.05, 0.6)
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise BadConfig(f"gamma must be in (0, 1], got {self.gamma}")
        if self.lag < 1 or self.lag >= self.T / 4:
            raise BadConfig(f"lag must satisfy 1 <= lag < T/4, got {self.lag}")
        if not any(self.w_x_star) or not any(self.w_y_star):
            raise BadConfig("weight vectors must be non-zero")
        _check_seed(self.seed)


@dataclass(frozen=True)
class LeaderConfig:
    """F feeds sharing one latent trend, with a designated leader ahead."""

    F: int = 5
    W: int = 12
    T: int = 2000
    leader_lag: int = 4
    trend_sparsity: float = 0.5
    gamma: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.F < 3:
            raise BadConfig(f"need at least 3 feeds, got {self.F}")
        if self.leader_lag < 1 or self.leader_lag >= self.T / 4:
            raise BadConfig(
                f"leader_lag must satisfy 1 <= lag < T/4, got {self.leader_lag}")
        if not 0.0 < self.gamma <= 1.0:
            raise BadConfig(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.trend_sparsity <= 1.0:
            raise BadConfig(
                f"trend_sparsity must be in (0, 1], got {self.trend_sparsity}")
        if self.W < 1:
            raise BadConfig(f"vocabulary size must be >= 1, got {self.W}")
        _check_seed(self.seed)


def generate_toy(cfg: ToyConfig) -> Corpus:
    """Two-feed corpus where feed X leads feed Y by ``cfg.lag`` hours.

    The latent trend s is drawn i.i.d. standard normal over an axis
    extended by ``lag`` samples; feed X mixes s(t + lag) through w_x_star
    and feed Y mixes s(t) through w_y_star, each plus per-coordinate
    standard normal noise scaled by sqrt(1 - gamma). The draw order is
    fixed (trend, then X noise, then Y noise) with PCG64, so a seed pins
    the corpus bit-for-bit. Feed X's terms occupy vocabulary rows 0..2,
    feed Y's rows 3..5; each feed is exactly zero outside its own terms.
    """
    rng = np.random.default_rng(cfg.seed)
    s = rng.standard_normal(cfg.T + cfg.lag)
    eps_x = rng.standard_normal((3, cfg.T))
    eps_y = rng.standard_normal((3, cfg.T))
    noise = np.sqrt(1.0 - cfg.gamma)
    wx = np.asarray(cfg.w_x_star, dtype=float)
    wy = np.asarray(cfg.w_y_star, dtype=float)
    x3 = cfg.gamma * wx[:, None] * s[cfg.lag:][None, :] + noise * eps_x
    y3 = cfg.gamma * wy[:, None] * s[:cfg.T][None, :] + noise * eps_y

    vocab = Vocabulary(list(TOY_X_TERMS) + list(TOY_Y_TERMS))
    x_full = np.zeros((6, cfg.T))
    y_full = np.zeros((6, cfg.T))
    x_full[0:3] = x3
    y_full[3:6] = y3
    feeds = [FeedSeries("X", sp.csc_matrix(x_full)),
             FeedSeries("Y", sp.csc_matrix(y_full))]
    corpus = Corpus(vocab, _T0, 1.0, cfg.T, feeds, normalization="counts",
                    synthetic=True)
    corpus.validate()
    return corpus


def generate_leader(cfg: LeaderConfig) -> Corpus:
    """F-feed corpus where the leader publishes the trend first.

    One latent trend s is shared by all feeds. The leader mixes it
    undelayed; follower f mixes s delayed by leader_lag - delta_f with a
    per-feed jitter delta_f in {0, 1}. Each feed loads the trend on its
    own random sparse term subset through a unit-norm loading vector; the
    rest is standard normal noise at ratio sqrt(1 - gamma). Draw order:
    trend, then follower jitters, then per feed (support, loading, noise).
    """
    rng = np.random.default_rng(cfg.seed)
    s = rng.standard_normal(cfg.T + cfg.leader_lag)
    deltas = rng.integers(0, 2, size=cfg.F - 1)
    noise = np.sqrt(1.0 - cfg.gamma)
    k = max(1, round(cfg.trend_sparsity * cfg.W))

    feeds = []
    names = ["leader"] + [f"follower{i}" for i in range(1, cfg.F)]
    for fi, name in enumerate(names):
        support = rng.choice(cfg.W, size=k, replace=False)
        loading = rng.standard_normal(k)
        loading /= np.linalg.norm(loading)
        w = np.zeros(cfg.W)
        w[support] = loading
        if fi == 0:
            stream = s[cfg.leader_lag:]
        else:
            delta = int(deltas[fi - 1])
            stream = s[delta:delta + cfg.T]
        m = cfg.gamma * w[:, None] * stream[None, :] \
            + noise * rng.standard_normal((cfg.W, cfg.T))
        feeds.append(FeedSeries(name, sp.csc_matrix(m)))

    vocab = Vocabulary([f"term{i:03d}" for i in range(cfg.W)])
    corpus = Corpus(vocab, _T0, 1.0, cfg.T, feeds, normalization="counts",
                    synthetic=True)
    corpus.validate()
    return corpus


def write_generated(corpus: Corpus, cfg: ToyConfig | LeaderConfig,
                    directory: str | Path) -> Path:
    """Store the corpus plus a gen.json echoing the full configuration."""
    directory = store_corpus(corpus, directory)
    gen = {
        "generator": type(cfg).__name__,
        "config": asdict(cfg),
        "tool_version": __version__,
    }
    (directory / "gen.json").write_text(
        json.dumps(gen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return directory
