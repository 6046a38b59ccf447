import json

import numpy as np
import pytest

from ctrend import (
    HyperGrid,
    LeaderConfig,
    ToyConfig,
    analyze,
    generate_leader,
    generate_toy,
    load_corpus,
    write_generated,
)
from ctrend.exceptions import BadConfig


# ---------------------------------------------------------------------------
# toy generator

def test_toy_noiseless_is_exact_rank_one():
    cfg = ToyConfig(T=200, gamma=1.0, lag=3, seed=9)
    c = generate_toy(cfg)
    x3 = c.feed("X").matrix.toarray()[0:3]
    y3 = c.feed("Y").matrix.toarray()[3:6]
    # reproduce the documented draw order: trend, then X noise, then Y noise
    rng = np.random.default_rng(9)
    s = rng.standard_normal(200 + 3)
    eps_x = rng.standard_normal((3, 200))
    eps_y = rng.standard_normal((3, 200))
    wx = np.array(cfg.w_x_star)
    wy = np.array(cfg.w_y_star)
    assert np.array_equal(x3, 1.0 * wx[:, None] * s[3:][None, :] + 0.0 * eps_x)
    assert np.array_equal(y3, 1.0 * wy[:, None] * s[:200][None, :] + 0.0 * eps_y)


def test_toy_feed_x_leads_y():
    # noiseless: what Y carries at t + lag is what X carried at t
    c = generate_toy(ToyConfig(T=100, gamma=1.0, seed=1))
    x = c.feed("X").matrix.toarray()
    y = c.feed("Y").matrix.toarray()
    ratio_x = x[1] / 0.9   # Volcano row carries s(t + 3)
    ratio_y = y[3] / 0.9   # Cloud row carries s(t)
    assert np.allclose(ratio_x[:-3], ratio_y[3:], atol=1e-12)


def test_toy_same_seed_identical():
    assert generate_toy(ToyConfig(T=150, seed=4)) == generate_toy(ToyConfig(T=150, seed=4))
    assert generate_toy(ToyConfig(T=150, seed=4)) != generate_toy(ToyConfig(T=150, seed=5))


def test_toy_zero_outside_designated_terms():
    c = generate_toy(ToyConfig(T=80, seed=2))
    assert np.all(c.feed("X").matrix.toarray()[3:6] == 0)
    assert np.all(c.feed("Y").matrix.toarray()[0:3] == 0)
    assert c.vocabulary.terms == ["Phone", "Volcano", "Airplane",
                                  "Cloud", "iPad", "Ash"]
    assert c.synthetic and c.normalization == "counts"


def test_toy_residual_noise_scale():
    cfg = ToyConfig(T=2000, gamma=0.9, seed=7)
    c = generate_toy(cfg)
    rng = np.random.default_rng(7)
    s = rng.standard_normal(cfg.T + cfg.lag)
    x3 = c.feed("X").matrix.toarray()[0:3]
    y3 = c.feed("Y").matrix.toarray()[3:6]
    wx = np.array(cfg.w_x_star)
    wy = np.array(cfg.w_y_star)
    res_x = (x3 - cfg.gamma * wx[:, None] * s[cfg.lag:][None, :]) / np.sqrt(0.1)
    res_y = (y3 - cfg.gamma * wy[:, None] * s[:cfg.T][None, :]) / np.sqrt(0.1)
    assert abs(res_x.var() - 1.0) < 0.05
    assert abs(res_y.var() - 1.0) < 0.05


def test_toy_bad_configs():
    with pytest.raises(BadConfig):
        ToyConfig(gamma=1.5)
    with pytest.raises(BadConfig):
        ToyConfig(gamma=0.0)
    with pytest.raises(BadConfig):
        ToyConfig(T=100, lag=25)  # lag must stay below T/4
    with pytest.raises(BadConfig):
        ToyConfig(w_x_star=(0.0, 0.0, 0.0))
    for seed in (-1, 1.5, None):
        with pytest.raises(BadConfig, match="seed must be a non-negative integer"):
            ToyConfig(seed=seed)


# ---------------------------------------------------------------------------
# leader generator

def test_leader_same_seed_identical():
    cfg = LeaderConfig(F=4, W=8, T=120, seed=3)
    assert generate_leader(cfg) == generate_leader(cfg)


def test_leader_shapes_and_names():
    c = generate_leader(LeaderConfig(F=4, W=8, T=120, seed=3))
    assert c.feed_ids == ["leader", "follower1", "follower2", "follower3"]
    assert c.W == 8 and c.T == 120
    assert c.synthetic


def test_leader_bad_configs():
    with pytest.raises(BadConfig):
        LeaderConfig(F=2)
    with pytest.raises(BadConfig):
        LeaderConfig(leader_lag=0)
    with pytest.raises(BadConfig):
        LeaderConfig(gamma=0.0)
    with pytest.raises(BadConfig):
        LeaderConfig(trend_sparsity=0.0)
    with pytest.raises(BadConfig):
        LeaderConfig(W=0)
    for seed in (-1, 1.5, None):
        with pytest.raises(BadConfig, match="seed must be a non-negative integer"):
            LeaderConfig(seed=seed)


def test_leader_ranks_first_smoke():
    c = generate_leader(LeaderConfig(F=4, W=8, T=900, leader_lag=3, seed=2))
    grid = HyperGrid(lags=(1, 2, 3, 4), kappas=(1e-3, 1e-1))
    res = analyze(c, grid, n_folds=5, n_inner=5)
    assert res.ranking.entries[0][0] == "leader"


def test_leader_vanishing_signal_scores_like_noise():
    c = generate_leader(LeaderConfig(F=4, W=8, T=900, leader_lag=3,
                                     gamma=1e-9, seed=2))
    grid = HyperGrid(lags=(1, 2, 3), kappas=(1e-2,))
    res = analyze(c, grid, n_folds=5, n_inner=5)
    for _, score in res.ranking.entries:
        assert abs(score) < 0.3


# ---------------------------------------------------------------------------
# persistence

def test_write_generated_round_trip(tmp_path):
    cfg = ToyConfig(T=60, seed=5)
    c = generate_toy(cfg)
    d = write_generated(c, cfg, tmp_path / "toy")
    assert load_corpus(d) == c
    gen = json.loads((d / "gen.json").read_text())
    assert gen["generator"] == "ToyConfig"
    assert gen["config"]["seed"] == 5
    assert gen["config"]["T"] == 60
    assert "tool_version" in gen
