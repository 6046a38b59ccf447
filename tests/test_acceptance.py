"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines. The heavy fixtures (ten-seed pipeline runs) are shared across
criteria, so the whole module stays within a couple of minutes.
"""

import json
import time

import numpy as np
import pytest

from ctrend import (
    HyperGrid,
    LeaderConfig,
    ToyConfig,
    analyze,
    center_kernel,
    generate_leader,
    generate_toy,
    linear_kernel,
    pool_excluding,
    solve_kcca,
)
from ctrend.cli import main as cli_main
from ctrend.corpus import Corpus, FeedSeries
from ctrend.evaluation import (
    _FeedData,
    _fewest_train,
    _fit_feed_fold,
    derive_seed,
    shuffle_control,
)
from ctrend.kcca import _cols
from oracles import input_space_cca

import scipy.sparse as sp

TOY_SEEDS = list(range(42, 52))
LEADER_SEEDS = list(range(10))

W_X_STAR = np.array([0.05, 0.9, 0.4])
W_Y_STAR = np.array([0.9, 0.05, 0.6])


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def toy_runs():
    """Full default-grid pipeline on generate_toy defaults, ten seeds."""
    t0 = time.perf_counter()
    runs = {seed: analyze(generate_toy(ToyConfig(seed=seed)), seed=seed,
                          with_lsa=True)
            for seed in TOY_SEEDS}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def leader_runs():
    """Planted-leader corpora at the criterion's scale, ten seeds.

    The lag grid 1..6 covers the planted lead of 4 with headroom; the
    vocabulary and trend density are the generator defaults.
    """
    grid = HyperGrid(lags=tuple(range(1, 7)))
    cfg = lambda seed: LeaderConfig(F=5, leader_lag=4, gamma=0.9, T=2000,
                                    seed=seed)
    return {seed: analyze(generate_leader(cfg(seed)), grid)
            for seed in LEADER_SEEDS}


@pytest.fixture(scope="module")
def shuffle_scores():
    """Mean fold correlation of the time-shuffled toy feed X, ten seeds."""
    scores = {}
    for seed in TOY_SEEDS:
        corpus = generate_toy(ToyConfig(seed=seed))
        outs = shuffle_control(corpus, "X",
                               derive_seed(seed, "X", 0, "shuffle"))
        scores[seed] = float(np.mean([o.correlation for o in outs]))
    return scores


def _best_outcome(run, feed_id):
    usable = [o for o in run.fold_outcomes[feed_id] if o.w_x is not None]
    return max(usable, key=lambda o: (o.correlation, -o.fold))


def test_criterion_01_toy_correlogram_peak(toy_runs):
    runs, elapsed = toy_runs
    hits = 0
    for seed, run in runs.items():
        values = {t: r for t, r in runs[seed].reports[0].correlogram
                  if r is not None}
        if values and max(values, key=values.get) == 3:
            hits += 1
    ok = hits >= 9 and elapsed < 30.0
    _report(1, "toy correlogram peaks at tau=3 on >=9/10 seeds in <30 s",
            ok, f"hits={hits}/10, elapsed={elapsed:.1f}s")


def test_criterion_02_weight_recovery(toy_runs):
    runs, _ = toy_runs
    cos_y, cos_x = [], []
    for run in runs.values():
        best = _best_outcome(run, "X")
        wy = best.w_y[3:6]  # pooled side lives on Cloud/iPad/Ash rows
        wx = best.w_x[0:3, 2]  # feed side at lag 3, Phone/Volcano/Airplane rows
        cos_y.append(wy @ W_Y_STAR / (np.linalg.norm(wy) * np.linalg.norm(W_Y_STAR)))
        cos_x.append(wx @ W_X_STAR / (np.linalg.norm(wx) * np.linalg.norm(W_X_STAR)))
    ok = np.mean(cos_y) >= 0.9 and np.mean(cos_x) >= 0.9
    _report(2, "recovered weights align with planted directions (cos >= 0.9)",
            ok, f"mean cos_y={np.mean(cos_y):.4f}, cos_x={np.mean(cos_x):.4f}")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x_raw = rng.standard_normal((4, 300))
        y_raw = rng.standard_normal((4, 300))
        emb = np.vstack([x_raw[:, b:297 + b] for b in range(3)])
        pool = y_raw[:, 3:]
        kx, _ = center_kernel(linear_kernel(emb))
        ky, _ = center_kernel(linear_kernel(pool))
        lam = solve_kcca(kx, ky, 1e-8).lam
        worst = max(worst, abs(lam - input_space_cca(emb, pool)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    _report(3, "kernel solution matches input-space CCA oracle at kappa floor",
            ok, f"worst diff={worst:.2e}, elapsed={elapsed:.1f}s")


def test_criterion_04_lambda_is_training_correlation(toy_runs):
    runs, _ = toy_runs
    worst = 0.0
    checked = 0
    for seed, run in runs.items():
        corpus = generate_toy(ToyConfig(seed=seed))
        for feed_id in ("X", "Y"):
            data = _FeedData(corpus.feed(feed_id).matrix,
                             pool_excluding(corpus, feed_id),
                             run.grid, run.trim,
                             _fewest_train([f.train_indices for f in run.plan.folds],
                                           run.n_inner, run.trim))
            for outcome in run.fold_outcomes[feed_id]:
                model = outcome.model
                if model is None:
                    continue
                tr = run.plan.folds[outcome.fold].train_indices
                emb = _cols(data.emb[outcome.n_lags], tr)
                ac = emb - emb.mean(axis=1, keepdims=True)
                yc = data.pool_trim[:, tr] \
                    - data.pool_trim[:, tr].mean(axis=1, keepdims=True)
                u = ac.T @ (ac @ model.alpha)  # alpha' Kc, kernel applied assoc.
                v = yc.T @ (yc @ model.beta)
                du, dv = u - u.mean(), v - v.mean()
                corr = du @ dv / (np.linalg.norm(du) * np.linalg.norm(dv))
                worst = max(worst, abs(corr - model.lam))
                checked += 1
    ok = worst < 1e-6 and checked == 200
    _report(4, "training projection correlation equals lambda (1e-6)",
            ok, f"models={checked}, worst diff={worst:.2e}")


def test_criterion_05_shuffle_control(shuffle_scores):
    values = np.array(list(shuffle_scores.values()))
    ok = np.mean(np.abs(values)) < 0.2 and np.max(np.abs(values)) < 0.35
    _report(5, "time-shuffled feed scores collapse toward zero",
            ok, f"mean |score|={np.mean(np.abs(values)):.3f}, "
                f"max={np.max(np.abs(values)):.3f}")


def test_criterion_06_ct_beats_lsa(toy_runs):
    """Known-red criterion; see the analysis in the decisions ledger.

    On this generator the latent trend is the pooled matrix's exact top
    variance direction (the noise is isotropic, which cannot rotate the
    top eigenvector of a rank-one-plus-noise model), so the variance
    baseline recovers the optimal direction with less estimation noise
    than the canonical solver, and its best-lag-on-test scoring adds a
    selection bonus. The measured gap is small and negative at every
    noise level; the assertion is kept faithful to the stated criterion.
    """
    runs, _ = toy_runs
    ct = [np.mean(run.reports[0].fold_correlations) for run in runs.values()]
    lsa = [np.mean(run.reports[0].lsa_fold_scores) for run in runs.values()]
    ok = np.mean(ct) > np.mean(lsa)
    _report(6, "mean CT fold score exceeds mean LSA fold score on toy family",
            ok, f"CT={np.mean(ct):.4f}, LSA={np.mean(lsa):.4f}")


def test_criterion_07_leader_ranked_first(leader_runs):
    firsts = sum(run.ranking.entries[0][0] == "leader"
                 for run in leader_runs.values())
    ok = firsts >= 9
    _report(7, "planted leader ranked first on >=9/10 seeds",
            ok, f"firsts={firsts}/10")


def test_criterion_08_leak_freedom(toy_runs):
    runs, _ = toy_runs
    run = runs[42]
    corpus = generate_toy(ToyConfig(seed=42))
    rng = np.random.default_rng(123)
    identical = 0
    for fold_i, fold in enumerate(run.plan.folds):
        test_times = fold.test_indices + run.trim
        mats = [f.matrix.toarray() for f in corpus.feeds]
        for m in mats:
            m[:, test_times] = rng.standard_normal((m.shape[0], len(test_times)))
        corrupted = Corpus(corpus.vocabulary, corpus.t0, corpus.bin_hours,
                           corpus.T,
                           [FeedSeries(f.feed_id, sp.csc_matrix(m))
                            for f, m in zip(corpus.feeds, mats)],
                           synthetic=True)
        for feed_id in ("X", "Y"):
            base_fit = run.fold_outcomes[feed_id][fold_i]
            data = _FeedData(corrupted.feed(feed_id).matrix,
                             pool_excluding(corrupted, feed_id),
                             run.grid, run.trim,
                             _fewest_train([fold.train_indices], run.n_inner,
                                           run.trim))
            redo_fit = _fit_feed_fold(data, fold, fold_i, run.n_inner)
            base, redo = base_fit.model, redo_fit.model
            if (np.array_equal(base.alpha, redo.alpha)
                    and np.array_equal(base.beta, redo.beta)
                    and base.lam == redo.lam and base.kappa == redo.kappa
                    and base_fit.n_lags == redo_fit.n_lags):
                identical += 1
        assert not set(fold.discarded_indices) & set(fold.train_indices)
    ok = identical == 2 * len(run.plan.folds)
    _report(8, "training is bit-identical under test-block randomization",
            ok, f"identical fits={identical}/{2 * len(run.plan.folds)}")


def test_criterion_09_jobs_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    cli_main(["synth", "--mode", "toy", "--seed", "42", "--T", "800",
              "--out", str(corpus_dir)])
    reports = {}
    for jobs in (1, 8):
        out = tmp_path / f"out{jobs}"
        code = cli_main(["analyze", "--corpus", str(corpus_dir),
                         "--out", str(out), "--lags", "1..5",
                         "--seed", "0", "--jobs", str(jobs)])
        assert code == 0
        reports[jobs] = (out / "report.json").read_bytes()
    ok = reports[1] == reports[8]
    _report(9, "report.json is byte-identical for --jobs 1 and --jobs 8", ok)


def test_criterion_10_bounds_and_monotonicity(toy_runs):
    runs, _ = toy_runs
    in_bounds = True
    for run in runs.values():
        for r in run.reports:
            in_bounds &= all(-1.0 <= c <= 1.0 for c in r.fold_correlations)
            in_bounds &= all(rho is None or -1.0 <= rho <= 1.0
                             for _, rho in r.correlogram)
        for outcomes in run.fold_outcomes.values():
            for o in outcomes:
                if o.model is not None:
                    in_bounds &= -1e-8 <= o.model.lam <= 1 + 1e-8
                    in_bounds &= -1e-8 <= o.model.eigenvalue <= 1 + 1e-8

    corpus = generate_toy(ToyConfig(seed=42))
    grid = HyperGrid()
    tr = runs[42].plan.folds[0].train_indices
    data = _FeedData(corpus.feed("X").matrix,
                     pool_excluding(corpus, "X"), grid, grid.max_lag,
                     _fewest_train([tr], runs[42].n_inner, grid.max_lag))
    kx, _ = center_kernel(linear_kernel(_cols(data.emb[5], tr)))
    ky, _ = center_kernel(linear_kernel(data.pool_trim[:, tr]))
    monotone = True
    prev_eig, prev_lam = np.inf, np.inf
    for kappa in grid.kappas:
        m = solve_kcca(kx, ky, kappa)
        monotone &= m.eigenvalue <= prev_eig + 1e-10
        monotone &= m.lam <= prev_lam + 1e-6
        prev_eig, prev_lam = m.eigenvalue, m.lam
    ok = in_bounds and monotone
    _report(10, "correlations bounded and lambda non-increasing in kappa",
            ok, f"bounds={in_bounds}, monotone={monotone}")
