import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctrend import ToyConfig, corpus_content_hash, generate_toy, load_corpus
from ctrend.cli import main, parse_kappas, parse_lags


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# grid parsing

def test_parse_lags():
    assert parse_lags("1..10") == tuple(range(1, 11))
    assert parse_lags("5") == (5,)
    assert parse_lags("1,2,5") == (1, 2, 5)


def test_parse_kappas():
    assert parse_kappas("1e-5..1e1") == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1)
    assert parse_kappas("1e-3,0.1") == (1e-3, 0.1)
    with pytest.raises(ValueError):
        parse_kappas("2e-5..1e1")
    for spec in ("0..1", "1e-3..0", "nan..1", "1..inf"):
        with pytest.raises(ValueError, match="range ends must be positive and finite"):
            parse_kappas(spec)


# ---------------------------------------------------------------------------
# synth

def test_synth_toy_round_trip(tmp_path):
    out = tmp_path / "toy"
    assert run(["synth", "--mode", "toy", "--seed", 42, "--T", 120,
                "--gamma", 0.9, "--lag", 3, "--out", out]) == 0
    corpus = load_corpus(out)
    assert corpus == generate_toy(ToyConfig(T=120, gamma=0.9, lag=3, seed=42))
    gen = json.loads((out / "gen.json").read_text())
    assert gen["config"]["seed"] == 42


def test_synth_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--mode", "toy"])
    assert exc.value.code == 2


def test_synth_gamma_bound_named(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--mode", "toy", "--gamma", 1.5, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "(0, 1]" in capsys.readouterr().err


def test_synth_leader(tmp_path):
    out = tmp_path / "leader"
    assert run(["synth", "--mode", "leader", "--seed", 0, "--T", 200,
                "--feeds", 4, "--vocab-size", 8, "--out", out]) == 0
    corpus = load_corpus(out)
    assert corpus.F == 4 and corpus.W == 8


# ---------------------------------------------------------------------------
# featurize

DOCS = """\
{"feed": "ash", "timestamp": "2011-10-01T00:10:00Z", "text": "Volcano ash cloud"}
{"feed": "ash", "timestamp": "2011-10-01T01:20:00Z", "text": "ash ash again"}
{"feed": "tech", "timestamp": "2011-10-01T00:40:00Z", "text": "new phone launch"}
"""


def test_featurize_fixture_counts(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    out = tmp_path / "corpus"
    assert run(["featurize", "--docs", docs, "--out", out, "--no-stem",
                "--no-tfidf", "--t0", "2011-10-01T00:00:00Z", "--T", 2]) == 0
    printed = capsys.readouterr().out
    assert "ingested 3 documents (0 dropped)" in printed
    c = load_corpus(out)
    # vocabulary: sorted union of all tokens
    assert c.vocabulary.terms == ["again", "ash", "cloud", "launch", "new",
                                  "phone", "volcano"]
    ash = c.feed("ash").matrix.toarray()
    tech = c.feed("tech").matrix.toarray()
    idx = c.vocabulary.index
    # hand-counted cells: bin 0 = first hour, bin 1 = second hour
    assert ash[idx["volcano"], 0] == 1 and ash[idx["ash"], 0] == 1
    assert ash[idx["cloud"], 0] == 1
    assert ash[idx["ash"], 1] == 2 and ash[idx["again"], 1] == 1
    assert tech[idx["new"], 0] == 1 and tech[idx["phone"], 0] == 1
    assert tech[idx["launch"], 0] == 1
    assert ash.sum() == 6 and tech.sum() == 3


def test_featurize_tfidf_values(tmp_path):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    out = tmp_path / "corpus"
    assert run(["featurize", "--docs", docs, "--out", out, "--no-stem",
                "--t0", "2011-10-01T00:00:00Z", "--T", 2]) == 0
    c = load_corpus(out)
    idx = c.vocabulary.index
    # "ash" appears in 2 of F*T = 4 cells: idf = ln(4/3); count in bin 1 was 2
    want = 2.0 * math.log(4.0 / 3.0)
    assert c.feed("ash").matrix[idx["ash"], 1] == pytest.approx(want, rel=1e-15)


def test_featurize_malformed_line_reported(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"feed": "a", "timestamp": "2011-10-01T00:00:00Z", '
                    '"text": "ok"}\n{bad json\n')
    assert run(["featurize", "--docs", docs, "--out", tmp_path / "c"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_featurize_names_a_numeric_feed_id(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"feed": 5, "timestamp": "2011-10-01T00:00:00Z", '
                    '"text": "ok"}\n')
    assert run(["featurize", "--docs", docs, "--out", tmp_path / "c"]) == 1
    assert capsys.readouterr().err == ("error: malformed document at line 1: "
                                       "'feed' must be a string, got number\n")
    assert not (tmp_path / "c").exists()


def test_featurize_empty_docs(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("")
    assert run(["featurize", "--docs", docs, "--out", tmp_path / "c"]) == 1


def test_featurize_bad_timezone_and_t0_are_usage_errors(tmp_path):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    with pytest.raises(SystemExit) as exc:
        run(["featurize", "--docs", docs, "--out", tmp_path / "c",
             "--timezone", "Mars/Olympus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["featurize", "--docs", docs, "--out", tmp_path / "c",
             "--t0", "yesterday"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--bin-hours", 0), ("--bin-hours", -1), ("--bin-hours", "nan"),
    ("--bin-hours", "1e-12"), ("--bin-hours", "1e300"), ("--min-df", 0),
    ("--T", 0), ("--T", -3)])
def test_featurize_rejects_bad_window_flags(tmp_path, capsys, flag, value):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    with pytest.raises(SystemExit) as exc:
        run(["featurize", "--docs", docs, "--out", tmp_path / "c", "--T", 50,
             flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_featurize_names_an_empty_window(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    assert run(["featurize", "--docs", docs, "--out", tmp_path / "c",
                "--t0", "2011-11-01T00:00:00Z", "--T", 24]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: no document falls in the window [2011-11-01T00:00:00+00:00, "
        "2011-11-02T00:00:00+00:00); the documents run from "
        "2011-10-01T00:10:00+00:00 to 2011-10-01T01:20:00+00:00.")
    assert not (tmp_path / "c").exists()
    # without --T the window still gets one bin, and the error names --t0
    # rather than a T the user never passed
    assert run(["featurize", "--docs", docs, "--out", tmp_path / "c",
                "--t0", "2011-10-01T18:00:00Z"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: no document falls in the window [2011-10-01T18:00:00+00:00, "
        "2011-10-01T19:00:00+00:00); the documents run from ")
    assert "Check --t0" in err and "T=" not in err
    assert not (tmp_path / "c").exists()


def test_featurize_text_golden_bytes(tmp_path):
    # The perfbench text generator's seed-0 stream, featurized as counts
    # (tf-idf goes through np.log, whose last bit may vary across CPUs).
    # The digest was recorded before stemming was memoized and the corpus
    # writer vectorized; meta.json holds the tool version, so a version
    # bump changes it. Two hash seeds guard against set or dict order
    # leaking into the vocabulary or the rows.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "textgen", root / "perfbench" / "textgen.py")
    textgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(textgen)
    docs = textgen.write_jsonl(0, tmp_path / "docs.jsonl")
    for hash_seed in ("0", "1"):
        out = tmp_path / f"corpus{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(root / "src")] + sys.path))
        subprocess.run(
            [sys.executable, "-m", "ctrend", "featurize", "--docs", str(docs),
             "--out", str(out), "--no-tfidf", "--T", str(textgen.T),
             "--t0", textgen.T0.isoformat()],
            env=env, check=True, capture_output=True)
        assert corpus_content_hash(out) == (
            "195eab4acec173026f1d4ec12a4cf50250fdbc9adf7d0fac6761b655ae7b12b2")


def test_featurize_derives_window(tmp_path):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(DOCS)
    out = tmp_path / "corpus"
    assert run(["featurize", "--docs", docs, "--out", out, "--no-stem"]) == 0
    c = load_corpus(out)
    assert c.T == 2  # documents span two hourly bins
    assert c.n_dropped == 0


# ---------------------------------------------------------------------------
# analyze + re-emission

@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyzed")
    corpus_dir = root / "corpus"
    out = root / "out"
    assert run(["synth", "--mode", "toy", "--seed", 42, "--T", 500,
                "--out", corpus_dir]) == 0
    assert run(["analyze", "--corpus", corpus_dir, "--out", out,
                "--folds", 5, "--inner-folds", 5, "--lags", "1..4",
                "--kappas", "1e-4..1e0", "--seed", 7,
                "--baseline-lsa", "--shuffle-control"]) == 0
    return corpus_dir, out


def test_analyze_outputs(analyzed, capsys):
    corpus_dir, out = analyzed
    report = json.loads((out / "report.json").read_text())
    assert [e["feed_id"] for e in report["ranking"]][0] == "X"
    assert report["config"]["seed"] == 7
    assert report["config"]["corpus_hash"]
    assert report["config"]["tool_version"]
    assert len(report["feeds"]) == 2
    feed_x = [f for f in report["feeds"] if f["feed_id"] == "X"][0]
    assert len(feed_x["fold_correlations"]) == 5
    assert {"p25", "p50", "p75"} <= set(feed_x["percentiles"])
    assert feed_x["lsa_fold_scores"] and feed_x["shuffle_fold_scores"]
    for sub in ("X", "Y"):
        for name in ("correlogram.csv", "trend.csv", "topwords.csv"):
            text = (out / sub / name).read_text()
            meta = text.splitlines()[0]
            assert meta.startswith("#") and "seed=7" in meta \
                and "corpus_hash=" in meta and "tool_version=" in meta


def test_analyze_csv_headers(analyzed):
    _, out = analyzed
    lines = (out / "X" / "correlogram.csv").read_text().splitlines()
    assert lines[1] == "tau_hours,rho"
    assert (out / "X" / "trend.csv").read_text().splitlines()[1] \
        == "t,canonical_trend,predicted_trend"
    assert (out / "X" / "topwords.csv").read_text().splitlines()[1] \
        == "term,lag,weight"


def test_correlogram_csv_peak_at_planted_lag(analyzed):
    _, out = analyzed
    rows = (out / "X" / "correlogram.csv").read_text().splitlines()[2:]
    parsed = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    assert max(parsed, key=lambda p: p[1])[0] == 3


def test_topwords_normalized(analyzed):
    _, out = analyzed
    rows = (out / "X" / "topwords.csv").read_text().splitlines()[2:]
    weights = [abs(float(r.split(",")[2])) for r in rows]
    assert max(weights) == 1.0


def test_trend_unit_energy(analyzed):
    _, out = analyzed
    rows = (out / "X" / "trend.csv").read_text().splitlines()[2:]
    y = np.array([float(r.split(",")[1]) for r in rows])
    yhat = np.array([float(r.split(",")[2]) for r in rows])
    assert abs((y ** 2).sum() - 1.0) < 1e-10
    assert abs((yhat ** 2).sum() - 1.0) < 1e-10


def test_correlogram_reemission_byte_identical(analyzed, tmp_path):
    corpus_dir, out = analyzed
    target = tmp_path / "re.csv"
    assert run(["correlogram", "--models", out / "models.json",
                "--corpus", corpus_dir, "--feed", "X", "--out", target]) == 0
    assert target.read_bytes() == (out / "X" / "correlogram.csv").read_bytes()


def test_topwords_reemission_byte_identical(analyzed, tmp_path):
    corpus_dir, out = analyzed
    target = tmp_path / "tw.csv"
    assert run(["topwords", "--models", out / "models.json",
                "--corpus", corpus_dir, "--feed", "X", "--out", target]) == 0
    assert target.read_bytes() == (out / "X" / "topwords.csv").read_bytes()


# a fitted fold's entry: the chosen point, the outcome and what
# re-emission reads
_FITTED_KEYS = {"fold", "n_lags", "kappa", "correlation", "degenerate",
                "w_x", "w_y", "test_positions"}
# keys that models.json fold entries of earlier versions also held
_LEGACY_KEYS = {"alpha", "beta", "train_positions", "side_norms", "lam",
                "eigenvalue"}


def test_models_fold_entries_hold_only_the_kept_keys(analyzed):
    _, out = analyzed
    entries = json.loads((out / "models.json").read_text())["feeds"]["X"]
    assert [set(entry) for entry in entries] == [_FITTED_KEYS] * 5


@pytest.mark.parametrize("command", ["correlogram", "topwords"])
def test_reemission_reads_models_with_legacy_keys(analyzed, tmp_path, command):
    corpus_dir, out = analyzed
    models = json.loads((out / "models.json").read_text())
    n_axis = 500 - models["trim"]
    for entry in models["feeds"]["X"]:
        train = sorted(set(range(n_axis)) - set(entry["test_positions"]))
        entry.update(alpha=[0.5] * len(train), beta=[-0.25] * len(train),
                     train_positions=train, side_norms=[1.0, 2.0],
                     lam=entry["correlation"], eigenvalue=entry["correlation"])
        assert set(entry) == _FITTED_KEYS | _LEGACY_KEYS
    legacy = tmp_path / "models.json"
    legacy.write_text(json.dumps(models))
    target = tmp_path / f"{command}.csv"
    assert run([command, "--models", legacy, "--corpus", corpus_dir,
                "--feed", "X", "--out", target]) == 0
    assert target.read_bytes() == (out / "X" / f"{command}.csv").read_bytes()


def test_hash_mismatch_rejected(analyzed, tmp_path, capsys):
    _, out = analyzed
    other = tmp_path / "other"
    assert run(["synth", "--mode", "toy", "--seed", 1, "--T", 500,
                "--out", other]) == 0
    assert run(["correlogram", "--models", out / "models.json",
                "--corpus", other, "--feed", "X", "--out", tmp_path / "x.csv"]) == 1
    assert "hash mismatch" in capsys.readouterr().err


def test_unknown_feed_rejected(analyzed, tmp_path, capsys):
    corpus_dir, out = analyzed
    assert run(["correlogram", "--models", out / "models.json",
                "--corpus", corpus_dir, "--feed", "nope",
                "--out", tmp_path / "x.csv"]) == 1


_MODEL_EDITS = {
    "missing-key": (lambda m: m["feeds"]["X"][0].pop("test_positions"),
                    "models file feed 'X' fold entry 0 is missing key "
                    "'test_positions'"),
    "null-correlation": (lambda m: m["feeds"]["X"][0].update(correlation=None),
                         "models file feed 'X' fold entry 0: 'correlation' "
                         "must be a number"),
    "w_x-shape": (lambda m: m["feeds"]["X"][0].update(w_x=[[1.0]]),
                  "models file feed 'X' fold entry 0: 'w_x' must be a 6 x {n_lags} "
                  "array (terms x lags), got shape (1, 1)"),
    "hash-not-string": (lambda m: m.update(corpus_hash=5),
                        "models file key 'corpus_hash' must be a string"),
    "string-trim": (lambda m: m.update(trim="3"),
                    "models file key 'trim' must be a positive integer, got \"3\""),
    **{f"{name}-seed": (lambda m, v=value: m.update(seed=v),
                        f"models file key 'seed' must be a non-negative integer, "
                        f"got {json.dumps(value)}")
       for name, value in [("string", "x"), ("float", 1.5), ("null", None),
                           ("bool", True), ("list", [1]), ("negative", -1)]},
    "position-off-axis": (lambda m: m["feeds"]["X"][0].update(test_positions=[496]),
                          "models file feed 'X' fold entry 0: 'test_positions' "
                          "must be a list of integers in 0..495"),
}


@pytest.mark.parametrize("command", ["correlogram", "topwords"])
@pytest.mark.parametrize("edit", sorted(_MODEL_EDITS))
def test_malformed_models_is_a_named_error(analyzed, tmp_path, capsys, command,
                                           edit):
    corpus_dir, out = analyzed
    models = json.loads((out / "models.json").read_text())
    entry = models["feeds"]["X"][0]
    assert entry["w_x"] is not None  # the edits break a fold with weights
    change, message = _MODEL_EDITS[edit]
    change(models)
    bad = tmp_path / "models.json"
    bad.write_text(json.dumps(models))
    capsys.readouterr()
    assert run([command, "--models", bad, "--corpus", corpus_dir, "--feed", "X",
                "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err == "error: " + message.format(n_lags=entry["n_lags"]) + "\n"
    assert not (tmp_path / "x.csv").exists()


def test_seed_env_fallback(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    out = tmp_path / "out"
    run(["synth", "--mode", "toy", "--seed", 3, "--T", 400, "--out", corpus_dir])
    monkeypatch.setenv("CT_SEED", "123")
    assert run(["analyze", "--corpus", corpus_dir, "--out", out,
                "--folds", 4, "--inner-folds", 4, "--lags", "1..3",
                "--kappas", "1e-2,1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 123


@pytest.mark.parametrize("command", ["synth", "analyze"])
@pytest.mark.parametrize("flag, env, message", [
    (-1, None, "argument --seed: must be at least 0, got -1"),
    (None, "-3", "CT_SEED must be a non-negative integer, got '-3'"),
    (None, "abc", "CT_SEED must be a non-negative integer, got 'abc'")])
def test_bad_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag,
                                   env, message):
    if env is not None:
        monkeypatch.setenv("CT_SEED", env)
    args = {"synth": ["--mode", "toy"],
            "analyze": ["--corpus", tmp_path / "c", "--shuffle-control"]}[command]
    seed = [] if flag is None else ["--seed", flag]
    with pytest.raises(SystemExit) as exc:
        run([command, *args, *seed, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lags", "a", "--lags: 'a' is not an integer"),
    ("--lags", "1..", "--lags: '' in '1..' is not an integer"),
    ("--lags", "1..x", "--lags: 'x' in '1..x' is not an integer"),
    ("--kappas", "x", "--kappas: 'x' is not a number"),
    ("--kappas", "1e-3,,1", "--kappas: '' in '1e-3,,1' is not a number"),
    ("--kappas", "1e-3..x", "--kappas: 'x' in '1e-3..x' is not a number")])
def test_analyze_grid_syntax_error_names_the_flag(tmp_path, capsys, flag,
                                                  value, message):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--corpus", tmp_path / "c", "--out", tmp_path / "out",
             flag, value])
    assert exc.value.code == 2
    forms = {"--lags": "write a range 1..10, one lag 5 or a list 1,2,5",
             "--kappas": "write a decade range 1e-5..1e1 or a list 1e-3,0.1,1"}
    assert f"error: {message}; {forms[flag]}\n" in capsys.readouterr().err


def test_analyze_empty_feed_filter_is_usage_error(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["synth", "--mode", "toy", "--seed", 3, "--T", 400, "--out", corpus_dir])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--corpus", corpus_dir, "--out", tmp_path / "out",
             "--folds", 4, "--inner-folds", 4, "--lags", "1..3", "--feeds", ""])
    assert exc.value.code == 2
    assert "error: --feeds is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("feeds", ["X,", ",X", "X,,Y"])
def test_analyze_empty_feed_item_is_usage_error(tmp_path, capsys, feeds):
    # the corpus does not exist: the flag is checked before it loads
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--corpus", tmp_path / "missing", "--out",
             tmp_path / "out", "--feeds", feeds])
    assert exc.value.code == 2
    assert (f"error: --feeds {feeds!r} has an empty item"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_analyze_names_infeasible_inner_cv(tmp_path, capsys):
    corpus_dir = tmp_path / "toy"
    assert run(["synth", "--mode", "toy", "--seed", 1, "--T", 140,
                "--out", corpus_dir]) == 0
    capsys.readouterr()
    assert run(["analyze", "--corpus", corpus_dir, "--out", tmp_path / "out",
                "--folds", 10, "--lags", "1..10"]) == 1
    err = capsys.readouterr().err
    assert "inner CV" in err
    assert "T >= 155" in err and "--inner-folds <= 8" in err
    assert not (tmp_path / "out").exists()  # failed before any fitting
    assert run(["analyze", "--corpus", corpus_dir, "--out", tmp_path / "out",
                "--folds", 10, "--lags", "1..10", "--inner-folds", 8]) == 0


def test_analyze_missing_corpus(tmp_path, capsys):
    assert run(["analyze", "--corpus", tmp_path / "nope",
                "--out", tmp_path / "out"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--folds", 0), ("--folds", 1), ("--inner-folds", 0), ("--inner-folds", 1),
    ("--top-words", -1), ("--jobs", 0), ("--jobs", -2)])
def test_analyze_rejects_bad_counts(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--corpus", tmp_path / "c", "--out", tmp_path / "out",
             flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--kappas", "nan", "kappa=nan is not a finite number"),
    ("--kappas", "inf", "kappa=inf is not a finite number"),
    ("--kappas", "1e-9", "kappa=1e-09 below floor 1e-08; right-hand side would "
                         "be singular on centered kernels"),
    ("--kappas", "0..1", "kappa range ends must be positive and finite, got 0..1"),
    ("--kappas", "1e-2,1e-2", "kappas repeat 0.01; list each value once"),
    ("--lags", "1,1", "lags repeat 1; list each value once")])
def test_analyze_rejects_bad_grids(tmp_path, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--corpus", tmp_path / "c", "--out", tmp_path / "out",
             flag, value])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "correlogram"])
def test_malformed_corpus_is_a_named_error(analyzed, tmp_path, capsys, command):
    corpus_dir, out = analyzed
    bad = tmp_path / "bad"
    bad.mkdir()
    meta = json.loads((corpus_dir / "meta.json").read_text())
    meta["feeds"] = ["X", "X"]
    (bad / "meta.json").write_text(json.dumps(meta))
    (bad / "matrix.csv").write_bytes((corpus_dir / "matrix.csv").read_bytes())
    capsys.readouterr()
    args = {"analyze": ["--out", tmp_path / "out"],
            "correlogram": ["--models", out / "models.json", "--feed", "X",
                            "--out", tmp_path / "x.csv"]}[command]
    assert run([command, "--corpus", bad, *args]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: bad corpus meta {bad / 'meta.json'}: feed ids must "
                   f"be unique; repeated: ['X']\n")


def test_analyze_names_a_bad_bin_width_in_meta(analyzed, tmp_path, capsys):
    corpus_dir, _ = analyzed
    bad = tmp_path / "bad"
    bad.mkdir()
    meta = json.loads((corpus_dir / "meta.json").read_text())
    meta["bin_hours"] = -1.0
    (bad / "meta.json").write_text(json.dumps(meta))
    (bad / "matrix.csv").write_bytes((corpus_dir / "matrix.csv").read_bytes())
    capsys.readouterr()
    assert run(["analyze", "--corpus", bad, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (
        f"error: bad corpus meta {bad / 'meta.json'}: bin_hours must be finite "
        f"and positive, got -1.0\n")
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_repeated_feed(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["synth", "--mode", "toy", "--seed", 3, "--T", 400, "--out", corpus_dir])
    assert run(["analyze", "--corpus", corpus_dir, "--out", tmp_path / "out",
                "--folds", 4, "--inner-folds", 4, "--lags", "1..3",
                "--feeds", "X,X"]) == 1
    assert "error: feed filter names ['X'] more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_topwords_rejects_negative_top(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["topwords", "--models", tmp_path / "m.json", "--corpus",
             tmp_path / "c", "--feed", "X", "--out", tmp_path / "t.csv",
             "--top", -1])
    assert exc.value.code == 2


def test_analyze_lsa_on_one_term_corpus(tmp_path):
    corpus_dir = tmp_path / "leader"
    assert run(["synth", "--mode", "leader", "--seed", 0, "--T", 300,
                "--vocab-size", 1, "--out", corpus_dir]) == 0
    assert run(["analyze", "--corpus", corpus_dir, "--out", tmp_path / "out",
                "--folds", 4, "--inner-folds", 4, "--lags", "1..3",
                "--kappas", "1e-2,1", "--baseline-lsa"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["ranking"][0]["feed_id"] == "leader"
    assert all(len(f["lsa_fold_scores"]) == 4 for f in report["feeds"])


@pytest.mark.parametrize("t0", ["2011-10-01T00:00:00.5Z",
                                "2011-10-01T00:00:00.1234567+00:00",
                                "2011-10-01T00:00:00.123456789+00:00"])
def test_featurize_t0_with_seconds_fraction(tmp_path, t0):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"feed": "a", "timestamp": "2011-10-01T00:30:00.5+00:00", '
                    '"text": "ash"}\n')
    out = tmp_path / "corpus"
    assert run(["featurize", "--docs", docs, "--out", out, "--no-stem",
                "--no-tfidf", "--t0", t0, "--T", 2]) == 0
    c = load_corpus(out)
    assert c.t0.microsecond in (500000, 123456)
    assert c.feed("a").matrix[0, 0] == 1.0


def test_featurize_reference_timezone(tmp_path):
    # naive --t0 is interpreted in the reference timezone; documents carry
    # their own offsets, so the same instants land in the same bins
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"feed": "a", "timestamp": "2011-10-01T02:30:00+02:00", '
                    '"text": "ash"}\n')
    out = tmp_path / "corpus"
    assert run(["featurize", "--docs", docs, "--out", out, "--no-stem",
                "--no-tfidf", "--timezone", "Europe/Berlin",
                "--t0", "2011-10-01T02:00:00", "--T", 2]) == 0
    c = load_corpus(out)
    # 02:30 Berlin summer time == 00:30 UTC; t0 02:00 Berlin == 00:00 UTC
    assert c.feed("a").matrix[0, 0] == 1.0
    assert c.n_dropped == 0
