"""Deterministic serialization of analysis results.

report.json and models.json are emitted with sorted keys and floats at 17
significant digits, so identical analyses produce identical bytes. A 1-D
or 2-D float array whose values are all finite is written with one
format call, and a 1-D integer array with one join (other arrays row by
row); anything else, such as NaN or infinity (written as ``null``), goes
value by value.
The per-feed CSVs (correlogram, trend, top words) carry a leading comment
line embedding the tool version, seed and corpus hash that bind the
output to its inputs. models.json stores, per fold, the chosen (n_lags,
kappa), the outcome (correlation, degenerate) and, for a fitted fold, the
recovered weights w_x, w_y and the test positions: what the correlogram
and top-word tables are re-emitted from, byte-for-byte.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import Corpus
from .embedding import pool_excluding
from .evaluation import (
    AnalysisResult,
    best_fold,
    canonical_correlogram,
    emit_trend,
    mean_correlogram,
    top_terms,
)
from .exceptions import DegenerateProjection, FormatError, UnknownFeed


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _serialize(obj) -> str:
    """Minimal JSON writer: sorted keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format_float(x)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        if obj.ndim in (1, 2) and obj.dtype.kind == "f" and np.isfinite(obj).all():
            row = "[" + ",".join(["%.17g"] * obj.shape[-1]) + "]"
            if obj.ndim == 2:
                row = "[" + ",".join([row] * obj.shape[0]) + "]"
            return row % tuple(obj.ravel().tolist())
        if obj.ndim > 1:
            return "[" + ",".join(_serialize(row) for row in obj) + "]"
        if obj.ndim == 1 and obj.dtype.kind in "iu":
            return "[" + ",".join(map(str, obj.tolist())) + "]"
        return _serialize(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_serialize(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + _serialize(v)
                 for k, v in sorted(obj.items()))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _serialize(obj) + "\n"


def _meta_line(seed: int, corpus_hash: str) -> str:
    return f"# tool_version={__version__} seed={seed} corpus_hash={corpus_hash}"


def build_report(result: AnalysisResult, corpus_hash: str) -> dict:
    feeds = []
    for r in result.reports:
        entry = {
            "feed_id": r.feed_id,
            "fold_correlations": r.fold_correlations,
            "percentiles": r.percentiles,
            "chosen": r.chosen,
            "correlogram": [{"tau": t, "rho": rho} for t, rho in r.correlogram],
            "top_terms": [{"term": t, "weight": w, "lag": lag}
                          for t, w, lag in r.top_terms],
            "degenerate_folds": r.degenerate_folds,
        }
        if r.lsa_fold_scores is not None:
            entry["lsa_fold_scores"] = r.lsa_fold_scores
            entry["lsa_per_lag"] = r.lsa_per_lag
        if r.shuffle_fold_scores is not None:
            entry["shuffle_fold_scores"] = r.shuffle_fold_scores
        feeds.append(entry)
    return {
        "config": {
            "folds": result.n_folds,
            "inner_folds": result.n_inner,
            "grid": {"lags": list(result.grid.lags),
                     "kappas": list(result.grid.kappas)},
            "seed": result.seed,
            "trim": result.trim,
            "corpus_hash": corpus_hash,
            "tool_version": __version__,
        },
        "feeds": feeds,
        "ranking": [{"feed_id": f, "score": s} for f, s in result.ranking.entries],
    }


def build_models(result: AnalysisResult, corpus_hash: str) -> dict:
    feeds = {}
    for feed_id, outcomes in result.fold_outcomes.items():
        entries = []
        for o in outcomes:
            entry = {
                "fold": o.fold,
                "n_lags": o.n_lags,
                "kappa": o.kappa,
                "correlation": o.correlation,
                "degenerate": o.degenerate,
            }
            if o.w_x is not None:
                entry.update({
                    "test_positions": result.plan.folds[o.fold].test_indices,
                    "w_x": o.w_x,
                    "w_y": o.w_y,
                })
            entries.append(entry)
        feeds[feed_id] = entries
    return {
        "tool_version": __version__,
        "seed": result.seed,
        "corpus_hash": corpus_hash,
        "trim": result.trim,
        "folds": result.n_folds,
        "lags": list(result.grid.lags),
        "kappas": list(result.grid.kappas),
        "feeds": feeds,
    }


def _feed_dir_name(feed_id: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9._-]", "_", feed_id) or "feed"
    name = base
    i = 1
    while name in taken:
        name = f"{base}_{i}"
        i += 1
    taken.add(name)
    return name


def _write_csv(path: Path, meta: str, header: str, rows: list[str]):
    path.write_text("\n".join([meta, header] + rows) + "\n", encoding="utf-8")


def correlogram_rows(correlogram) -> list[str]:
    return [f"{tau},{'nan' if rho is None else format_float(rho)}"
            for tau, rho in correlogram]


def topword_rows(top_terms) -> list[str]:
    return [f"{term},{lag},{format_float(weight)}"
            for term, weight, lag in top_terms]


def write_analysis_outputs(result: AnalysisResult, corpus: Corpus,
                           corpus_hash: str, out_dir: str | Path) -> dict:
    """Write report.json, models.json and the per-feed CSV triples."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"report": out_dir / "report.json", "models": out_dir / "models.json"}
    paths["report"].write_text(dumps(build_report(result, corpus_hash)),
                               encoding="utf-8")
    paths["models"].write_text(dumps(build_models(result, corpus_hash)),
                               encoding="utf-8")
    meta = _meta_line(result.seed, corpus_hash)
    taken: set[str] = set()
    for report in result.reports:
        feed_dir = out_dir / _feed_dir_name(report.feed_id, taken)
        feed_dir.mkdir(exist_ok=True)
        _write_csv(feed_dir / "correlogram.csv", meta, "tau_hours,rho",
                   correlogram_rows(report.correlogram))
        _write_csv(feed_dir / "topwords.csv", meta, "term,lag,weight",
                   topword_rows(report.top_terms))
        _write_csv(feed_dir / "trend.csv", meta, "t,canonical_trend,predicted_trend",
                   _trend_rows(result, corpus, report.feed_id))
        paths[report.feed_id] = feed_dir
    return paths


def _trend_rows(result: AnalysisResult, corpus: Corpus, feed_id: str) -> list[str]:
    best = best_fold(result.fold_outcomes[feed_id])
    if best is None:
        return []
    x = corpus.feed(feed_id).matrix
    pool = pool_excluding(corpus, feed_id)
    times = result.plan.axis + result.trim
    try:
        y, yhat = emit_trend(best.w_x, best.w_y, x, pool, times)
    except DegenerateProjection:
        return []
    return [f"{t},{format_float(a)},{format_float(b)}"
            for t, a, b in zip(times, y, yhat)]


# ---------------------------------------------------------------------------
# re-emission from a stored models.json

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_models(path: str | Path) -> dict:
    try:
        models = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read models file {path}: {e}") from None
    for key in ("corpus_hash", "seed", "trim", "feeds"):
        if key not in models:
            raise FormatError(f"models file is missing key {key!r}")
    if not isinstance(models["corpus_hash"], str):
        raise FormatError("models file key 'corpus_hash' must be a string")
    if not _is_int(models["seed"]) or models["seed"] < 0:
        raise FormatError(f"models file key 'seed' must be a non-negative integer, "
                          f"got {json.dumps(models['seed'])}")
    if not _is_int(models["trim"]) or models["trim"] < 1:
        raise FormatError(f"models file key 'trim' must be a positive integer, "
                          f"got {json.dumps(models['trim'])}")
    if not isinstance(models["feeds"], dict):
        raise FormatError("models file key 'feeds' must map feed ids to fold lists")
    return models


def check_corpus_binding(models: dict, corpus_hash: str):
    if models["corpus_hash"] != corpus_hash:
        raise FormatError(
            f"corpus hash mismatch: models were fit on "
            f"{models['corpus_hash'][:12]}..., corpus is {corpus_hash[:12]}..."
        )


def _stored_weights(where: str, entry: dict, key: str, shape: tuple,
                    what: str) -> np.ndarray:
    """``entry[key]`` as a float array of ``shape``, or FormatError."""
    try:
        a = np.asarray(entry[key], dtype=float)
    except (TypeError, ValueError):
        raise FormatError(f"{where}: {key!r} must be {what}") from None
    if a.shape != shape:
        raise FormatError(f"{where}: {key!r} must be {what}, got shape {a.shape}")
    return a


def _stored_outcomes(models: dict, corpus: Corpus, feed_id: str) -> list[dict]:
    """The feed's fold entries, each checked once before it is read: the
    ``fold``, ``n_lags`` (1 .. trim) and ``correlation`` keys, and for a
    fold with weights ``w_x`` (W x n_lags), ``w_y`` (W) and
    ``test_positions`` (integers on the trimmed time axis). The weights
    and positions come back as arrays. Raises FormatError naming the feed
    and the fold entry."""
    feeds = models["feeds"]
    if feed_id not in feeds:
        raise UnknownFeed(f"models file has no feed {feed_id!r}")
    entries = feeds[feed_id]
    if not isinstance(entries, list):
        raise FormatError(f"models file feed {feed_id!r}: folds must be a list")
    trim, w, n_axis = models["trim"], corpus.W, corpus.T - models["trim"]
    checked = []
    for i, entry in enumerate(entries):
        where = f"models file feed {feed_id!r} fold entry {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        weighted = entry.get("w_x") is not None
        keys = ("fold", "n_lags", "correlation") + (
            ("w_y", "test_positions") if weighted else ())
        for key in keys:
            if key not in entry:
                raise FormatError(f"{where} is missing key {key!r}")
        n_lags, corr = entry["n_lags"], entry["correlation"]
        if not _is_int(entry["fold"]):
            raise FormatError(f"{where}: 'fold' must be an integer")
        if not _is_int(n_lags) or not 1 <= n_lags <= trim:
            raise FormatError(f"{where}: 'n_lags' must be an integer in 1..{trim}")
        if not isinstance(corr, (int, float)) or isinstance(corr, bool):
            raise FormatError(f"{where}: 'correlation' must be a number")
        out = {"fold": entry["fold"], "correlation": corr, "w_x": None}
        if weighted:
            out["w_x"] = _stored_weights(where, entry, "w_x", (w, n_lags),
                                         f"a {w} x {n_lags} array (terms x lags)")
            out["w_y"] = _stored_weights(where, entry, "w_y", (w,),
                                         f"an array of {w} weights (one per term)")
            try:
                pos = np.asarray(entry["test_positions"])
            except ValueError:
                pos = np.zeros(0)
            if pos.ndim != 1 or pos.dtype.kind not in "iu" or not len(pos) \
                    or pos.min() < 0 or pos.max() >= n_axis:
                raise FormatError(f"{where}: 'test_positions' must be a list "
                                  f"of integers in 0..{n_axis - 1}")
            out["test_positions"] = pos
        checked.append(out)
    return checked


def write_correlogram_from_models(models: dict, corpus: Corpus, feed_id: str,
                                  out_path: str | Path):
    """Recompute the fold-mean correlogram from stored weights."""
    x = corpus.feed(feed_id).matrix
    pool = pool_excluding(corpus, feed_id)
    trim = models["trim"]
    correlograms = []
    for entry in _stored_outcomes(models, corpus, feed_id):
        if entry["w_x"] is None:
            continue
        times = entry["test_positions"] + trim
        correlograms.append(canonical_correlogram(entry["w_x"], entry["w_y"],
                                                  x, pool, times))
    rows = correlogram_rows(mean_correlogram(correlograms))
    _write_csv(Path(out_path), _meta_line(models["seed"], models["corpus_hash"]),
               "tau_hours,rho", rows)


def write_topwords_from_models(models: dict, corpus: Corpus, feed_id: str,
                               out_path: str | Path, top_k: int = 10):
    """Recompute the top-word table from the best stored fold's weights."""
    best = best_fold(_stored_outcomes(models, corpus, feed_id), dict.get)
    rows: list[str] = []
    if best is not None:
        rows = topword_rows(top_terms(best["w_x"], corpus.vocabulary.terms, top_k))
    _write_csv(Path(out_path), _meta_line(models["seed"], models["corpus_hash"]),
               "term,lag,weight", rows)
