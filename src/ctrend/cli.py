"""Command-line interface.

Subcommands: ``synth`` (generate seeded synthetic corpora), ``featurize``
(JSONL documents to a corpus directory), ``analyze`` (the full pipeline,
emitting report.json, models.json and per-feed plot CSVs), and
``correlogram`` / ``topwords`` (re-emit plot CSVs from stored models).

Exit codes: 0 success, 1 runtime or data error, 2 usage error. The seed, a
non-negative integer, falls back to the CT_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from datetime import timedelta
from zoneinfo import ZoneInfo

from . import __version__
from .corpus import (
    _fromisoformat,
    build_vocabulary,
    corpus_content_hash,
    featurize,
    load_corpus,
    read_documents_jsonl,
    store_corpus,
    tfidf_normalize,
)
from .evaluation import HyperGrid, analyze
from .exceptions import BadConfig, BadWindow, CTError
from .reporting import (
    check_corpus_binding,
    load_models,
    write_analysis_outputs,
    write_correlogram_from_models,
    write_topwords_from_models,
)
from .synth import LeaderConfig, ToyConfig, generate_leader, generate_toy, write_generated

log = logging.getLogger("ctrend")


def _grid_spec(spec: str, convert, flag: str, forms: str) -> tuple[tuple, bool]:
    """The numbers of a grid spec and whether it is a ``lo..hi`` range, or a
    ValueError that names the flag, the token that is not a number and the
    accepted forms."""
    spec = spec.strip()
    is_range = ".." in spec
    numbers = []
    for token in spec.split("..", 1) if is_range else spec.split(","):
        try:
            numbers.append(convert(token))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            where = "" if token == spec else f" in {spec!r}"
            raise ValueError(f"{flag}: {token.strip()!r}{where} is not {kind}; "
                             f"write {forms}") from None
    return tuple(numbers), is_range


def parse_lags(spec: str) -> tuple[int, ...]:
    """Lag grid syntax: ``1..10``, ``5`` or ``1,2,5``."""
    lags, is_range = _grid_spec(spec, int, "--lags",
                                "a range 1..10, one lag 5 or a list 1,2,5")
    return tuple(range(lags[0], lags[1] + 1)) if is_range else lags


def parse_kappas(spec: str) -> tuple[float, ...]:
    """Kappa grid syntax: ``1e-5..1e1`` (decades) or ``1e-3,0.1,1``."""
    ends, is_range = _grid_spec(spec, float, "--kappas",
                                "a decade range 1e-5..1e1 or a list 1e-3,0.1,1")
    if not is_range:
        return ends
    if not all(0.0 < e < math.inf for e in ends):
        raise ValueError(f"kappa range ends must be positive and finite, "
                         f"got {spec.strip()}")
    lo, hi = math.log10(ends[0]), math.log10(ends[1])
    lo_i, hi_i = round(lo), round(hi)
    if abs(lo - lo_i) > 1e-9 or abs(hi - hi_i) > 1e-9:
        raise ValueError("kappa ranges must span whole decades, e.g. 1e-5..1e1")
    return tuple(10.0 ** k for k in range(lo_i, hi_i + 1))


def _at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""
    def integer(spec: str) -> int:
        value = int(spec)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return integer


def _hours(spec: str) -> timedelta:
    """argparse type: a positive number of hours, as a time span."""
    try:
        width = timedelta(hours=float(spec))
    except OverflowError:  # beyond the range of a timedelta
        width = timedelta(0)
    if width <= timedelta(0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of hours, got {spec}")
    return width


def _resolve_seed(value, parser) -> int:
    if value is not None:
        return value
    env = os.environ.get("CT_SEED")
    try:
        return _at_least(0)(env) if env else 0
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"CT_SEED must be a non-negative integer, got {env!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrend",
        description="Detect trend-setting feeds in a pool of web sources.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--mode", choices=("toy", "leader"), required=True)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--T", type=int, default=2000)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--lag", type=int, default=None,
                   help="planted lead of the trend setter (toy default 3, "
                        "leader default 4)")
    p.add_argument("--feeds", type=int, default=5, help="leader mode: feed count")
    p.add_argument("--vocab-size", type=int, default=12,
                   help="leader mode: vocabulary size")
    p.add_argument("--sparsity", type=float, default=0.5,
                   help="leader mode: fraction of trend-carrying terms")
    p.add_argument("--out", required=True)

    p = sub.add_parser("featurize", help="turn JSONL documents into a corpus")
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stopwords", default=None, help="file, one word per line")
    p.add_argument("--stem", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--tfidf", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--bin-hours", type=_hours, default=timedelta(hours=1))
    p.add_argument("--t0", default=None,
                   help="RFC-3339 window start (default: first document, "
                        "floored to the hour)")
    p.add_argument("--T", type=_at_least(1), default=None,
                   help="number of bins (default: cover all documents)")
    p.add_argument("--timezone", default="UTC", help="reference timezone")
    p.add_argument("--min-df", type=_at_least(1), default=1)

    p = sub.add_parser("analyze", help="run the trend-setter pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=_at_least(2), default=10)
    p.add_argument("--lags", default="1..10")
    p.add_argument("--kappas", default="1e-5..1e1")
    p.add_argument("--inner-folds", type=_at_least(2), default=10)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--feeds", default=None,
                   help="comma-separated feed filter (pools still use all feeds)")
    p.add_argument("--baseline-lsa", action="store_true")
    p.add_argument("--shuffle-control", action="store_true")
    p.add_argument("--top-words", type=_at_least(0), default=10)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("-v", "--verbose", action="count", default=0)

    for name in ("correlogram", "topwords"):
        p = sub.add_parser(name, help=f"re-emit {name}.csv from stored models")
        p.add_argument("--models", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--feed", required=True)
        p.add_argument("--out", required=True)
        if name == "topwords":
            p.add_argument("--top", type=_at_least(0), default=10)

    return parser


def _cmd_synth(args, parser) -> int:
    seed = _resolve_seed(args.seed, parser)
    try:
        if args.mode == "toy":
            cfg = ToyConfig(T=args.T, gamma=args.gamma,
                            lag=args.lag if args.lag is not None else 3,
                            seed=seed)
            corpus = generate_toy(cfg)
        else:
            cfg = LeaderConfig(F=args.feeds, W=args.vocab_size, T=args.T,
                               leader_lag=args.lag if args.lag is not None else 4,
                               trend_sparsity=args.sparsity, gamma=args.gamma,
                               seed=seed)
            corpus = generate_leader(cfg)
    except BadConfig as e:
        parser.error(str(e))
    write_generated(corpus, cfg, args.out)
    print(f"wrote {args.mode} corpus ({corpus.F} feeds, W={corpus.W}, "
          f"T={corpus.T}) to {args.out}")
    return 0


def _cmd_featurize(args, parser) -> int:
    try:
        tz = ZoneInfo(args.timezone)
    except Exception:
        parser.error(f"unknown timezone {args.timezone!r}")
    docs = [d for d in read_documents_jsonl(args.docs)]
    stopwords = frozenset()
    if args.stopwords:
        with open(args.stopwords, encoding="utf-8") as fh:
            stopwords = frozenset(w.strip().lower() for w in fh if w.strip())
    tokens: list[list[str]] = []
    vocab = build_vocabulary(docs, stopwords, args.stem, args.min_df, tokens)

    if args.t0 is not None:
        try:
            t0 = _fromisoformat(args.t0)
        except ValueError:
            parser.error(f"--t0 is not an RFC-3339 timestamp: {args.t0!r}")
        if t0.tzinfo is None:
            t0 = t0.replace(tzinfo=tz)
    else:
        if not docs:
            parser.error("--t0 is required when the document file is empty")
        first = min(d.timestamp for d in docs).astimezone(tz)
        t0 = first.replace(minute=0, second=0, microsecond=0)  # to the hour
    bin_width = args.bin_hours
    if args.T is not None:
        T = args.T
    else:
        span = max(d.timestamp for d in docs) - t0
        T = max(int(span / bin_width) + 1, 1)  # a late --t0 is named below

    corpus = featurize(docs, vocab, t0, bin_width, T, tokens)
    if docs and corpus.n_dropped == len(docs):
        first = min(d.timestamp for d in docs)
        last = max(d.timestamp for d in docs)
        raise BadWindow(
            f"no document falls in the window [{t0.isoformat()}, "
            f"{(t0 + T * bin_width).isoformat()}); the documents run from "
            f"{first.isoformat()} to {last.isoformat()}. "
            f"Check --t0, --T and --bin-hours")
    if args.tfidf:
        corpus = tfidf_normalize(corpus)
    store_corpus(corpus, args.out)
    kept = len(docs) - corpus.n_dropped
    print(f"ingested {kept} documents ({corpus.n_dropped} dropped); "
          f"W={corpus.W} terms, {corpus.F} feeds, T={corpus.T} bins -> {args.out}")
    return 0


def _cmd_analyze(args, parser) -> int:
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG if args.verbose > 1
                            else logging.INFO)
    try:
        grid = HyperGrid(parse_lags(args.lags), parse_kappas(args.kappas))
    except ValueError as e:
        parser.error(str(e))
    feed_filter = args.feeds.split(",") if args.feeds is not None else None
    if feed_filter is not None and not all(f.strip() for f in feed_filter):
        what = f"{args.feeds!r} has an empty item" if args.feeds.strip() else "is empty"
        parser.error(f"--feeds {what}; name feeds separated by single commas, or "
                     f"leave the flag out for all")
    seed = _resolve_seed(args.seed, parser)
    corpus = load_corpus(args.corpus)
    corpus_hash = corpus_content_hash(args.corpus)
    log.info("loaded corpus %s: %d feeds, W=%d, T=%d (%s)", args.corpus,
             corpus.F, corpus.W, corpus.T, corpus_hash[:12])
    result = analyze(corpus, grid, n_folds=args.folds, seed=seed,
                     feed_ids=feed_filter, with_lsa=args.baseline_lsa,
                     with_shuffle=args.shuffle_control, jobs=args.jobs,
                     n_inner=args.inner_folds, top_k=args.top_words)
    log.info("analyzed %d feeds over %d folds (grid: %d lags x %d kappas)",
             len(result.reports), result.n_folds, len(grid.lags),
             len(grid.kappas))
    write_analysis_outputs(result, corpus, corpus_hash, args.out)
    for rank, (feed_id, score) in enumerate(result.ranking.entries, start=1):
        print(f"{rank}. {feed_id} {score:.4f}")
    return 0


def _cmd_reemit(args, parser) -> int:
    models = load_models(args.models)
    corpus = load_corpus(args.corpus)
    check_corpus_binding(models, corpus_content_hash(args.corpus))
    if args.command == "correlogram":
        write_correlogram_from_models(models, corpus, args.feed, args.out)
    else:
        write_topwords_from_models(models, corpus, args.feed, args.out, args.top)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = {"synth": _cmd_synth, "featurize": _cmd_featurize,
           "analyze": _cmd_analyze, "correlogram": _cmd_reemit,
           "topwords": _cmd_reemit}[args.command]
    try:
        return run(args, parser)
    except CTError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
