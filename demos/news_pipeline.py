"""End-to-end text path: JSONL documents -> corpus -> analysis report.

Builds a tiny synthetic "news" stream in which one outlet always breaks a
story two hours before two others pick it up, featurizes it into hourly
tf-idf matrices, and runs the ranking pipeline on the result. Also shows
the on-disk corpus format and the CLI equivalents of each step.

Run:  python demos/news_pipeline.py
"""

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from ctrend import (
    Document,
    HyperGrid,
    analyze,
    build_vocabulary,
    featurize,
    load_corpus,
    store_corpus,
    tfidf_normalize,
)

T0 = datetime(2011, 10, 1, tzinfo=timezone.utc)
T = 240  # ten days of hourly bins
LEAD = 2

STORIES = [
    "volcano eruption grounds european flights",
    "new phone announced by tech giant",
    "social network files for public offering",
    "chip maker reports record quarterly earnings",
    "electric car maker opens battery factory",
    "search engine unveils translation feature",
    "game console sales beat expectations",
    "satellite launch delayed by weather",
]

rng = np.random.default_rng(0)
docs = []
hour = 0
for cycle in range(28):
    story = STORIES[int(rng.integers(len(STORIES)))]
    hour += int(rng.integers(4, 9))
    if hour + LEAD >= T:
        break
    docs.append(Document("breaker", T0 + timedelta(hours=hour), story))
    for follower in ("echo1", "echo2"):
        jitter = int(rng.integers(0, 2))
        ts = T0 + timedelta(hours=hour + LEAD + jitter)
        docs.append(Document(follower, ts, story))

print(f"{len(docs)} documents from 3 outlets; 'breaker' is {LEAD}h ahead")

stopwords = frozenset({"by", "for", "of", "the", "new"})
tokens = []  # each document's token list, to count without tokenizing again
vocab = build_vocabulary(docs, stopwords, stem=True, tokens=tokens)
print(f"vocabulary after stop words and stemming: {len(vocab)} terms")

counts = featurize(docs, vocab, T0, timedelta(hours=1), T, tokens)
corpus = tfidf_normalize(counts)

with tempfile.TemporaryDirectory() as tmp:
    path = store_corpus(corpus, Path(tmp) / "corpus")
    print(f"\nstored corpus format: {sorted(p.name for p in path.iterdir())}")
    print("first matrix rows:")
    for line in (path / "matrix.csv").read_text().splitlines()[:4]:
        print(f"  {line}")
    corpus = load_corpus(path)  # round trip is lossless

result = analyze(corpus, HyperGrid(lags=(1, 2, 3, 4), kappas=(1e-4, 1e-2, 1.0)),
                 n_folds=5, n_inner=5, seed=0)
print("\nranking:")
for rank, (feed, score) in enumerate(result.ranking.entries, start=1):
    print(f"  {rank}. {feed:8s} {score:+.3f}")

r = result.reports[0]
peak = max(((rho, tau) for tau, rho in r.correlogram if rho is not None))
print(f"\nbreaker's correlogram peaks at tau = {peak[1]}h "
      f"(stories were copied {LEAD}-{LEAD + 1}h later)")
print("\nsame flow on the command line:")
print("  ctrend featurize --docs docs.jsonl --out corpus/ --stem")
print("  ctrend analyze --corpus corpus/ --out report/ --lags 1..4")
print("  ctrend correlogram --models report/models.json --corpus corpus/ "
      "--feed breaker --out correlogram.csv")
