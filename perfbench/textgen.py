"""Seeded JSON-lines news stream for the ``text`` workload.

Four feeds publish over ``T`` hourly bins. Each story is a set of key
words; the leader publishes a story first and every follower repeats it
3 or 4 hours later. Background documents carry random words. Document
and token counts are fixed, so the work per run does not depend on the
seed; only the words and times do.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

T0 = datetime(2011, 10, 1, tzinfo=timezone.utc)
T = 600
FEEDS = ("leader", "follower1", "follower2", "follower3")
N_WORDS = 3000
N_STORIES = 250
STORY_WORDS = 8
DOCS_PER_STORY = 4          # per feed
BACKGROUND_DOCS = 700       # per feed
TOKENS_PER_DOC = 23
STORY_TOKENS = 9            # story words among a story document's tokens
LEAD_HOURS = (3, 4)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ou", "ea")
_SUFFIXES = ("", "s", "ing", "ed", "ation", "ness", "ly", "er", "ize",
             "ful", "ment", "ies")


def vocabulary(rng: random.Random) -> list[str]:
    """N_WORDS distinct pseudo-words: two or three syllables plus an
    English suffix, so stemming has real suffixes to strip."""
    words: set[str] = set()
    while len(words) < N_WORDS:
        stem = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.choice((2, 3))))
        words.add(stem + rng.choice(_SUFFIXES))
    return sorted(words)


def _stamp(hour: int, rng: random.Random) -> str:
    t = T0 + timedelta(hours=hour, minutes=rng.randrange(60))
    return t.strftime("%Y-%m-%dT%H:%M:%SZ")


def documents(seed: int) -> list[dict]:
    rng = random.Random(seed)
    words = vocabulary(rng)
    docs = [{"feed": feed, "timestamp": T0.strftime("%Y-%m-%dT%H:%M:%SZ"),
             "text": " ".join(rng.choices(words, k=TOKENS_PER_DOC))}
            for feed in FEEDS]  # pins the window start at T0 for every seed
    last_onset = T - max(LEAD_HOURS) - 2
    for _ in range(N_STORIES):
        key = rng.sample(words, STORY_WORDS)
        onset = rng.randrange(last_onset)
        for feed in FEEDS:
            # the leader covers a story for two hours, a follower for one
            leader = feed == "leader"
            hour = onset if leader else onset + rng.choice(LEAD_HOURS)
            for _ in range(DOCS_PER_STORY):
                tokens = (rng.choices(key, k=STORY_TOKENS)
                          + rng.choices(words, k=TOKENS_PER_DOC - STORY_TOKENS))
                rng.shuffle(tokens)
                docs.append({"feed": feed,
                             "timestamp": _stamp(hour + leader * rng.randrange(2), rng),
                             "text": " ".join(tokens)})
    for feed in FEEDS:
        for _ in range(BACKGROUND_DOCS - 1):
            docs.append({"feed": feed, "timestamp": _stamp(rng.randrange(T), rng),
                         "text": " ".join(rng.choices(words, k=TOKENS_PER_DOC))})
    return docs


def write_jsonl(seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in documents(seed):
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return path
