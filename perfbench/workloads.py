"""The benchmark's workloads: how each makes its inputs from the seed, and
which ``ctrend`` commands one pass of it runs.

Every workload is a closed loop: one client runs its CLI commands one at a
time, each in a fresh process at ``--jobs 1`` with one BLAS thread
(``run.PINNED_THREADS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import textgen


@dataclass(frozen=True)
class Workload:
    name: str
    analyze_args: tuple[str, ...]
    synth: bool  # inputs come from ctrend.synth, else from textgen
    # Re-emits per untraced pass: a run has one text pass but about five
    # leader passes, and the ~1 s re-emit commands need about ten samples
    # per run for a steady median.
    reemit_reps: int


WORKLOADS = {w.name: w for w in (
    # primal route at jobs=1: nested selection on a 5-feed dense corpus,
    # where covariance formation, eigh and the batched svd dominate
    Workload(
        "leader",
        ("--folds", "10", "--lags", "1..6", "--kappas", "1e-5..1e1",
         "--baseline-lsa"),
        synth=True, reemit_reps=2),
    # JSONL to ranking: stemming and tf-idf, then the dual route with
    # W*L >> n (sparse embedding, n x n eigh, full batched svd), then re-emit
    Workload(
        "text",
        ("--folds", "5", "--inner-folds", "5", "--lags", "1..3",
         "--kappas", "1e-2,1", "--feeds", "leader,follower1",
         "--baseline-lsa"),
        synth=False, reemit_reps=6),
)}


def make_inputs(w: Workload, seed: int, inputs: Path) -> Path:
    """Write the workload's inputs for ``seed``; returns what the first
    CLI command reads (a corpus directory or a JSONL file)."""
    if not w.synth:
        return textgen.write_jsonl(seed, inputs / "docs.jsonl")
    from ctrend.synth import LeaderConfig, generate_leader, write_generated
    cfg = LeaderConfig(F=5, W=12, T=2000, seed=seed)
    return write_generated(generate_leader(cfg), cfg, inputs / "corpus")


def featurize_args(docs: Path, corpus: Path) -> list[str]:
    return ["featurize", "--docs", str(docs), "--out", str(corpus),
            "--T", str(textgen.T), "--t0", textgen.T0.isoformat()]


def analyze_args(w: Workload, corpus: Path, out: Path, seed: int) -> list[str]:
    return ["analyze", "--corpus", str(corpus), "--out", str(out),
            *w.analyze_args, "--seed", str(seed), "--jobs", "1"]


def reemit_args(kind: str, report: Path, corpus: Path, feed: str,
                out: Path) -> list[str]:
    return [kind, "--models", str(report / "models.json"),
            "--corpus", str(corpus), "--feed", feed, "--out", str(out)]
