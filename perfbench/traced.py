"""Run one ``ctrend`` CLI command in this process with its layer boundaries
wrapped, and write the recorded spans and counts as JSON.

    python3 perfbench/traced.py SPANS.json <ctrend arguments...>

Every function in ``HOOKS`` is replaced, in every ``ctrend`` module that
binds it, by a wrapper that records a span (name, start, end, parent) and
the counts computed from its arguments or result. ``stemmer.stem`` runs
hundreds of thousands of times per featurize, so it is aggregated into
its caller's span instead of recording a span per call. A hook target
that no longer exists stops the run with exit code 3.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute, span name): the names one ctrend module calls in
# another, plus the stage functions ``analyze`` runs.
HOOKS = [
    ("ctrend.corpus", "read_documents_jsonl", "corpus.read"),
    ("ctrend.corpus", "build_vocabulary", "corpus.vocab"),
    ("ctrend.corpus", "featurize", "corpus.featurize"),
    ("ctrend.corpus", "tfidf_normalize", "corpus.tfidf"),
    ("ctrend.corpus", "store_corpus", "corpus.store"),
    ("ctrend.corpus", "load_corpus", "corpus.load"),
    ("ctrend.corpus", "corpus_content_hash", "corpus.hash"),
    ("ctrend.stemmer", "stem", "stemmer.stem"),
    ("ctrend.embedding", "pool_excluding", "embedding.pool"),
    ("ctrend.embedding", "embed_columns", "embedding.embed"),
    ("ctrend.kcca", "_psd_eigenbasis", "kcca.eigh"),
    ("ctrend.kcca", "_canonical_pairs", "kcca.svd"),
    ("ctrend.kcca", "center_kernel", "kcca.center"),
    ("ctrend.kcca", "center_cross", "kcca.center"),
    ("ctrend.kcca", "pearson_correlation", "kcca.pearson"),
    ("ctrend.evaluation", "analyze", "evaluation.analyze"),
    ("ctrend.evaluation", "_FeedData.__init__", "evaluation.feed_data"),
    ("ctrend.evaluation", "_fit_feed_fold", "evaluation.final_fit"),
    ("ctrend.evaluation", "_nested_select", "evaluation.nested"),
    ("ctrend.evaluation", "_score_fold_primal", "evaluation.inner_fold"),
    ("ctrend.evaluation", "_score_fold_generic", "evaluation.inner_fold"),
    ("ctrend.evaluation", "lsa_baseline", "evaluation.lsa"),
    ("ctrend.evaluation", "canonical_correlogram", "evaluation.correlogram"),
    ("ctrend.reporting", "write_analysis_outputs", "reporting.write"),
    ("ctrend.reporting", "_trend_rows", "reporting.trend"),
    ("ctrend.reporting", "load_models", "reporting.load_models"),
    ("ctrend.reporting", "check_corpus_binding", "reporting.check_binding"),
    ("ctrend.reporting", "write_correlogram_from_models", "reporting.write"),
    ("ctrend.reporting", "write_topwords_from_models", "reporting.write"),
]

class Tracer:
    """In-memory spans plus per-name counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.distinct_stems: set[str] = set()

    def add(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    def leaf(self, seconds: float):
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds


def _nbytes(m) -> int:
    if hasattr(m, "indptr"):
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    return m.nbytes


def _record(tracer: Tracer, name: str, args, result):
    """Counts computed from a hooked call's arguments or result."""
    if name == "kcca.eigh":
        tracer.add("kcca.eigh_ops", args[0].shape[0] ** 3)
    elif name == "kcca.svd":
        batch, (m, n) = len(args[3]), args[2].shape
        tracer.add("kcca.svd_ops", batch * m * n * min(m, n))
        tracer.add("kcca.svd_triplets_used", batch)
        tracer.add("kcca.svd_triplets", batch * min(m, n))
    elif name == "embedding.embed":
        tracer.add("embedding.embed_bytes", _nbytes(result))
    elif name == "corpus.load":
        tracer.add("corpus.load_nnz", sum(f.matrix.nnz for f in result.feeds))


def _wrap(tracer: Tracer, fn, name: str, degenerate):
    if name == "stemmer.stem":  # aggregated: no span per call
        @functools.wraps(fn)
        def leaf(word):
            t = time.perf_counter()
            out = fn(word)
            dt = time.perf_counter() - t
            tracer.leaf(dt)
            tracer.add(name + "_calls")
            tracer.add(name + "_s", dt)
            tracer.distinct_stems.add(word)
            return out
        return leaf

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen(*args, **kwargs):
            tracer.add(name + "_calls")
            idx = tracer.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return gen

    @functools.wraps(fn)
    def call(*args, **kwargs):
        tracer.add(name + "_calls")
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except degenerate:
            if name.startswith("kcca."):
                tracer.add("kcca.degenerate")
            raise
        finally:
            tracer.close(idx)
        _record(tracer, name, args, result)
        return result
    return call


def install(tracer: Tracer) -> None:
    """Wrap every hook target; exit 3 when one of them is missing."""
    from ctrend.exceptions import DegenerateProjection

    modules = {n: m for n, m in sys.modules.items()
               if n == "ctrend" or n.startswith("ctrend.")}
    missing = []
    for mod_name, attr, span in HOOKS:
        owner = modules.get(mod_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        target = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tracer, target, span, DegenerateProjection)
        setattr(owner, path[-1], wrapper)
        if len(path) == 1:  # rebind names imported with ``from .x import y``
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapper)
    if missing:
        print("traced.py: hook targets not found: " + ", ".join(missing),
              file=sys.stderr)
        sys.exit(3)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import ctrend.cli
    tracer.close(idx)
    install(tracer)
    rc = ctrend.cli.main(cli_args)
    tracer.counts["stemmer.distinct"] = len(tracer.distinct_stems)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "start": _START, "end": time.perf_counter(),
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
