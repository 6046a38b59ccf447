"""Trend-setter detection in pools of web sources.

Learns, for every feed in a corpus, a temporal convolution in feature
space that predicts the pooled content of all other feeds, scores it by
leak-free blocked cross-validation and ranks feeds by how well their past
predicts everyone else's present.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402
    Corpus,
    Document,
    FeedSeries,
    Vocabulary,
    build_vocabulary,
    corpus_content_hash,
    featurize,
    load_corpus,
    read_documents_jsonl,
    store_corpus,
    tfidf_normalize,
    tokenize,
)
from .embedding import embed_columns, pool_excluding  # noqa: E402
from .kcca import (  # noqa: E402
    KccaModel,
    center_cross,
    center_kernel,
    linear_kernel,
    pearson_correlation,
    project,
    solve_kcca,
)
from .evaluation import (  # noqa: E402
    AnalysisResult,
    FeedReport,
    FoldPlan,
    HyperGrid,
    Ranking,
    analyze,
    canonical_correlogram,
    emit_trend,
    lsa_baseline,
    lsa_direction,
    plan_folds,
    rank_feeds,
    shuffle_control,
)
from .synth import (  # noqa: E402
    LeaderConfig,
    ToyConfig,
    generate_leader,
    generate_toy,
    write_generated,
)

__all__ = [
    "__version__",
    "AnalysisResult", "Corpus", "Document", "FeedReport", "FeedSeries",
    "FoldPlan", "HyperGrid", "KccaModel", "LeaderConfig", "Ranking",
    "ToyConfig", "Vocabulary",
    "analyze", "build_vocabulary", "canonical_correlogram", "center_cross",
    "center_kernel", "corpus_content_hash", "embed_columns", "emit_trend",
    "featurize", "generate_leader", "generate_toy", "linear_kernel",
    "load_corpus", "lsa_baseline", "lsa_direction", "pearson_correlation",
    "plan_folds", "pool_excluding", "project", "rank_feeds",
    "read_documents_jsonl", "shuffle_control", "solve_kcca", "store_corpus",
    "tfidf_normalize", "tokenize", "write_generated",
]
