"""scopekit: semantic code scopes to completion pairs, retrieval, and eval.

The pipeline turns a source repository into delimiter-bounded scope
candidates, filters them into query/label completion pairs, serves the
pairs as an exact-kNN retrieval index, and scores model completions with
full and optimal-prefix edit distances.
"""

__version__ = "0.1.0"

from .ingest import FileRecord, IngestManifest, Language, detect_language, ingest_repository
from .lexer import DelimiterSpan, scan
from .metrics import (
    CategoryReport,
    EvalRecord,
    aggregate_report,
    evaluate,
    levenshtein,
    opt_prefix_distance,
)
from .pairs import (
    CompletionPair,
    FilterConfig,
    PairKind,
    apply_filters,
    exclude_holdout,
    leakage_scan,
    make_primary_pair,
    make_random_start_pairs,
)
from .ragindex import (
    HashingEmbedder,
    RemoteEmbedder,
    VectorIndex,
    augment_query,
    index_build,
    knn_search,
    knn_search_many,
)
from .scopes import ScopeCandidate, ScopeCategory, extract_scopes

__all__ = [
    "CategoryReport",
    "CompletionPair",
    "DelimiterSpan",
    "EvalRecord",
    "FileRecord",
    "FilterConfig",
    "HashingEmbedder",
    "IngestManifest",
    "Language",
    "PairKind",
    "RemoteEmbedder",
    "ScopeCandidate",
    "ScopeCategory",
    "VectorIndex",
    "aggregate_report",
    "apply_filters",
    "augment_query",
    "detect_language",
    "evaluate",
    "exclude_holdout",
    "extract_scopes",
    "index_build",
    "ingest_repository",
    "knn_search",
    "knn_search_many",
    "leakage_scan",
    "levenshtein",
    "make_primary_pair",
    "make_random_start_pairs",
    "opt_prefix_distance",
    "scan",
]
