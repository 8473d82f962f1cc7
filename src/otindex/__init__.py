"""Suffix-tree index for pattern-under-internal-node queries.

Build a suffix tree over a text, derive the suffix-link tree on its internal
nodes, and compile a per-node occurrence index that answers "does pattern p
occur immediately below internal node i" with a handful of binary-search
probes instead of a subtree walk.  Ships with a brute-force oracle and a
differential auditor (:mod:`otindex.oracle`), a storage format
(:mod:`otindex.storage`), a benchmark harness (:mod:`otindex.bench`), and a
command-line front end (``otindex``).
"""

from .bench import BenchReport, PatternProtocol, bench
from .build import (
    BuildConfig,
    BuildError,
    IndexStats,
    OtIndex,
    build_index,
    index_stats,
    parse_length_mode,
)
from .oracle import audit, audit_config_matrix, brute_truth, genome_slice, random_text
from .oshr import OshrTree
from .query import (
    Query,
    QueryConfigError,
    QueryResult,
    locate,
    search,
    search_at,
    search_many,
    walk_search_baseline,
)
from .reference import (
    CLASSIFY_LINKED,
    CLASSIFY_UNLINKED,
    ReferenceConfig,
    build_reference,
    reduce_to_deepest,
)
from .storage import StorageError, deserialize, load_index, save_index, serialize
from .suffix_tree import SuffixTree, WalkCounters, build, stats
from .text import Alphabet, Text, TextError, alphabet, preprocess_fasta, with_sentinel

__all__ = [
    "Alphabet",
    "BenchReport",
    "BuildConfig",
    "BuildError",
    "CLASSIFY_LINKED",
    "CLASSIFY_UNLINKED",
    "IndexStats",
    "OshrTree",
    "OtIndex",
    "PatternProtocol",
    "Query",
    "QueryConfigError",
    "QueryResult",
    "ReferenceConfig",
    "StorageError",
    "SuffixTree",
    "Text",
    "TextError",
    "WalkCounters",
    "alphabet",
    "audit",
    "audit_config_matrix",
    "bench",
    "brute_truth",
    "build",
    "build_index",
    "build_reference",
    "deserialize",
    "genome_slice",
    "index_stats",
    "load_index",
    "locate",
    "parse_length_mode",
    "preprocess_fasta",
    "random_text",
    "reduce_to_deepest",
    "save_index",
    "search",
    "search_at",
    "search_many",
    "serialize",
    "stats",
    "walk_search_baseline",
    "with_sentinel",
]
