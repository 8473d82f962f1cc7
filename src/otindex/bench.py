"""Benchmark harness comparing indexed search with the walk baseline.

Patterns come out of the text itself at arithmetically spaced positions;
queries run from up to a fixed number of sampled internal nodes at each
string depth from 1 to 20.  Wall-clock columns are informative only (they
depend on the host machine); the operation counters — binary-search probes
for the index, symbol comparisons plus child lookups for the walk — are the
stable comparison currency.

Indexed timings share one root walk per pattern across all start nodes of a
depth row (the batch search API), so the measured cost is the per-node
resolution the index actually adds.  The walk baseline necessarily pays its
full walk per (node, pattern) pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .build import OtIndex
from .oracle import splitmix64
from .query import Query, search_many, walk_search_baseline
from .suffix_tree import SuffixTree, WalkCounters

DEFAULT_LENGTHS = (7, 10, 12, 15, 20, 25, 30, 35, 40, 50)
DEFAULT_PER_LENGTH = 100
DEFAULT_NODE_CAP = 1000
MAX_DEPTH = 20

TSV_COLUMNS = (
    "depth",
    "nodes_at_depth",
    "patterns",
    "starting_nodes",
    "complexity",
    "ot_time_s",
    "walk_time_s",
    "ot_probes",
    "walk_comparisons",
)


@dataclass(frozen=True)
class PatternProtocol:
    """How benchmark patterns are pulled from the text.

    Pattern #i (1-based) of length L starts at content position 10*i*L and
    must lie fully inside the content; patterns whose root walk ends on a
    leaf are discarded after extraction since their occurrence is unique.
    """

    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    per_length: int = DEFAULT_PER_LENGTH


@dataclass(frozen=True)
class ExtractedPattern:
    pattern: bytes
    position: int


@dataclass
class BenchRow:
    depth: int
    nodes_at_depth: int
    patterns: int
    starting_nodes: int
    complexity: int
    ot_time_s: float
    walk_time_s: float
    ot_probes: int
    walk_comparisons: int

    def tsv(self) -> str:
        return "\t".join(
            str(x)
            for x in (
                self.depth,
                self.nodes_at_depth,
                self.patterns,
                self.starting_nodes,
                self.complexity,
                f"{self.ot_time_s:.6f}",
                f"{self.walk_time_s:.6f}",
                self.ot_probes,
                self.walk_comparisons,
            )
        )


@dataclass
class BenchReport:
    rows: list[BenchRow]
    seed: int
    node_cap: int

    def to_tsv(self) -> str:
        out = ["\t".join(TSV_COLUMNS)]
        out += [row.tsv() for row in self.rows]
        return "\n".join(out) + "\n"


def extract_positions(length: int, n: int, per_length: int) -> list[int]:
    """Content positions for one pattern length: 10*i*length, i = 1.."""
    out = []
    for i in range(1, per_length + 1):
        pos = 10 * i * length
        if pos + length > n:
            break
        out.append(pos)
    return out


def extract_patterns(
    st: SuffixTree, protocol: PatternProtocol = PatternProtocol()
) -> list[ExtractedPattern]:
    """Apply the extraction protocol to the indexed text."""
    data = st.text.data
    n = st.text.n
    out: list[ExtractedPattern] = []
    for length in protocol.lengths:
        for pos in extract_positions(length, n, protocol.per_length):
            p = data[pos : pos + length]
            locus = st.walk_from(st.root, p)
            if locus.matched == length and st.is_leaf(locus.locus_below):
                continue
            out.append(ExtractedPattern(p, pos))
    return out


def nodes_by_depth(st: SuffixTree, max_depth: int = MAX_DEPTH) -> dict[int, list[int]]:
    """Internal nodes grouped by string depth, 1..max_depth, id-ordered."""
    out: dict[int, list[int]] = {d: [] for d in range(1, max_depth + 1)}
    for v in range(st.n_nodes):
        if st.is_internal(v) and 1 <= st.depth[v] <= max_depth:
            out[st.depth[v]].append(v)
    return out


def sample_nodes(nodes: list[int], cap: int, stream) -> list[int]:
    """Up to ``cap`` nodes drawn without replacement from the seeded stream."""
    if len(nodes) <= cap:
        return list(nodes)
    pool = list(nodes)
    picked = []
    for _ in range(cap):
        at = next(stream) % len(pool)
        picked.append(pool[at])
        pool[at] = pool[-1]
        pool.pop()
    return picked


def bench(
    idx: OtIndex,
    *,
    seed: int = 2026,
    node_cap: int = DEFAULT_NODE_CAP,
    protocol: PatternProtocol = PatternProtocol(),
    max_depth: int = MAX_DEPTH,
) -> BenchReport:
    """Run the full depth-by-depth comparison on a built index.

    Every (pattern, start node) pair is answered by both engines and their
    found/not-found verdicts are asserted equal, so a benchmark run is also
    an agreement sweep.
    """
    st = idx.st
    extracted = extract_patterns(st, protocol)
    patterns = [e.pattern for e in extracted]
    by_depth = nodes_by_depth(st, max_depth)
    stream = splitmix64(seed)

    # warmup outside any timed region
    if patterns:
        warm = (by_depth.get(1) or [st.root])[:2]
        search_many(idx, patterns[0], warm)
        for v in warm:
            walk_search_baseline(st, Query(patterns[0], v))

    rows: list[BenchRow] = []
    for depth in range(1, max_depth + 1):
        at_depth = by_depth[depth]
        starts = sample_nodes(at_depth, node_cap, stream)
        if not starts or not patterns:
            rows.append(BenchRow(depth, len(at_depth), len(patterns), len(starts), 0, 0.0, 0.0, 0, 0))
            continue
        # internal descendants, not counting the start node itself
        complexity = sum(st.internal_under[v] - 1 for v in starts)

        ot_probes = 0
        ot_found: list[bool] = []
        t0 = time.perf_counter()
        for p in patterns:
            for res in search_many(idx, p, starts):
                ot_probes += res.probes
                ot_found.append(res.found)
        ot_time = time.perf_counter() - t0

        counters = WalkCounters()
        walk_found: list[bool] = []
        t0 = time.perf_counter()
        for p in patterns:
            for v in starts:
                res = walk_search_baseline(st, Query(p, v), counters)
                walk_found.append(res.found)
        walk_time = time.perf_counter() - t0

        if ot_found != walk_found:
            bad = next(
                k for k, (a, b) in enumerate(zip(ot_found, walk_found)) if a != b
            )
            raise AssertionError(
                f"index and walk disagree at depth {depth} (pair #{bad})"
            )
        rows.append(
            BenchRow(
                depth=depth,
                nodes_at_depth=len(at_depth),
                patterns=len(patterns),
                starting_nodes=len(starts),
                complexity=complexity,
                ot_time_s=ot_time,
                walk_time_s=walk_time,
                ot_probes=ot_probes,
                walk_comparisons=counters.symbol_cmp + counters.child_lookups,
            )
        )
    return BenchReport(rows=rows, seed=seed, node_cap=node_cap)
