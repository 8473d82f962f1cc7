"""Pattern-under-node queries: the indexed search and the walk baseline.

search() answers "does pattern p occur immediately under internal node i"
with a verified witness: a suffix index j with leaf_of_suffix(j) in
subtree(i) and Text[j + depth(i) .. j + depth(i) + |p|) = p.  The pipeline:

1. walk p from the root; if it does not match fully, p is not in the text;
2. i = root: any leaf under the walk's locus witnesses trivially;
3. locus on a leaf edge: p occurs exactly once, check that single position;
4. otherwise binary-search the locus node's entry list for a key inside
   i's OSHR interval (interval containment == suffix-link reachability);
5. finally binary-search the locus node's base suffixes, keyed the same
   way by the deepest internal node whose label ends at each suffix.

Step 5 runs even when step 4 had a nonempty list and missed: the entry list
is not known to subsume the base suffixes, and the extra search is sound.
A hit there after a nonempty-list miss is flagged on the result and logged
so the subsumption question accumulates evidence.

Every positive answer is re-verified against the text before it is
returned; an unsound hit raises instead of returning.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

from .build import ENTRY_WIDTH, F_LEFT, F_OCC, F_RIGHT, OtIndex
from .suffix_tree import SuffixTree, WalkCounters, WalkOutcome

logger = logging.getLogger(__name__)

ROUTE_NOT_IN_TEXT = "not-in-text"
ROUTE_TRIVIAL = "root-trivial"
ROUTE_LEAF = "leaf"
ROUTE_BINARY = "binary-search"
ROUTE_BASE_SEARCH = "base-search"
ROUTE_WALK = "walk"


class QueryConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Query:
    pattern: bytes
    start_node: int


@dataclass
class QueryResult:
    found: bool
    witness: int | None
    route: str
    probes: int = 0
    host_entries: int = 0
    fallback_rescue: bool = False


def _verify(st: SuffixTree, pattern: bytes, i: int, witness: int) -> None:
    di = st.depth[i]
    if (
        witness < 0
        or witness + di + len(pattern) > st.n + 1
        or not st.in_subtree(i, st.leaf_for_suffix[witness])
        or st.text.data[witness + di : witness + di + len(pattern)] != pattern
    ):
        raise AssertionError(
            f"unsound query result: witness {witness} for node {i}, pattern {pattern!r}"
        )


def locate(st: SuffixTree, pattern: bytes) -> WalkOutcome:
    """Root walk of the pattern (step 1 of the pipeline)."""
    return st.walk_from(st.root, pattern)


def search(idx: OtIndex, query: Query) -> QueryResult:
    st = idx.st
    i = query.start_node
    if not st.is_internal(i):
        raise ValueError("start node must be the root or an internal node")
    pattern = query.pattern
    if len(pattern) == 0:
        return QueryResult(True, st.suffix_idx[st.leftmost_leaf(i)], ROUTE_TRIVIAL)
    if not idx.config.length_mode.admits(len(pattern)):
        raise QueryConfigError("pattern length outside index configuration")
    return search_at(idx, locate(st, pattern), pattern, i)


def search_many(idx: OtIndex, pattern: bytes, nodes) -> list[QueryResult]:
    """Batch form sharing one root walk across start nodes.

    Equivalent to [search(idx, Query(pattern, i)) for i in nodes]; audits and
    benchmarks use it to amortize the walk.
    """
    st = idx.st
    if len(pattern) == 0 or not idx.config.length_mode.admits(len(pattern)):
        return [search(idx, Query(pattern, i)) for i in nodes]
    outcome = locate(st, pattern)
    return [search_at(idx, outcome, pattern, i) for i in nodes]


def search_at(idx: OtIndex, outcome: WalkOutcome, pattern: bytes, i: int) -> QueryResult:
    """Steps 2-5 of the pipeline, after the shared root walk."""
    st = idx.st
    length = len(pattern)
    if outcome.matched < length:
        return QueryResult(False, None, ROUTE_NOT_IN_TEXT)
    locus = outcome.locus_below

    if i == st.root:
        witness = st.suffix_idx[st.leftmost_leaf(locus)]
        _verify(st, pattern, i, witness)
        return QueryResult(True, witness, ROUTE_TRIVIAL)

    di = st.depth[i]
    if st.is_leaf(locus):
        witness = st.suffix_idx[locus] - di
        if witness >= 0 and st.in_subtree(i, st.leaf_for_suffix[witness]):
            _verify(st, pattern, i, witness)
            return QueryResult(True, witness, ROUTE_LEAF)
        return QueryResult(False, None, ROUTE_LEAF)

    probes = 0
    hosted = 0
    li = idx.oshr.left_ot[i]
    ri = idx.oshr.right_ot[i]
    arr = idx.entries.get(locus)
    if arr:
        hosted = len(arr) // ENTRY_WIDTH
        lo, hi = 0, hosted
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if arr[mid * ENTRY_WIDTH + F_LEFT] < li:
                lo = mid + 1
            else:
                hi = mid
        if lo < hosted and arr[lo * ENTRY_WIDTH + F_LEFT] <= ri:
            if arr[lo * ENTRY_WIDTH + F_RIGHT] > ri:
                raise AssertionError("host entry interval escapes the query interval")
            witness = arr[lo * ENTRY_WIDTH + F_OCC] - di
            _verify(st, pattern, i, witness)
            return QueryResult(True, witness, ROUTE_BINARY, probes, hosted)

    # base suffixes are packed as key * (n + 1) + s: the first one keyed
    # inside i's OSHR interval is a hit
    suffixes = idx.base_suffixes.get(locus)
    if suffixes:
        n1 = st.n + 1
        k = bisect_left(suffixes, li * n1)
        if k < len(suffixes) and suffixes[k] < (ri + 1) * n1:
            witness = suffixes[k] % n1 - di
            _verify(st, pattern, i, witness)
            rescued = hosted > 0
            if rescued:
                logger.debug(
                    "base-suffix search rescued pattern %r under node %d "
                    "after a %d-entry list missed",
                    pattern,
                    i,
                    hosted,
                )
            return QueryResult(True, witness, ROUTE_BASE_SEARCH, probes, hosted, rescued)
    return QueryResult(False, None, ROUTE_BASE_SEARCH, probes, hosted)


def walk_search_baseline(
    st: SuffixTree, query: Query, counters: WalkCounters | None = None
) -> QueryResult:
    """Answer by walking the pattern directly from the start node.

    The witness is the suffix index of the leftmost leaf under the walk's end
    locus: that leaf's suffix spells label(i) followed by the pattern.
    """
    i = query.start_node
    if not st.is_internal(i):
        raise ValueError("start node must be the root or an internal node")
    outcome = st.walk_from(i, query.pattern, counters)
    if outcome.matched < len(query.pattern):
        return QueryResult(False, None, ROUTE_WALK)
    witness = st.suffix_idx[st.leftmost_leaf(outcome.locus_below)]
    _verify(st, query.pattern, i, witness)
    return QueryResult(True, witness, ROUTE_WALK)
