"""Pattern-under-node queries: the indexed search and the walk baseline.

search() answers "does pattern p occur immediately under internal node i"
with a verified witness: a suffix index j with leaf_of_suffix(j) in
subtree(i) and Text[j + depth(i) .. j + depth(i) + |p|) = p.  The pipeline:

1. walk p from the root; if it does not match fully, p is not in the text;
2. i = root: any leaf under the walk's locus witnesses trivially;
3. locus on a leaf edge: p occurs exactly once, check that single position;
4. otherwise binary-search the locus node's store, values
   key * (n + 1) + occ, for the first key inside i's OSHR interval
   (interval containment == suffix-link reachability).

Steps 2-4 are decided in one place, _resolve: it picks the route once per
root walk, then one loop answers every start node.  search, search_many and
search_at are entry points to it.

Every positive answer is re-verified against the text before it is
returned; an unsound hit raises instead of returning.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

from .build import OtIndex
from .suffix_tree import SuffixTree, WalkCounters, WalkOutcome

ROUTE_NOT_IN_TEXT = "not-in-text"
ROUTE_TRIVIAL = "root-trivial"
ROUTE_LEAF = "leaf"
ROUTE_BINARY = "binary-search"
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

    # read only by perfbench/layers.py: no second search can rescue an answer
    fallback_rescue: ClassVar[bool] = False


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
    """One start node: the one-element case of search_many."""
    return search_many(idx, query.pattern, (query.start_node,))[0]


def search_many(idx: OtIndex, pattern: bytes, nodes: Sequence[int]) -> list[QueryResult]:
    """Answer ``pattern`` under every start node, sharing one root walk.

    Every node must be the root or an internal node, else ValueError.  Audits
    and benchmarks use it to amortize the walk.
    """
    st = idx.st
    n_nodes = st.n_nodes
    children = st.children
    for i in nodes:
        if i < 0 or i >= n_nodes or children[i] is None:
            raise ValueError(f"start node {i} is not the root or an internal node")
    if pattern and not idx.config.length_mode.admits(len(pattern)):
        raise QueryConfigError("pattern length outside index configuration")
    return _resolve(idx, locate(st, pattern), pattern, nodes)


def search_at(idx: OtIndex, outcome: WalkOutcome, pattern: bytes, i: int) -> QueryResult:
    """Steps 2-4 of the pipeline for one node, after the caller's root walk."""
    return _resolve(idx, outcome, pattern, (i,))[0]


def _resolve(
    idx: OtIndex, outcome: WalkOutcome, pattern: bytes, nodes: Sequence[int]
) -> list[QueryResult]:
    """Steps 2-4 for every start node: the route follows from the walk's
    outcome alone, so it is picked once and one loop answers all nodes."""
    st = idx.st
    if outcome.matched < len(pattern):
        return [QueryResult(False, None, ROUTE_NOT_IN_TEXT) for _ in nodes]
    suffix_idx = st.suffix_idx
    if not pattern:  # every leaf under i spells label(i) + pattern
        return [QueryResult(True, suffix_idx[st.leftmost_leaf(i)], ROUTE_TRIVIAL) for i in nodes]
    root = st.root
    depth = st.depth
    locus = outcome.locus_below
    out = []
    if st.children[locus] is None:
        # p occurs only at q: i hosts it iff the suffix depth(i) earlier is under i
        q = suffix_idx[locus]
        leaf_for_suffix = st.leaf_for_suffix
        st_left = st.st_left
        st_right = st.st_right
        for i in nodes:
            if i == root:
                _verify(st, pattern, i, q)
                out.append(QueryResult(True, q, ROUTE_TRIVIAL))
                continue
            w = q - depth[i]
            if w >= 0 and st_left[i] <= st_left[leaf_for_suffix[w]] <= st_right[i]:
                _verify(st, pattern, i, w)
                out.append(QueryResult(True, w, ROUTE_LEAF))
            else:
                out.append(QueryResult(False, None, ROUTE_LEAF))
        return out

    # values are key * (n + 1) + occ: the first one at or above i's left end
    # is a hit when its key is still inside i's OSHR interval
    arr = idx.entries.get(locus, ())
    m = len(arr)
    n1 = st.n + 1
    left_ot = idx.oshr.left_ot
    right_ot = idx.oshr.right_ot
    for i in nodes:
        if i == root:
            w = suffix_idx[st.leftmost_leaf(locus)]
            _verify(st, pattern, i, w)
            out.append(QueryResult(True, w, ROUTE_TRIVIAL))
            continue
        first = left_ot[i] * n1
        probes = 0
        lo, hi = 0, m
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if arr[mid] < first:
                lo = mid + 1
            else:
                hi = mid
        if lo < m and arr[lo] < (right_ot[i] + 1) * n1:
            w = arr[lo] % n1 - depth[i]
            _verify(st, pattern, i, w)
            out.append(QueryResult(True, w, ROUTE_BINARY, probes, m))
        else:
            out.append(QueryResult(False, None, ROUTE_BINARY, probes, m))
    return out


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
