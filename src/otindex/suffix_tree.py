"""Suffix tree construction and navigation.

Ukkonen's online algorithm builds the tree in linear time over the
sentinel-terminated text.  Nodes live in an arena of parallel arrays indexed
by NodeId (root is 0); children are keyed by the first byte of the edge
label.  Because the sentinel is byte 0 it sorts before every content symbol,
so ascending-symbol child order puts sentinel edges first.

Ukkonen's pass records each node's string depth and each leaf's suffix
index as it creates the node, and every leaf edge ends at the end of the text
from the start (the "global end").  One traversal then freezes the rest:
left-to-right leaf ranks, subtree intervals, internal-node counts and
per-depth internal node rosters.  It also checks the tree's shape: no unary
internal node, every suffix link one symbol shallower, one leaf per suffix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .text import Text

NO_NODE = -1


class SuffixTreeError(ValueError):
    """Raised when navigation preconditions are violated."""


@dataclass
class WalkOutcome:
    """Result of matching a pattern downward from a node.

    matched     number of pattern symbols matched
    locus_below node at or immediately below the match end
    exact_node  True when the match ends precisely on a node boundary
    """

    matched: int
    locus_below: int
    exact_node: bool


@dataclass
class WalkCounters:
    """Operation tally for walk-based searches."""

    symbol_cmp: int = 0
    child_lookups: int = 0


@dataclass
class StStats:
    n_leaves: int
    n_internal: int
    internal_depth_hist: dict[int, int]
    # Published genome tables count leaves without the sentinel-only leaf and
    # internal nodes without the root; both conventions are kept.
    n_leaves_adjusted: int = field(init=False)
    n_internal_adjusted: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_leaves_adjusted = self.n_leaves - 1
        self.n_internal_adjusted = self.n_internal - 1


class SuffixTree:
    """Arena-backed suffix tree over a sentinel-terminated text."""

    __slots__ = (
        "text",
        "data",
        "n",
        "parent",
        "estart",
        "eend",
        "slink",
        "children",
        "depth",
        "suffix_idx",
        "st_left",
        "st_right",
        "rank_to_leaf",
        "leaf_for_suffix",
        "internal_under",
        "internal_by_depth",
        "n_nodes",
        "n_leaves",
        "n_internal",
    )

    root = 0

    def __init__(self, text: Text):
        self.text = text
        self.data = text.data
        self.n = text.n
        self._ukkonen()
        self._freeze()

    # ------------------------------------------------------------------ build

    def _ukkonen(self) -> None:
        """Ukkonen's pass; it also records each node's string depth and each
        leaf's suffix, which are known the moment the node is made."""
        data = self.data
        size = len(data)

        parent = [0]
        estart = [0]
        eend = [0]
        slink = [0]
        depth = [0]
        suffix_idx = [NO_NODE]
        children: list[dict[int, int] | None] = [{}]

        a_node = 0
        a_edge = 0
        a_len = 0
        remaining = 0

        for pos in range(size):
            c = data[pos]
            remaining += 1
            last_internal = NO_NODE
            while remaining > 0:
                if a_len == 0:
                    a_edge = pos
                kids = children[a_node]
                assert kids is not None
                nxt = kids.get(data[a_edge])
                if nxt is None:
                    below = a_node  # a_len is 0, so the new leaf's edge starts with c
                else:
                    # a leaf edge already ends at size (the global end); the
                    # active point never reaches its end, as it spells a
                    # later suffix than the leaf's
                    elen = eend[nxt] - estart[nxt]
                    if a_len >= elen:
                        a_node = nxt
                        a_edge += elen
                        a_len -= elen
                        continue
                    if data[estart[nxt] + a_len] == c:
                        if last_internal != NO_NODE and a_node != 0:
                            slink[last_internal] = a_node
                            last_internal = NO_NODE
                        a_len += 1
                        break
                    below = len(parent)
                    parent.append(a_node)
                    estart.append(estart[nxt])
                    eend.append(estart[nxt] + a_len)
                    slink.append(0)
                    depth.append(depth[a_node] + a_len)
                    suffix_idx.append(NO_NODE)
                    kids[data[a_edge]] = below
                    estart[nxt] += a_len
                    parent[nxt] = below
                    kids = {data[estart[nxt]]: nxt}
                    children.append(kids)
                # the new leaf spells suffix j = pos - remaining + 1
                j = pos - remaining + 1
                leaf = len(parent)
                parent.append(below)
                estart.append(pos)
                eend.append(size)
                slink.append(0)
                depth.append(size - j)
                suffix_idx.append(j)
                children.append(None)
                kids[c] = leaf
                if last_internal != NO_NODE:
                    slink[last_internal] = below
                last_internal = NO_NODE if nxt is None else below
                remaining -= 1
                if a_node == 0 and a_len > 0:
                    a_len -= 1
                    a_edge = pos - remaining + 1
                elif a_node != 0:
                    a_node = slink[a_node]

        if remaining != 0:
            raise AssertionError("construction did not consume every suffix")

        self.parent = array("q", parent)
        self.estart = array("q", estart)
        self.eend = array("q", eend)
        self.slink = array("q", slink)
        self.depth = array("q", depth)
        self.suffix_idx = array("q", suffix_idx)
        self.children = children
        self.n_nodes = len(parent)

    def _freeze(self) -> None:
        """One iterative DFS, children in ascending symbol order, to derive
        leaf ranks, subtree intervals, internal-node counts and per-depth
        rosters, checking the tree's shape on the way.

        The stack holds node ids; ``~v`` marks v's exit.  internal_under[v]
        holds the internal-node count at v's entry until its exit turns it
        into the number of internal nodes numbered in between.
        """
        size = len(self.data)
        n_nodes = self.n_nodes
        children = self.children
        depth = self.depth
        slink = self.slink
        root = self.root

        st_left = array("q", bytes(8 * n_nodes))
        st_right = array("q", bytes(8 * n_nodes))
        internal_under = array("q", bytes(8 * n_nodes))
        rank_to_leaf = array("q")
        leaf_for_suffix = array("q", [NO_NODE]) * size
        suffix_idx = self.suffix_idx
        internal_by_depth: dict[int, array] = {}

        rank = 0
        n_internal = 0
        stack = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            v = pop()
            if v < 0:
                v = ~v
                st_right[v] = rank - 1
                internal_under[v] = n_internal - internal_under[v]
                continue
            kids = children[v]
            if kids is None:
                leaf_for_suffix[suffix_idx[v]] = v
                rank_to_leaf.append(v)
                st_left[v] = rank
                st_right[v] = rank
                rank += 1
                continue
            d = depth[v]
            if v != root:
                if len(kids) < 2:
                    raise AssertionError("unary internal node")
                if depth[slink[v]] != d - 1:
                    raise AssertionError("suffix link depth property violated")
            bucket = internal_by_depth.get(d)
            if bucket is None:
                bucket = internal_by_depth[d] = array("q")
            bucket.append(v)
            st_left[v] = rank  # next leaf rank to appear
            internal_under[v] = n_internal
            n_internal += 1
            push(~v)
            for k in sorted(kids, reverse=True):
                push(kids[k])

        if rank != size:
            raise AssertionError("leaf count must equal text length with sentinel")

        self.st_left = st_left
        self.st_right = st_right
        self.rank_to_leaf = rank_to_leaf
        self.leaf_for_suffix = leaf_for_suffix
        self.internal_under = internal_under
        self.internal_by_depth = internal_by_depth
        self.n_leaves = rank
        self.n_internal = n_internal

    # ----------------------------------------------------------------- access

    def is_internal(self, v: int) -> bool:
        return self.children[v] is not None

    def is_leaf(self, v: int) -> bool:
        return self.children[v] is None

    def leaf_of_suffix(self, s: int) -> int:
        """Leaf whose path label is the suffix starting at position ``s``."""
        if not 0 <= s < len(self.data):
            raise SuffixTreeError("suffix index out of range")
        return self.leaf_for_suffix[s]

    def label(self, v: int) -> bytes:
        """Path label of ``v`` (text slice via any leaf beneath it)."""
        leaf = self.rank_to_leaf[self.st_left[v]]
        s = self.suffix_idx[leaf]
        return self.data[s : s + self.depth[v]]

    def leftmost_leaf(self, v: int) -> int:
        return self.rank_to_leaf[self.st_left[v]]

    def in_subtree(self, anc: int, v: int) -> bool:
        """True when ``v`` lies in the subtree rooted at ``anc`` (inclusive)."""
        return (
            self.st_left[anc] <= self.st_left[v]
            and self.st_right[v] <= self.st_right[anc]
        )

    def subtree_leaves(self, v: int):
        """Leaves under ``v`` in left-to-right order."""
        rtl = self.rank_to_leaf
        for r in range(self.st_left[v], self.st_right[v] + 1):
            yield rtl[r]

    # ------------------------------------------------------------------- walk

    def walk_from(
        self, start: int, pattern: bytes, counters: WalkCounters | None = None
    ) -> WalkOutcome:
        """Match ``pattern`` downward from ``start`` symbol by symbol.

        Returns how many pattern symbols matched and the node at or
        immediately below where matching stopped.  ``start`` must be the root
        or an internal node.
        """
        if self.children[start] is None:
            raise SuffixTreeError("walks start at the root or an internal node")
        data = self.data
        children = self.children
        estart = self.estart
        eend = self.eend
        cur = start
        i = 0
        plen = len(pattern)
        sym = 0
        lookups = 0
        while i < plen:
            kids = children[cur]
            if kids is None:
                break  # nothing below a leaf
            lookups += 1
            child = kids.get(pattern[i])
            if child is None:
                break
            lo = estart[child]
            hi = eend[child]
            j = lo
            while j < hi and i < plen:
                sym += 1
                if data[j] != pattern[i]:
                    if counters is not None:
                        counters.symbol_cmp += sym
                        counters.child_lookups += lookups
                    return WalkOutcome(i, child, False)
                j += 1
                i += 1
            if j < hi:
                # pattern exhausted mid-edge
                if counters is not None:
                    counters.symbol_cmp += sym
                    counters.child_lookups += lookups
                return WalkOutcome(i, child, False)
            cur = child
        if counters is not None:
            counters.symbol_cmp += sym
            counters.child_lookups += lookups
        return WalkOutcome(i, cur, True)


def build(text: Text) -> SuffixTree:
    """Build the suffix tree of ``text``."""
    return SuffixTree(text)


def stats(st: SuffixTree) -> StStats:
    """Node counts and the per-string-depth histogram of internal nodes."""
    hist: dict[int, int] = {
        d: len(bucket) for d, bucket in sorted(st.internal_by_depth.items())
    }
    return StStats(
        n_leaves=st.n_leaves,
        n_internal=st.n_internal,
        internal_depth_hist=hist,
    )
