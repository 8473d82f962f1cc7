"""OSHR tree and the suffix-discontinuity bookkeeping built on top of it.

The OSHR tree reverses the suffix links: it spans exactly the internal nodes
of the suffix tree, with the suffix-link target as parent and the suffix tree
root as its root (the root's suffix link is taken to be itself).  A node with
at least one incoming suffix link is *OSHR-internal*; one with none is an
*OSHR leaf*.

``OshrTree`` numbers the OSHR tree in preorder (children in ascending
NodeId order): ``left_ot`` is a node's preorder index and ``right_ot`` the
largest preorder index in its OSHR subtree.  With that numbering,
``left_ot(i) <= left_ot(v) <= right_ot(i)`` holds exactly when ``v`` lies in
the OSHR subtree of ``i`` — equivalently, when iterating suffix links from
``v`` reaches ``i``.  Every OSHR leaf has ``left_ot == right_ot``.  A suffix
link lowers the string depth by exactly one, so an OSHR node's depth is its
string depth: the numbering needs no traversal, only two passes over the
suffix tree's per-depth rosters (subtree sizes deepest first, then numbers
shallowest first).

Reference contexts capture where consecutive suffixes disagree about tree
shape: for suffix ``x`` with leaf A under parent B, and suffix ``x+1`` with
leaf C under parent D, a context exists when ``sl(B) != D``.  The nodes on
C's root path strictly below ``sl(B)`` (down to D) are the context's skipped
nodes; they receive the base suffix ``x+1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .suffix_tree import SuffixTree


class OshrTree:
    """Reversed-suffix-link tree over the internal nodes of a suffix tree."""

    __slots__ = ("st", "children", "left_ot", "right_ot", "preorder", "n_members", "n_oshr_leaves")

    def __init__(self, st: SuffixTree):
        self.st = st
        slink = st.slink
        by_depth = st.internal_by_depth
        depths = sorted(by_depth)
        root = st.root
        # deepest first, every node's OSHR subtree size is complete before
        # it is added to its parent's
        size = array("q", [1]) * st.n_nodes
        for d in depths[:0:-1]:  # the root alone has depth 0
            for v in by_depth[d]:
                size[slink[v]] += size[v]
        members = st.n_internal
        if size[root] != members:
            raise AssertionError("OSHR parents do not form a single tree")

        # shallowest first, ids ascending within a depth: each parent hands
        # its children consecutive ranges after its own number, in
        # ascending id order, which is the preorder numbering
        left_ot = array("q", [-1]) * st.n_nodes
        right_ot = array("q", [-1]) * st.n_nodes
        # once v is numbered, size[v] is spent: its slot becomes v's cursor,
        # the next free number for v's children
        cursor = size
        children: dict[int, list[int]] = {}
        pre = [root] * members
        left_ot[root] = 0
        right_ot[root] = members - 1
        cursor[root] = 1
        for d in depths[1:]:
            for v in sorted(by_depth[d]):
                p = slink[v]
                lo = cursor[p]
                s = size[v]
                cursor[p] = lo + s
                left_ot[v] = lo
                right_ot[v] = lo + s - 1
                cursor[v] = lo + 1
                pre[lo] = v
                kids = children.get(p)
                if kids is None:
                    children[p] = [v]
                else:
                    kids.append(v)
        self.children = children
        self.n_members = members
        self.left_ot = left_ot
        self.right_ot = right_ot
        self.preorder = pre  # preorder[left_ot[v]] == v
        self.n_oshr_leaves = members - len(children)

    def is_oshr_internal(self, v: int) -> bool:
        """True when some suffix link points at ``v``."""
        return bool(self.children.get(v))

    def in_oshr_subtree(self, anc: int, v: int) -> bool:
        """Suffix-link reachability: does sl-iteration from ``v`` reach ``anc``?"""
        return self.left_ot[anc] <= self.left_ot[v] <= self.right_ot[anc]


class RefContext(NamedTuple):
    """One suffix pair (x, x+1) whose tree parents disagree under suffix links.

    leaf_a/b: leaf of suffix x and its parent.
    leaf_c/d: leaf of suffix x+1 and its parent.
    """

    x: int
    leaf_a: int
    b: int
    leaf_c: int
    d: int


def reference_leaf_contexts(st: SuffixTree) -> list[RefContext]:
    """All contexts per the parent-disagreement rule, ascending by ``x``.

    Contexts whose B is the root are retained; sl(root) counts as the root.
    """
    out: list[RefContext] = []
    root = st.root
    parent = st.parent
    slink = st.slink
    leaf_for_suffix = st.leaf_for_suffix
    leaf_c = leaf_for_suffix[0]
    d = parent[leaf_c]
    for x in range(st.n):
        leaf_a, b = leaf_c, d
        leaf_c = leaf_for_suffix[x + 1]
        d = parent[leaf_c]
        if (root if b == root else slink[b]) != d:
            out.append(RefContext(x, leaf_a, b, leaf_c, d))
    return out


def skipped_nodes(st: SuffixTree, ctx: RefContext) -> list[int]:
    """Ancestors of leaf C deeper than sl(B), down to D inclusive, top-down.

    sl(B) is always a proper ancestor of D for a valid context, so the range
    is never empty.
    """
    root = st.root
    sl_b = root if ctx.b == root else st.slink[ctx.b]
    lo = st.depth[sl_b]
    if not st.in_subtree(sl_b, ctx.leaf_c):
        raise AssertionError("sl(B) must sit on the path to leaf C")
    if st.depth[ctx.d] <= lo:
        raise AssertionError("sl(B) must be a proper ancestor of D")
    out: list[int] = []
    w = ctx.d
    while st.depth[w] > lo:
        out.append(w)
        w = st.parent[w]
    out.reverse()
    return out


def reference_internal_nodes(st: SuffixTree) -> dict[int, list[int]]:
    """Map each node w to the internal nodes r whose suffix-link jump skips w.

    An internal node r (not the root) is recorded at w when w lies strictly
    between sl(parent(r)) and sl(r) on the tree path: proper descendant of
    the former, proper ancestor of the latter.  The disagreement condition
    sl(parent(r)) != parent(sl(r)) is exactly "that strip is nonempty".
    """
    root = st.root
    out: dict[int, list[int]] = {}
    for r in range(1, st.n_nodes):
        if not st.is_internal(r):
            continue
        pr = st.parent[r]
        top = root if pr == root else st.slink[pr]
        target = st.slink[r]
        if target == root:
            continue  # the root has no proper ancestors, so the strip is empty
        w = st.parent[target]
        # top = sl(parent(r)) is an ancestor of sl(r), so this walk always
        # terminates exactly at top; the strip is empty iff parent(sl(r)) == top.
        while st.depth[w] > st.depth[top]:
            out.setdefault(w, []).append(r)
            w = st.parent[w]
    return out


@dataclass
class BaseSuffixEntry:
    suffix: int  # x + 1 for the context that produced it
    ref_leaf: int  # leaf A of that context


def base_suffixes_from_reference_leaves(
    st: SuffixTree, contexts: list[RefContext]
) -> dict[int, list[BaseSuffixEntry]]:
    """Store suffix x+1 (with reference leaf A) at every skipped node.

    Soundness invariant, asserted: the leaf of the stored suffix lies in the
    subtree of the node storing it.
    """
    out: dict[int, list[BaseSuffixEntry]] = {}
    for ctx in contexts:
        s = ctx.x + 1
        for w in skipped_nodes(st, ctx):
            if not st.in_subtree(w, ctx.leaf_c):
                raise AssertionError("base suffix stored off its own path")
            out.setdefault(w, []).append(BaseSuffixEntry(suffix=s, ref_leaf=ctx.leaf_a))
    return out
