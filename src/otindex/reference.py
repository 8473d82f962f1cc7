"""The paper's index builder, kept as the reference the serving store is
audited against.

The serving build (:mod:`otindex.build`) stores, per node, the OSHR-deepest
keys of its occurrences.  This module builds the paper's store instead and
reduces it to the same form (:func:`reduce_to_deepest`), so the oracle can
answer the paper's configuration grid through the same search and check that
the two stores agree.  Nothing on the serving path imports it.

The paper's store keeps entries at *host* nodes (nodes on root-anchored
paths); each entry is keyed by an internal node v and carries v's OSHR
interval plus one occurrence position.  Entries come from two families:

* special entries: skipped nodes h of reference contexts, classified by the
  configured mode, are indexed for every internal ancestor v of the
  context's reference leaf, along the root-anchored image of the path
  sl(v) -> h;
* base-path entries: internal pairs (v, b) with b below v that are neither
  suffix-link-derivable from another pair nor already covered by a special
  path (tracked in an indexed-paths dictionary), optionally pruned by the
  exclusion rule.

Both families place their entries on the *last extent path* -- the
root-anchored path spelling the same label as the source path -- at hosts
whose depth lies in the window (x, y], where x and y are the source edge's
relative depth bounds; a configured pattern-length range narrows the window
further so only hosts that can be a query locus survive.

Entry pairs end at internal bottoms, which leaves one query shape unserved:
label(i)+p occurring exactly once, so that its locus sits on a leaf edge,
while p alone has an internal locus e.  No internal pair reaches such an
occurrence and the reference-leaf suffixes at e need not contain it (the
preceding suffix's parent can sit too deep to skip e).  The *leaf-edge
cover* closes that hole: for every non-derivable (internal v, leaf f) pair
-- at most one per text position plus the suffix-0 boundary, by a
telescoping count over suffix-link images -- the image occurrence
q = suffix(f) + depth(v) is stored as an extra base suffix at every
internal node on leaf(q)'s path deeper than x.  It is config-gated to keep
the sparse variant available for comparison.

Base suffixes are keyed like the serving store: s is stored as
top_key[s] * (n + 1) + s, top_key[s] being the OSHR preorder number of the
deepest internal node whose label ends at s.

Building is quadratic on periodic text (the per-bottom ancestor lists and
the leaf-edge cover's per-leaf walk); keep such inputs small.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .build import (
    BuildConfig,
    BuildError,
    LengthMode,
    OtEntry,
    OtIndex,
    deepest,
    key_ends,
    top_keys,
)
from .oshr import (
    OshrTree,
    reference_internal_nodes,
    reference_leaf_contexts,
    skipped_nodes,
)
from .suffix_tree import SuffixTree

# flat per-host entry layout: the key node's OSHR interval, one occurrence
ENTRY_WIDTH = 3
F_LEFT, F_RIGHT, F_OCC = range(ENTRY_WIDTH)

ORIGIN_BASE = 0
ORIGIN_SKIPPED = 1
ORIGIN_SKIPPED_XREF = 2
ORIGIN_LABELS = {
    ORIGIN_BASE: "base-path",
    ORIGIN_SKIPPED: "skipped",
    ORIGIN_SKIPPED_XREF: "skipped-xref",
}

# Which skipped nodes the primary special class contains:
#   "oshr-internal": skipped nodes that are suffix-link targets;
#   "oshr-leaf":     skipped OSHR leaves without cross-reference internal nodes.
# Skipped OSHR leaves *with* cross-reference internal nodes always form the
# secondary class (ORIGIN_SKIPPED_XREF), in either mode.
CLASSIFY_LINKED = "oshr-internal"
CLASSIFY_UNLINKED = "oshr-leaf"
CLASSIFICATION_MODES = (CLASSIFY_LINKED, CLASSIFY_UNLINKED)


@dataclass(frozen=True)
class ReferenceConfig:
    """One cell of the paper's configuration grid."""

    length_mode: LengthMode = LengthMode()
    classification_mode: str = CLASSIFY_LINKED
    exclusion_rule_enabled: bool = True
    # extra base suffixes covering patterns whose extended locus falls on a
    # leaf edge; off reproduces the sparse reference-leaf-only store
    leaf_edge_cover: bool = True

    def __post_init__(self):
        if self.classification_mode not in CLASSIFICATION_MODES:
            raise BuildError(f"unknown classification mode {self.classification_mode!r}")

    def describe(self) -> str:
        excl = "on" if self.exclusion_rule_enabled else "off"
        cover = "on" if self.leaf_edge_cover else "off"
        return (
            f"reference lengths={self.length_mode.describe()}"
            f" classification={self.classification_mode} exclusion={excl}"
            f" leafcover={cover}"
        )

@dataclass
class SpecialNodes:
    """Skipped nodes selected for special indexing, plus per-leaf reverse lists.

    primary: mode-eligible skipped nodes -> their reference leaves.
    xref: skipped OSHR leaves having cross-reference internal nodes -> leaves.
    by_ref_leaf: (leaf rank, leaf, [(node, origin), ...]) ascending by rank.
    """

    primary: dict[int, list[int]]
    xref: dict[int, list[int]]
    by_ref_leaf: list[tuple[int, int, list[tuple[int, int]]]]


def detect_special_nodes(
    st: SuffixTree,
    oshr: OshrTree,
    contexts,
    ref_internal: dict[int, list[int]],
    classification_mode: str = CLASSIFY_LINKED,
) -> SpecialNodes:
    if classification_mode not in CLASSIFICATION_MODES:
        raise BuildError(f"unknown classification mode {classification_mode!r}")
    want_linked = classification_mode == CLASSIFY_LINKED
    primary: dict[int, list[int]] = {}
    xref: dict[int, list[int]] = {}
    per_leaf: dict[int, list[tuple[int, int]]] = {}
    for ctx in contexts:
        for w in skipped_nodes(st, ctx):
            linked = oshr.is_oshr_internal(w)
            has_xref = bool(ref_internal.get(w))
            eligible = linked if want_linked else (not linked and not has_xref)
            if eligible:
                primary.setdefault(w, []).append(ctx.leaf_a)
                per_leaf.setdefault(ctx.leaf_a, []).append((w, ORIGIN_SKIPPED))
            if not linked and has_xref:
                xref.setdefault(w, []).append(ctx.leaf_a)
                per_leaf.setdefault(ctx.leaf_a, []).append((w, ORIGIN_SKIPPED_XREF))
    if primary.keys() & xref.keys():
        raise AssertionError("special classes must be disjoint")
    by_ref_leaf = sorted(
        (st.st_left[leaf], leaf, items) for leaf, items in per_leaf.items()
    )
    return SpecialNodes(primary=primary, xref=xref, by_ref_leaf=by_ref_leaf)


def ancestor_depth_masks(st: SuffixTree) -> list[int]:
    """Per node (internal or leaf), a bitmask of the string depths of its
    proper internal ancestors, the root excluded (bit 0 is never set)."""
    masks = [0] * st.n_nodes
    stack = [st.root]
    while stack:
        v = stack.pop()
        below = masks[v] | (1 << st.depth[v]) if v != st.root else 0
        for c in st.children[v].values():
            masks[c] = below
            if st.is_internal(c):
                stack.append(c)
    return masks


def leaf_edge_cover_suffixes(
    st: SuffixTree, anc_masks: list[int] | None = None
) -> dict[int, array]:
    """The extra base suffixes serving patterns whose extended locus is a
    leaf, from one walk over every leaf's ancestors.

    They come from the pairs (internal v != root, leaf f under v) that are
    not suffix-link-derivable: suffix(f) = 0, or leaf(suffix(f) - 1) has no
    internal node at string depth depth(v)+1 on its path.  For each such
    pair the image occurrence q = suffix(f) + depth(v) is recorded at every
    internal node on leaf(q)'s path deeper than depth(parent(f)) - depth(v).
    A query with locus e and start node i then finds leaf(q - depth(i)) in
    subtree(i) whenever label(i)+p occurs only on a leaf edge; derivation
    chains keep the window lower bound shrinking, so the terminal pair
    always reaches e.  Records are returned per node, unsorted and possibly
    repeated.
    """
    if anc_masks is None:
        anc_masks = ancestor_depth_masks(st)
    root = st.root
    parent = st.parent
    depth = st.depth
    leaf_for_suffix = st.leaf_for_suffix
    out: dict[int, array] = {}
    for s in range(st.n + 1):
        f = leaf_for_suffix[s]
        blocked = anc_masks[leaf_for_suffix[s - 1]] if s else 0
        dpf = depth[parent[f]]
        v = parent[f]
        while v != root:
            d = depth[v]
            if not s or not (blocked >> (d + 1)) & 1:
                q = s + d
                x = dpf - d
                w = parent[leaf_for_suffix[q]]
                while depth[w] > x:
                    bucket = out.get(w)
                    if bucket is None:
                        bucket = out[w] = array("q")
                    bucket.append(q)
                    w = parent[w]
            v = parent[v]
    return out


def _derivable_masks(st: SuffixTree, oshr: OshrTree, anc_masks: list[int]) -> list[int]:
    """For each internal b: bit (d+1) set means the pair (ancestor of b at
    string depth d, b) is suffix-link-derivable -- some preimage of b has an
    internal proper ancestor at depth d+1 (whose own suffix link necessarily
    lands on that ancestor of b)."""
    der = [0] * st.n_nodes
    for b, kids in oshr.children.items():
        m = 0
        for bp in kids:
            m |= anc_masks[bp]
        der[b] = m
    return der


def _exclusion_masks(
    st: SuffixTree, ref_internal: dict[int, list[int]], anc_masks: list[int]
) -> list[int]:
    """For each node b: bit (d+1) set means some cross-reference internal
    node of b has an internal proper ancestor at depth d+1; that ancestor is
    then an OSHR child of b's depth-d ancestor, which is the exclusion
    rule's trigger."""
    exc = [0] * st.n_nodes
    for w, rs in ref_internal.items():
        m = 0
        for r in rs:
            m |= anc_masks[r]
        exc[w] = m
    return exc


def enumerate_base_paths(
    st: SuffixTree,
    oshr: OshrTree,
    v: int,
    *,
    indexed_paths: frozenset | set = frozenset(),
) -> list[int]:
    """All internal b strictly below v whose pair (v, b) is not
    suffix-link-derivable and not recorded in indexed_paths, ascending by id.

    Quadratic-friendly reference form; the builder uses the same masks but
    enumerates flipped (per bottom node) in one pass.
    """
    if not st.is_internal(v):
        raise BuildError("base paths start at an internal node")
    anc = ancestor_depth_masks(st)
    bit = 1 << (st.depth[v] + 1)
    out = []
    for b in range(st.n_nodes):
        if b == v or not st.is_internal(b) or not st.in_subtree(v, b):
            continue
        m = 0
        for bp in oshr.children.get(b, ()):
            m |= anc[bp]
        if m & bit or (v, b) in indexed_paths:
            continue
        out.append(b)
    return out


def last_extent_path(st: SuffixTree, top: int, bottom: int) -> list[int]:
    """Nodes of the root walk of the label between top and bottom.

    The walk spells label(bottom) minus its depth(top)-symbol prefix and must
    end exactly at a node (it always does: that node is bottom pushed through
    depth(top) suffix links); a mid-edge end or a mismatch is a construction
    bug, reported as AssertionError.
    """
    if not (st.in_subtree(top, bottom) and top != bottom):
        raise BuildError("top must be a proper ancestor of bottom")
    data = st.text.data
    s = st.suffix_idx[st.leftmost_leaf(bottom)]
    lo, hi = s + st.depth[top], s + st.depth[bottom]
    cur = st.root
    pos = lo
    out: list[int] = []
    while pos < hi:
        nxt = st.children[cur].get(data[pos])
        if nxt is None:
            raise AssertionError("last extent path walk fell off the tree")
        estart, eend = st.estart[nxt], st.eend[nxt]
        elen = eend - estart
        if pos + elen > hi or data[estart:eend] != data[pos : pos + elen]:
            raise AssertionError("last extent path must end exactly at a node")
        pos += elen
        cur = nxt
        out.append(cur)
    return out


class ReferenceIndex:
    """The paper's store: per-host sorted entry lists plus per-node keyed
    base suffixes, with entry totals per origin."""

    __slots__ = ("st", "oshr", "config", "entries", "base_suffixes", "origin_counts")

    def __init__(self, st, oshr, config, entries, base_suffixes, origin_counts):
        self.st = st
        self.oshr = oshr
        self.config: ReferenceConfig = config
        self.entries: dict[int, array] = entries
        self.base_suffixes: dict[int, array] = base_suffixes
        self.origin_counts: dict[int, int] = origin_counts

    def entries_at(self, host: int) -> list[OtEntry]:
        arr = self.entries.get(host, ())
        pre = self.oshr.preorder
        return [
            OtEntry(arr[i], arr[i + 1], arr[i + 2], pre[arr[i]])
            for i in range(0, len(arr), ENTRY_WIDTH)
        ]

    def base_suffixes_at(self, node: int) -> list[int]:
        """The base suffixes stored at node, ascending."""
        n1 = self.st.n + 1
        return sorted(v % n1 for v in self.base_suffixes.get(node, ()))

    def iter_host_entries(self) -> Iterator[tuple[int, OtEntry]]:
        for host in self.entries:
            for entry in self.entries_at(host):
                yield host, entry

    @property
    def total_entries(self) -> int:
        return sum(len(a) for a in self.entries.values()) // ENTRY_WIDTH


def build_reference(
    st: SuffixTree, oshr: OshrTree | None = None, config: ReferenceConfig | None = None
) -> ReferenceIndex:
    """Run the paper's construction under one configuration.

    Equivalent to visiting internal nodes in OSHR postorder and, at each v,
    indexing special paths for the reference leaves in v's subtree and then
    v's surviving base paths; here the special family runs first in one pass
    grouped by (reference leaf, skipped node), which records the identical
    indexed-paths dictionary before any base-path decision consults it, and
    the base family second, grouped per bottom node.
    """
    if oshr is None:
        oshr = OshrTree(st)
    if config is None:
        config = ReferenceConfig()
    lo_cfg = config.length_mode.lo
    hi_cfg = config.length_mode.hi

    contexts = reference_leaf_contexts(st)
    ref_internal = reference_internal_nodes(st)
    specials = detect_special_nodes(st, oshr, contexts, ref_internal, config.classification_mode)
    anc = ancestor_depth_masks(st)

    nn = st.n_nodes
    root = st.root
    depth = st.depth
    parent = st.parent
    slink = st.slink
    suffix_idx = st.suffix_idx
    left_ot = oshr.left_ot
    right_ot = oshr.right_ot

    # pending rows per host: an entry plus its origin code, kept only to
    # correct the counts when de-duplication drops the row
    raw: dict[int, list[int]] = {}
    indexed_paths: set[int] = set()
    counts = {ORIGIN_BASE: 0, ORIGIN_SKIPPED: 0, ORIGIN_SKIPPED_XREF: 0}

    def add_entries(v: int, omega: int, x: int, y: int, occ: int, origin: int):
        # hosts: ancestors of omega that can be the locus of an admitted
        # pattern length in (x, y] ∩ [lo_cfg, hi_cfg]
        if depth[omega] != y:
            raise AssertionError("suffix-link jump landed at the wrong depth")
        llo = x + 1 if x + 1 > lo_cfg else lo_cfg
        lhi = y if hi_cfg is None or y < hi_cfg else hi_cfg
        if llo > lhi:
            return
        lv = left_ot[v]
        rv = right_ot[v]
        w = omega
        added = 0
        while depth[w] >= llo:
            if depth[parent[w]] < lhi:
                bucket = raw.get(w)
                if bucket is None:
                    bucket = raw[w] = []
                bucket.extend((lv, rv, occ, origin))
                added += 1
            w = parent[w]
        counts[origin] += added

    # --- special paths, grouped by (reference leaf, skipped node) ---------
    seen_special: set[int] = set()
    for _rank, e, items in specials.by_ref_leaf:
        ancestors: list[int] = []
        w = parent[e]
        while w != root:
            ancestors.append(w)
            w = parent[w]
        ancestors.append(root)
        ancestors.reverse()  # ascending depth, root first
        se = suffix_idx[e]
        for h, origin in items:
            dh = depth[h]
            dph = depth[parent[h]]
            cur = h
            jumped = 0
            for v in ancestors:
                k = 0 if v == root else depth[v] - 1
                if k >= dh:
                    break
                pair = v * nn + h
                if pair in seen_special:
                    continue
                seen_special.add(pair)
                top = root if v == root else slink[v]
                indexed_paths.add(top * nn + h)
                while jumped < k:
                    cur = slink[cur]
                    jumped += 1
                add_entries(v, cur, dph - k, dh - k, se + 1 + k, origin)

    # --- base paths, grouped per bottom node -------------------------------
    der = _derivable_masks(st, oshr, anc)
    exc = (
        _exclusion_masks(st, ref_internal, anc)
        if config.exclusion_rule_enabled
        else None
    )
    for b in range(1, nn):
        if not st.is_internal(b):
            continue
        derm = der[b]
        excm = exc[b] if exc is not None else 0
        blocked = derm | excm
        ancestors = []
        w = parent[b]
        while w != root:
            ancestors.append(w)
            w = parent[w]
        ancestors.append(root)
        ancestors.reverse()
        dpb = depth[parent[b]]
        db = depth[b]
        sb = suffix_idx[st.leftmost_leaf(b)]
        cur = b
        jumped = 0
        for v in ancestors:
            d = depth[v]
            if (blocked >> (d + 1)) & 1:
                continue
            if v * nn + b in indexed_paths:
                continue
            while jumped < d:
                cur = slink[cur]
                jumped += 1
            add_entries(v, cur, dpb - d, db - d, sb + d, ORIGIN_BASE)

    # --- finalize: per-host stable sort, dedup by key, pack ----------------
    # a preorder number names exactly one key node, so rows with equal left
    # ends are duplicates; the stable sort keeps the first one added
    entries: dict[int, array] = {}
    for host in list(raw):
        flat = raw.pop(host)
        packed = array("q")
        prev_left = -1
        for k in sorted(range(0, len(flat), ENTRY_WIDTH + 1), key=flat.__getitem__):
            if flat[k] == prev_left:
                counts[flat[k + ENTRY_WIDTH]] -= 1
                continue
            prev_left = flat[k]
            packed.extend(flat[k : k + ENTRY_WIDTH])
        entries[host] = packed

    # --- base suffixes: reference-leaf records plus the leaf-edge cover,
    # each packed as top_key[s] * (n + 1) + s and sorted by that value
    store = leaf_edge_cover_suffixes(st, anc) if config.leaf_edge_cover else {}
    for ctx in contexts:
        s = ctx.x + 1
        for w in skipped_nodes(st, ctx):
            bucket = store.get(w)
            if bucket is None:
                bucket = store[w] = array("q")
            bucket.append(s)
    top_key = top_keys(st, oshr)
    n1 = st.n + 1
    base_suffixes: dict[int, array] = {}
    for node in list(store):
        qs = store.pop(node)
        base_suffixes[node] = array("q", sorted({top_key[q] * n1 + q for q in qs}))

    return ReferenceIndex(st, oshr, config, entries, base_suffixes, counts)


def reduce_to_deepest(ref: ReferenceIndex) -> OtIndex:
    """The reference store in the serving form: per node, the OSHR-deepest
    keys of its entries and base suffixes, root keys dropped, nodes that no
    admitted length reaches dropped."""
    st = ref.st
    n1 = st.n + 1
    ends = key_ends(ref.oshr, n1)
    admits_locus = ref.config.length_mode.admits_locus
    stores: dict[int, array] = {}
    for node in ref.entries.keys() | ref.base_suffixes.keys():
        if not admits_locus(st, node):
            continue
        arr = ref.entries.get(node, ())
        values = [
            arr[k + F_LEFT] * n1 + arr[k + F_OCC] for k in range(0, len(arr), ENTRY_WIDTH)
        ]
        values += ref.base_suffixes.get(node, ())
        kept = deepest(sorted(v for v in values if v >= n1), ends, n1)
        if kept:
            stores[node] = kept
    return OtIndex(st, ref.oshr, BuildConfig(ref.config.length_mode), stores)
