"""Index construction: special-node detection, base-path enumeration, and
the per-host entry lists that answer pattern-under-node queries.

The query "does pattern p occur immediately under internal node i" reduces
to: does some occurrence q of p satisfy leaf_of_suffix(q - depth(i)) in
subtree(i)?  The index stores entries at *host* nodes (nodes on
root-anchored paths); each entry is keyed by an internal node v and carries
v's OSHR interval plus one occurrence position.  A query walks p from the
root to its host and binary-searches the host's sorted entries for a key
inside i's OSHR interval; a hit certifies an occurrence under i, because the
stored position transports along the suffix-link chain from v up to i.

Entries come from two families:

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
internal node on leaf(q)'s path deeper than x.  Queries reach them through
the same base-suffix search, so lookup cost and entry counts are
untouched; the store is config-gated to keep the sparse variant available
for comparison.

Base suffixes are keyed like entries.  Start node i passes the test
leaf(s - depth(i)) in subtree(i) exactly when label(i) is a suffix of
T[0:s); every suffix of an internal node's label is an internal node, so
the nodes passing it are the suffix-link chain from top(s), the deepest
internal node whose label ends at s, up to the root.  Each base suffix is
therefore stored with top(s)'s OSHR preorder number as its key, and the
test becomes OSHR containment: one binary search per query.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .oshr import (
    OshrTree,
    base_suffixes_from_reference_leaves,
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


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class LengthMode:
    """Pattern-length range [lo, hi] the index serves; hi=None means unbounded."""

    lo: int = 1
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 1:
            raise BuildError("length bound must be >= 1")
        if self.hi is not None and self.hi < self.lo:
            raise BuildError("empty length range")

    @classmethod
    def all_lengths(cls) -> "LengthMode":
        return cls()

    @classmethod
    def exact(cls, length: int) -> "LengthMode":
        return cls(length, length)

    @classmethod
    def at_most(cls, length: int) -> "LengthMode":
        return cls(1, length)

    @classmethod
    def between(cls, lo: int, hi: int) -> "LengthMode":
        return cls(lo, hi)

    def admits(self, length: int) -> bool:
        return self.lo <= length and (self.hi is None or length <= self.hi)

    def describe(self) -> str:
        if self.hi is None:
            return "all" if self.lo == 1 else f"range:{self.lo}:inf"
        if self.lo == self.hi:
            return f"exact:{self.lo}"
        if self.lo == 1:
            return f"atmost:{self.hi}"
        return f"range:{self.lo}:{self.hi}"


def parse_length_mode(text: str) -> LengthMode:
    """Parse 'all', 'exact:N', 'atmost:N', or 'range:LO:HI'."""
    parts = text.split(":")
    try:
        if parts == ["all"]:
            return LengthMode.all_lengths()
        if len(parts) == 2 and parts[0] == "exact":
            return LengthMode.exact(int(parts[1]))
        if len(parts) == 2 and parts[0] == "atmost":
            return LengthMode.at_most(int(parts[1]))
        if len(parts) == 3 and parts[0] == "range":
            return LengthMode.between(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        if isinstance(exc, BuildError):
            raise
        raise BuildError(f"bad length mode {text!r}") from exc
    raise BuildError(f"bad length mode {text!r}")


@dataclass(frozen=True)
class BuildConfig:
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
            f"lengths={self.length_mode.describe()}"
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
    st: SuffixTree,
    oshr: OshrTree,
    anc_masks: list[int] | None = None,
    *,
    cover: bool = True,
) -> tuple[array, dict[int, array]]:
    """Base-suffix keys, plus the extra base suffixes serving patterns whose
    extended locus is a leaf, from one walk over every leaf's ancestors.

    Both come from the pairs (internal v != root, leaf f under v) that are
    not suffix-link-derivable: suffix(f) = 0, or leaf(suffix(f) - 1) has no
    internal node at string depth depth(v)+1 on its path.

    Keys: top_key[q] is left_ot of top(q), the deepest internal node whose
    label ends at text position q (the root when no other does).  The nodes
    ending at q are the suffix-link chain top(q), sl(top(q)), ..., paired
    with the leaves of suffixes s, s+1, ...; each pair but the first derives
    from its predecessor, and the first does not (a deeper node ending at q
    would derive it), so q = suffix(f) + depth(v) of the one non-derivable
    pair names top(q) = v.

    Cover (when ``cover``): for each non-derivable pair the image
    occurrence q = suffix(f) + depth(v) is recorded at every internal node
    on leaf(q)'s path deeper than depth(parent(f)) - depth(v).  A query with
    locus e and start node i then finds leaf(q - depth(i)) in subtree(i)
    whenever label(i)+p occurs only on a leaf edge; derivation chains keep
    the window lower bound shrinking, so the terminal pair always reaches e.
    Records are returned per node, unsorted and possibly repeated.
    """
    if anc_masks is None:
        anc_masks = ancestor_depth_masks(st)
    root = st.root
    parent = st.parent
    depth = st.depth
    left_ot = oshr.left_ot
    leaf_for_suffix = st.leaf_for_suffix
    top_key = array("q", bytes(8 * (st.n + 1)))  # left_ot[root] == 0
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
                top_key[q] = left_ot[v]
                if cover:
                    x = dpf - d
                    w = parent[leaf_for_suffix[q]]
                    while depth[w] > x:
                        bucket = out.get(w)
                        if bucket is None:
                            bucket = out[w] = array("q")
                        bucket.append(q)
                        w = parent[w]
            v = parent[v]
    return top_key, out


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


class OtEntry(NamedTuple):
    """Decoded host entry (tests, CLI, audits); key_node is looked up from left_ot."""

    left_ot: int
    right_ot: int
    occ: int
    key_node: int


class OtIndex:
    """Per-host sorted entry lists plus per-node base suffixes.

    A base suffix s is stored as top_key[s] * (n + 1) + s, where top_key[s]
    is the OSHR preorder number of the deepest internal node whose label
    ends at text position s; each node's list is ascending by that value.
    """

    __slots__ = ("st", "oshr", "config", "entries", "base_suffixes", "origin_counts")

    def __init__(self, st, oshr, config, entries, base_suffixes, origin_counts):
        self.st = st
        self.oshr = oshr
        self.config = config
        self.entries: dict[int, array] = entries
        self.base_suffixes: dict[int, array] = base_suffixes
        self.origin_counts: dict[int, int] = origin_counts

    def entries_at(self, host: int) -> list[OtEntry]:
        arr = self.entries.get(host)
        if not arr:
            return []
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, OtIndex):
            return NotImplemented
        return (
            self.st.text.data == other.st.text.data
            and self.config == other.config
            and self.entries == other.entries
            and self.base_suffixes == other.base_suffixes
            and self.origin_counts == other.origin_counts
        )

    def __repr__(self) -> str:
        return (
            f"OtIndex(n={self.st.n}, hosts={len(self.entries)},"
            f" entries={self.total_entries}, {self.config.describe()})"
        )


@dataclass(frozen=True)
class IndexStats:
    hosts: int
    total_entries: int
    origin_counts: dict[str, int]
    base_suffix_nodes: int
    base_suffixes: int
    leaf_cover_suffixes: int
    max_host_entries: int

    def rows(self) -> list[tuple[str, int]]:
        out = [(label, self.origin_counts[label]) for label in ORIGIN_LABELS.values()]
        out.append(("total", self.total_entries))
        return out


def index_stats(idx: OtIndex) -> IndexStats:
    sizes = [len(a) // ENTRY_WIDTH for a in idx.entries.values()]
    ref = base_suffixes_from_reference_leaves(
        idx.st, reference_leaf_contexts(idx.st)
    )
    ref_sets = {node: {r.suffix for r in recs} for node, recs in ref.items()}
    cover = sum(
        1
        for node in idx.base_suffixes
        for s in idx.base_suffixes_at(node)
        if s not in ref_sets.get(node, ())
    )
    return IndexStats(
        hosts=len(idx.entries),
        total_entries=sum(sizes),
        origin_counts={ORIGIN_LABELS[o]: idx.origin_counts.get(o, 0) for o in ORIGIN_LABELS},
        base_suffix_nodes=len(idx.base_suffixes),
        base_suffixes=sum(len(a) for a in idx.base_suffixes.values()),
        leaf_cover_suffixes=cover,
        max_host_entries=max(sizes, default=0),
    )


def build_index(
    st: SuffixTree, oshr: OshrTree | None = None, config: BuildConfig | None = None
) -> OtIndex:
    """Run the full construction under one configuration.

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
        config = BuildConfig()
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
    top_key, store = leaf_edge_cover_suffixes(st, oshr, anc, cover=config.leaf_edge_cover)
    for ctx in contexts:
        s = ctx.x + 1
        for w in skipped_nodes(st, ctx):
            bucket = store.get(w)
            if bucket is None:
                bucket = store[w] = array("q")
            bucket.append(s)
    n1 = st.n + 1
    base_suffixes: dict[int, array] = {}
    for node in list(store):
        qs = store.pop(node)
        base_suffixes[node] = array("q", sorted({top_key[q] * n1 + q for q in qs}))

    return OtIndex(
        st=st,
        oshr=oshr,
        config=config,
        entries=entries,
        base_suffixes=base_suffixes,
        origin_counts=counts,
    )
