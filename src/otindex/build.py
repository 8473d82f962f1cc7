"""Index construction: one minimal keyed occurrence store per node.

The query "does pattern p occur immediately under internal node i" reduces
to: is label(i) a suffix of T[0:q) for some occurrence q of p?  The internal
nodes whose labels end at q are the suffix-link chain from top(q), the
deepest internal node whose label ends at q, up to the root; in the OSHR
numbering that chain is exactly the set of nodes whose interval contains
left_ot[top(q)].  So with e the locus of p (every occurrence q of p is a leaf
under e), the answer is yes iff some leaf q under e has

    left_ot[i] <= left_ot[top(q)] <= right_ot[i],

with witness q - depth(i).  A key with another key of the same node inside
its OSHR interval never decides an answer, so each node e keeps only R(e),
the OSHR-deepest keys of {left_ot[top(q)] : leaf q under e}, each with its
smallest q.  The root's key is dropped: the root is answered without the
store.  A value is stored as key * (n + 1) + q, each node's values sorted
ascending, so a query is one binary search for the first value at or above
left_ot[i] * (n + 1).

Both steps run in time linear in n plus the stored values:

* top(q) comes from the (internal v, leaf j) pairs that are not
  suffix-link-derivable; each one names top(j + depth(v)) = v, and each
  position has at most one.  Take the suffix link of the leaf of suffix x
  to be the leaf of suffix x + 1 (of suffix 0 for the sentinel's, x = n).
  Then they are one rule over the nodes r but the root: each node strictly
  between sl(parent(r)) and sl(r) on sl(r)'s root path, paired with the
  leaf of suffix x + 1 for every leaf x under r.
* R(e) is built in one postorder pass: the deepest keys of the children's
  R plus the keys of the leaf children.

The paper's three-source entry builder (:mod:`otindex.reference`) is kept as
the reference the audit checks this store against; nothing here calls it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .oshr import OshrTree
from .suffix_tree import SuffixTree

# read only by perfbench/layers.py: one stored value per entry
ENTRY_WIDTH = 1


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

    def admits_locus(self, st: SuffixTree, v: int) -> bool:
        """Can node v be the locus of an admitted length, i.e. does
        (depth(parent(v)), depth(v)] meet [lo, hi]?"""
        return st.depth[v] >= self.lo and (
            self.hi is None or st.depth[st.parent[v]] < self.hi
        )

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

    def describe(self) -> str:
        return f"lengths={self.length_mode.describe()}"


@dataclass
class BuildCounters:
    """Work tally of one build: steps taken computing top, and values fed
    into the postorder merge."""

    top_steps: int = 0
    merged: int = 0


def top_keys(st: SuffixTree, oshr: OshrTree, counters: BuildCounters | None = None) -> array:
    """top_key[q] = left_ot of top(q), the deepest internal node whose label
    ends at text position q (0, the root's number, when no other does).

    The nodes ending at q are the suffix-link chain top(q), sl(top(q)), ...,
    paired with the leaves of suffixes q - depth(top(q)), ...; each pair but
    the first derives from its predecessor, so the one pair that is not
    suffix-link-derivable names top(q).  Those pairs follow the rule in the
    module docstring: for each node r but the root, each w strictly between
    sl(parent(r)) and sl(r), with the leaf of suffix j = x + 1 for every leaf
    x under r.  Outside the sentinel's wrap, depth(w) + 1 falls inside the
    edge into r, so no node on leaf x's path derives the pair.  Every such
    pair is written once.
    """
    root = st.root
    n = st.n
    parent = st.parent
    depth = st.depth
    slink = st.slink
    children = st.children
    left_ot = oshr.left_ot
    suffix_idx = st.suffix_idx
    leaf_for_suffix = st.leaf_for_suffix
    rank_to_leaf = st.rank_to_leaf
    st_left = st.st_left
    st_right = st.st_right
    top = array("q", bytes(8 * (n + 1)))
    steps = 0

    for r in range(1, st.n_nodes):
        pr = parent[r]
        base = root if pr == root else slink[pr]
        floor = depth[base]
        if children[r] is None:
            # the sentinel's leaf (suffix n) hangs from the root and wraps
            # to suffix 0, which has no predecessor: its strip is all of
            # leaf 0's path
            x = suffix_idx[r]
            j = x + 1 if x < n else 0
            w = parent[leaf_for_suffix[j]]
            starts = (j,)
        else:
            if slink[r] == root:
                continue
            w = parent[slink[r]]
            starts = None
        if depth[w] > floor:
            if starts is None:
                starts = [
                    suffix_idx[rank_to_leaf[k]] + 1 for k in range(st_left[r], st_right[r] + 1)
                ]
            while depth[w] > floor:
                dw = depth[w]
                lw = left_ot[w]
                for j in starts:
                    top[j + dw] = lw
                steps += len(starts)
                w = parent[w]
        if w != base:
            raise AssertionError("sl(parent(r)) must lie on sl(r)'s root path")

    if counters is not None:
        counters.top_steps += steps
    return top


def key_ends(oshr: OshrTree, n1: int) -> list[int]:
    """Per OSHR preorder number k: (right_ot + 1) * n1, the bound below which
    every packed value keyed inside k's interval lies."""
    right_ot = oshr.right_ot
    return [(right_ot[v] + 1) * n1 for v in oshr.preorder]


def deepest(values: list[int], ends: list[int], n1: int) -> array:
    """The OSHR-deepest keys of ascending packed values, each with its
    smallest position.

    In preorder, the keys inside a key's interval follow it directly, so a
    key is deepest exactly when the next distinct key lies past its interval.
    """
    kept = array("q")
    same = inside = 0
    for v in values:
        if v < same:
            continue  # the same key again, with a larger position
        if v < inside:
            kept.pop()
        kept.append(v)
        k = v // n1
        same = (k + 1) * n1
        inside = ends[k]
    return kept


def build_index(
    st: SuffixTree,
    oshr: OshrTree | None = None,
    config: BuildConfig | None = None,
    counters: BuildCounters | None = None,
) -> OtIndex:
    """Build R(e) for every internal node that can be a query locus,
    tallying the work on ``counters`` when given."""
    if oshr is None:
        oshr = OshrTree(st)
    if config is None:
        config = BuildConfig()
    top = top_keys(st, oshr, counters)
    n1 = st.n + 1
    ends = key_ends(oshr, n1)
    children = st.children
    suffix_idx = st.suffix_idx
    admits_locus = config.length_mode.admits_locus

    stores: dict[int, array] = {}
    # R of nodes no query reaches, kept until the parent has merged it
    transient: dict[int, array] = {}
    merged = 0
    for d in sorted(st.internal_by_depth, reverse=True):
        if d == 0:
            continue  # the root answers without a store
        for e in st.internal_by_depth[d]:
            values: list[int] = []
            for c in children[e].values():
                if children[c] is None:
                    q = suffix_idx[c]
                    if top[q]:
                        values.append(top[q] * n1 + q)
                else:
                    part = stores.get(c)
                    values += transient.pop(c, ()) if part is None else part
            values.sort()
            merged += len(values)
            kept = deepest(values, ends, n1)
            if admits_locus(st, e):
                if kept:
                    stores[e] = kept
            else:
                transient[e] = kept
    if counters is not None:
        counters.merged += merged
    return OtIndex(st, oshr, config, stores)


class OtEntry(NamedTuple):
    """A decoded value: the key node's OSHR interval, the occurrence, and the
    key node."""

    left_ot: int
    right_ot: int
    occ: int
    key_node: int


class OtIndex:
    """Per-node sorted arrays of packed values key * (n + 1) + occ.

    key is the OSHR preorder number of an internal node whose label ends at
    text position occ, and occ is an occurrence of the node's label.
    """

    __slots__ = ("st", "oshr", "config", "entries")

    # read only by perfbench/layers.py: there is no second store
    base_suffixes = MappingProxyType({})

    def __init__(self, st, oshr, config, entries):
        self.st = st
        self.oshr = oshr
        self.config = config
        self.entries: dict[int, array] = entries

    def entries_at(self, host: int) -> list[OtEntry]:
        n1 = self.st.n + 1
        pre = self.oshr.preorder
        right_ot = self.oshr.right_ot
        out = []
        for value in self.entries.get(host, ()):
            key, occ = divmod(value, n1)
            out.append(OtEntry(key, right_ot[pre[key]], occ, pre[key]))
        return out

    @property
    def total_entries(self) -> int:
        return sum(len(a) for a in self.entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, OtIndex):
            return NotImplemented
        return (
            self.st.text.data == other.st.text.data
            and self.config == other.config
            and self.entries == other.entries
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
    max_host_entries: int


def index_stats(idx: OtIndex) -> IndexStats:
    sizes = [len(a) for a in idx.entries.values()]
    return IndexStats(
        hosts=len(sizes),
        total_entries=sum(sizes),
        max_host_entries=max(sizes, default=0),
    )


def __getattr__(name: str):
    # perfbench/spans.py wraps these two by name; the serving build calls
    # neither, so they resolve to the paper builder's
    if name in ("leaf_edge_cover_suffixes", "reference_leaf_contexts"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
