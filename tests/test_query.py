"""Query pipeline: routes, witnesses, probe bounds, walk agreement."""

from __future__ import annotations

import math

import pytest

from otindex.build import BuildConfig, LengthMode, build_index
from otindex.oracle import index_for, random_text
from otindex.oshr import OshrTree
from otindex.query import (
    ROUTE_BINARY,
    ROUTE_LEAF,
    ROUTE_NOT_IN_TEXT,
    ROUTE_TRIVIAL,
    ROUTE_WALK,
    Query,
    QueryConfigError,
    locate,
    search,
    search_at,
    search_many,
    walk_search_baseline,
)
from otindex.reference import CLASSIFY_UNLINKED, ReferenceConfig
from otindex.suffix_tree import build
from otindex.text import with_sentinel

from oracle_helpers import distinct_substrings, occurrences, occurs_under


def indexed(content: bytes, config=BuildConfig()):
    """The store search answers from: built directly, or the reduced
    reference store for a ReferenceConfig."""
    st = build(with_sentinel(content))
    return st, index_for(st, OshrTree(st), config)[0]


def node_by_label(st, label: bytes) -> int:
    for v in range(st.n_nodes):
        if st.is_internal(v) and st.label(v) == label:
            return v
    raise AssertionError(f"no internal node labelled {label!r}")


def check_witness(st, pattern: bytes, i: int, witness: int):
    di = st.depth[i]
    assert witness >= 0
    assert st.in_subtree(i, st.leaf_for_suffix[witness])
    assert st.text.data[witness + di : witness + di + len(pattern)] == pattern


CONFIG_MATRIX = [
    BuildConfig(),
    ReferenceConfig(),
    ReferenceConfig(exclusion_rule_enabled=False),
    ReferenceConfig(classification_mode=CLASSIFY_UNLINKED),
    ReferenceConfig(classification_mode=CLASSIFY_UNLINKED, exclusion_rule_enabled=False),
]


class TestBananaQueries:
    def setup_method(self):
        self.st, self.idx = indexed(b"BANANA")

    def ask(self, pattern: bytes, label: bytes):
        i = self.st.root if label == b"" else node_by_label(self.st, label)
        return i, search(self.idx, Query(pattern, i))

    def test_pattern_from_root(self):
        _, res = self.ask(b"BAN", b"")
        assert res.found and res.route == ROUTE_TRIVIAL and res.witness == 0

    def test_absent_pattern(self):
        _, res = self.ask(b"NAB", b"A")
        assert not res.found and res.route == ROUTE_NOT_IN_TEXT
        _, res = self.ask(b"XYZ", b"")
        assert not res.found and res.route == ROUTE_NOT_IN_TEXT

    def test_leaf_edge_locus_hit(self):
        # NANA ends on a leaf edge; its only occurrence (position 2) follows
        # the occurrence of "A" at position 1.
        i, res = self.ask(b"NANA", b"A")
        assert res.found and res.route == ROUTE_LEAF and res.witness == 1
        check_witness(self.st, b"NANA", i, res.witness)

    def test_leaf_edge_locus_miss(self):
        # BANANA occurs only at position 0; nothing precedes it.
        _, res = self.ask(b"BANANA", b"A")
        assert not res.found and res.route == ROUTE_LEAF

    def test_internal_locus_hit_via_entry_list(self):
        # NA's store holds key ANA (it ends at 4), the deeper of the keys
        # A and ANA of its leaves 2 and 4
        i, res = self.ask(b"NA", b"A")
        assert res.found and res.route == ROUTE_BINARY
        assert res.witness == 3  # ANA at 3 = A at 3, then NA
        assert res.host_entries == 1 and res.probes >= 1
        check_witness(self.st, b"NA", i, res.witness)

    def test_internal_locus_miss(self):
        # "A"+"ANA" = AANA does not occur in BANANA.
        _, res = self.ask(b"ANA", b"A")
        assert not res.found and res.route == ROUTE_BINARY

    def test_spurious_transport_rejected(self):
        # "NA"+"ANA" = NAANA does not occur; ANA's leaves 1 and 3 have only
        # the root's label ending at them, so its store is empty.
        _, res = self.ask(b"ANA", b"NA")
        assert not res.found and res.route == ROUTE_BINARY
        assert res.host_entries == 0 and res.probes == 0

    def test_empty_pattern_is_trivially_present(self):
        i, res = self.ask(b"", b"NA")
        assert res.found and res.route == ROUTE_TRIVIAL
        check_witness(self.st, b"", i, res.witness)

    def test_leaf_start_node_rejected(self):
        leaf = self.st.leaf_for_suffix[0]
        with pytest.raises(ValueError):
            search(self.idx, Query(b"A", leaf))
        with pytest.raises(ValueError):
            walk_search_baseline(self.st, Query(b"A", leaf))


def test_sparse_store_misses_leaf_edge_loci():
    # Documented gap of the reference-leaf-only store: "ANA"+"N" occurs
    # (position 1) but its locus is a leaf edge, "N" alone has an internal
    # locus, and the preceding suffix's parent is too deep to skip that
    # locus -- so neither entry lists nor sparse base suffixes reach it.
    # The leaf-edge cover closes exactly this; the serving store, which
    # keys every leaf, never had the gap.
    st, sparse = indexed(b"BANANA", ReferenceConfig(leaf_edge_cover=False))
    ana = node_by_label(st, b"ANA")
    assert walk_search_baseline(st, Query(b"N", ana)).found
    assert not search(sparse, Query(b"N", ana)).found
    for cfg in (ReferenceConfig(), BuildConfig()):
        _, full = indexed(b"BANANA", cfg)
        res = search(full, Query(b"N", ana))
        assert res.found and res.route == ROUTE_BINARY and res.witness == 1


def test_length_mode_rejects_out_of_range_patterns():
    st, idx = indexed(b"BANANA", BuildConfig(length_mode=LengthMode.exact(2)))
    i = node_by_label(st, b"A")
    res = search(idx, Query(b"NA", i))
    assert res.found and res.witness == 3
    for bad in (b"N", b"NAN"):
        with pytest.raises(QueryConfigError):
            search(idx, Query(bad, i))
    # the empty pattern needs no index support and stays allowed
    assert search(idx, Query(b"", i)).found


def test_search_many_answers_match_references():
    st, idx = indexed(b"MISSISSIPPI")
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v)]
    # repeated nodes in mixed order, the root among them, answer pair by pair
    mixed = nodes[::-1] + nodes[1:3] + [st.root, nodes[-1], st.root]
    # SSIS, SIP and MISS occur once, so their locus is on a leaf edge
    for pattern in (b"SSI", b"ISS", b"P", b"Q", b"", b"SSIS", b"SIP", b"MISS"):
        count = len(occurrences(st.text.data, pattern))
        locus = locate(st, pattern).locus_below
        for batch in (nodes, mixed):
            got = search_many(idx, pattern, batch)
            assert len(got) == len(batch)
            for i, res in zip(batch, got):
                assert res.found == walk_search_baseline(st, Query(pattern, i)).found
                if res.found:
                    check_witness(st, pattern, i, res.witness)
                if count == 0:
                    route = ROUTE_NOT_IN_TEXT
                elif pattern == b"" or i == st.root:
                    route = ROUTE_TRIVIAL
                elif count == 1:
                    route = ROUTE_LEAF
                else:
                    route = ROUTE_BINARY
                    assert res.found == scan_store(idx, locus, i)
                assert res.route == route, (pattern, st.label(i))


@pytest.mark.parametrize("pattern", [b"SSI", b"SIP", b"Q", b""], ids=lambda p: p.decode() or "empty")
def test_non_internal_start_nodes_rejected(pattern):
    # SSI is answered by binary search, SIP on a leaf edge, Q is not in the
    # text; every route and the empty pattern check the start node first
    st, idx = indexed(b"MISSISSIPPI")
    for bad in (st.leaf_for_suffix[0], -1, st.n_nodes):
        with pytest.raises(ValueError):
            search(idx, Query(pattern, bad))
        with pytest.raises(ValueError):
            search_many(idx, pattern, [st.root, bad])


@pytest.mark.parametrize("content", [b"BANANA", b"MISSISSIPPI", b"AAAAAA", b"ABAB"])
@pytest.mark.parametrize("cfg", CONFIG_MATRIX, ids=lambda c: c.describe())
def test_exhaustive_agreement_with_walk_baseline(content, cfg):
    st, idx = indexed(content, cfg)
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v)]
    patterns = sorted(distinct_substrings(content, len(content)))
    patterns += [b"", content + b"X", b"Z"]
    for pattern in patterns:
        expected = [walk_search_baseline(st, Query(pattern, i)) for i in nodes]
        got = search_many(idx, pattern, nodes)
        for i, res, ref in zip(nodes, got, expected):
            assert res.found == ref.found, (pattern, st.label(i))
            if res.found:
                check_witness(st, pattern, i, res.witness)
                assert occurs_under(st.text.data, st.label(i), pattern)
            else:
                assert not occurs_under(st.text.data, st.label(i), pattern)


SEEDS = [(31, 64, 2), (32, 96, 3), (33, 128, 4), (34, 160, 2)]


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_random_texts_agree_with_walk(seed, n, sigma):
    text = random_text(seed, n, sigma)
    st = build(text)
    idx = build_index(st)
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v)]
    patterns = sorted(distinct_substrings(text.content, 8))
    for pattern in patterns:
        got = search_many(idx, pattern, nodes)
        for i, res in zip(nodes, got):
            ref = walk_search_baseline(st, Query(pattern, i))
            assert res.found == ref.found, (pattern, st.label(i))


def scan_store(idx, locus: int, i: int) -> bool:
    """Reference for step 4: test every key stored at the locus."""
    lo, hi = idx.oshr.left_ot[i], idx.oshr.right_ot[i]
    return any(lo <= e.left_ot <= hi for e in idx.entries_at(locus))


@pytest.mark.parametrize(
    "cfg", [BuildConfig(), ReferenceConfig(leaf_edge_cover=False)], ids=["serving", "sparse"]
)
@pytest.mark.parametrize(
    "text",
    [with_sentinel(b"BANANA")] + [random_text(*args) for args in SEEDS[:3]],
    ids=lambda t: t.content[:12].decode(),
)
def test_binary_search_agrees_with_linear_scan(text, cfg):
    st = build(text)
    idx, _ = index_for(st, OshrTree(st), cfg)
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v)]
    answers = set()
    for pattern in sorted(distinct_substrings(text.content, 8)):
        outcome = locate(st, pattern)
        for i in nodes:
            res = search_at(idx, outcome, pattern, i)
            if res.route == ROUTE_BINARY:
                answers.add(res.found)
                assert res.found == scan_store(idx, outcome.locus_below, i)
    assert answers == {False, True}


@pytest.mark.parametrize("seed,n,sigma", SEEDS[:2])
def test_found_propagates_along_suffix_links(seed, n, sigma):
    # If label(i)+p occurs then label(sl(i))+p occurs: dropping the first
    # symbol of a witness occurrence yields one for the suffix-link target.
    text = random_text(seed, n, sigma)
    st = build(text)
    idx = build_index(st)
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v) and v != st.root]
    for pattern in sorted(distinct_substrings(text.content, 5)):
        got = search_many(idx, pattern, nodes)
        by_node = dict(zip(nodes, got))
        for i, res in by_node.items():
            if res.found and st.slink[i] != st.root:
                assert by_node[st.slink[i]].found, (pattern, st.label(i))


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_probe_count_is_logarithmic(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    idx = build_index(st)
    nodes = [v for v in range(st.n_nodes) if st.is_internal(v)]
    for pattern in sorted(distinct_substrings(random_text(seed, n, sigma).content, 6)):
        for res in search_many(idx, pattern, nodes):
            if res.host_entries:
                assert res.probes <= math.ceil(math.log2(res.host_entries)) + 1


def test_walk_baseline_counts_comparisons():
    from otindex.suffix_tree import WalkCounters

    st, _ = indexed(b"BANANA")
    counters = WalkCounters()
    res = walk_search_baseline(st, Query(b"NA", node_by_label(st, b"A")), counters)
    assert res.found and res.route == ROUTE_WALK
    assert counters.symbol_cmp > 0
