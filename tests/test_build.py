"""Index construction: special detection, base paths, entries, windows."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from otindex.build import (
    CLASSIFY_LINKED,
    CLASSIFY_UNLINKED,
    ORIGIN_BASE,
    ORIGIN_SKIPPED,
    ORIGIN_SKIPPED_XREF,
    BuildConfig,
    BuildError,
    LengthMode,
    OtIndex,
    ancestor_depth_masks,
    build_index,
    detect_special_nodes,
    enumerate_base_paths,
    index_stats,
    last_extent_path,
    parse_length_mode,
)
from otindex.oracle import random_text
from otindex.oshr import (
    OshrTree,
    reference_internal_nodes,
    reference_leaf_contexts,
    skipped_nodes,
)
from otindex.suffix_tree import build
from otindex.text import with_sentinel

from oracle_helpers import naive_derivable, occurrences, sl_chain_reaches


def tree(content: bytes):
    return build(with_sentinel(content))


def node_by_label(st, label: bytes) -> int:
    for v in range(st.n_nodes):
        if st.is_internal(v) and st.label(v) == label:
            return v
    raise AssertionError(f"no internal node labelled {label!r}")


def internal_nodes(st):
    return [v for v in range(st.n_nodes) if st.is_internal(v)]


def entry_digest(st, idx):
    """host label -> list of (key label, occ), preserving list order."""
    out = {}
    for host in idx.entries:
        out[st.label(host)] = [(st.label(e.key_node), e.occ) for e in idx.entries_at(host)]
    return out


SEEDS = [(21, 48, 2), (22, 64, 3), (23, 80, 4), (24, 100, 2), (25, 128, 3)]


# ---------------------------------------------------------------------------
# length modes
# ---------------------------------------------------------------------------


class TestLengthMode:
    def test_constructors_and_admits(self):
        assert LengthMode.all_lengths().admits(1)
        assert LengthMode.all_lengths().admits(10**9)
        exact = LengthMode.exact(5)
        assert exact.admits(5) and not exact.admits(4) and not exact.admits(6)
        am = LengthMode.at_most(3)
        assert am.admits(1) and am.admits(3) and not am.admits(4)
        rg = LengthMode.between(2, 4)
        assert not rg.admits(1) and rg.admits(2) and rg.admits(4) and not rg.admits(5)

    def test_validation(self):
        with pytest.raises(BuildError):
            LengthMode(0, None)
        with pytest.raises(BuildError):
            LengthMode.between(5, 3)

    def test_parse_round_trip(self):
        for text in ("all", "exact:7", "atmost:4", "range:2:9"):
            assert parse_length_mode(text).describe() == text
        for bad in ("", "exact", "exact:x", "range:3", "sometimes"):
            with pytest.raises(BuildError):
                parse_length_mode(bad)

    def test_config_validation(self):
        with pytest.raises(BuildError):
            BuildConfig(classification_mode="nonsense")


# ---------------------------------------------------------------------------
# special node detection (frozen)
# ---------------------------------------------------------------------------


class TestDetectSpecials:
    def detect(self, content: bytes, mode: str):
        st = tree(content)
        oshr = OshrTree(st)
        ctxs = reference_leaf_contexts(st)
        ref = reference_internal_nodes(st)
        return st, detect_special_nodes(st, oshr, ctxs, ref, mode)

    def test_banana_linked_mode(self):
        st, sp = self.detect(b"BANANA", CLASSIFY_LINKED)
        assert {st.label(w) for w in sp.primary} == {b"A"}
        assert sp.xref == {}
        # the single primary node was skipped by the context at x=0 (leaf A = leaf of suffix 0)
        (leaves,) = sp.primary.values()
        assert [st.suffix_idx[e] for e in leaves] == [0]

    def test_banana_unlinked_mode(self):
        st, sp = self.detect(b"BANANA", CLASSIFY_UNLINKED)
        assert {st.label(w) for w in sp.primary} == {b"ANA"}
        assert sp.xref == {}
        (leaves,) = sp.primary.values()
        assert sorted(st.suffix_idx[e] for e in leaves) == [0, 2]

    def test_no_contexts_no_specials(self):
        for mode in (CLASSIFY_LINKED, CLASSIFY_UNLINKED):
            st, sp = self.detect(b"AB", mode)
            assert sp.primary == {} and sp.xref == {} and sp.by_ref_leaf == []

    def test_mississippi_xref_class(self):
        # "S" carries cross-reference internal nodes but is never skipped,
        # so the xref class stays empty; primary differs by mode.
        st, sp = self.detect(b"MISSISSIPPI", CLASSIFY_LINKED)
        assert {st.label(w) for w in sp.primary} == {b"I"}
        assert sp.xref == {}
        st, sp = self.detect(b"MISSISSIPPI", CLASSIFY_UNLINKED)
        assert {st.label(w) for w in sp.primary} == {b"ISSI", b"P"}

    @pytest.mark.parametrize("seed,n,sigma", SEEDS)
    @pytest.mark.parametrize("mode", [CLASSIFY_LINKED, CLASSIFY_UNLINKED])
    def test_matches_direct_definition(self, seed, n, sigma, mode):
        st = build(random_text(seed, n, sigma))
        oshr = OshrTree(st)
        ctxs = reference_leaf_contexts(st)
        ref = reference_internal_nodes(st)
        sp = detect_special_nodes(st, oshr, ctxs, ref, mode)
        want_primary: dict[int, list[int]] = {}
        want_xref: dict[int, list[int]] = {}
        for ctx in ctxs:
            for w in skipped_nodes(st, ctx):
                linked = oshr.is_oshr_internal(w)
                has_xref = bool(ref.get(w))
                ok = linked if mode == CLASSIFY_LINKED else (not linked and not has_xref)
                if ok:
                    want_primary.setdefault(w, []).append(ctx.leaf_a)
                if not linked and has_xref:
                    want_xref.setdefault(w, []).append(ctx.leaf_a)
        assert sp.primary == want_primary
        assert sp.xref == want_xref
        assert not (sp.primary.keys() & sp.xref.keys())
        # reverse lists are rank-sorted and mention exactly the same pairs
        ranks = [r for r, _, _ in sp.by_ref_leaf]
        assert ranks == sorted(ranks)
        flat = {
            (leaf, node)
            for _, leaf, items in sp.by_ref_leaf
            for node, _origin in items
        }
        want_flat = {
            (leaf, node)
            for node, leaves in [*want_primary.items(), *want_xref.items()]
            for leaf in leaves
        }
        assert flat == want_flat


# ---------------------------------------------------------------------------
# last extent path
# ---------------------------------------------------------------------------


class TestLastExtentPath:
    def test_banana_paths(self):
        st = tree(b"BANANA")
        a, na, ana = (node_by_label(st, x) for x in (b"A", b"NA", b"ANA"))
        assert last_extent_path(st, st.root, a) == [a]
        assert last_extent_path(st, a, ana) == [na]
        assert [st.label(v) for v in last_extent_path(st, st.root, ana)] == [b"A", b"ANA"]

    def test_mississippi_path(self):
        st = tree(b"MISSISSIPPI")
        i, issi = node_by_label(st, b"I"), node_by_label(st, b"ISSI")
        assert [st.label(v) for v in last_extent_path(st, i, issi)] == [b"S", b"SSI"]

    def test_rejects_non_ancestor(self):
        st = tree(b"BANANA")
        a, na = node_by_label(st, b"A"), node_by_label(st, b"NA")
        with pytest.raises(BuildError):
            last_extent_path(st, a, na)
        with pytest.raises(BuildError):
            last_extent_path(st, a, a)

    @pytest.mark.parametrize("seed,n,sigma", SEEDS)
    def test_walk_agrees_with_suffix_link_jumps(self, seed, n, sigma):
        st = build(random_text(seed, n, sigma))
        nodes = internal_nodes(st)
        for top in nodes:
            for bottom in nodes:
                if bottom == top or not st.in_subtree(top, bottom):
                    continue
                path = last_extent_path(st, top, bottom)
                # the path always ends at bottom pushed through depth(top) links
                omega = bottom
                for _ in range(st.depth[top]):
                    omega = st.slink[omega]
                assert path[-1] == omega
                assert st.depth[omega] == st.depth[bottom] - st.depth[top]
                # the node sequence is exactly omega's ancestry above the root
                expect = []
                w = omega
                while w != st.root:
                    expect.append(w)
                    w = st.parent[w]
                assert path == expect[::-1]


# ---------------------------------------------------------------------------
# base path enumeration
# ---------------------------------------------------------------------------


class TestEnumerateBasePaths:
    def test_banana_facts(self):
        st = tree(b"BANANA")
        oshr = OshrTree(st)
        a, na, ana = (node_by_label(st, x) for x in (b"A", b"NA", b"ANA"))
        assert enumerate_base_paths(st, oshr, a) == [ana]
        root_bottoms = {st.label(b) for b in enumerate_base_paths(st, oshr, st.root)}
        assert root_bottoms == {b"A", b"ANA"}  # (root, "NA") is derivable via "A"->"ANA"
        assert enumerate_base_paths(st, oshr, na) == []
        assert enumerate_base_paths(st, oshr, ana) == []

    def test_indexed_paths_are_omitted(self):
        st = tree(b"BANANA")
        oshr = OshrTree(st)
        a, ana = node_by_label(st, b"A"), node_by_label(st, b"ANA")
        assert enumerate_base_paths(st, oshr, a, indexed_paths={(a, ana)}) == []

    @pytest.mark.parametrize("seed,n,sigma", SEEDS)
    def test_matches_naive_derivability(self, seed, n, sigma):
        st = build(random_text(seed, n, sigma))
        oshr = OshrTree(st)
        nodes = internal_nodes(st)
        for v in nodes:
            got = set(enumerate_base_paths(st, oshr, v))
            want = {
                b
                for b in nodes
                if b != v
                and st.in_subtree(v, b)
                and not naive_derivable(st, oshr, v, b)
            }
            assert got == want, st.label(v)


# ---------------------------------------------------------------------------
# full build: frozen corpora
# ---------------------------------------------------------------------------


class TestBuildBanana:
    def setup_method(self):
        self.st = tree(b"BANANA")
        self.oshr = OshrTree(self.st)
        self.idx = build_index(self.st, self.oshr)

    def test_host_lists_exactly(self):
        digest = entry_digest(self.st, self.idx)
        assert digest == {
            b"A": [(b"", 1)],
            b"NA": [(b"A", 4)],
            b"ANA": [(b"", 3)],
        }
        assert self.idx.origin_counts == {ORIGIN_BASE: 2, ORIGIN_SKIPPED: 1, ORIGIN_SKIPPED_XREF: 0}

    def test_intervals_stored_from_key_nodes(self):
        for host, entry in self.idx.iter_host_entries():
            assert entry.left_ot == self.oshr.left_ot[entry.key_node]
            assert entry.right_ot == self.oshr.right_ot[entry.key_node]

    def test_base_suffix_sets(self):
        # reference-leaf records {A: 1, ANA: {1, 3}} plus the one leaf-edge
        # cover record: the non-derivable pair (ANA, leaf 1) has image
        # occurrence 1 + 3 = 4, recorded at the image leaf's parent NA
        got = {self.st.label(k): self.idx.base_suffixes_at(k) for k in self.idx.base_suffixes}
        assert got == {b"A": [1], b"ANA": [1, 3], b"NA": [4]}

    def test_sparse_store_without_leaf_edge_cover(self):
        idx = build_index(self.st, self.oshr, BuildConfig(leaf_edge_cover=False))
        got = {self.st.label(k): idx.base_suffixes_at(k) for k in idx.base_suffixes}
        assert got == {b"A": [1], b"ANA": [1, 3]}
        # entry lists are unaffected by the cover knob
        assert idx.entries == self.idx.entries

    def test_counts(self):
        assert self.idx.origin_counts == {ORIGIN_BASE: 2, ORIGIN_SKIPPED: 1, ORIGIN_SKIPPED_XREF: 0}
        stats = index_stats(self.idx)
        assert stats.total_entries == 3
        assert stats.hosts == 3
        assert stats.origin_counts["base-path"] == 2
        assert stats.base_suffixes == 4
        assert stats.leaf_cover_suffixes == 1

    def test_unlinked_mode_host_lists(self):
        st = self.st
        idx = build_index(st, self.oshr, BuildConfig(classification_mode=CLASSIFY_UNLINKED))
        assert entry_digest(st, idx) == {
            b"A": [(b"", 5)],
            b"NA": [(b"NA", 4)],
            b"ANA": [(b"", 1)],
        }
        assert idx.origin_counts == {ORIGIN_BASE: 1, ORIGIN_SKIPPED: 2, ORIGIN_SKIPPED_XREF: 0}


def test_build_single_run_text():
    # in a single-letter run every later (ancestor, leaf) pair derives
    # through suffix links, so only the suffix-0 boundary pairs contribute
    # cover records: (AAA, leaf 0) -> occurrence 3 at node A,
    # (AA, leaf 0) -> occurrence 2 at node AA, (A, leaf 0) -> 1 at AAA (a
    # duplicate of the reference-leaf record)
    st = tree(b"AAAA")
    idx = build_index(st)
    assert entry_digest(st, idx) == {
        b"A": [(b"AA", 3)],
        b"AA": [(b"A", 2)],
        b"AAA": [(b"", 1)],
    }
    assert idx.origin_counts == {ORIGIN_BASE: 3, ORIGIN_SKIPPED: 0, ORIGIN_SKIPPED_XREF: 0}
    assert {st.label(k): idx.base_suffixes_at(k) for k in idx.base_suffixes} == {
        b"A": [3],
        b"AA": [2],
        b"AAA": [1],
    }
    sparse = build_index(st, None, BuildConfig(leaf_edge_cover=False))
    assert {st.label(k): sparse.base_suffixes_at(k) for k in sparse.base_suffixes} == {
        b"AAA": [1]
    }


def test_leaf_edge_cover_banana():
    from otindex.build import leaf_edge_cover_suffixes

    st = tree(b"BANANA")
    _, cover = leaf_edge_cover_suffixes(st, OshrTree(st))
    assert {st.label(k): sorted(v) for k, v in cover.items()} == {b"NA": [4]}


def test_leaf_edge_cover_unique_occurrence_text():
    # "ABP" occurs once, ending on a leaf edge, while "P" has an internal
    # locus; the cover must record occurrence 2 at both nodes of leaf(2)'s
    # path so a pattern-under-"AB" query can be answered from the store.
    from otindex.build import leaf_edge_cover_suffixes

    st = tree(b"ABPZXBPZABQPW")
    _, cover = leaf_edge_cover_suffixes(st, OshrTree(st))
    p_node = node_by_label(st, b"P")
    pz_node = node_by_label(st, b"PZ")
    assert 2 in cover[p_node]
    assert 2 in cover[pz_node]


# ---------------------------------------------------------------------------
# entry soundness and structure on random texts
# ---------------------------------------------------------------------------

CONFIG_MATRIX = [
    BuildConfig(),
    BuildConfig(exclusion_rule_enabled=False),
    BuildConfig(classification_mode=CLASSIFY_UNLINKED),
    BuildConfig(classification_mode=CLASSIFY_UNLINKED, exclusion_rule_enabled=False),
]


def check_entry_soundness(st, idx):
    data = st.text.data
    for host, entry in idx.iter_host_entries():
        dh = st.depth[host]
        assert data[entry.occ : entry.occ + dh] == st.label(host)
        w = entry.occ - st.depth[entry.key_node]
        assert w >= 0
        assert st.in_subtree(entry.key_node, st.leaf_for_suffix[w])


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
@pytest.mark.parametrize("cfg", CONFIG_MATRIX, ids=lambda c: c.describe())
def test_entries_sound_and_sorted(seed, n, sigma, cfg):
    st = build(random_text(seed, n, sigma))
    oshr = OshrTree(st)
    idx = build_index(st, oshr, cfg)
    check_entry_soundness(st, idx)
    for host in idx.entries:
        rows = idx.entries_at(host)
        lefts = [e.left_ot for e in rows]
        assert lefts == sorted(lefts) and len(set(lefts)) == len(lefts)
        keys = [e.key_node for e in rows]
        assert len(set(keys)) == len(keys)
        pairs = [(e.left_ot, e.right_ot) for e in rows]
        assert pairs == sorted(pairs)
    # origin counts agree with the stored entries
    assert sum(idx.origin_counts.values()) == idx.total_entries


@pytest.mark.parametrize("seed,n,sigma", SEEDS[:3])
def test_base_suffix_store_matches_oshr_layer(seed, n, sigma):
    from otindex.oshr import base_suffixes_from_reference_leaves

    st = build(random_text(seed, n, sigma))
    sparse = build_index(st, None, BuildConfig(leaf_edge_cover=False))
    raw = base_suffixes_from_reference_leaves(st, reference_leaf_contexts(st))
    assert set(sparse.base_suffixes) == set(raw)
    for node in sparse.base_suffixes:
        assert sparse.base_suffixes_at(node) == sorted(e.suffix for e in raw[node])
    # the default store is a superset, and every record is a sound
    # occurrence of its node's label
    full = build_index(st)
    for node in sparse.base_suffixes:
        assert set(sparse.base_suffixes_at(node)) <= set(full.base_suffixes_at(node))
    for node in full.base_suffixes:
        for s in full.base_suffixes_at(node):
            assert st.text.data[s : s + st.depth[node]] == st.label(node)
            assert st.in_subtree(node, st.leaf_for_suffix[s])


# ---------------------------------------------------------------------------
# base-suffix keys: containment of the stored key == the subtree test
# ---------------------------------------------------------------------------


def reference_base_suffix_sets(st, leaf_edge_cover: bool) -> dict[int, set[int]]:
    """Unkeyed base-suffix sets: reference-leaf records plus, when enabled,
    the leaf-edge cover, computed pair by pair as the store's definition
    reads."""
    from otindex.oshr import base_suffixes_from_reference_leaves

    out = {
        node: {r.suffix for r in recs}
        for node, recs in base_suffixes_from_reference_leaves(
            st, reference_leaf_contexts(st)
        ).items()
    }
    if not leaf_edge_cover:
        return out
    anc = ancestor_depth_masks(st)
    for s in range(st.n + 1):
        f = st.leaf_for_suffix[s]
        blocked = anc[st.leaf_for_suffix[s - 1]] if s else 0
        v = st.parent[f]
        while v != st.root:
            d = st.depth[v]
            if not s or not (blocked >> (d + 1)) & 1:
                q = s + d
                w = st.parent[st.leaf_for_suffix[q]]
                while st.depth[w] > st.depth[st.parent[f]] - d:
                    out.setdefault(w, set()).add(q)
                    w = st.parent[w]
            v = st.parent[v]
    return out


@pytest.mark.parametrize("cover", [True, False], ids=["cover", "sparse"])
@pytest.mark.parametrize(
    "text",
    [with_sentinel(b"BANANA"), with_sentinel(b"MISSISSIPPI"), with_sentinel(b"AAAA")]
    + [random_text(seed, n, sigma) for seed, n, sigma in SEEDS],
    ids=lambda t: t.content[:12].decode(),
)
def test_decoded_base_suffixes_match_reference_sets(text, cover):
    st = build(text)
    idx = build_index(st, None, BuildConfig(leaf_edge_cover=cover))
    want = reference_base_suffix_sets(st, cover)
    assert set(idx.base_suffixes) == set(want)
    for node, qs in want.items():
        assert idx.base_suffixes_at(node) == sorted(qs)


@settings(deadline=None, max_examples=60)
@given(
    st_.integers(min_value=2, max_value=4).flatmap(
        lambda sig: st_.text(alphabet="ABCD"[:sig], min_size=1, max_size=40)
    )
)
def test_base_suffix_key_containment_is_the_subtree_test(content):
    st = build(with_sentinel(content.encode()))
    oshr = OshrTree(st)
    idx = build_index(st, oshr)
    n1 = st.n + 1
    nodes = internal_nodes(st)
    for arr in idx.base_suffixes.values():
        assert list(arr) == sorted(arr)
        for packed in arr:
            key, s = divmod(packed, n1)
            for i in nodes:
                di = st.depth[i]
                under = s >= di and st.in_subtree(i, st.leaf_for_suffix[s - di])
                assert (oshr.left_ot[i] <= key <= oshr.right_ot[i]) == under


# ---------------------------------------------------------------------------
# length windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed,n,sigma", SEEDS[:3])
@pytest.mark.parametrize("length", [2, 3, 5])
def test_exact_mode_hosts_are_first_at_depth(seed, n, sigma, length):
    st = build(random_text(seed, n, sigma))
    oshr = OshrTree(st)
    idx = build_index(st, oshr, BuildConfig(length_mode=LengthMode.exact(length)))
    for host in idx.entries:
        assert st.depth[host] >= length
        assert st.depth[st.parent[host]] <= length - 1


@pytest.mark.parametrize("seed,n,sigma", SEEDS[:3])
def test_narrow_modes_select_subsets_of_all_mode(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    oshr = OshrTree(st)
    full = build_index(st, oshr)
    everything = {(host, e.key_node, e.occ) for host, e in full.iter_host_entries()}
    for mode in (LengthMode.exact(3), LengthMode.at_most(4), LengthMode.between(2, 5)):
        narrowed = build_index(st, oshr, BuildConfig(length_mode=mode))
        sub = {(host, e.key_node, e.occ) for host, e in narrowed.iter_host_entries()}
        assert sub <= everything
        # base suffixes are unaffected by the length mode
        assert narrowed.base_suffixes == full.base_suffixes


# ---------------------------------------------------------------------------
# key reachability: every entry's key transports to the hosts it serves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed,n,sigma", SEEDS[:3])
def test_entry_keys_reach_queries_via_suffix_links(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    oshr = OshrTree(st)
    idx = build_index(st, oshr)
    for host, entry in idx.iter_host_entries():
        v = entry.key_node
        # the stored interval is v's, so containment holds exactly for the
        # nodes i that v's suffix-link chain passes through
        for i in internal_nodes(st):
            contained = (
                oshr.left_ot[i] <= entry.left_ot and entry.right_ot <= oshr.right_ot[i]
            )
            assert contained == sl_chain_reaches(st, v, i)


def test_ancestor_masks_match_walks():
    st = tree(b"MISSISSIPPI")
    masks = ancestor_depth_masks(st)
    for v in internal_nodes(st):
        want = 0
        if v != st.root:
            w = st.parent[v]
            while w != st.root:
                want |= 1 << st.depth[w]
                w = st.parent[w]
        assert masks[v] == want


# ---------------------------------------------------------------------------
# equality of OtIndex values
# ---------------------------------------------------------------------------


def test_index_equality_semantics():
    st = tree(b"BANANA")
    a = build_index(st)
    b = build_index(build(with_sentinel(b"BANANA")))
    assert a == b
    c = build_index(st, None, BuildConfig(exclusion_rule_enabled=False))
    assert (a == c) is (a.entries == c.entries and a.config == c.config)
    assert a != build_index(tree(b"BANANB"))
