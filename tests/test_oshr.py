"""OSHR tree, interval numbering, and reference-context bookkeeping."""

from __future__ import annotations

import pytest

from otindex.oracle import random_text
from otindex.oshr import (
    OshrTree,
    base_suffixes_from_reference_leaves,
    reference_internal_nodes,
    reference_leaf_contexts,
    skipped_nodes,
)
from otindex.suffix_tree import SuffixTree, build
from otindex.text import with_sentinel

from oracle_helpers import DEGENERATE_TEXTS


def tree(content: bytes) -> SuffixTree:
    return build(with_sentinel(content))


def node_by_label(st: SuffixTree, label: bytes) -> int:
    for v in range(st.n_nodes):
        if st.is_internal(v) and st.label(v) == label:
            return v
    raise AssertionError(f"no internal node labelled {label!r}")


def internal_nodes(st: SuffixTree) -> list[int]:
    return [v for v in range(st.n_nodes) if st.is_internal(v)]


# ---------------------------------------------------------------------------
# frozen corpora
# ---------------------------------------------------------------------------


class TestBananaOshr:
    def setup_method(self):
        self.st = tree(b"BANANA")
        self.oshr = OshrTree(self.st)
        self.ids = {lbl: node_by_label(self.st, lbl) for lbl in (b"", b"A", b"NA", b"ANA")}

    def test_chain_shape(self):
        st, oshr, ids = self.st, self.oshr, self.ids
        assert oshr.children.get(st.root) == [ids[b"A"]]
        assert oshr.children.get(ids[b"A"]) == [ids[b"NA"]]
        assert oshr.children.get(ids[b"NA"]) == [ids[b"ANA"]]
        assert not oshr.children.get(ids[b"ANA"])

    def test_classification(self):
        oshr, ids = self.oshr, self.ids
        assert oshr.is_oshr_internal(ids[b""])
        assert oshr.is_oshr_internal(ids[b"A"])
        assert oshr.is_oshr_internal(ids[b"NA"])
        assert not oshr.is_oshr_internal(ids[b"ANA"])
        assert oshr.n_oshr_leaves == 1

    def test_intervals_run_down_the_chain(self):
        oshr, ids = self.oshr, self.ids
        pairs = {lbl: (oshr.left_ot[v], oshr.right_ot[v]) for lbl, v in self.ids.items()}
        assert pairs[b""] == (0, 3)
        assert pairs[b"A"] == (1, 3)
        assert pairs[b"NA"] == (2, 3)
        assert pairs[b"ANA"] == (3, 3)

    def test_contexts(self):
        st = self.st
        ctxs = reference_leaf_contexts(st)
        assert [c.x for c in ctxs] == [0, 2]
        by_x = {c.x: c for c in ctxs}
        assert by_x[0].b == st.root
        assert st.label(by_x[0].d) == b"ANA"
        assert st.label(by_x[2].b) == b"NA"
        assert st.label(by_x[2].d) == b"ANA"

    def test_skipped_nodes(self):
        st = self.st
        by_x = {c.x: c for c in reference_leaf_contexts(st)}
        assert [st.label(w) for w in skipped_nodes(st, by_x[0])] == [b"A", b"ANA"]
        assert [st.label(w) for w in skipped_nodes(st, by_x[2])] == [b"ANA"]

    def test_base_suffixes(self):
        st = self.st
        stored = base_suffixes_from_reference_leaves(st, reference_leaf_contexts(st))
        as_labels = {st.label(w): sorted(e.suffix for e in lst) for w, lst in stored.items()}
        assert as_labels == {b"A": [1], b"ANA": [1, 3]}
        for w, lst in stored.items():
            for e in lst:
                assert st.suffix_idx[e.ref_leaf] == e.suffix - 1

    def test_no_reference_internal_nodes(self):
        assert reference_internal_nodes(self.st) == {}


class TestMississippiOshr:
    def setup_method(self):
        self.st = tree(b"MISSISSIPPI")
        self.oshr = OshrTree(self.st)

    def ids(self, *labels: bytes) -> dict[bytes, int]:
        return {lbl: node_by_label(self.st, lbl) for lbl in labels}

    def test_oshr_leaves(self):
        st, oshr = self.st, self.oshr
        leaves = {st.label(v) for v in internal_nodes(st) if not oshr.is_oshr_internal(v)}
        assert leaves == {b"ISSI", b"P", b"S"}
        assert oshr.n_oshr_leaves == 3

    def test_children_sets(self):
        st, oshr = self.st, self.oshr
        ids = self.ids(b"", b"I", b"P", b"S", b"SI", b"SSI", b"ISSI")
        as_labels = {
            st.label(v): {st.label(c) for c in kids} for v, kids in oshr.children.items()
        }
        assert as_labels == {
            b"": {b"I", b"P", b"S"},
            b"I": {b"SI"},
            b"SI": {b"SSI"},
            b"SSI": {b"ISSI"},
        }
        for kids in oshr.children.values():
            assert kids == sorted(kids)
        assert oshr.n_members == 7
        del ids

    def test_context_positions(self):
        ctxs = reference_leaf_contexts(self.st)
        assert [c.x for c in ctxs] == [0, 3, 7, 8, 9]

    def test_base_suffixes(self):
        st = self.st
        stored = base_suffixes_from_reference_leaves(st, reference_leaf_contexts(st))
        as_labels = {st.label(w): sorted(e.suffix for e in lst) for w, lst in stored.items()}
        assert as_labels == {b"I": [1, 10], b"ISSI": [1, 4], b"P": [8, 9]}

    def test_reference_internal_nodes(self):
        st = self.st
        recorded = reference_internal_nodes(st)
        as_labels = {st.label(w): {st.label(r) for r in rs} for w, rs in recorded.items()}
        assert as_labels == {b"S": {b"ISSI", b"SSI"}}


def test_single_letter_run():
    st = tree(b"AAAA")
    oshr = OshrTree(st)
    # chain of suffix links: AAA -> AA -> A -> root, no branching anywhere
    assert oshr.n_oshr_leaves == 1
    deepest = node_by_label(st, b"AAA")
    assert oshr.left_ot[deepest] == oshr.right_ot[deepest] == 3
    # suffixes 0 and 1 both end under "AAA", but sl("AAA") = "AA" != "AAA",
    # so the pair (0, 1) is a context with B = D = "AAA"
    ctxs = reference_leaf_contexts(st)
    assert [(c.x, st.label(c.b), st.label(c.d)) for c in ctxs] == [(0, b"AAA", b"AAA")]
    assert [st.label(w) for w in skipped_nodes(st, ctxs[0])] == [b"AAA"]


def test_two_distinct_letters():
    st = tree(b"AB")
    oshr = OshrTree(st)
    # the only internal node is the root, which counts as OSHR-internal
    # only when something links to it; here nothing does
    assert oshr.n_members == 1
    assert oshr.left_ot[st.root] == oshr.right_ot[st.root] == 0
    assert not oshr.is_oshr_internal(st.root)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

SEEDS = [(11, 64, 2), (12, 96, 3), (13, 128, 4), (14, 200, 2), (15, 256, 5), (16, 300, 3)]

# the random texts under their seed ids, then texts whose per-depth rosters,
# which the numbering walks, are the most uneven
NUMBERING_TEXTS = [
    pytest.param(random_text(seed, n, sigma), id=f"{seed}-{n}-{sigma}") for seed, n, sigma in SEEDS
] + [pytest.param(with_sentinel(c), id=name) for name, c in DEGENERATE_TEXTS.items()]


@pytest.mark.parametrize("t", NUMBERING_TEXTS)
def test_containment_matches_suffix_link_reachability(t):
    st = build(t)
    oshr = OshrTree(st)
    nodes = internal_nodes(st)
    for v in nodes:
        chain = {v}  # the nodes suffix links reach from v, the root included
        u = v
        while u != st.root:
            u = st.slink[u]
            chain.add(u)
        for anc in nodes:
            contained = oshr.left_ot[anc] <= oshr.left_ot[v] <= oshr.right_ot[anc]
            assert contained == (anc in chain), (st.label(anc), st.label(v))


@pytest.mark.parametrize("t", NUMBERING_TEXTS)
def test_interval_invariants(t):
    st = build(t)
    oshr = OshrTree(st)
    nodes = internal_nodes(st)
    lefts = sorted(oshr.left_ot[v] for v in nodes)
    assert lefts == list(range(len(nodes)))
    for v in nodes:
        kids = oshr.children.get(v, [])
        assert kids == sorted(kids)
        if kids:
            assert oshr.left_ot[kids[0]] == oshr.left_ot[v] + 1
            assert oshr.right_ot[v] == oshr.right_ot[kids[-1]]
            for a, b in zip(kids, kids[1:]):
                assert oshr.left_ot[b] == oshr.right_ot[a] + 1
        else:
            assert oshr.left_ot[v] == oshr.right_ot[v]
    # preorder inverts the left ends
    assert len(oshr.preorder) == oshr.n_members
    for v in nodes:
        assert oshr.preorder[oshr.left_ot[v]] == v


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_contexts_match_direct_definition(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    got = {(c.x, c.b, c.d) for c in reference_leaf_contexts(st)}
    expected = set()
    for x in range(st.n):
        b = st.parent[st.leaf_for_suffix[x]]
        d = st.parent[st.leaf_for_suffix[x + 1]]
        sl_b = st.root if b == st.root else st.slink[b]
        if sl_b != d:
            expected.add((x, b, d))
    assert got == expected


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_skipped_nodes_are_the_window_below_slb(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    for ctx in reference_leaf_contexts(st):
        sl_b = st.root if ctx.b == st.root else st.slink[ctx.b]
        ws = skipped_nodes(st, ctx)
        assert ws, "a context always skips at least D"
        assert ws[-1] == ctx.d
        depths = [st.depth[w] for w in ws]
        assert depths == sorted(depths)
        assert depths[0] > st.depth[sl_b]
        for w in ws:
            assert st.in_subtree(w, ctx.leaf_c)
            assert st.in_subtree(sl_b, w)
        # contiguity: every ancestor of D in the depth window appears
        count = 0
        w = ctx.d
        while st.depth[w] > st.depth[sl_b]:
            count += 1
            w = st.parent[w]
        assert count == len(ws)


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_reference_internal_nodes_match_direct_definition(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    got = {(w, r) for w, rs in reference_internal_nodes(st).items() for r in rs}
    expected = set()
    nodes = internal_nodes(st)
    for r in nodes:
        if r == st.root:
            continue
        pr = st.parent[r]
        top = st.root if pr == st.root else st.slink[pr]
        tgt = st.slink[r]
        for w in nodes:
            if (
                st.in_subtree(top, w)
                and w != top
                and st.in_subtree(w, tgt)
                and w != tgt
            ):
                expected.add((w, r))
    assert got == expected


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_base_suffix_soundness(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    ctxs = reference_leaf_contexts(st)
    stored = base_suffixes_from_reference_leaves(st, ctxs)
    for w, entries in stored.items():
        for e in entries:
            leaf = st.leaf_for_suffix[e.suffix]
            assert st.in_subtree(w, leaf)
            # the stored suffix spells the node label as a prefix
            assert st.text.data[e.suffix : e.suffix + st.depth[w]] == st.label(w)
            assert st.suffix_idx[e.ref_leaf] == e.suffix - 1


@pytest.mark.parametrize("seed,n,sigma", SEEDS)
def test_every_oshr_member_is_internal(seed, n, sigma):
    st = build(random_text(seed, n, sigma))
    oshr = OshrTree(st)
    assert oshr.n_members == st.n_internal
    for v, kids in oshr.children.items():
        assert st.is_internal(v)
        for c in kids:
            assert st.is_internal(c)
            assert st.slink[c] == v
