"""Suffix tree checks: frozen small-text facts come from the naive oracles in
oracle_helpers (right-branching substrings, naive scans), computed first and
asserted against the real structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from oracle_helpers import (
    DEGENERATE_TEXTS,
    longest_matching_prefix,
    occurrences,
    right_branching_labels,
)
from otindex.oracle import random_text
from otindex.suffix_tree import SuffixTree, WalkCounters, build, stats
from otindex.text import with_sentinel


def banana():
    return build(with_sentinel(b"BANANA"))


def mississippi():
    return build(with_sentinel(b"MISSISSIPPI"))


def internal_labels(st: SuffixTree) -> set[bytes]:
    return {st.label(v) for v in range(st.n_nodes) if st.is_internal(v)}


def leaf_suffixes(st: SuffixTree) -> set[int]:
    return {st.suffix_idx[v] for v in range(st.n_nodes) if st.is_leaf(v)}


def check_against_structure_oracle(st: SuffixTree):
    data = st.text.data
    assert internal_labels(st) == right_branching_labels(data)
    assert leaf_suffixes(st) == set(range(len(data)))
    # parent of every non-root node carries the longest proper prefix of its
    # label that is itself a node label
    labels = internal_labels(st)
    for v in range(1, st.n_nodes):
        lbl = st.label(v)
        best = max(
            (l for l in labels if len(l) < len(lbl) and lbl.startswith(l)), key=len
        )
        assert st.label(st.parent[v]) == best


# ------------------------------------------------------------ frozen corpora


def test_banana_shape():
    st = banana()
    assert st.n_leaves == 7
    assert internal_labels(st) == {b"", b"A", b"NA", b"ANA"}
    assert st.n_internal == 4
    check_against_structure_oracle(st)


def test_banana_leaf_order_is_sentinel_first():
    st = banana()
    ranks = [st.suffix_idx[st.rank_to_leaf[r]] for r in range(st.n_leaves)]
    # $ | A$ ANA$ ANANA$ | BANANA$ | NA$ NANA$
    assert ranks == [6, 5, 3, 1, 0, 4, 2]


def test_run_of_as():
    st = build(with_sentinel(b"AAAA"))
    assert internal_labels(st) == {b"", b"A", b"AA", b"AAA"}
    check_against_structure_oracle(st)


def test_mississippi_shape():
    st = mississippi()
    assert internal_labels(st) == {
        b"",
        b"I",
        b"ISSI",
        b"P",
        b"S",
        b"SI",
        b"SSI",
    }
    check_against_structure_oracle(st)


def test_stats_banana():
    st = banana()
    s = stats(st)
    assert s.n_leaves == 7
    assert s.n_internal == 4
    assert s.internal_depth_hist == {0: 1, 1: 1, 2: 1, 3: 1}
    assert s.n_leaves_adjusted == 6
    assert s.n_internal_adjusted == 3


# ----------------------------------------------------------------- navigation


def test_walk_full_match_ends_at_node():
    st = banana()
    out = st.walk_from(st.root, b"ANA")
    assert out.matched == 3
    assert out.exact_node
    assert st.label(out.locus_below) == b"ANA"
    assert st.depth[st.parent[out.locus_below]] < 3 <= st.depth[out.locus_below]


def test_walk_from_internal_node():
    st = banana()
    a = st.walk_from(st.root, b"A").locus_below
    out = st.walk_from(a, b"NA")
    assert out.matched == 2
    assert out.exact_node
    assert st.label(out.locus_below) == b"ANA"


def test_walk_empty_pattern():
    st = banana()
    out = st.walk_from(st.root, b"")
    assert out.matched == 0
    assert out.locus_below == st.root
    assert out.exact_node


def test_walk_mismatch_and_mid_edge():
    st = banana()
    out = st.walk_from(st.root, b"BANXX")
    assert out.matched == 3
    assert not out.exact_node
    assert st.is_leaf(out.locus_below)

    out = st.walk_from(st.root, b"BAN")
    assert out.matched == 3
    assert not out.exact_node  # mid-edge on the BANANA$ leaf edge


def test_walk_counters_count_work():
    st = banana()
    counters = WalkCounters()
    st.walk_from(st.root, b"ANANA", counters)
    assert counters.symbol_cmp >= 5
    assert counters.child_lookups >= 1


def test_leaf_of_suffix():
    st = banana()
    for s in range(7):
        leaf = st.leaf_of_suffix(s)
        assert st.is_leaf(leaf)
        assert st.suffix_idx[leaf] == s
        assert st.label(leaf) == st.data[s:]


def test_subtree_interval_banana():
    st = banana()
    a = st.walk_from(st.root, b"A").locus_below
    under = [st.suffix_idx[leaf] for leaf in st.rank_to_leaf[st.st_left[a] : st.st_right[a] + 1]]
    assert under == [5, 3, 1]
    assert st.st_left[st.root] == 0
    assert st.st_right[st.root] == st.n_leaves - 1


# ------------------------------------------------------------------ properties


@pytest.mark.parametrize("seed", range(8))
def test_random_texts_match_structure_oracle(seed):
    t = random_text(seed * 7 + 1, 30 + seed * 9, 2 + seed % 3)
    st = build(t)
    check_against_structure_oracle(st)


@pytest.mark.parametrize("seed,n,sigma", [(3, 200, 2), (11, 333, 3), (12, 512, 4)])
def test_walk_longest_prefix_matches_naive(seed, n, sigma):
    t = random_text(seed, n, sigma)
    st = build(t)
    stream_t = random_text(seed + 1, 64, sigma)
    for k in range(0, 58, 7):
        p = stream_t.content[k : k + 9]
        out = st.walk_from(st.root, p)
        assert out.matched == longest_matching_prefix(t.data, p)


DERIVED_TEXTS = [
    pytest.param(random_text(seed, n, sigma), id=f"{seed}-{n}-{sigma}")
    for seed, n, sigma in [(5, 100, 2), (6, 256, 3), (7, 377, 4)]
] + [pytest.param(with_sentinel(c), id=name) for name, c in DEGENERATE_TEXTS.items()]


@pytest.mark.parametrize("t", DERIVED_TEXTS)
def test_subtree_equals_occurrences(t):
    # every array _freeze derives, against its definition on the raw text
    st = build(t)
    data = t.data
    order = sorted(range(len(data)), key=lambda s: data[s:])
    assert [st.suffix_idx[leaf] for leaf in st.rank_to_leaf] == order
    rank_of = {s: r for r, s in enumerate(order)}
    labels = {st.label(v) for v in range(st.n_nodes) if st.is_internal(v)}
    assert labels == right_branching_labels(data)
    for v in range(st.n_nodes):
        if st.is_leaf(v):
            q = st.suffix_idx[v]
            assert st.depth[v] == len(data) - q
            assert st.leaf_for_suffix[q] == v
            assert st.st_left[v] == st.st_right[v] == rank_of[q]
            continue
        label = st.label(v)
        occ = [q for q in occurrences(data, label) if q < len(data)]
        under = st.rank_to_leaf[st.st_left[v] : st.st_right[v] + 1]
        assert sorted(st.suffix_idx[leaf] for leaf in under) == occ
        ranks = sorted(rank_of[q] for q in occ)
        assert ranks == list(range(st.st_left[v], st.st_right[v] + 1))
        assert st.internal_under[v] == sum(1 for lbl in labels if lbl.startswith(label))
    by_depth = {}
    for lbl in labels:
        by_depth.setdefault(len(lbl), set()).add(lbl)
    assert {d: {st.label(v) for v in bucket} for d, bucket in st.internal_by_depth.items()} == by_depth
    assert sum(len(bucket) for bucket in st.internal_by_depth.values()) == len(labels)


def test_suffix_link_labels():
    for seed, n, sigma in [(1, 150, 2), (2, 150, 4), (9, 400, 3)]:
        st = build(random_text(seed, n, sigma))
        for v in range(st.n_nodes):
            if st.is_internal(v) and v != st.root:
                assert st.label(st.slink[v]) == st.label(v)[1:]


@settings(deadline=None, max_examples=60)
@given(
    st_.integers(min_value=2, max_value=4).flatmap(
        lambda sig: st_.text(alphabet="ABCD"[:sig], min_size=1, max_size=40)
    )
)
def test_tree_invariants_hypothesis(s):
    t = with_sentinel(s.encode())
    st = build(t)
    assert st.n_leaves == t.n + 1
    # ranks form a permutation
    assert sorted(st.rank_to_leaf) == sorted(
        v for v in range(st.n_nodes) if st.is_leaf(v)
    )
    # intervals are laminar and tight
    for v in range(st.n_nodes):
        assert st.st_left[v] <= st.st_right[v]
        if v != st.root:
            p = st.parent[v]
            assert st.st_left[p] <= st.st_left[v] <= st.st_right[v] <= st.st_right[p]
    check_against_structure_oracle(st)


def test_internal_under_banana_hand_counts():
    st = banana()

    def node(label):
        out = st.walk_from(st.root, label)
        assert out.matched == len(label) and out.exact_node
        return out.locus_below

    # the count includes the node itself
    assert st.internal_under[node(b"ANA")] == 1
    assert st.internal_under[node(b"NA")] == 1
    assert st.internal_under[node(b"A")] == 2  # A and ANA
    assert st.internal_under[st.root] == 4  # the root, A, ANA, NA


def test_internal_under_counts():
    st = mississippi()
    total = sum(1 for v in range(st.n_nodes) if st.is_internal(v))
    assert st.internal_under[st.root] == total
    for v in range(st.n_nodes):
        if st.is_internal(v):
            manual = sum(
                1
                for u in range(st.n_nodes)
                if st.is_internal(u) and st.in_subtree(v, u)
            )
            assert st.internal_under[v] == manual
