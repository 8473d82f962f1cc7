"""Tests for the ground-truth scanner and the differential auditor.

The auditor is itself an oracle, so its truth values are pinned here against
hand-traced facts on the two fixture texts before any differential run is
trusted.
"""

from array import array

import pytest

from otindex.build import (
    CLASSIFY_UNLINKED,
    BuildConfig,
)
from otindex.oracle import (
    AuditReport,
    BaselineReport,
    BRUTE_N_CAP,
    audit,
    audit_config_matrix,
    audit_corpus,
    audit_text,
    brute_truth,
    genome_slice,
    minimize_counterexample,
    random_text,
    splitmix64,
)
from otindex.suffix_tree import build
from otindex.text import with_sentinel

BANANA = with_sentinel(b"BANANA")
MISSISSIPPI = with_sentinel(b"MISSISSIPPI")


def node_of(st, label: bytes) -> int:
    out = st.walk_from(st.root, label)
    assert out.matched == len(label) and out.exact_node
    return out.locus_below


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------


def _reference_stream(seed: int, count: int) -> list[int]:
    # straight transliteration of the published C routine, kept separate
    # from the library generator on purpose
    out = []
    state = seed % 2**64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append((z ^ (z >> 31)) % 2**64)
    return out


class TestSplitMix64:
    def test_published_first_value_for_seed_zero(self):
        # widely circulated reference vector for the seed-0 stream
        stream = splitmix64(0)
        assert next(stream) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_matches_reference_transliteration(self, seed):
        stream = splitmix64(seed)
        got = [next(stream) for _ in range(100)]
        assert got == _reference_stream(seed, 100)

    def test_values_are_64_bit(self):
        stream = splitmix64(12345)
        for _ in range(1000):
            assert 0 <= next(stream) < 2**64


class TestRandomText:
    def test_deterministic(self):
        assert random_text(7, 64, 3).data == random_text(7, 64, 3).data

    def test_length_and_alphabet(self):
        t = random_text(11, 200, 4)
        assert t.n == 200
        assert set(t.content) <= set(b"ABCD")

    def test_distinct_seeds_differ(self):
        assert random_text(1, 64, 2).data != random_text(2, 64, 2).data

    def test_sigma_bounds(self):
        with pytest.raises(ValueError):
            random_text(1, 10, 1)
        with pytest.raises(ValueError):
            random_text(1, 10, 27)


class TestGenomeSlice:
    def test_shape_and_alphabet(self):
        t = genome_slice(3, 5000)
        assert t.n == 5000
        assert set(t.content) <= set(b"ACGT")

    def test_deterministic(self):
        assert genome_slice(3, 2000).data == genome_slice(3, 2000).data

    def test_repeat_structure(self):
        # duplicated regions must make some long k-mers recur, unlike a
        # uniform draw where 20-mers are almost surely unique
        t = genome_slice(5, 20000)
        kmers = [t.content[i : i + 20] for i in range(0, t.n - 20)]
        assert len(set(kmers)) < len(kmers)


# ---------------------------------------------------------------------------
# ground truth on hand-traced fixtures
# ---------------------------------------------------------------------------


class TestBruteTruthBanana:
    def setup_method(self):
        self.st = build(BANANA)
        self.gt = brute_truth(self.st)

    def test_candidates_cover_labels_and_cuts(self):
        gt = self.gt
        for p in (b"", b"A", b"NA", b"ANA", b"BAN", b"NANA", b"ANA\x00"):
            assert p in gt.patterns
        assert set(gt.core_patterns) <= set(gt.patterns)

    def test_truth_under_node_a(self):
        st, gt = self.st, self.gt
        # "A" + "NA" = "ANA" occurs at positions 1 and 3; "AB" never occurs
        a = node_of(st, b"A")
        assert gt.truth(a, b"NA") is True
        assert gt.witness_positions(a, b"NA") == [1, 3]
        assert gt.truth(a, b"B") is False

    def test_truth_under_node_na(self):
        st, gt = self.st, self.gt
        na = node_of(st, b"NA")
        assert gt.truth(na, b"NA") is True  # "NANA" at 2
        assert gt.witness_positions(na, b"NA") == [2]
        assert gt.truth(na, b"B") is False
        assert gt.truth(na, b"ANA") is False  # "NAANA" absent

    def test_truth_at_root_is_substring_test(self):
        st, gt = self.st, self.gt
        root = st.root
        for p in gt.patterns:
            assert gt.truth(root, p) is (p in BANANA.data)

    def test_empty_pattern_true_everywhere(self):
        st, gt = self.st, self.gt
        for i in gt.node_ids:
            assert gt.truth(i, b"") is True

    def test_cap(self):
        big = random_text(1, BRUTE_N_CAP + 1, 2)
        with pytest.raises(ValueError):
            brute_truth(build(big))


class TestBruteTruthMississippi:
    def setup_method(self):
        self.st = build(MISSISSIPPI)
        self.gt = brute_truth(self.st)

    def test_hand_traced_pairs(self):
        st, gt = self.st, self.gt
        # MISSISSIPPI: M0 I1 S2 S3 I4 S5 S6 I7 P8 P9 I10
        i_node = node_of(st, b"I")
        s_node = node_of(st, b"S")
        ssi = node_of(st, b"SSI")
        assert gt.truth(i_node, b"SSI") is True  # "ISSI" at 1 and 4
        assert gt.witness_positions(i_node, b"SSI") == [1, 4]
        assert gt.truth(s_node, b"IS") is True  # "SIS" at 3
        assert gt.truth(ssi, b"PP") is True  # "SSIPP" at 5
        assert gt.truth(ssi, b"SS") is True  # "SSISS" at 2
        assert gt.truth(ssi, b"PPI\x00") is True  # tail occurrence
        assert gt.truth(ssi, b"M") is False


# ---------------------------------------------------------------------------
# auditor on fixtures
# ---------------------------------------------------------------------------


def run_single_text(text, configs):
    reports = [AuditReport(config=c) for c in configs]
    baseline = BaselineReport()
    audit_text(text, configs, reports, baseline, minimize=False)
    return reports, baseline


class TestAuditFixtures:
    def test_banana_full_matrix(self):
        configs = audit_config_matrix()
        reports, baseline = run_single_text(BANANA, configs)
        assert baseline.disagreements == 0
        for rep in reports:
            assert rep.spurious == 0
            assert rep.soundness_failures == 0
            assert rep.structure_failures == 0
            assert rep.probe_violations == 0
            if rep.config.leaf_edge_cover:
                assert rep.misses == 0

    def test_banana_sparse_store_misses_are_the_known_four(self):
        cfg = BuildConfig(leaf_edge_cover=False)
        reports, _ = run_single_text(BANANA, [cfg])
        rep = reports[0]
        assert rep.misses == 4
        assert {(c.pattern, c.node_label) for c in rep.counterexamples} == {
            (b"N", b"ANA"),
            (b"N", b"NA"),
            (b"NA", b"ANA"),
            (b"NA", b"NA"),
        }
        assert all(c.kind == "miss" for c in rep.counterexamples)

    def test_banana_sparse_unlinked_misses_are_the_known_two(self):
        cfg = BuildConfig(classification_mode=CLASSIFY_UNLINKED, leaf_edge_cover=False)
        reports, _ = run_single_text(BANANA, [cfg])
        rep = reports[0]
        assert rep.misses == 2
        assert {(c.pattern, c.node_label) for c in rep.counterexamples} == {
            (b"N", b"ANA"),
            (b"NA", b"ANA"),
        }

    def test_mississippi_default_config_clean(self):
        reports, baseline = run_single_text(MISSISSIPPI, [BuildConfig()])
        rep = reports[0]
        assert baseline.disagreements == 0
        assert rep.clean
        assert rep.pairs > 0 and rep.found > 0
        assert rep.max_entry_ratio <= 1.0

    def test_structure_check_flags_bad_base_suffix_keys(self):
        from otindex.build import build_index
        from otindex.oracle import _structure_violations

        st = build(MISSISSIPPI)
        idx = build_index(st)
        assert _structure_violations(st, idx) == 0
        n1 = st.n + 1
        node, arr = next(
            (v, a) for v, a in idx.base_suffixes.items() if any(x >= n1 for x in a)
        )
        keyed = next(x for x in arr if x >= n1)
        # re-keyed by the root: its label ends at s, but it is not the deepest
        idx.base_suffixes[node] = array("q", sorted(x % n1 if x == keyed else x for x in arr))
        assert _structure_violations(st, idx) == 1
        idx.base_suffixes[node] = array("q", sorted([*arr, keyed]))  # a repeat
        assert _structure_violations(st, idx) == 1

    def test_route_counts_cover_all_pairs(self):
        reports, _ = run_single_text(BANANA, [BuildConfig()])
        rep = reports[0]
        assert sum(rep.route_counts.values()) == rep.pairs


# ---------------------------------------------------------------------------
# counterexample minimization
# ---------------------------------------------------------------------------


class TestMinimization:
    def test_padded_banana_shrinks_to_banana(self):
        padded = b"BANANA" + b"XYZQW" * 4
        cfg = BuildConfig(leaf_edge_cover=False)
        got = minimize_counterexample(padded, b"N", b"ANA", cfg, "miss")
        assert got == b"BANANA"

    def test_minimal_text_survives(self):
        cfg = BuildConfig(leaf_edge_cover=False)
        got = minimize_counterexample(b"BANANA", b"N", b"ANA", cfg, "miss")
        assert got == b"BANANA"


# ---------------------------------------------------------------------------
# corpus and whole-run determinism
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_deterministic(self):
        a = audit_corpus(9, 30, 256)
        b = audit_corpus(9, 30, 256)
        assert [t.data for t in a] == [t.data for t in b]

    def test_size_bounds_and_alphabets(self):
        for t in audit_corpus(4, 50, 512):
            assert 16 <= t.n <= 512
            assert set(t.content) <= set(b"ABCD")

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            audit_corpus(1, 5, 8)


class TestAuditRun:
    def test_determinism_and_flags(self):
        kwargs = dict(seed=7, texts=6, max_n=64, minimize=False)
        a = audit(**kwargs)
        b = audit(**kwargs)
        assert a.reports == b.reports
        assert a.baseline == b.baseline
        assert a.corpus_size == 6 + 2  # fixtures prepended
        assert a.ok
        assert not a.universal_miss
        assert not a.any_spurious

    def test_matrix_shape(self):
        matrix = audit_config_matrix()
        assert len(matrix) == 8
        assert len(set(matrix)) == 8
        assert matrix[0] == BuildConfig()
