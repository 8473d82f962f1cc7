"""Benchmark harness: extraction protocol, node sampling, and report shape."""

import importlib
import importlib.util
from pathlib import Path

from otindex.bench import (
    DEFAULT_LENGTHS,
    TSV_COLUMNS,
    BenchReport,
    PatternProtocol,
    bench,
    extract_patterns,
    extract_positions,
    nodes_by_depth,
    sample_nodes,
)
from otindex.build import build_index
from otindex.oracle import genome_slice, splitmix64
from otindex.oshr import OshrTree
from otindex.suffix_tree import build
from otindex.text import with_sentinel


def make_index(text):
    st = build(text)
    return build_index(st, OshrTree(st))


class TestExtractPositions:
    def test_multiples_of_ten_times_length(self):
        # length 12 in a long text starts at 120, 240, 360, ...
        assert extract_positions(12, 10_000, 100)[:3] == [120, 240, 360]

    def test_pattern_must_fit(self):
        # 10*1*7 = 70; the pattern needs positions 70..76 inclusive
        assert extract_positions(7, 77, 100) == [70]
        assert extract_positions(7, 76, 100) == []

    def test_per_length_cap(self):
        got = extract_positions(7, 10**9, 100)
        assert len(got) == 100
        assert got[0] == 70 and got[-1] == 7000

    def test_first_index_is_one_not_zero(self):
        assert 0 not in extract_positions(7, 10**9, 100)


class TestExtractPatterns:
    def setup_method(self):
        self.text = genome_slice(99, 4096)
        self.st = build(self.text)

    def test_slices_match_text(self):
        for ep in extract_patterns(self.st):
            end = ep.position + len(ep.pattern)
            assert self.text.data[ep.position : end] == ep.pattern

    def test_lengths_from_protocol(self):
        # longer patterns rarely survive the leaf-locus filter on random
        # text, so only containment and the presence of short ones is stable
        lengths = {len(ep.pattern) for ep in extract_patterns(self.st)}
        assert lengths <= set(DEFAULT_LENGTHS)
        assert 7 in lengths

    def test_kept_patterns_recur_in_text(self):
        for ep in extract_patterns(self.st):
            assert self.text.data.count(ep.pattern) >= 2

    def test_leaf_locus_patterns_dropped(self):
        kept = {ep.pattern for ep in extract_patterns(self.st)}
        for p in kept:
            out = self.st.walk_from(self.st.root, p)
            assert out.matched == len(p)
            assert self.st.is_internal(out.locus_below), f"leaf-locus pattern kept: {p!r}"

    def test_narrow_protocol(self):
        proto = PatternProtocol(lengths=(7,), per_length=2)
        got = extract_patterns(self.st, proto)
        assert all(len(ep.pattern) == 7 for ep in got)
        assert [ep.position for ep in got] == [70, 140][: len(got)]


class TestNodesByDepth:
    def test_banana(self):
        st = build(with_sentinel(b"BANANA"))
        by_depth = nodes_by_depth(st)

        def node(label):
            return st.walk_from(st.root, label).locus_below

        assert by_depth[1] == [node(b"A")]
        assert by_depth[2] == [node(b"NA")]
        assert by_depth[3] == [node(b"ANA")]
        assert all(by_depth[d] == [] for d in range(4, 21))

    def test_only_internal_nodes(self):
        st = build(genome_slice(6, 600))
        for d, nodes in nodes_by_depth(st).items():
            for v in nodes:
                assert st.is_internal(v)
                assert st.depth[v] == d


class TestSampleNodes:
    def test_under_cap_returns_all(self):
        stream = splitmix64(1)
        assert sample_nodes([3, 1, 2], 10, stream) == [3, 1, 2]

    def test_over_cap_is_subset_without_duplicates(self):
        nodes = list(range(100, 200))
        got = sample_nodes(nodes, 25, splitmix64(4))
        assert len(got) == 25
        assert len(set(got)) == 25
        assert set(got) <= set(nodes)

    def test_deterministic_for_seed(self):
        nodes = list(range(50))
        a = sample_nodes(nodes, 10, splitmix64(9))
        b = sample_nodes(nodes, 10, splitmix64(9))
        assert a == b


class TestBenchReport:
    def setup_method(self):
        self.idx = make_index(genome_slice(12, 12_000))

    def test_row_per_depth(self):
        report = bench(self.idx, seed=3, node_cap=40)
        assert len(report.rows) == 20
        assert [r.depth for r in report.rows] == list(range(1, 21))

    def test_tsv_schema(self):
        report = bench(self.idx, seed=3, node_cap=40)
        lines = report.to_tsv().splitlines()
        assert lines[0].split("\t") == list(TSV_COLUMNS)
        assert len(lines) == 21
        for line in lines[1:]:
            cells = line.split("\t")
            assert len(cells) == len(TSV_COLUMNS)
            int(cells[0]), int(cells[1]), int(cells[2])
            float(cells[5]), float(cells[6])

    def test_counters_deterministic_across_runs(self):
        a = bench(self.idx, seed=3, node_cap=40)
        b = bench(self.idx, seed=3, node_cap=40)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.depth, ra.patterns, ra.starting_nodes) == (
                rb.depth,
                rb.patterns,
                rb.starting_nodes,
            )
            assert ra.ot_probes == rb.ot_probes
            assert ra.walk_comparisons == rb.walk_comparisons

    def test_node_cap_respected(self):
        report = bench(self.idx, seed=3, node_cap=5)
        for r in report.rows:
            assert r.starting_nodes <= 5

    def test_complexity_counts_internal_descendants(self):
        st = self.idx.st
        report = bench(self.idx, seed=3, node_cap=10**9)
        by_depth = nodes_by_depth(st)
        for r in report.rows:
            # the tree's field counts the node itself; the column does not
            expect = sum(st.internal_under[v] - 1 for v in by_depth[r.depth])
            assert r.complexity == expect

    def test_tiny_text_yields_zero_rows(self):
        report = bench(make_index(with_sentinel(b"BANANA")), seed=1, node_cap=10)
        assert len(report.rows) == 20
        assert all(r.patterns == 0 and r.ot_probes == 0 for r in report.rows)


class TestBenchAgainstWalk:
    def test_work_grows_with_subtree_size(self):
        # at depths where the walk has bigger subtrees to traverse, its
        # comparison count should dominate the probe count of the index
        idx = make_index(genome_slice(21, 30_000))
        report = bench(idx, seed=7, node_cap=200)
        busy = [r for r in report.rows if r.patterns > 0 and r.complexity > 1000]
        assert busy, "expected at least one high-complexity depth"
        for r in busy:
            assert r.walk_comparisons > r.ot_probes


def test_traced_benchmark_names_resolve():
    # the traced perfbench run rebinds PROGRAM_CALLS on the program's modules
    # and perfbench/layers.py imports build.ENTRY_WIDTH; a missing name would
    # stop that run with an AttributeError or ImportError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, attr, _span in spans.PROGRAM_CALLS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    assert isinstance(importlib.import_module("otindex.build").ENTRY_WIDTH, int)
