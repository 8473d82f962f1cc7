"""Acceptance gate: eight shipping criteria, one test (and one verdict line) each.

Heavy artifacts are shared through module-scoped fixtures: one differential
audit over a 200-text corpus plus the two classic fixtures, and one 1 MB
synthetic genome with its index.  Every test prints a single PASS/FAIL line
(visible with -s, and in the failure report otherwise) and asserts on the
stated tolerance; informative comparisons are printed, never asserted.
"""

import statistics
import time

import pytest

from otindex.bench import (
    DEFAULT_NODE_CAP,
    TSV_COLUMNS,
    extract_patterns,
    extract_positions,
    nodes_by_depth,
    sample_nodes,
)
from otindex.build import BuildConfig, build_index, index_stats
from otindex.cli import main
from otindex.oracle import (
    _probe_cap,
    _structure_violations,
    audit,
    genome_slice,
    splitmix64,
)
from otindex.oshr import OshrTree
from otindex.query import locate, search_at
from otindex.reference import ORIGIN_LABELS, build_reference
from otindex.storage import (
    BadMagicError,
    TextHashMismatchError,
    TruncatedIndexError,
    VersionMismatchError,
    deserialize,
    save_index,
    serialize,
)
from otindex.suffix_tree import build
from otindex.text import alphabet

GENOME_SEED = 2026
GENOME_N = 1_000_000
AUDIT_BUDGET_S = 300.0


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def audit_run():
    t0 = time.perf_counter()
    run = audit(seed=2026, texts=200, max_n=512)
    run.elapsed_s = time.perf_counter() - t0
    return run


@pytest.fixture(scope="module")
def genome():
    text = genome_slice(GENOME_SEED, GENOME_N)
    st = build(text)
    idx = build_index(st, OshrTree(st))
    return st, idx


@pytest.fixture(scope="module")
def genome_reference(genome):
    """Entry totals of the paper's builder on the genome: (total, per origin)."""
    st, idx = genome
    ref = build_reference(st, idx.oshr)
    return ref.total_entries, {ORIGIN_LABELS[o]: c for o, c in ref.origin_counts.items()}


@pytest.fixture(scope="module")
def genome_files(genome, tmp_path_factory):
    st, idx = genome
    root = tmp_path_factory.mktemp("genome")
    text_path = root / "genome.txt"
    text_path.write_bytes(st.text.content)
    idx_path = root / "genome.otix"
    save_index(idx, str(idx_path))
    return str(text_path), str(idx_path)


def test_criterion_1_oracle_equivalence(audit_run):
    run = audit_run
    assert run.corpus_size >= 202  # 200 random texts + the two fixtures
    spurious = sum(r.spurious for r in run.reports)
    default = run.reports[0]
    assert default.config == BuildConfig()
    clean = [r for r in run.reports if r.misses == 0 and r.spurious == 0]
    mismatches = sum(r.key_set_mismatches for r in run.reports)
    pairs = default.pairs
    verdict(
        1,
        spurious == 0
        and default.misses == 0
        and mismatches == 0
        and run.baseline.disagreements == 0
        and run.elapsed_s <= AUDIT_BUDGET_S,
        f"{run.corpus_size} texts x {len(run.reports)} configs x {pairs} pairs: "
        f"spurious={spurious}, serving-build misses={default.misses}, "
        f"{len(clean)}/{len(run.reports)} configs fully agree, "
        f"reduced reference key-set mismatches={mismatches}, "
        f"baseline disagreements={run.baseline.disagreements}, "
        f"elapsed {run.elapsed_s:.1f}s (budget {AUDIT_BUDGET_S:.0f}s)",
    )


def test_criterion_2_store_soundness(audit_run, genome):
    st, idx = genome
    corpus_failures = sum(r.structure_failures for r in audit_run.reports)
    corpus_sound = sum(r.soundness_failures for r in audit_run.reports)
    genome_violations = _structure_violations(st, idx)
    records = index_stats(idx).total_entries
    verdict(
        2,
        corpus_failures == 0
        and corpus_sound == 0
        and genome_violations == 0
        and st.text.n >= 500_000,
        f"store invariants: 0/{records} records broken on the "
        f"{st.text.n // 1000} KB genome, {corpus_failures} structure and "
        f"{corpus_sound} witness failures across the audited corpus",
    )


def test_criterion_3_size_bound(audit_run, genome, genome_reference):
    st, idx = genome
    total, per_origin = genome_reference
    sigma = alphabet(st.text).size_with_sentinel
    bound = 2 * sigma * st.text.n
    references = audit_run.reports[1:]
    corpus_violations = sum(r.entry_bound_violations for r in references)
    worst = max(r.max_entry_ratio for r in references)
    per_sub = ", ".join(f"{k}={v}" for k, v in sorted(per_origin.items()))
    serving = audit_run.reports[0]
    print(
        "informative: a previously reported ~1 MB genome index had sub-index "
        "sizes 1,470,339 / 1,212,706 / 219,229 (base / linked-skipped / "
        f"cross-referenced); this run: {per_sub}"
    )
    print(
        f"informative: serving store {idx.total_entries} values on the genome "
        f"(ratio {idx.total_entries / bound:.3f}); above 2*sigma*n on "
        f"{serving.entry_bound_violations} corpus texts, worst ratio "
        f"{serving.max_entry_ratio:.3f} (reported, not asserted)"
    )
    verdict(
        3,
        total <= bound and corpus_violations == 0,
        f"reference builder: genome entries {total} <= 2*{sigma}*{st.text.n} = {bound} "
        f"(ratio {total / bound:.3f}); corpus violations "
        f"{corpus_violations}, worst corpus ratio {worst:.3f}; per-sub-index: {per_sub}",
    )


def test_criterion_4_sub_index_ordering(audit_run, genome_reference):
    _total, oc = genome_reference
    b, s, x = oc["base-path"], oc["skipped"], oc["skipped-xref"]
    rand = audit_run.reports[1].origin_entries
    rb, rs, rx = rand["base-path"], rand["skipped"], rand["skipped-xref"]
    rand_ordered = rb >= rs >= rx
    print(
        f"informative: random-text aggregate {rb} / {rs} / {rx} "
        f"({'keeps' if rand_ordered else 'breaks'} the ordering; "
        "reported, not asserted)"
    )
    verdict(
        4,
        b >= s >= x,
        f"reference builder: genome sub-index sizes base-path={b} >= skipped={s} "
        f">= skipped-xref={x}",
    )


def test_criterion_5_logarithmic_query(genome):
    st, idx = genome
    total = idx.total_entries
    sigma = alphabet(st.text).size_with_sentinel
    bound = 2 * sigma * st.text.n
    patterns = extract_patterns(st)
    by_depth = nodes_by_depth(st)
    stream = splitmix64(99)
    queries = 0
    max_probes = 0
    violations = 0
    for depth in sorted(by_depth):
        starts = sample_nodes(by_depth[depth], 25, stream)
        if not starts:
            continue
        for ep in patterns:
            outcome = locate(st, ep.pattern)
            for v in starts:
                res = search_at(idx, outcome, ep.pattern, v)
                queries += 1
                max_probes = max(max_probes, res.probes)
                if res.host_entries:
                    if res.probes > _probe_cap(res.host_entries):
                        violations += 1
                    assert res.host_entries <= total <= bound
    depths = []
    sizes = []
    for host, arr in idx.entries.items():
        depths.append(float(st.depth[host]))
        sizes.append(float(len(arr)))
    r = statistics.correlation(depths, sizes)
    print(
        f"informative: per-host list size vs string depth correlation "
        f"r={r:+.3f} over {len(sizes)} hosts (negative direction means "
        f"deeper hosts keep shorter lists)"
    )
    verdict(
        5,
        queries > 0 and violations == 0,
        f"{queries} bench queries: probe cap ceil(log2 m)+1 violated "
        f"{violations} times (max probes seen {max_probes}); host lists <= "
        f"{total} total entries <= {bound}; size-depth correlation r={r:+.3f}",
    )


def test_criterion_6_extraction_protocol(genome):
    st, _ = genome
    n = st.text.n
    first_three = extract_positions(12, n, 100)[:3]
    cap_ok = all(
        len(extract_positions(length, n, 100)) <= 100 for length in (7, 10, 12, 15)
    )
    kept = extract_patterns(st)
    kept_ok = True
    drops = 0
    for length in (7, 12, 50):
        chosen = {ep.position for ep in kept if len(ep.pattern) == length}
        for pos in extract_positions(length, n, 100):
            p = st.text.data[pos : pos + length]
            out = st.walk_from(st.root, p)
            internal = out.matched == length and st.is_internal(out.locus_below)
            if internal != (pos in chosen):
                kept_ok = False
            if not internal:
                drops += 1
    sampled = sample_nodes(list(range(5000)), DEFAULT_NODE_CAP, splitmix64(1))
    sample_ok = len(sampled) == 1000 and len(set(sampled)) == 1000
    verdict(
        6,
        first_three == [120, 240, 360] and cap_ok and kept_ok and sample_ok,
        f"length-12 positions start {first_three}; <=100 patterns/length; "
        f"leaf-locus skip rule confirmed on {drops} dropped candidates; "
        f"depth sampling caps at {DEFAULT_NODE_CAP}",
    )


def test_criterion_7_desk_scale_bench(genome_files, tmp_path):
    text_path, idx_path = genome_files
    report_path = tmp_path / "bench.tsv"
    t0 = time.perf_counter()
    rc = main(["bench", idx_path, text_path, "--cap", "25", "-o", str(report_path)])
    elapsed = time.perf_counter() - t0
    lines = report_path.read_text().splitlines()
    header_ok = lines[0].split("\t") == list(TSV_COLUMNS)
    rows = [line.split("\t") for line in lines[1:]]
    shape_ok = len(rows) == 20 and all(len(r) == len(TSV_COLUMNS) for r in rows)
    ot_s = sum(float(r[5]) for r in rows)
    walk_s = sum(float(r[6]) for r in rows)
    queried = sum(int(r[2]) * int(r[3]) for r in rows)
    print(
        f"informative: wall clock over {queried} query pairs: indexed "
        f"{ot_s:.3f}s vs walk {walk_s:.3f}s (hardware-bound, not asserted)"
    )
    verdict(
        7,
        rc == 0 and header_ok and shape_ok,
        f"1 MB genome bench completed in {elapsed:.1f}s with the exact "
        f"9-column TSV schema, 20 depth rows, {queried} query pairs",
    )


def test_criterion_8_serialization(tmp_path):
    text = genome_slice(5, 50_000)
    st = build(text)
    idx = build_index(st, OshrTree(st))
    blob = serialize(idx)
    twin = deserialize(blob, st)
    round_trip = twin == idx

    errors = []
    for mutate, expect in (
        (lambda b: b"JUNK" + b[4:], BadMagicError),
        (lambda b: b[:4] + bytes([b[4] + 1]) + b[5:], VersionMismatchError),
        (lambda b: b[:5] + bytes([b[5] ^ 0xFF]) + b[6:], TextHashMismatchError),
        (lambda b: b[: len(b) // 2], TruncatedIndexError),
    ):
        try:
            deserialize(mutate(blob), st)
            errors.append(f"{expect.__name__}: not raised")
        except expect:
            pass
        except Exception as exc:  # noqa: BLE001 - report the mismatch
            errors.append(f"{expect.__name__}: got {type(exc).__name__}")
    distinct = len({BadMagicError, VersionMismatchError, TextHashMismatchError,
                    TruncatedIndexError})
    verdict(
        8,
        round_trip and not errors and distinct >= 3,
        f"round trip equal={round_trip}; {distinct} distinct corruption errors, "
        + ("all raised correctly" if not errors else "; ".join(errors)),
    )
