"""Command-line interface.

Subcommands:

    preprocess   FASTA or raw bytes -> one-line uppercase text file
    stats        suffix-tree node counts for a text, TSV
    oshr-stats   suffix-link-tree shape and base-suffix store histogram
    build        build an index over a text and write it to disk
    index-stats  summarize a stored index stream without its text
    query        answer one pattern-under-node query from a stored index
    audit        differential audit of the search pipeline vs a naive oracle
    bench        depth-stratified comparison of indexed search vs tree walk

Machine-readable output goes to stdout as TSV; progress and human summaries
go to stderr.  Exit status 0 means success, 1 means the audit found real
failures, 2 means bad input.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bench import DEFAULT_NODE_CAP, bench
from .build import BuildConfig, BuildError, build_index, index_stats, parse_length_mode
from .oracle import (
    AUDIT_SEED_DEFAULT,
    AUDIT_TEXTS_DEFAULT,
    BRUTE_N_CAP,
    audit,
    audit_config_matrix,
)
from .oshr import OshrTree, base_suffixes_from_reference_leaves, reference_leaf_contexts
from .query import Query, QueryConfigError, search, walk_search_baseline
from .storage import StorageError, load_index, peek_stats, save_index
from .suffix_tree import WalkCounters, build, stats
from .text import Text, TextError, alphabet, preprocess_fasta, with_sentinel


def _read_text(path: str) -> Text:
    """Load a text file; FASTA input is preprocessed, raw bytes pass through."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b">"):
        content = preprocess_fasta(raw)
    else:
        content = raw.rstrip(b"\r\n")
    return with_sentinel(content)


def _emit_rows(rows) -> None:
    for name, value in rows:
        print(f"{name}\t{value}")


# ------------------------------------------------------------- subcommands


def cmd_preprocess(args) -> int:
    with open(args.infile, "rb") as fh:
        content = preprocess_fasta(fh.read())
    with open(args.outfile, "wb") as fh:
        fh.write(content)
    print(f"{len(content)} symbols -> {args.outfile}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    text = _read_text(args.text)
    st = build(text)
    s = stats(st)
    al = alphabet(text)
    rows = [
        ("text_length", text.n),
        ("alphabet_size", al.size),
        ("alphabet_with_sentinel", al.size_with_sentinel),
        ("leaf_nodes_raw", s.n_leaves),
        ("leaf_nodes_content", s.n_leaves_adjusted),
        ("internal_nodes_raw", s.n_internal),
        ("internal_nodes_excl_root", s.n_internal_adjusted),
    ]
    rows += [
        (f"internal_at_depth_{d}", c) for d, c in sorted(s.internal_depth_hist.items())
    ]
    _emit_rows(rows)
    return 0


def cmd_oshr_stats(args) -> int:
    st = build(_read_text(args.text))
    oshr = OshrTree(st)
    contexts = reference_leaf_contexts(st)
    store = base_suffixes_from_reference_leaves(st, contexts)
    records = sum(len(v) for v in store.values())
    rows = [
        ("oshr_members", oshr.n_members),
        ("oshr_internal_nodes", oshr.n_members - oshr.n_oshr_leaves),
        ("oshr_leaf_nodes", oshr.n_oshr_leaves),
        ("reference_leaf_contexts", len(contexts)),
        ("base_suffix_nodes", len(store)),
        ("base_suffix_records", records),
    ]
    hist: dict[int, int] = {}
    for recs in store.values():
        hist[len(recs)] = hist.get(len(recs), 0) + 1
    rows += [
        (f"nodes_with_{k}_base_suffixes", c) for k, c in sorted(hist.items())
    ]
    _emit_rows(rows)
    return 0


def cmd_build(args) -> int:
    text = _read_text(args.text)
    cfg = BuildConfig(length_mode=parse_length_mode(args.length_mode))
    t0 = time.perf_counter()
    st = build(text)
    t1 = time.perf_counter()
    idx = build_index(st, OshrTree(st), cfg)
    t2 = time.perf_counter()
    save_index(idx, args.output)
    s = index_stats(idx)
    rows = [
        ("config", cfg.describe()),
        ("text_length", text.n),
        ("hosts", s.hosts),
        ("total_entries", s.total_entries),
        ("max_host_entries", s.max_host_entries),
        ("tree_build_s", f"{t1 - t0:.3f}"),
        ("index_build_s", f"{t2 - t1:.3f}"),
    ]
    _emit_rows(rows)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_index_stats(args) -> int:
    with open(args.index, "rb") as fh:
        info = peek_stats(fh.read())
    rows = [
        ("version", info["version"]),
        ("text_sha256", info["text_sha256"]),
        ("text_length", info["text_length"]),
        ("config", info["config"].describe()),
        ("hosts", info["hosts"]),
        ("total_entries", info["total_entries"]),
    ]
    _emit_rows(rows)
    return 0


def _resolve_node(st, spec: str) -> int:
    if spec.isdigit():
        node = int(spec)
        if node >= st.n_nodes or not st.is_internal(node):
            raise QueryConfigError(f"node {node} is not an internal node")
        return node
    label = spec.encode()
    out = st.walk_from(st.root, label)
    if out.matched != len(label) or not out.exact_node:
        raise QueryConfigError(f"no node has label {spec!r}")
    if not st.is_internal(out.locus_below):
        raise QueryConfigError(f"label {spec!r} names a leaf, not an internal node")
    return out.locus_below


def cmd_query(args) -> int:
    text = _read_text(args.text)
    st = build(text)
    oshr = OshrTree(st)
    idx = load_index(args.index, st, oshr)
    node = _resolve_node(st, args.node)
    pattern = args.pattern.encode()
    res = search(idx, Query(pattern, node))
    header = ["pattern", "node", "found", "route", "witness", "probes", "host_entries"]
    row = [
        args.pattern,
        node,
        int(res.found),
        res.route,
        "" if res.witness is None else res.witness,
        res.probes,
        res.host_entries,
    ]
    if args.baseline:
        counters = WalkCounters()
        wres = walk_search_baseline(st, Query(pattern, node), counters)
        header += ["walk_found", "walk_symbol_cmp", "walk_child_lookups"]
        row += [int(wres.found), counters.symbol_cmp, counters.child_lookups]
    print("\t".join(header))
    print("\t".join(str(x) for x in row))
    return 0


AUDIT_TSV_COLUMNS = (
    "config",
    "texts",
    "pairs",
    "found",
    "spurious",
    "misses",
    "soundness_failures",
    "structure_failures",
    "key_set_mismatches",
    "probe_violations",
    "total_entries",
    "base_suffix_records",
    "entry_bound_violations",
    "max_entry_ratio",
)


def cmd_audit(args) -> int:
    if args.configs == "all":
        configs = audit_config_matrix()
    else:
        configs = (BuildConfig(),)

    def progress(done, total):
        if done % 20 == 0 or done == total:
            print(f"audited {done}/{total} texts", file=sys.stderr)

    run = audit(
        seed=args.seed,
        texts=args.texts,
        max_n=args.max_n,
        configs=configs,
        minimize=not args.no_minimize,
        on_text=progress,
    )
    print("\t".join(AUDIT_TSV_COLUMNS))
    for r in run.reports:
        print(
            "\t".join(
                str(x)
                for x in (
                    r.config.describe(),
                    r.texts,
                    r.pairs,
                    r.found,
                    r.spurious,
                    r.misses,
                    r.soundness_failures,
                    r.structure_failures,
                    r.key_set_mismatches,
                    r.probe_violations,
                    r.total_entries,
                    r.base_suffix_records,
                    r.entry_bound_violations,
                    f"{r.max_entry_ratio:.3f}",
                )
            )
        )

    out = sys.stderr
    print(
        f"corpus: {run.corpus_size} texts (seed {run.seed}, max n {run.max_n})",
        file=out,
    )
    print(
        f"walk baseline: {run.baseline.pairs} pairs, "
        f"{run.baseline.disagreements} disagreements",
        file=out,
    )
    clean = [r for r in run.reports if r.misses == 0 and r.spurious == 0]
    print(
        f"{len(clean)}/{len(run.reports)} configurations fully agree with the oracle",
        file=out,
    )
    for r in run.reports:
        for c in r.counterexamples:
            print(
                f"  {c.kind} [{c.config}] text={c.content!r} "
                f"pattern={c.pattern!r} node={c.node_label!r}",
                file=out,
            )
    if run.ok:
        print("audit passed", file=out)
        return 0
    print("audit FAILED", file=out)
    return 1


def cmd_bench(args) -> int:
    text = _read_text(args.text)
    st = build(text)
    idx = load_index(args.index, st)
    report = bench(idx, seed=args.seed, node_cap=args.cap)
    tsv = report.to_tsv()
    if args.output == "-":
        sys.stdout.write(tsv)
    else:
        with open(args.output, "w") as fh:
            fh.write(tsv)
        print(f"wrote {args.output}", file=sys.stderr)
    probes = sum(r.ot_probes for r in report.rows)
    cmps = sum(r.walk_comparisons for r in report.rows)
    print(f"total probes {probes}, walk comparisons {cmps}", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ parser


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="otindex",
        description="pattern-under-node index over suffix trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="FASTA/raw -> one-line uppercase text")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("stats", help="suffix-tree node counts")
    p.add_argument("text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("oshr-stats", help="suffix-link-tree shape counts")
    p.add_argument("text")
    p.set_defaults(func=cmd_oshr_stats)

    p = sub.add_parser("build", help="build an index file")
    p.add_argument("text")
    p.add_argument("-o", "--output", required=True, metavar="index.otix")
    p.add_argument(
        "--length-mode",
        default="all",
        help="all | exact:N | atmost:N | range:LO:HI (default all)",
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("index-stats", help="summarize a stored index")
    p.add_argument("index", metavar="index.otix")
    p.set_defaults(func=cmd_index_stats)

    p = sub.add_parser(
        "query",
        help="one pattern-under-node query",
        description="Answer one query from a stored index.  The TSV row gives "
        "the route that answered it (not-in-text, root-trivial, leaf, or "
        "binary-search for the locus node's store), the witness, and the "
        "probes and length of that store.",
    )
    p.add_argument("index", metavar="index.otix")
    p.add_argument("text")
    p.add_argument("--pattern", required=True)
    p.add_argument(
        "--node",
        required=True,
        help="internal node id, or its path label walked from the root",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also run the walk baseline and report its counters",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("audit", help="differential audit vs naive oracle")
    p.add_argument("--seed", type=int, default=AUDIT_SEED_DEFAULT)
    p.add_argument("--texts", type=int, default=AUDIT_TEXTS_DEFAULT)
    p.add_argument("--max-n", type=int, default=BRUTE_N_CAP)
    p.add_argument(
        "--configs",
        choices=["all", "default"],
        default="all",
        help="'all' runs the serving build and the paper's 8-way reference grid, "
        "'default' just the serving build",
    )
    p.add_argument(
        "--no-minimize",
        action="store_true",
        help="report counterexamples on their original text without shrinking",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench", help="index vs walk benchmark, TSV report")
    p.add_argument("index", metavar="index.otix")
    p.add_argument("text")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP)
    p.add_argument("-o", "--output", default="-", help="report path, - for stdout")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TextError, BuildError, StorageError, QueryConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
