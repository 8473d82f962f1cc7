"""The traced run's query phase and the per-layer metrics derived from it.

Times come from spans (self time: a span's duration minus its children's);
counts come from one untimed pass that replays ``search`` through the public
``locate`` and ``search_at`` and reads every ``QueryResult``.  Time metrics of
the query layer are seconds per pass over the pool, medians over the traced
passes; counts are per pass.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from check import answer_fault
from otindex import Query, WalkCounters, search_at, walk_search_baseline
from otindex.build import ENTRY_WIDTH
from spans import Tracer, installed

ROUTES = ("binary-search", "base-suffix", "leaf", "not-in-text", "root-trivial")

UNITS = {
    "suffix_tree.build_s": "s",
    "suffix_tree.nodes": "count",
    "suffix_tree.locate_s": "s",
    "suffix_tree.walk_symbols": "count",
    "oshr.build_s": "s",
    "oshr.contexts": "count",
    "oshr.contexts_s": "s",
    "build.index_s": "s",
    "build.leaf_cover_s": "s",
    "build.entries": "count",
    "build.hosts": "count",
    "build.base_suffixes": "count",
    "build.max_base_list": "count",
    "build.max_host_entries": "count",
    "query.search_at_s": "s",
    "query.calls": "count",
    "query.pairs": "count",
    **{f"query.route.{r}": "count" for r in ROUTES},
    "query.probes": "count",
    "query.base_scanned": "count",
    "query.rescues": "count",
    "query.binary_hit_ratio": "ratio",
    "query.binary_hit_base": "count",
    "query.walk_baseline_s": "s",
    "query.walk_baseline_ops": "count",
    "storage.serialize_s": "s",
    "storage.deserialize_s": "s",
    "trace.overhead_pct": "%",
}


def traced_passes(client, idx, items, seconds: float, tracer: Tracer):
    """Alternate untraced and traced passes for ``seconds`` (at least one of
    each).  The first traced pass records on ``tracer``, whose spans are
    written out; later ones use a throwaway tracer.

    Returns (median untraced pass ns, median traced pass ns, median self
    seconds per span name over the traced passes).
    """
    plain: list[int] = []
    traced: list[int] = []
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(client.run_pass(idx, items))
        t = tracer if not traced else Tracer()
        since = len(t)
        with installed(t):
            traced.append(client.run_pass(idx, items, tracer=t))
        per_pass.append(t.self_seconds(since))
    names = set().union(*per_pass)
    self_s = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
    return statistics.median(plain), statistics.median(traced), self_s


def count_pass(idx, items) -> Counter:
    """Route, probe and scan counts for one pass, plus the root walk's symbol
    comparisons and child lookups (``WalkCounters``)."""
    st = idx.st
    counts: Counter = Counter()
    for call, _truth in items:
        pattern = call.pattern
        walk = WalkCounters()
        outcome = st.walk_from(st.root, pattern, walk)  # the walk ``locate`` makes
        counts["walk_symbols"] += walk.symbol_cmp + walk.child_lookups
        counts["calls"] += 1
        for i in call.nodes:
            res = search_at(idx, outcome, pattern, i)
            counts["pairs"] += 1
            counts["route." + res.route] += 1
            counts["probes"] += res.probes
            counts["rescues"] += res.fallback_rescue
            if res.host_entries:
                counts["hosted"] += 1
                counts["binary_hits"] += res.route == "binary-search"
            if res.route == "base-suffix":
                scanned = idx.base_suffixes.get(outcome.locus_below) or ()
                if res.found:
                    counts["base_scanned"] += scanned.index(res.witness + st.depth[i]) + 1
                else:
                    counts["base_scanned"] += len(scanned)
    return counts


def baseline_pass(st, items, data: bytes):
    """``walk_search_baseline`` on every pair of the pool: (seconds, walk
    operations, wrong answers)."""
    walk = WalkCounters()
    clock = time.perf_counter_ns
    busy = 0
    wrong = 0
    for call, truth in items:
        for j, i in enumerate(call.nodes):
            t0 = clock()
            res = walk_search_baseline(st, Query(call.pattern, i), walk)
            busy += clock() - t0
            if answer_fault(data, call.labels[j], call.pattern, truth[j], res.found, res.witness, 0, 0):
                wrong += 1
    return busy / 1e9, walk.symbol_cmp + walk.child_lookups, wrong


def layer_metrics(idx, n_contexts, setup, reload, query, counts, baseline, overhead_pct):
    """Assemble the per-layer metrics, name -> value."""
    st = idx.st
    base_lists = [len(a) for a in idx.base_suffixes.values()]
    hosted = counts["hosted"]
    out = {
        "suffix_tree.build_s": setup["suffix_tree.build"],
        "suffix_tree.nodes": st.n_nodes,
        "suffix_tree.locate_s": query.get("suffix_tree.locate", 0.0),
        "suffix_tree.walk_symbols": counts["walk_symbols"],
        "oshr.build_s": setup["oshr.OshrTree"],
        "oshr.contexts": n_contexts,
        "oshr.contexts_s": setup["oshr.reference_leaf_contexts"],
        "build.index_s": setup["build.build_index"],
        "build.leaf_cover_s": setup.get("build.leaf_edge_cover_suffixes", 0.0),
        "build.entries": idx.total_entries,
        "build.hosts": len(idx.entries),
        "build.base_suffixes": sum(base_lists),
        "build.max_base_list": max(base_lists, default=0),
        "build.max_host_entries": max((len(a) // ENTRY_WIDTH for a in idx.entries.values()), default=0),
        "query.search_at_s": query.get("query.search_at", 0.0),
        "query.calls": counts["calls"],
        "query.pairs": counts["pairs"],
        **{f"query.route.{r}": counts["route." + r] for r in ROUTES},
        "query.probes": counts["probes"],
        "query.base_scanned": counts["base_scanned"],
        "query.rescues": counts["rescues"],
        "query.binary_hit_ratio": counts["binary_hits"] / hosted if hosted else 0.0,
        "query.binary_hit_base": hosted,
        "query.walk_baseline_s": baseline[0],
        "query.walk_baseline_ops": baseline[1],
        "storage.serialize_s": setup["storage.serialize"],
        "storage.deserialize_s": reload["storage.deserialize"],
        "trace.overhead_pct": overhead_pct,
    }
    return {name: (value, UNITS[name]) for name, value in out.items()}
