"""End-to-end benchmark of otindex: one workload, one seed, one process.

    python3 perfbench/run.py --workload genome-hits --seed 1 --seconds 30 --trace 0

A single closed-loop client sends the next query only after the previous
answer returns.  The run builds the index from the text, stores it, and
answers whole passes over the seeded query pool for ``--seconds``; restarts
spread over that window drop the index and reload it from the stored bytes.
Every answer is checked against a truth computed from the raw text bytes
(see ``check.py``); a wrong answer or a raised exception counts as a failed
operation.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run records spans around the
calls into each layer, writes them to ``perfbench/out/`` and reports the
per-layer metrics instead.  The package is imported from ``src/`` of the
checkout the script sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from check import answer_fault, entry_bound, truth_for_call
from spans import Tracer, call, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 4  # timed passes per run, however short --seconds is
RELOADS = 5  # restarts timed per run; reload_s is the fastest
RELOAD_SAMPLE_STRIDE = 10  # the traced run's reloaded index answers every 10th call
MAX_REPORTED_FAULTS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import otindex from this checkout's src/, or exit with status 1."""
    if not (SRC / "otindex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'otindex'}")
    sys.path.insert(0, str(SRC))
    import otindex

    if Path(otindex.__file__).resolve().parent != (SRC / "otindex").resolve():
        sys.exit(f"perfbench: imported otindex from {otindex.__file__}, not {SRC}")
    return otindex


class Client:
    """The closed-loop client: runs passes over the pool and checks answers."""

    def __init__(self, otindex, data: bytes, batch: bool):
        self.search = otindex.search
        self.search_many = otindex.search_many
        self.Query = otindex.Query
        self.data = data
        self.batch = batch
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.faults: list[str] = []

    def run_pass(self, idx, items, latencies: array | None = None, tracer=None) -> int:
        """Answer every (call, truth) item once; returns the nanoseconds spent
        inside calls into the query layer."""
        clock = time.perf_counter_ns
        search, search_many, Query = self.search, self.search_many, self.Query
        data = self.data
        busy = 0
        for k, (call, truth) in enumerate(items):
            pattern = call.pattern
            t0 = clock()
            if tracer is not None:
                tracer.query_id = k
                root = tracer.open("query.search_many" if self.batch else "query.search")
            try:
                if self.batch:
                    answers = search_many(idx, pattern, call.nodes)
                else:
                    answers = (search(idx, Query(pattern, call.nodes[0])),)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                answers = exc
            if tracer is not None:
                tracer.close(root)
            dt = clock() - t0
            busy += dt
            if latencies is not None:
                latencies.append(dt)

            pairs = len(call.nodes)
            self.attempted += pairs
            if isinstance(answers, Exception):
                self._fail(pairs, f"{pattern!r} raised {answers!r}")
                continue
            for j, res in enumerate(answers):
                fault = answer_fault(
                    data, call.labels[j], pattern, truth[j],
                    res.found, res.witness, res.probes, res.host_entries,
                )
                if fault is not None:
                    self.wrong += 1
                    self._fail(1, f"{pattern!r} under node {call.nodes[j]}: {fault}")
        return busy

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.faults) < MAX_REPORTED_FAULTS:
            self.faults.append(why)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    otindex = import_program()
    import_s = time.perf_counter() - t_import
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    from otindex import BuildConfig, OshrTree, build, build_index, deserialize, serialize

    text = workloads.make_text(args.workload)
    data = text.data
    tracer = Tracer() if args.trace else None

    # ---- set-up: text bytes to a queryable index, once, cold
    with installed(tracer):
        t0 = time.perf_counter()
        st = call(tracer, "suffix_tree.build", build, text)
        oshr = call(tracer, "oshr.OshrTree", OshrTree, st)
        idx = call(tracer, "build.build_index", build_index, st, oshr, BuildConfig())
        setup_s = import_s + time.perf_counter() - t0
        blob = call(tracer, "storage.serialize", serialize, idx)
    setup_spans = len(tracer) if tracer else 0

    def restart():
        """A restart: the stored bytes and the text to a queryable index."""
        with installed(tracer):
            t0 = time.perf_counter()
            st = call(tracer, "suffix_tree.build", build, text)
            idx = call(tracer, "storage.deserialize", deserialize, blob, st)
            return idx, time.perf_counter() - t0

    calls = workloads.make_calls(args.workload, st, args.seed)
    items = [(c, truth_for_call(data, c.pattern, c.labels)) for c in calls]
    checks_ok = idx.total_entries <= entry_bound(data)
    if args.workload == "genome-hits":
        checks_ok &= all(all(t) for _c, t in items)  # the generator promises yes
    client = Client(otindex, data, workloads.is_batch(args.workload))
    client.run_pass(idx, items)  # warm-up

    if tracer is None:
        # ---- whole passes over the pool for --seconds.  RELOADS restarts,
        # spread over the window, each replace the index in use: every
        # reloaded index answers full passes, and the restart times sample
        # the whole window rather than one stretch of it.
        passes = []  # per pass: p50 ns, p99 ns, pairs per second
        reloads = []
        del st, oshr
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(reloads) < RELOADS and elapsed >= len(reloads) * args.seconds / RELOADS:
                idx = None
                gc.collect()
                idx, took = restart()
                reloads.append(took)
                continue
            if len(passes) >= MIN_PASSES and len(reloads) == RELOADS and elapsed >= args.seconds:
                break
            latencies = array("q")
            before = client.attempted
            busy_ns = client.run_pass(idx, items, latencies)
            ordered = sorted(latencies)
            passes.append(
                (
                    percentile(ordered, 50),
                    percentile(ordered, 99),
                    (client.attempted - before) / (busy_ns / 1e9),
                )
            )
        # Slow stretches of a shared machine only ever add time, and can last
        # longer than a run, so the fastest decile of the passes is the figure
        # that repeats between runs.
        p50s, p99s, rates = zip(*passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "reload_s": (min(reloads), "s"),
            "index_bytes": (len(blob), "bytes"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "query_p50_us": (statistics.quantiles(p50s, n=10)[0] / 1e3, "us"),
            "query_p99_us": (statistics.quantiles(p99s, n=10)[0] / 1e3, "us"),
            "queries_per_s": (statistics.quantiles(rates, n=10)[-1], "1/s"),
        }
        print(f"perfbench: {len(passes)} timed passes of {len(items)} calls", file=sys.stderr)
    else:
        import layers
        from otindex.oshr import reference_leaf_contexts

        plain_ns, traced_ns, query_self = layers.traced_passes(
            client, idx, items, args.seconds, tracer
        )
        counts = layers.count_pass(idx, items)
        baseline = layers.baseline_pass(st, items, data)
        checks_ok &= baseline[2] == 0
        n_contexts = len(reference_leaf_contexts(st))
        reload_spans = len(tracer)
        idx2, _took = restart()
        client.run_pass(idx2, items[::RELOAD_SAMPLE_STRIDE])
        metrics = layers.layer_metrics(
            idx,
            n_contexts,
            tracer.self_seconds(0, setup_spans),
            tracer.self_seconds(reload_spans),
            query_self,
            counts,
            baseline,
            100.0 * (traced_ns - plain_ns) / plain_ns,
        )
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_file)
        print(f"perfbench: {len(tracer)} spans written to {spans_file}", file=sys.stderr)

    for why in client.faults:
        print(f"perfbench: FAULT {why}", file=sys.stderr)
    if not checks_ok:
        print("perfbench: FAULT size bound, generator or baseline check failed", file=sys.stderr)
    report(client.wrong == 0 and checks_ok, client.attempted, client.failed, metrics)
    return 0


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
