"""Spans around the calls into each layer's public functions.

A span is (name, start, end, parent, query id), kept in flat arrays while the
run lasts and written out when it ends.  The benchmark opens spans around the
calls it makes itself; inside an :func:`installed` block the public
functions that the program calls internally are wrapped too (``search``
calls ``locate`` and ``search_at``; ``build_index`` calls
``reference_leaf_contexts`` and ``leaf_edge_cover_suffixes``;
``deserialize`` builds an ``OshrTree``), by rebinding the names the calling
module looks up.  The program itself is not edited.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute the module looks up, span name)
PROGRAM_CALLS = (
    ("otindex.query", "locate", "suffix_tree.locate"),
    ("otindex.query", "search_at", "query.search_at"),
    ("otindex.build", "reference_leaf_contexts", "oshr.reference_leaf_contexts"),
    ("otindex.build", "leaf_edge_cover_suffixes", "build.leaf_edge_cover_suffixes"),
    ("otindex.storage", "OshrTree", "oshr.OshrTree"),
)


class Tracer:
    """Spans of one process, one flat array per field; ``query_id`` is
    stamped on every span opened while it is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.query_id = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        k = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.qid.append(self.query_id)
        self.end.append(-1)
        self._open.append(k)
        self.start.append(time.perf_counter_ns())
        return k

    def close(self, k: int) -> None:
        self.end[k] = time.perf_counter_ns()
        if self._open.pop() != k:
            raise AssertionError("spans must close in the order they opened")

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            k = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(k)

        return traced

    def self_seconds(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Self time per span name over spans [since, until): a span's duration
        minus the durations of its direct children."""
        until = len(self) if until is None else until
        own = [self.end[k] - self.start[k] for k in range(since, until)]
        for k in range(since, until):
            p = self.parent[k]
            if p >= since:
                own[p - since] -= self.end[k] - self.start[k]
        out: dict[str, float] = defaultdict(float)
        for k in range(since, until):
            out[self.names[self.name[k]]] += own[k - since] / 1e9
        return out

    def write(self, path) -> None:
        """One TSV row per span: name, start_ns, end_ns, parent row, query id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tquery_id\n")
            names = self.names
            for k in range(len(self)):
                fh.write(
                    f"{k}\t{names[self.name[k]]}\t{self.start[k]}\t{self.end[k]}"
                    f"\t{self.parent[k]}\t{self.qid[k]}\n"
                )


@contextmanager
def installed(tracer: Tracer | None):
    """Inside the block, the program's internal calls open spans on ``tracer``
    (nothing changes when it is None)."""
    if tracer is None:
        yield
        return
    saved = []
    for mod_name, attr, span in PROGRAM_CALLS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(fn, span))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def call(tracer: Tracer | None, name: str, fn, *args):
    """``fn(*args)``, inside a span when tracing."""
    return fn(*args) if tracer is None else tracer.wrap(fn, name)(*args)
