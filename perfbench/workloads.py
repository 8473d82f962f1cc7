"""Seeded inputs for the benchmark workloads.

Each workload is a fixed text plus a query pool drawn from ``--seed``.  The
text is generated from a constant seed so that the index (and with it
``setup_s``, ``reload_s``, ``index_bytes`` and ``peak_rss_mib``) is the same
in every run: the genome generator's repeat families differ so much between
seeds that the stored index size alone swings by 30 %, which would drown any
real change.  The traffic -- which positions, nodes and lengths are queried --
comes from ``--seed``.

Nodes are addressed by the ids of the suffix tree the program builds (that is
how the query API names them); every pattern and every node label is a slice
of the raw text bytes, so the truth in :mod:`check` never consults the index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from otindex import genome_slice, random_text
from otindex.bench import PatternProtocol, extract_patterns, nodes_by_depth, sample_nodes
from otindex.oracle import splitmix64

TEXT_SEED = 2026
GENOME_N = 100_000
UNIFORM_N = 100_000
UNIFORM_SIGMA = 4

POINT_POOL = 10000  # distinct point queries per run; every round asks all of them
HIT_LENGTHS = (4, 24)  # pattern length range, inclusive
MISS_LENGTHS = (4, 10)
FANOUT_NODE_CAP = 40  # sampled start nodes per string depth
FANOUT_MAX_DEPTH = 20

WORKLOADS = ("genome-hits", "uniform-misses", "genome-fanout")


@dataclass(frozen=True)
class Call:
    """One call into the query layer: a pattern and its start nodes.

    Point workloads have one node per call (``search``); the fan-out workload
    has one call per (pattern, string depth) with all sampled nodes of that
    depth (``search_many``).  ``labels[k]`` is the path label of
    ``nodes[k]``.
    """

    pattern: bytes
    nodes: tuple[int, ...]
    labels: tuple[bytes, ...]


def make_text(workload: str):
    if workload == "uniform-misses":
        return random_text(TEXT_SEED, UNIFORM_N, UNIFORM_SIGMA)
    return genome_slice(TEXT_SEED, GENOME_N)


def make_calls(workload: str, st, seed: int) -> list[Call]:
    if workload == "genome-hits":
        return _hit_calls(st, random.Random(seed))
    if workload == "uniform-misses":
        return _miss_calls(st, random.Random(seed))
    return _fanout_calls(st, seed)


def _hit_calls(st, rng: random.Random) -> list[Call]:
    """Pattern cut just after label(i), for i an internal ancestor of leaf(w).

    label(i) + p then occurs at w by construction, so every answer is yes.
    """
    data = st.data
    n = st.n
    out: list[Call] = []
    while len(out) < POINT_POOL:
        w = rng.randrange(n)
        ancestors = []
        v = st.parent[st.leaf_for_suffix[w]]
        while v != st.root:
            ancestors.append(v)
            v = st.parent[v]
        if not ancestors:
            continue
        i = ancestors[rng.randrange(len(ancestors))]
        di = st.depth[i]
        length = rng.randint(*HIT_LENGTHS)
        if w + di + length > n:
            continue
        out.append(Call(data[w + di : w + di + length], (i,), (data[w : w + di],)))
    return out


def _miss_calls(st, rng: random.Random) -> list[Call]:
    """A uniformly drawn internal node with a pattern occurring at least twice."""
    data = st.data
    n = st.n
    out: list[Call] = []
    while len(out) < POINT_POOL:
        i = rng.randrange(1, st.n_nodes)
        if not st.is_internal(i):
            continue
        length = rng.randint(*MISS_LENGTHS)
        q = rng.randrange(n - length + 1)
        p = data[q : q + length]
        if data.find(p) == q and data.find(p, q + 1) == -1:
            continue  # unique: its locus would be a leaf edge
        out.append(Call(p, (i,), (st.label(i),)))
    return out


def _fanout_calls(st, seed: int) -> list[Call]:
    """The depth-stratified protocol of ``otindex bench``, one batch per
    (pattern, depth): patterns cut at 10*i*L, nodes sampled per depth."""
    patterns = [e.pattern for e in extract_patterns(st, PatternProtocol())]
    by_depth = nodes_by_depth(st, FANOUT_MAX_DEPTH)
    stream = splitmix64(seed)
    starts = [
        tuple(sample_nodes(by_depth[d], FANOUT_NODE_CAP, stream))
        for d in range(1, FANOUT_MAX_DEPTH + 1)
    ]
    starts = [s for s in starts if s]
    labels = [tuple(st.label(v) for v in s) for s in starts]
    return [Call(p, s, lab) for p in patterns for s, lab in zip(starts, labels)]


def is_batch(workload: str) -> bool:
    """Whether the workload's calls go through ``search_many``."""
    return workload == "genome-fanout"
