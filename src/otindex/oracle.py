"""Ground truth and differential auditing for the index.

The audit pipeline has three layers:

1. naive text scanning (obviously correct, quadratic) produces ground truth
   for every (internal node, pattern) pair on small texts;
2. the walk-based baseline search is checked against that truth;
3. the indexed search is checked against both, over a configuration matrix.

Random corpora come from an explicit SplitMix64 stream so any run can be
reproduced from its seed alone, in any implementation of the generator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .build import BuildConfig, OtIndex, build_index
from .oshr import OshrTree
from .query import Query, QueryResult, search, search_many, walk_search_baseline
from .reference import (
    CLASSIFY_LINKED,
    CLASSIFY_UNLINKED,
    ORIGIN_LABELS,
    ReferenceConfig,
    build_reference,
    reduce_to_deepest,
)
from .suffix_tree import SuffixTree, build
from .text import Text, alphabet, with_sentinel

# ----------------------------------------------------------------- randomness

_SM64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """Infinite stream of 64-bit values from the SplitMix64 recurrence.

    state += 0x9E3779B97F4A7C15;
    z = state; z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z >> 27) * 0x94D049BB133111EB; yield z ^ z >> 31.
    """
    state = seed & _MASK64
    while True:
        state = (state + _SM64_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_text(seed: int, n: int, sigma: int) -> Text:
    """Uniform random text of length ``n`` over the first ``sigma`` letters."""
    if not 2 <= sigma <= 26:
        raise ValueError("sigma out of range")
    stream = splitmix64(seed)
    base = ord("A")
    content = bytes(base + (next(stream) % sigma) for _ in range(n))
    return with_sentinel(content)


def genome_slice(seed: int, n: int) -> Text:
    """Synthetic genome-like text modeled on real assembly architecture.

    Composition-biased background (not uniform: real DNA has skewed base
    usage) interleaved with the repeat classes genomes are dominated by:
    dispersed element families (many lightly diverged copies of a few
    mobile-element-like sequences), occasional segmental duplications of
    earlier regions, and short tandem arrays.  Roughly half of the output
    is repeat-derived, matching typical assemblies.
    """
    stream = splitmix64(seed)
    acgt = b"ACGT"
    background = b"AAAAAAACCCCCGGGT"  # 7/16 A, 5/16 C, 3/16 G, 1/16 T

    def fresh(k: int) -> bytes:
        return bytes(background[next(stream) % 16] for _ in range(k))

    def mutate(piece: bytearray, inv: int) -> bytes:
        for k in range(len(piece)):
            if next(stream) % inv == 0:
                piece[k] = acgt[next(stream) % 4]
        return bytes(piece)

    n_fam = 4 + next(stream) % 4
    families = [fresh(300 + next(stream) % 2700) for _ in range(n_fam)]
    out = bytearray(fresh(min(max(64, n // 64), n)))
    while len(out) < n:
        r = next(stream) % 16
        if r < 6:  # fresh background
            out += fresh(200 + next(stream) % 800)
        elif r < 12:  # dispersed element copy, ~1% divergence
            out += mutate(bytearray(families[next(stream) % n_fam]), 100)
        elif r < 14:  # segmental duplication of an earlier region
            span = 500 + next(stream) % 7500
            at = next(stream) % max(1, len(out) - span) if len(out) > span else 0
            out += mutate(bytearray(out[at : at + span]), 300)
        else:  # tandem array
            unit_len = 5 + next(stream) % 196
            at = next(stream) % max(1, len(out) - unit_len)
            unit = out[at : at + unit_len]
            out += mutate(bytearray(unit * (3 + next(stream) % 28)), 300)
    return with_sentinel(bytes(out[:n]))


def fibonacci_word(n: int) -> bytes:
    """The first ``n`` symbols of the Fibonacci word over A, B."""
    prev, cur = b"A", b"AB"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def thue_morse_word(n: int) -> bytes:
    """The first ``n`` symbols of the Thue-Morse word over A, B."""
    return bytes(b"AB"[bin(k).count("1") & 1] for k in range(n))


# --------------------------------------------------------------- ground truth

BRUTE_N_CAP = 512
SUBSTRING_SWEEP_CAP = 128


@dataclass
class GroundTruth:
    """Naive-scan occurrence facts for one text.

    ``patterns`` is the deterministic candidate list; ``truth(i, p)`` answers
    whether ``p`` occurs immediately under internal node ``i``, computed from
    raw text positions only.  ``core_patterns`` is the subset made of node
    labels and edge-prefix cuts (no substring sweep), which differential runs
    use on larger texts to keep pair counts linear in the tree size.
    """

    text: Text
    node_ids: list[int]
    node_depth: dict[int, int]
    node_occ: dict[int, frozenset[int]]
    patterns: list[bytes]
    core_patterns: list[bytes]
    pattern_occ: dict[bytes, tuple[int, ...]]

    def truth(self, node: int, pattern: bytes) -> bool:
        d = self.node_depth[node]
        occ_label = self.node_occ[node]
        return any(q - d in occ_label for q in self.pattern_occ[pattern])

    def witness_positions(self, node: int, pattern: bytes) -> list[int]:
        d = self.node_depth[node]
        occ_label = self.node_occ[node]
        return [q - d for q in self.pattern_occ[pattern] if q - d in occ_label]


def _scan(data: bytes, pattern: bytes) -> tuple[int, ...]:
    if pattern == b"":
        return tuple(range(len(data) + 1))
    out = []
    at = data.find(pattern)
    while at != -1:
        out.append(at)
        at = data.find(pattern, at + 1)
    return tuple(out)


def _edge_cut_candidates(st: SuffixTree, max_len: int) -> set[bytes]:
    """Node labels and every prefix cut of every edge, capped at ``max_len``."""
    data = st.text.data
    cands: set[bytes] = set()
    for v in range(1, st.n_nodes):
        top = st.depth[st.parent[v]]
        s = st.suffix_idx[st.leftmost_leaf(v)]
        for d in range(top + 1, min(st.depth[v], max_len) + 1):
            cands.add(data[s : s + d])
    return cands


def brute_truth(st: SuffixTree, max_len: int = 16) -> GroundTruth:
    """Ground truth for every internal node and candidate pattern.

    Candidates are the node labels and every prefix cut of every edge, capped
    at ``max_len`` symbols, plus the empty pattern; for texts of at most 128
    content symbols every substring up to ``max_len`` is swept in as well.
    Occurrence positions come from naive scanning of the text, so no tree
    navigation can contaminate the truth values.
    """
    text = st.text
    if text.n > BRUTE_N_CAP:
        raise ValueError("brute truth is restricted to small texts")
    data = text.data

    core: set[bytes] = {b""} | _edge_cut_candidates(st, max_len)
    cands = set(core)
    if text.n <= SUBSTRING_SWEEP_CAP:
        for i in range(len(data)):
            for j in range(i + 1, min(len(data), i + max_len) + 1):
                cands.add(data[i:j])

    patterns = sorted(cands)
    pattern_occ = {p: _scan(data, p) for p in patterns}

    node_ids = [v for v in range(st.n_nodes) if st.is_internal(v)]
    node_depth = {}
    node_occ = {}
    for v in node_ids:
        lbl = st.label(v)
        node_depth[v] = len(lbl)
        node_occ[v] = frozenset(_scan(data, lbl))
    return GroundTruth(
        text=text,
        node_ids=node_ids,
        node_depth=node_depth,
        node_occ=node_occ,
        patterns=patterns,
        core_patterns=sorted(core),
        pattern_occ=pattern_occ,
    )


# --------------------------------------------------------------------- audit

FULL_PAIR_SWEEP_CAP = 48  # content length up to which swept substrings join the pair loop
BASELINE_PAIR_CAP = 20_000  # above this many pairs the walk baseline is sampled
BASELINE_SAMPLE = 2_000
EXAMPLE_CAP = 5
AUDIT_SEED_DEFAULT = 2026
AUDIT_TEXTS_DEFAULT = 200

# the two classic texts, then texts where suffix trees degenerate: single
# runs, short periods, Fibonacci and Thue-Morse words, long runs.  The
# reference builder is quadratic on them, so they stay short.
FIXTURE_CONTENTS = (
    b"BANANA",
    b"MISSISSIPPI",
    b"A" * 64,
    b"AB" * 32,
    b"AAB" * 21,
    b"ABCA" * 12,
    fibonacci_word(89),
    thue_morse_word(64),
    b"A" * 20 + b"B" * 12 + b"A" * 20 + b"C" + b"A" * 19 + b"B" * 12,
)


def audit_config_matrix() -> tuple[BuildConfig | ReferenceConfig, ...]:
    """The serving build, then the paper's grid: classification x exclusion
    x leaf cover.

    The serving build comes first so reports lead with it; the reference
    cover-off rows reproduce the sparse store whose completeness gaps the
    audit documents.
    """
    out: list[BuildConfig | ReferenceConfig] = [BuildConfig()]
    for mode in (CLASSIFY_LINKED, CLASSIFY_UNLINKED):
        for excl in (True, False):
            for cover in (True, False):
                out.append(
                    ReferenceConfig(
                        classification_mode=mode,
                        exclusion_rule_enabled=excl,
                        leaf_edge_cover=cover,
                    )
                )
    return tuple(out)


def index_for(st: SuffixTree, oshr: OshrTree, cfg: BuildConfig | ReferenceConfig):
    """(store answered by search, reference store or None) for one grid row."""
    if isinstance(cfg, ReferenceConfig):
        ref = build_reference(st, oshr, cfg)
        return reduce_to_deepest(ref), ref
    return build_index(st, oshr, cfg), None


@dataclass(frozen=True)
class Counterexample:
    """One concrete failing (text, pattern, node) triple, possibly shrunk."""

    kind: str  # "miss" | "spurious" | "baseline"
    content: bytes  # text content without sentinel
    pattern: bytes
    node_label: bytes
    config: str


@dataclass
class AuditReport:
    """Differential tallies for one build configuration across a corpus.

    For a reference row, total_entries, base_suffix_records and the entry
    bound count the paper's store; for the serving row, stored values.
    """

    config: BuildConfig | ReferenceConfig
    texts: int = 0
    pairs: int = 0
    found: int = 0
    spurious: int = 0  # index says yes, naive scan says no
    misses: int = 0  # naive scan says yes, index says no
    soundness_failures: int = 0  # witness rejected by position bookkeeping
    structure_failures: int = 0  # store invariant broken
    key_set_mismatches: int = 0  # nodes where a reduced reference store disagrees
    probe_violations: int = 0  # probes above ceil(log2 m) + 1
    total_entries: int = 0
    base_suffix_records: int = 0
    entry_bound_violations: int = 0  # texts where entries exceed 2 * sigma * n
    max_entry_ratio: float = 0.0  # max over texts of entries / (2 * sigma * n)
    route_counts: dict[str, int] = field(default_factory=dict)
    origin_entries: dict[str, int] = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.spurious == 0
            and self.misses == 0
            and self.soundness_failures == 0
            and self.structure_failures == 0
            and self.key_set_mismatches == 0
            and self.probe_violations == 0
        )


@dataclass
class BaselineReport:
    """Walk-baseline agreement with the naive scan (config independent)."""

    pairs: int = 0
    disagreements: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)


@dataclass
class AuditRun:
    """Everything one audit invocation produced."""

    seed: int
    max_n: int
    corpus_size: int
    reports: list[AuditReport]
    baseline: BaselineReport

    @property
    def any_spurious(self) -> bool:
        return any(r.spurious for r in self.reports)

    @property
    def universal_miss(self) -> bool:
        return all(r.misses for r in self.reports)

    @property
    def ok(self) -> bool:
        return (
            not self.any_spurious
            and not self.universal_miss
            and self.baseline.disagreements == 0
            and all(
                r.soundness_failures == 0
                and r.structure_failures == 0
                and r.key_set_mismatches == 0
                and r.probe_violations == 0
                for r in self.reports
            )
        )


def _probe_cap(m: int) -> int:
    return math.ceil(math.log2(m)) + 1


def _structure_violations(st: SuffixTree, idx: OtIndex) -> int:
    """Count broken store invariants; zero on every healthy build.

    Per node, keys are strictly ascending and never the root's; each value
    is sound (the node's label occurs at occ and the key node's label ends
    there); each key is deepest (the next key lies past its OSHR interval).
    """
    bad = 0
    data = st.text.data
    depth = st.depth
    n1 = st.n + 1
    pre = idx.oshr.preorder
    right_ot = idx.oshr.right_ot
    for node, arr in idx.entries.items():
        label = st.label(node)
        d = len(label)
        prev_key = prev_end = 0
        for value in arr:
            key, occ = divmod(value, n1)
            if not 0 < key < len(pre):
                bad += 1
                continue
            if key <= prev_key or value < prev_end:
                bad += 1  # repeated or out of order, or the previous key is not deepest
            top = pre[key]
            dt = depth[top]
            if data[occ : occ + d] != label or occ < dt or data[occ - dt : occ] != st.label(top):
                bad += 1
            prev_key = key
            prev_end = (right_ot[top] + 1) * n1
    return bad


def _key_set_mismatches(direct: OtIndex, reduced: OtIndex, *, exact: bool) -> int:
    """Nodes where a reduced reference store disagrees with the direct store.

    With ``exact`` the key sets must be equal.  Otherwise each reduced key's
    OSHR interval must hold a direct key: the reduced store then says yes
    only where the direct store does.  A plain subset is too strong for an
    incomplete store, which keeps an ancestor key when it lacks the deeper
    one (BANANA, node NA: key A where the direct store has ANA).
    """
    n1 = direct.st.n + 1
    pre = direct.oshr.preorder
    right_ot = direct.oshr.right_ot
    bad = 0
    for node in direct.entries.keys() | reduced.entries.keys():
        want = [v // n1 for v in direct.entries.get(node, ())]
        got = [v // n1 for v in reduced.entries.get(node, ())]
        if exact:
            bad += got != want
            continue
        for k in got:
            at = bisect_left(want, k)
            if at == len(want) or want[at] > right_ot[pre[k]]:
                bad += 1
                break
    return bad


def _failure_reproduces(
    content: bytes,
    pattern: bytes,
    node_label: bytes,
    cfg: BuildConfig | ReferenceConfig,
    kind: str,
) -> bool:
    st = build(with_sentinel(content))
    out = st.walk_from(st.root, node_label)
    if out.matched != len(node_label) or not out.exact_node:
        return False
    node = out.locus_below
    if not st.is_internal(node):
        return False
    idx, _ref = index_for(st, OshrTree(st), cfg)
    try:
        res = search(idx, Query(pattern, node))
    except AssertionError:
        return True  # an unsound answer reproduces either failure kind
    t = (node_label + pattern) in st.text.data
    if kind == "miss":
        return t and not res.found
    return res.found and not t


def minimize_counterexample(
    content: bytes,
    pattern: bytes,
    node_label: bytes,
    cfg: BuildConfig | ReferenceConfig,
    kind: str,
) -> bytes:
    """Shortest reproducing prefix of ``content``, found by length bisection.

    The caller has already observed the failure on the full text, so the
    full length is always a valid fallback.
    """
    best = len(content)
    lo, hi = max(1, len(node_label) + len(pattern)), len(content)
    while lo < hi:
        mid = (lo + hi) // 2
        if _failure_reproduces(content[:mid], pattern, node_label, cfg, kind):
            best = mid
            hi = mid
        else:
            lo = mid + 1
    return content[:best]


def _note(
    rep: AuditReport,
    kind: str,
    text: Text,
    pattern: bytes,
    node_label: bytes,
    cfg: BuildConfig | ReferenceConfig,
    minimize: bool,
) -> None:
    if len(rep.counterexamples) >= EXAMPLE_CAP:
        return
    content = text.content
    if minimize:
        content = minimize_counterexample(content, pattern, node_label, cfg, kind)
    rep.counterexamples.append(
        Counterexample(kind, content, pattern, node_label, cfg.describe())
    )


def audit_text(
    text: Text,
    configs,
    reports: list[AuditReport],
    baseline: BaselineReport,
    *,
    max_len: int = 16,
    minimize: bool = True,
) -> int:
    """Audit one text under every configuration; returns pairs per config.

    Layer 1 is the naive scan (brute_truth), layer 2 the walk baseline
    checked against it, layer 3 the indexed search checked against both.
    Each reference row's reduced store is also compared with the direct
    store, node by node (:func:`_key_set_mismatches`): equal key sets with
    the leaf-edge cover, covered keys without it.
    """
    st = build(text)
    oshr = OshrTree(st)
    gt = brute_truth(st, max_len)
    nodes = gt.node_ids
    depths = gt.node_depth
    occ_label = gt.node_occ
    pats = gt.patterns if text.n <= FULL_PAIR_SWEEP_CAP else gt.core_patterns
    occ_sets = {p: frozenset(gt.pattern_occ[p]) for p in pats}
    sigma = alphabet(text).size_with_sentinel
    bound = 2 * sigma * text.n

    direct: dict[BuildConfig, OtIndex] = {}
    for cfg, rep in zip(configs, reports):
        idx, ref = index_for(st, oshr, cfg)
        rep.texts += 1
        rep.structure_failures += _structure_violations(st, idx)
        if ref is None:
            direct[cfg] = idx
            tot = idx.total_entries
        else:
            tot = ref.total_entries
            rep.base_suffix_records += sum(len(a) for a in ref.base_suffixes.values())
            for code, cnt in ref.origin_counts.items():
                key = ORIGIN_LABELS[code]
                rep.origin_entries[key] = rep.origin_entries.get(key, 0) + cnt
            want = BuildConfig(cfg.length_mode)
            if want not in direct:
                direct[want] = build_index(st, oshr, want)
            rep.key_set_mismatches += _key_set_mismatches(
                direct[want], idx, exact=cfg.leaf_edge_cover
            )
        rep.total_entries += tot
        if tot > bound:
            rep.entry_bound_violations += 1
        ratio = tot / bound
        if ratio > rep.max_entry_ratio:
            rep.max_entry_ratio = ratio

        admits = idx.config.length_mode.admits
        for p in pats:
            if p and not admits(len(p)):
                continue
            occ_p = occ_sets[p]
            # occurrences of p shifted back by a start depth, one set per depth
            shifted: dict[int, set[int]] = {}
            try:
                results = search_many(idx, p, nodes)
            except AssertionError:
                # a result failed the built-in witness check; redo one node at
                # a time so the failure lands on the right pair
                results = []
                for i in nodes:
                    try:
                        results.append(search(idx, Query(p, i)))
                    except AssertionError:
                        results.append(None)
            rep.pairs += len(results)
            for i, res in zip(nodes, results):
                if res is None:
                    rep.soundness_failures += 1
                    _note(rep, "spurious", text, p, st.label(i), cfg, False)
                    continue
                rep.route_counts[res.route] = rep.route_counts.get(res.route, 0) + 1
                if res.host_entries and res.probes > _probe_cap(res.host_entries):
                    rep.probe_violations += 1
                d = depths[i]
                starts = shifted.get(d)
                if starts is None:
                    starts = shifted[d] = {q - d for q in occ_p}
                t = not occ_label[i].isdisjoint(starts)
                if res.found:
                    rep.found += 1
                    w = res.witness
                    if w is None or w not in occ_label[i] or w + d not in occ_p:
                        rep.soundness_failures += 1
                        _note(rep, "spurious", text, p, st.label(i), cfg, False)
                    elif not t:
                        rep.spurious += 1
                        _note(rep, "spurious", text, p, st.label(i), cfg, minimize)
                elif t:
                    rep.misses += 1
                    _note(rep, "miss", text, p, st.label(i), cfg, minimize)

    # config-independent: walk baseline vs. the naive scan
    total = len(pats) * len(nodes)
    if total <= BASELINE_PAIR_CAP:
        chosen = [(p, i) for p in pats for i in nodes]
    else:
        import zlib

        stream = splitmix64(zlib.crc32(text.data) ^ (text.n << 32))
        chosen = []
        for _ in range(BASELINE_SAMPLE):
            r = next(stream)
            chosen.append((pats[r % len(pats)], nodes[(r >> 32) % len(nodes)]))
    for p, i in chosen:
        res = walk_search_baseline(st, Query(p, i))
        t = any(q - depths[i] in occ_label[i] for q in occ_sets[p])
        baseline.pairs += 1
        if res.found != t:
            baseline.disagreements += 1
            if len(baseline.counterexamples) < EXAMPLE_CAP:
                baseline.counterexamples.append(
                    Counterexample("baseline", text.content, p, st.label(i), "walk")
                )
    return total


def audit_corpus(seed: int, texts: int, max_n: int) -> list[Text]:
    """Deterministic bottom-heavy corpus: mostly short texts, a few longer.

    Eight of every ten texts stay at or below 96 symbols where the full
    substring sweep is affordable; one reaches 256 and one the full cap.
    Alphabets cycle through sizes 2-4.
    """
    if max_n < 16:
        raise ValueError("max_n must be at least 16")
    stream = splitmix64(seed)
    out: list[Text] = []
    for _ in range(texts):
        band = next(stream) % 10
        if band < 8:
            span = min(96, max_n)
        elif band == 8:
            span = min(256, max_n)
        else:
            span = max_n
        n = 16 + next(stream) % (span - 15)
        sigma = 2 + next(stream) % 3
        out.append(random_text(next(stream) & 0x7FFFFFFF, n, sigma))
    return out


def audit(
    seed: int = AUDIT_SEED_DEFAULT,
    texts: int = AUDIT_TEXTS_DEFAULT,
    max_n: int = BRUTE_N_CAP,
    configs=None,
    *,
    max_len: int = 16,
    fixtures: bool = True,
    minimize: bool = True,
    on_text=None,
) -> AuditRun:
    """Differential audit over a reproducible corpus.

    Builds every configuration's index on every text, compares search()
    against naive-scan truth on all candidate pairs, and cross-checks the
    walk baseline.  Identical arguments produce an identical AuditRun.
    """
    if configs is None:
        configs = audit_config_matrix()
    corpus: list[Text] = []
    if fixtures:
        corpus += [with_sentinel(c) for c in FIXTURE_CONTENTS]
    corpus += audit_corpus(seed, texts, max_n)
    reports = [AuditReport(config=c) for c in configs]
    baseline = BaselineReport()
    for k, t in enumerate(corpus):
        audit_text(t, configs, reports, baseline, max_len=max_len, minimize=minimize)
        if on_text is not None:
            on_text(k + 1, len(corpus))
    return AuditRun(
        seed=seed,
        max_n=max_n,
        corpus_size=len(corpus),
        reports=reports,
        baseline=baseline,
    )
