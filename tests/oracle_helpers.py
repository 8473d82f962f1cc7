"""Brute-force reference implementations used to validate the real ones.

Everything here works directly on byte strings with naive scans, so the
results are obviously correct and independent of the package's data
structures.
"""

from __future__ import annotations

from otindex.oracle import fibonacci_word, thue_morse_word

# texts where suffix trees degenerate (long runs, short periods, Fibonacci
# and Thue-Morse words), by test id; the derived arrays' orders could differ
# from their definitions here first
DEGENERATE_TEXTS = {
    "a300": b"a" * 300,
    "ab150": b"ab" * 150,
    "aab100": b"aab" * 100,
    "fib377": fibonacci_word(377),
    "tm256": thue_morse_word(256),
}


def occurrences(data: bytes, pattern: bytes) -> list[int]:
    """All start positions of ``pattern`` in ``data`` (naive, overlapping)."""
    if pattern == b"":
        return list(range(len(data) + 1))
    out = []
    at = data.find(pattern)
    while at != -1:
        out.append(at)
        at = data.find(pattern, at + 1)
    return out


def distinct_substrings(data: bytes, max_len: int | None = None) -> set[bytes]:
    cap = len(data) if max_len is None else max_len
    subs: set[bytes] = set()
    for i in range(len(data)):
        for j in range(i + 1, min(len(data), i + cap) + 1):
            subs.add(data[i:j])
    return subs


def right_branching_labels(data: bytes) -> set[bytes]:
    """Labels of suffix tree internal nodes, including the root's empty label.

    A substring is an internal node label exactly when at least two distinct
    symbols follow its occurrences (the sentinel-terminated text never lets a
    repeated substring end the text, so "followed by end" cannot happen).
    """
    labels = {b""}  # the root; sentinel-terminated text always branches there
    for s in distinct_substrings(data):
        follow = {data[p + len(s)] for p in occurrences(data, s) if p + len(s) < len(data)}
        if len(follow) >= 2:
            labels.add(s)
    return labels


def longest_matching_prefix(data: bytes, pattern: bytes) -> int:
    """Length of the longest prefix of ``pattern`` occurring in ``data``."""
    k = 0
    while k < len(pattern) and data.find(pattern[: k + 1]) != -1:
        k += 1
    return k


def occurs_under(data: bytes, label: bytes, pattern: bytes) -> bool:
    """Does ``pattern`` occur immediately after an occurrence of ``label``?"""
    return any(
        data[q + len(label) : q + len(label) + len(pattern)] == pattern
        and q + len(label) + len(pattern) <= len(data)
        for q in occurrences(data, label)
    )


def sl_chain_reaches(st, start: int, target: int) -> bool:
    """True when following suffix links from ``start`` reaches ``target``."""
    v = start
    while True:
        if v == target:
            return True
        if v == st.root:
            return False
        v = st.slink[v]


def naive_derivable(st, oshr, v: int, b: int) -> bool:
    """Direct reading of suffix-link derivability for the path (v, b)."""
    for u in range(st.n_nodes):
        if not st.is_internal(u) or st.slink[u] != v or u == st.root:
            continue
        for b2 in range(st.n_nodes):
            if (
                st.is_internal(b2)
                and b2 != st.root
                and st.slink[b2] == b
                and st.in_subtree(u, b2)
            ):
                return True
    return False
