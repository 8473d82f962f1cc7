"""Truth and answer checks computed from the raw text bytes alone.

Nothing here imports the package under test: a node enters only as its path
label, an answer only as plain values (found, witness, probes, host list
length), so a fault in the index cannot also corrupt the yardstick.

"p occurs immediately under internal node i" holds exactly when
label(i) + p occurs in the text; a witness w of a yes answer must satisfy
text[w : w + |label(i)| + |p|] == label(i) + p.
"""

from __future__ import annotations


def probe_cap(m: int) -> int:
    """ceil(log2 m) + 1 probes for a host list of m entries (0 for none)."""
    return (m - 1).bit_length() + 1 if m > 0 else 0


def entry_bound(data: bytes) -> int:
    """The linear-size bound 2 * sigma * n; sigma counts the sentinel, n does not."""
    return 2 * len(set(data)) * (len(data) - 1)


def occurrences(data: bytes, pattern: bytes) -> list[int]:
    """Every start position of ``pattern`` in ``data``, overlaps included."""
    out = []
    at = data.find(pattern)
    while at != -1:
        out.append(at)
        at = data.find(pattern, at + 1)
    return out


def truth_for_call(data: bytes, pattern: bytes, labels) -> list[bool]:
    """Does ``pattern`` occur right under each node, given the nodes' labels.

    One label is answered by a byte search for label + pattern; a batch is
    answered from the pattern's occurrence list, grouped by the label length
    preceding each occurrence.
    """
    if len(labels) == 1:
        return [labels[0] + pattern in data]
    occ = occurrences(data, pattern)
    before: dict[int, set[bytes]] = {}
    for label in labels:
        d = len(label)
        if d not in before:
            before[d] = {data[q - d : q] for q in occ if q >= d}
    return [label in before[len(label)] for label in labels]


def answer_fault(
    data: bytes,
    label: bytes,
    pattern: bytes,
    truth: bool,
    found: bool,
    witness: int | None,
    probes: int,
    host_entries: int,
) -> str | None:
    """Why one answer is wrong, or None when it is right."""
    if found != truth:
        return f"answered {found}, truth is {truth}"
    if found:
        end = len(label) + len(pattern)
        if witness is None or witness < 0 or data[witness : witness + end] != label + pattern:
            return f"witness {witness} does not spell label + pattern"
    if probes > probe_cap(host_entries):
        return f"{probes} probes exceed the cap {probe_cap(host_entries)} for {host_entries} entries"
    return None
