"""The benchmark's checker must reject wrong answers, not only accept right ones.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from check import answer_fault, entry_bound, occurrences, probe_cap, truth_for_call  # noqa: E402

DATA = b"GATTACAGATTACCA\x00"


def fault(label, pattern, truth, found, witness, probes=0, host_entries=0):
    return answer_fault(DATA, label, pattern, truth, found, witness, probes, host_entries)


def test_right_answers_pass():
    assert fault(b"GAT", b"TAC", True, True, 0) is None
    assert fault(b"GAT", b"TAC", True, True, 7) is None
    assert fault(b"CA", b"G", True, True, 5, probes=3, host_entries=4) is None
    assert fault(b"TTA", b"G", False, False, None) is None


@pytest.mark.parametrize(
    "truth, found, witness",
    [(True, False, None), (False, True, 0)],
    ids=["missed-hit", "spurious-hit"],
)
def test_flipped_answer_is_rejected(truth, found, witness):
    assert "truth" in fault(b"GAT", b"TAC", truth, found, witness)


@pytest.mark.parametrize("witness", [1, -1, 6, 8, None, len(DATA)])
def test_off_by_one_or_missing_witness_is_rejected(witness):
    assert "witness" in fault(b"GAT", b"TAC", True, True, witness)


@pytest.mark.parametrize("m, cap", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (1024, 11), (1025, 12)])
def test_probe_cap_is_ceil_log2_plus_one(m, cap):
    assert probe_cap(m) == cap


def test_probe_count_above_cap_is_rejected():
    assert fault(b"GAT", b"TAC", True, True, 0, probes=3, host_entries=4) is None
    assert "cap" in fault(b"GAT", b"TAC", True, True, 0, probes=4, host_entries=4)
    assert "cap" in fault(b"TTA", b"G", False, False, None, probes=1, host_entries=0)


def test_truth_by_byte_search_and_by_occurrence_lists_agree():
    labels = (b"A", b"CA", b"GAT", b"T", b"TT", b"C")
    batch = truth_for_call(DATA, b"AC", labels)
    singles = [truth_for_call(DATA, b"AC", (lab,))[0] for lab in labels]
    assert batch == singles == [False, False, False, True, True, False]


def test_occurrences_include_overlaps():
    assert occurrences(b"AAAA\x00", b"AA") == [0, 1, 2]


def test_entry_bound_counts_sentinel_in_sigma_not_in_n():
    # sigma = {G, A, T, C, sentinel} = 5, n = 15
    assert entry_bound(DATA) == 2 * 5 * 15
