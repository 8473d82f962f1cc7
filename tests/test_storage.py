"""Round-trip and corruption tests for index serialization."""

import struct

import pytest

from otindex.build import BuildConfig, LengthMode, build_index
from otindex.oracle import random_text
from otindex.oshr import OshrTree
from otindex.storage import (
    MAGIC,
    VERSION,
    BadMagicError,
    StorageError,
    TextHashMismatchError,
    TruncatedIndexError,
    VersionMismatchError,
    deserialize,
    load_index,
    save_index,
    serialize,
)
from otindex.suffix_tree import build
from otindex.text import with_sentinel

CONFIGS = [
    BuildConfig(),
    BuildConfig(length_mode=LengthMode.exact(3)),
    BuildConfig(length_mode=LengthMode.between(2, 7)),
    BuildConfig(length_mode=LengthMode.at_most(4)),
]


def make_index(content=b"BANANA", cfg=BuildConfig()):
    st = build(with_sentinel(content))
    return build_index(st, OshrTree(st), cfg)


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.describe())
    def test_fixture_round_trip(self, cfg):
        idx = make_index(b"MISSISSIPPI", cfg)
        back = deserialize(serialize(idx), idx.st, idx.oshr)
        assert back == idx
        assert back.config == cfg

    @pytest.mark.parametrize("seed,n,sigma", [(51, 64, 2), (52, 128, 3), (53, 96, 4)])
    def test_random_round_trip(self, seed, n, sigma):
        st = build(random_text(seed, n, sigma))
        idx = build_index(st, OshrTree(st))
        back = deserialize(serialize(idx), st)
        assert back == idx

    def test_oshr_rebuilt_when_missing(self):
        idx = make_index()
        back = deserialize(serialize(idx), idx.st)
        assert back.oshr is not idx.oshr
        assert back == idx

    def test_canonical_encoding(self):
        idx = make_index()
        blob = serialize(idx)
        assert serialize(deserialize(blob, idx.st)) == blob

    @pytest.mark.parametrize("content", [b"BANANA", b"MISSISSIPPI", b"ABRACADABRA"])
    def test_stream_size_matches_layout(self, content):
        # header, node count, a u32 id and a u32 count per node, and 8 bytes
        # (one packed i64) per stored value
        idx = make_index(content)
        want = (
            len(MAGIC) + 1 + 32 + 8 + 4 + 4
            + 8 + sum(8 + 8 * len(idx.entries_at(h)) for h in idx.entries)
        )
        assert idx.total_entries > 0
        assert len(serialize(idx)) == want

    def test_oversized_node_id_fails_to_encode(self):
        idx = make_index()
        idx.entries[2**32] = idx.entries[next(iter(idx.entries))]
        with pytest.raises(OverflowError):
            serialize(idx)

    def test_file_round_trip(self, tmp_path):
        idx = make_index(b"ABRACADABRA")
        path = str(tmp_path / "abra.otix")
        save_index(idx, path)
        assert load_index(path, idx.st) == idx


class TestCorruption:
    def setup_method(self):
        self.idx = make_index()
        self.blob = serialize(self.idx)

    def test_bad_magic(self):
        bad = b"JUNK" + self.blob[4:]
        with pytest.raises(BadMagicError):
            deserialize(bad, self.idx.st)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, VERSION + 1])
    def test_version_mismatch(self, version):
        bad = self.blob[:4] + bytes([version]) + self.blob[5:]
        with pytest.raises(VersionMismatchError):
            deserialize(bad, self.idx.st)

    def test_text_hash_mismatch(self):
        other = build(with_sentinel(b"MISSISSIPPI"))
        with pytest.raises(TextHashMismatchError):
            deserialize(self.blob, other)

    def test_truncation_everywhere(self):
        # every proper prefix must fail loudly, never load half a structure
        for k in range(len(self.blob)):
            with pytest.raises(TruncatedIndexError):
                deserialize(self.blob[:k], self.idx.st)

    def test_counts_past_the_end(self):
        # the count column promises more values than the stream holds
        at = len(MAGIC) + 1 + 32 + 8 + 4 + 4
        (hosts,) = struct.unpack_from("<Q", self.blob, at)
        counts = at + 8 + 4 * hosts
        bad = bytearray(self.blob)
        struct.pack_into("<I", bad, counts, struct.unpack_from("<I", bad, counts)[0] + 1)
        with pytest.raises(TruncatedIndexError):
            deserialize(bytes(bad), self.idx.st)

    def test_trailing_garbage(self):
        with pytest.raises(StorageError):
            deserialize(self.blob + b"\0", self.idx.st)

    def test_bad_length_range(self):
        at = len(MAGIC) + 1 + 32 + 8  # the length range's lower bound
        bad = self.blob[:at] + bytes(4) + self.blob[at + 4 :]
        with pytest.raises(StorageError):
            deserialize(bad, self.idx.st)

    def test_errors_share_base_class(self):
        for exc in (
            BadMagicError,
            VersionMismatchError,
            TextHashMismatchError,
            TruncatedIndexError,
        ):
            assert issubclass(exc, StorageError)
            assert issubclass(exc, ValueError)
