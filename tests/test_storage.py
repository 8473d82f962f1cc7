"""Round-trip and corruption tests for index serialization."""

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
    BuildConfig(exclusion_rule_enabled=False),
    BuildConfig(classification_mode="oshr-leaf"),
    BuildConfig(leaf_edge_cover=False),
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
        # header, host count, 16-byte host heads and 24 bytes (3 x i64) per
        # entry, base count, 16-byte node heads and 8 bytes (one packed i64)
        # per base suffix, and three origin totals
        idx = make_index(content)
        want = (
            len(MAGIC) + 1 + 32 + 8 + 4 + 4 + 3
            + 8 + sum(16 + 24 * len(idx.entries_at(h)) for h in idx.entries)
            + 8 + sum(16 + 8 * len(idx.base_suffixes_at(v)) for v in idx.base_suffixes)
            + 3 * 8
        )
        assert len(serialize(idx)) == want

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

    @pytest.mark.parametrize("version", [1, 2, VERSION + 1])
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
        for k in range(0, len(self.blob), 7):
            with pytest.raises(TruncatedIndexError):
                deserialize(self.blob[:k], self.idx.st)
        with pytest.raises(TruncatedIndexError):
            deserialize(self.blob[:-1], self.idx.st)

    def test_trailing_garbage(self):
        with pytest.raises(StorageError):
            deserialize(self.blob + b"\0", self.idx.st)

    def test_unknown_classification_code(self):
        at = len(MAGIC) + 1 + 32 + 8 + 8  # first config byte
        bad = self.blob[:at] + b"\x07" + self.blob[at + 1 :]
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
