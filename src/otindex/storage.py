"""Versioned binary serialization of a built index.

Layout (all integers little-endian):

    magic       4 bytes  "OTIX"
    version     u8       currently 4
    text hash   32 bytes sha256 of the sentinel-terminated text
    n           u64      content length
    length lo   u32
    length hi   u32      0 means unbounded
    node count  u64
    per node:   u64 node id, u64 value count, values as count x i64
                key * (n + 1) + occ: the OSHR preorder number of an internal
                node whose label ends at text position occ, and occ an
                occurrence of the node's label; sorted ascending

Node ids are deterministic for a given text (the tree builder is
deterministic), so storing ids instead of labels is safe; the text hash
rejects any attempt to load an index against different data.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array

from .build import BuildConfig, BuildError, LengthMode, OtIndex
from .oshr import OshrTree
from .suffix_tree import SuffixTree

MAGIC = b"OTIX"
VERSION = 4

_HEAD = struct.Struct("<4sB32sQII")
_U64 = struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")


class StorageError(ValueError):
    """Base class for any malformed or mismatched index stream."""


class BadMagicError(StorageError):
    pass


class VersionMismatchError(StorageError):
    pass


class TextHashMismatchError(StorageError):
    pass


class TruncatedIndexError(StorageError):
    pass


def text_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _pack_i64(a: array) -> bytes:
    if sys.byteorder == "big":
        a = array("q", a)
        a.byteswap()
    return a.tobytes()


def _unpack_i64(raw: bytes) -> array:
    a = array("q")
    a.frombytes(raw)
    if sys.byteorder == "big":
        a.byteswap()
    return a


def serialize(idx: OtIndex) -> bytes:
    """Encode the index as a self-describing byte stream."""
    lengths = idx.config.length_mode
    out = [
        _HEAD.pack(
            MAGIC,
            VERSION,
            text_digest(idx.st.text.data),
            idx.st.text.n,
            lengths.lo,
            lengths.hi or 0,
        )
    ]
    out.append(_U64.pack(len(idx.entries)))
    for node in sorted(idx.entries):
        arr = idx.entries[node]
        out.append(_PAIR.pack(node, len(arr)))
        out.append(_pack_i64(arr))
    return b"".join(out)


class _Reader:
    __slots__ = ("buf", "at")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.at = 0

    def take(self, k: int) -> bytes:
        end = self.at + k
        if end > len(self.buf):
            raise TruncatedIndexError(
                f"stream ends at byte {len(self.buf)}, needed {end}"
            )
        chunk = self.buf[self.at : end]
        self.at = end
        return chunk

    def done(self) -> bool:
        return self.at == len(self.buf)


def _parse(blob: bytes):
    """Structural decode shared by deserialize() and peek_stats()."""
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise BadMagicError("not an index stream (bad magic)")
    (version,) = r.take(1)
    if version != VERSION:
        raise VersionMismatchError(f"unsupported index version {version}")
    digest = r.take(32)
    (n,) = _U64.unpack(r.take(8))
    lo, hi = struct.unpack("<II", r.take(8))
    try:
        config = BuildConfig(LengthMode(lo, hi or None))
    except BuildError as exc:
        raise StorageError(f"bad length range {lo}:{hi}") from exc

    (n_nodes,) = _U64.unpack(r.take(8))
    entries: dict[int, array] = {}
    for _ in range(n_nodes):
        node, m = _PAIR.unpack(r.take(16))
        entries[node] = _unpack_i64(r.take(m * 8))
    if not r.done():
        raise StorageError(f"{len(blob) - r.at} bytes of trailing data")
    return digest, n, config, entries


def deserialize(blob: bytes, st: SuffixTree, oshr: OshrTree | None = None) -> OtIndex:
    """Decode a stream produced by serialize() against its original text.

    The caller supplies the suffix tree rebuilt from the same text; the
    stored hash is checked against it before any structure is trusted.
    """
    digest, n, config, entries = _parse(blob)
    if digest != text_digest(st.text.data) or n != st.text.n:
        raise TextHashMismatchError("index was built over different text")
    if oshr is None:
        oshr = OshrTree(st)
    return OtIndex(st, oshr, config, entries)


def peek_stats(blob: bytes) -> dict:
    """Summary of a stream without its text: config and sizes."""
    digest, n, config, entries = _parse(blob)
    return {
        "version": VERSION,
        "text_sha256": digest.hex(),
        "text_length": n,
        "config": config,
        "hosts": len(entries),
        "total_entries": sum(len(a) for a in entries.values()),
    }


def save_index(idx: OtIndex, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(idx))


def load_index(path: str, st: SuffixTree, oshr: OshrTree | None = None) -> OtIndex:
    with open(path, "rb") as fh:
        return deserialize(fh.read(), st, oshr)
