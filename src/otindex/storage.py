"""Versioned binary serialization of a built index.

Layout (all integers little-endian):

    magic       4 bytes  "OTIX"
    version     u8       currently 5
    text hash   32 bytes sha256 of the sentinel-terminated text
    n           u64      content length
    length lo   u32
    length hi   u32      0 means unbounded
    node count  u64      m
    node ids    m x u32  ascending
    counts      m x u32  values stored at each node, in node-id order
    values      sum(counts) x i64, node after node
                key * (n + 1) + occ: the OSHR preorder number of an internal
                node whose label ends at text position occ, and occ an
                occurrence of the node's label; sorted ascending per node

Each field is one column, so decoding is three bulk reads plus one slice per
node.  A node id or count that does not fit in a u32 fails to encode rather
than being truncated.

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
VERSION = 5

_HEAD = struct.Struct("<4sB32sQII")
_U64 = struct.Struct("<Q")


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


def _pack(a: array) -> bytes:
    if sys.byteorder == "big":
        a = array(a.typecode, a)
        a.byteswap()
    return a.tobytes()


def _unpack(typecode: str, raw: bytes) -> array:
    a = array(typecode)
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
    nodes = sorted(idx.entries)
    out.append(_U64.pack(len(nodes)))
    # array("I") raises OverflowError on a value that needs more than 32 bits
    out.append(_pack(array("I", nodes)))
    out.append(_pack(array("I", [len(idx.entries[v]) for v in nodes])))
    out.extend(_pack(idx.entries[v]) for v in nodes)
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
    nodes = _unpack("I", r.take(4 * n_nodes))
    counts = _unpack("I", r.take(4 * n_nodes))
    values = _unpack("q", r.take(8 * sum(counts)))
    if not r.done():
        raise StorageError(f"{len(blob) - r.at} bytes of trailing data")
    entries: dict[int, array] = {}
    at = 0
    for node, m in zip(nodes, counts):
        entries[node] = values[at : at + m]
        at += m
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
