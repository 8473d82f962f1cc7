"""Versioned binary serialization of a built index.

Layout (all integers little-endian):

    magic       4 bytes  "OTIX"
    version     u8       currently 2
    text hash   32 bytes sha256 of the sentinel-terminated text
    n           u64      content length
    length lo   u32
    length hi   u32      0 means unbounded
    class mode  u8       0 = oshr-internal, 1 = oshr-leaf
    exclusion   u8
    leaf cover  u8
    host count  u64
    per host:   u64 node id, u64 entry count, entries as count x 3 i64
                (left_ot, right_ot, occ): the key node's OSHR interval and
                one occurrence, sorted by left_ot
    base count  u64
    per node:   u64 node id, u64 suffix count, suffixes as count x i64
    origins     3 x u64  entry totals per origin code

Node ids are deterministic for a given text (the tree builder is
deterministic), so storing ids instead of labels is safe; the text hash
rejects any attempt to load an index against different data.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array

from .build import (
    CLASSIFY_LINKED,
    CLASSIFY_UNLINKED,
    ENTRY_WIDTH,
    ORIGIN_LABELS,
    BuildConfig,
    LengthMode,
    OtIndex,
)
from .oshr import OshrTree
from .suffix_tree import SuffixTree

MAGIC = b"OTIX"
VERSION = 2

_CLASS_CODES = {CLASSIFY_LINKED: 0, CLASSIFY_UNLINKED: 1}
_CLASS_NAMES = {v: k for k, v in _CLASS_CODES.items()}

_HEAD = struct.Struct("<4sB32sQIIBBB")
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
    cfg = idx.config
    out = [
        _HEAD.pack(
            MAGIC,
            VERSION,
            text_digest(idx.st.text.data),
            idx.st.text.n,
            cfg.length_mode.lo,
            cfg.length_mode.hi or 0,
            _CLASS_CODES[cfg.classification_mode],
            int(cfg.exclusion_rule_enabled),
            int(cfg.leaf_edge_cover),
        )
    ]
    out.append(_U64.pack(len(idx.entries)))
    for host in sorted(idx.entries):
        arr = idx.entries[host]
        out.append(_PAIR.pack(host, len(arr) // ENTRY_WIDTH))
        out.append(_pack_i64(arr))
    out.append(_U64.pack(len(idx.base_suffixes)))
    for node in sorted(idx.base_suffixes):
        arr = idx.base_suffixes[node]
        out.append(_PAIR.pack(node, len(arr)))
        out.append(_pack_i64(arr))
    for code in sorted(ORIGIN_LABELS):
        out.append(_U64.pack(idx.origin_counts.get(code, 0)))
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
    class_code, excl, cover = r.take(3)
    if class_code not in _CLASS_NAMES:
        raise StorageError(f"unknown classification code {class_code}")
    config = BuildConfig(
        length_mode=LengthMode(lo, hi or None),
        classification_mode=_CLASS_NAMES[class_code],
        exclusion_rule_enabled=bool(excl),
        leaf_edge_cover=bool(cover),
    )

    (n_hosts,) = _U64.unpack(r.take(8))
    entries: dict[int, array] = {}
    for _ in range(n_hosts):
        host, m = _PAIR.unpack(r.take(16))
        entries[host] = _unpack_i64(r.take(m * ENTRY_WIDTH * 8))
    (n_bases,) = _U64.unpack(r.take(8))
    base_suffixes: dict[int, array] = {}
    for _ in range(n_bases):
        node, m = _PAIR.unpack(r.take(16))
        base_suffixes[node] = _unpack_i64(r.take(m * 8))
    origin_counts = {}
    for code in sorted(ORIGIN_LABELS):
        (origin_counts[code],) = _U64.unpack(r.take(8))
    if not r.done():
        raise StorageError(f"{len(blob) - r.at} bytes of trailing data")
    return digest, n, config, entries, base_suffixes, origin_counts


def deserialize(blob: bytes, st: SuffixTree, oshr: OshrTree | None = None) -> OtIndex:
    """Decode a stream produced by serialize() against its original text.

    The caller supplies the suffix tree rebuilt from the same text; the
    stored hash is checked against it before any structure is trusted.
    """
    digest, n, config, entries, base_suffixes, origin_counts = _parse(blob)
    if digest != text_digest(st.text.data) or n != st.text.n:
        raise TextHashMismatchError("index was built over different text")
    if oshr is None:
        oshr = OshrTree(st)
    return OtIndex(st, oshr, config, entries, base_suffixes, origin_counts)


def peek_stats(blob: bytes) -> dict:
    """Summary of a stream without its text: config, sizes, origin totals."""
    digest, n, config, entries, base_suffixes, origin_counts = _parse(blob)
    return {
        "version": VERSION,
        "text_sha256": digest.hex(),
        "text_length": n,
        "config": config,
        "hosts": len(entries),
        "total_entries": sum(len(a) for a in entries.values()) // ENTRY_WIDTH,
        "origin_counts": {
            ORIGIN_LABELS[code]: cnt for code, cnt in origin_counts.items()
        },
        "base_suffix_nodes": len(base_suffixes),
        "base_suffix_records": sum(len(a) for a in base_suffixes.values()),
    }


def save_index(idx: OtIndex, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(idx))


def load_index(path: str, st: SuffixTree, oshr: OshrTree | None = None) -> OtIndex:
    with open(path, "rb") as fh:
        return deserialize(fh.read(), st, oshr)
