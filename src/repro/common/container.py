"""Binary container format for compressed streams.

Every compressor serializes to the same self-describing layout so that any
stream can be decompressed knowing nothing but the bytes:

```
magic    4 bytes   b"RPRC"
version  u16       format version (currently 2)
crc32    u32       checksum of everything after this field
codec    u8-len + utf8   registry name of the codec
meta     u32-len + utf8  JSON metadata (shape, dtype, eb, tuning, ...)
nseg     u16
per segment:
  name   u8-len + utf8
  length u64
segment payloads, back to back
```

Integers are little-endian. Metadata is JSON (never pickle) so containers
are safe to parse from untrusted sources, and human-inspectable; the CRC
turns any bit corruption into a loud :class:`ContainerError` instead of a
silently wrong reconstruction.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

import numpy as np

from repro.common.errors import ContainerError

__all__ = ["build_container", "parse_container", "container_overhead",
           "MAGIC", "VERSION"]

MAGIC = b"RPRC"
VERSION = 2


def _encode_json(meta: dict[str, Any]) -> bytes:
    try:
        return json.dumps(meta, separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"metadata is not JSON-serializable: {exc}")


def build_container(codec: str, meta: dict[str, Any],
                    segments: dict[str, bytes | np.ndarray]) -> bytes:
    """Serialize ``segments`` plus JSON ``meta`` under ``codec``'s name."""
    if not codec or len(codec.encode()) > 255:
        raise ContainerError("codec name must be 1..255 bytes")
    parts: list[bytes] = []
    cb = codec.encode("utf-8")
    parts.append(struct.pack("<B", len(cb)))
    parts.append(cb)
    mb = _encode_json(meta)
    parts.append(struct.pack("<I", len(mb)))
    parts.append(mb)
    if len(segments) > 0xFFFF:
        raise ContainerError("too many segments")
    parts.append(struct.pack("<H", len(segments)))
    payloads: list[bytes] = []
    for name, seg in segments.items():
        nb = name.encode("utf-8")
        if not nb or len(nb) > 255:
            raise ContainerError("segment name must be 1..255 bytes")
        if isinstance(seg, np.ndarray):
            seg = seg.tobytes()
        parts.append(struct.pack("<B", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<Q", len(seg)))
        payloads.append(seg)
    body = b"".join(parts) + b"".join(payloads)
    return (MAGIC + struct.pack("<H", VERSION)
            + struct.pack("<I", zlib.crc32(body)) + body)


def _utf8(raw: memoryview, what: str) -> str:
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError:
        raise ContainerError(f"{what} is not valid UTF-8")


def parse_container(blob: bytes) -> tuple[str, dict[str, Any],
                                          dict[str, bytes]]:
    """Inverse of :func:`build_container`.

    Returns ``(codec, meta, segments)``. Raises
    :class:`~repro.common.errors.ContainerError` on any malformed input.
    """
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ContainerError("truncated container")
        out = view[pos:pos + n]
        pos += n
        return out

    if bytes(take(4)) != MAGIC:
        raise ContainerError("bad magic; not a repro container")
    (version,) = struct.unpack("<H", take(2))
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    (crc,) = struct.unpack("<I", take(4))
    if zlib.crc32(view[pos:]) != crc:
        raise ContainerError("container checksum mismatch (corrupt blob)")
    (clen,) = struct.unpack("<B", take(1))
    codec = _utf8(take(clen), "codec name")
    (mlen,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(bytes(take(mlen)).decode("utf-8"))
    except ValueError as exc:
        raise ContainerError(f"bad metadata JSON: {exc}")
    (nseg,) = struct.unpack("<H", take(2))
    table: list[tuple[str, int]] = []
    for _ in range(nseg):
        (nlen,) = struct.unpack("<B", take(1))
        name = _utf8(take(nlen), "segment name")
        (slen,) = struct.unpack("<Q", take(8))
        table.append((name, slen))
    segments: dict[str, bytes] = {}
    for name, slen in table:
        if name in segments:
            raise ContainerError(f"duplicate segment {name!r}")
        segments[name] = bytes(take(slen))
    if pos != len(view):
        raise ContainerError(f"{len(view) - pos} trailing bytes in container")
    return codec, meta, segments


def container_overhead(codec: str, meta: dict[str, Any],
                       segment_names: list[str]) -> int:
    """Byte overhead of the container framing itself (for size accounting
    in the ablation benchmarks)."""
    empty = build_container(codec, meta, {n: b"" for n in segment_names})
    return len(empty)
