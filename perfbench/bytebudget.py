"""Where every byte of a blob goes.

A cuSZ-i blob is a lossless frame around a container whose segments are
the chunked Huffman stream, the compacted outliers and the anchor grid.
:func:`blob_budget` parses one blob with the program's public readers
(``unwrap_lossless``, ``parse_container``, ``HuffmanStream.from_bytes``)
and splits the container into parts. The framing parts are computed
from the documented layouts, not as a remainder, so the check that the
parts sum to the container length fails when a format grows a field the
budget does not know about.
"""

from __future__ import annotations

import json
import struct

#: part names, in report order; each becomes a ``bytes.<part>_bpv`` metric
PARTS = ("payload", "chunk_table", "padding", "codebook", "anchors",
         "outliers", "header")
#: the parts outside the Huffman payload and the outliers: nearly fixed
#: per value for a given format, whatever the content (``overhead_bpv``)
OVERHEAD = ("chunk_table", "padding", "codebook", "anchors", "header")

#: container framing: magic, version, crc32, codec-name length,
#: metadata length, segment count (see repro.common.container)
_CONTAINER_FIXED = 4 + 2 + 4 + 1 + 4 + 2
#: per-segment table entry besides the name: name length u8, size u64
_SEGMENT_ENTRY = 1 + 8
#: slab stream: magic + slab count, then one u64 length per slab
_STREAM_FIXED = struct.calcsize("<4sI")
_STREAM_ENTRY = struct.calcsize("<Q")


class BudgetError(Exception):
    """The parts of a blob do not add up to its length."""


def _container_bits(inner: bytes) -> dict[str, int]:
    from repro.common.container import parse_container
    from repro.huffman import HuffmanStream

    codec, meta, segments = parse_container(inner)
    meta_json = json.dumps(meta, separators=(",", ":"), allow_nan=False)
    header = (_CONTAINER_FIXED + len(codec.encode("utf-8"))
              + len(meta_json.encode("utf-8"))
              + sum(_SEGMENT_ENTRY + len(name.encode("utf-8"))
                    for name in segments))
    huff = segments["huffman"]
    stream = HuffmanStream.from_bytes(huff)
    payload_bits = int(stream.chunk_bits.sum(dtype="int64"))
    huff_header = (len(huff) - stream.lengths.size
                   - 4 * stream.chunk_bits.size - stream.payload.size)
    parts = {
        "payload": payload_bits,
        "padding": 8 * int(stream.payload.size) - payload_bits,
        "chunk_table": 8 * 4 * int(stream.chunk_bits.size),
        "codebook": 8 * int(stream.lengths.size),
        "anchors": 8 * len(segments["anchors"]),
        "outliers": 8 * len(segments["outliers"]),
        "header": 8 * (header + huff_header),
    }
    other = set(segments) - {"huffman", "anchors", "outliers"}
    if other:
        raise BudgetError(f"unbudgeted segments {sorted(other)}")
    return parts


def blob_budget(blob: bytes) -> tuple[dict[str, int], int]:
    """``(parts in bits, lossless saving in bytes)`` for one cuSZ-i blob.

    The saving is the container length minus the blob length, so it is
    net of the lossless frame and negative when the pass expands the
    container. Raises :class:`BudgetError` unless the parts sum to the
    container length.
    """
    from repro.common.lossless_wrap import unwrap_lossless

    inner = unwrap_lossless(blob)
    parts = _container_bits(inner)
    total_bits = sum(parts.values())
    if total_bits != 8 * len(inner):
        raise BudgetError(f"parts sum to {total_bits} bits, container "
                          f"has {8 * len(inner)}")
    return parts, len(inner) - len(blob)


def stream_budget(stream: bytes) -> tuple[dict[str, int], int]:
    """Budget of a slab stream: the sum over its slab blobs plus the
    stream framing, which is counted as ``header``. Raises
    :class:`BudgetError` unless the parts minus the savings close on the
    stream length."""
    from repro.streaming import SlabReader

    reader = SlabReader(stream)
    parts = dict.fromkeys(PARTS, 0)
    saving = 0
    for i in range(len(reader)):
        slab_parts, slab_saving = blob_budget(reader.slab_bytes(i))
        for k, v in slab_parts.items():
            parts[k] += v
        saving += slab_saving
    parts["header"] += 8 * (_STREAM_FIXED + _STREAM_ENTRY * len(reader))
    if sum(parts.values()) // 8 - saving != len(stream):
        raise BudgetError("slab stream parts do not close on its length")
    return parts, saving
