"""cuSZp baseline: fused 1D block Lorenzo + per-block fixed-length encoding
(paper §II item 4).

cuSZp trades ratio for end-to-end speed by fusing prediction, quantization
and a simple 1D blockwise encoding into one monolithic kernel. The encoding
is fixed-length per 32-element block: each block stores the bit width of
its largest (zigzagged) quantization delta and then packs all 32 deltas at
that width; all-zero blocks cost only the width byte. No Huffman stage, no
outlier channel — fixed-length packing absorbs any magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lorenzo import lorenzo_prequantize
from repro.common.arrayutils import validate_field
from repro.common.bitpack import (pack_uint, unpack_uint, zigzag_decode,
                                  zigzag_encode, bit_length)
from repro.common.container import build_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import open_blob, wrap_lossless
from repro.core.pipeline import resolve_eb
from repro.registry import register

__all__ = ["CuSZp", "BLOCK"]

#: one GPU thread handles 32 consecutive samples
BLOCK = 32



@register
class CuSZp:
    """The cuSZp compressor (1D blockwise fixed-length)."""

    name = "cuszp"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "none"):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        prequant = lorenzo_prequantize(data, abs_eb).ravel()
        delta = np.diff(prequant, prepend=np.int64(0))
        zz = zigzag_encode(delta)

        n = zz.size
        n_blocks = -(-n // BLOCK)
        pad = n_blocks * BLOCK - n
        if pad:
            zz = np.concatenate([zz, np.zeros(pad, np.uint64)])
        blocks = zz.reshape(n_blocks, BLOCK)
        maxima = blocks.max(axis=1)
        widths = bit_length(maxima)

        payload_parts: list[bytes] = []
        for w in range(1, 65):
            sel = widths == w
            if not np.any(sel):
                continue
            payload_parts.append(pack_uint(blocks[sel].ravel(), w).tobytes())
        meta = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "n": n,
        }
        segments = {
            "widths": widths.tobytes(),
            "payload": b"".join(payload_parts),
        }
        inner = build_container(self.name, meta, segments)
        return wrap_lossless(inner, self.lossless)

    def decompress(self, blob: bytes) -> np.ndarray:
        opened = open_blob(blob)
        codec, meta, segments = opened.codec, opened.meta, opened.segments
        if codec != self.name:
            raise CodecError(f"blob codec {codec!r} is not {self.name!r}")
        shape = tuple(meta["shape"])
        dtype = np.dtype(meta["dtype"])
        abs_eb = float(meta["abs_eb"])
        n = int(meta["n"])
        n_blocks = -(-n // BLOCK)
        widths = np.frombuffer(segments["widths"], dtype=np.uint8)
        if widths.size != n_blocks:
            raise CodecError("width table size mismatch")
        payload = np.frombuffer(segments["payload"], dtype=np.uint8)

        blocks = np.zeros((n_blocks, BLOCK), dtype=np.uint64)
        pos = 0
        for w in range(1, 65):
            sel = widths == w
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            nbytes = -(-cnt * BLOCK * w // 8)
            if pos + nbytes > payload.size:
                raise CodecError("cuSZp payload truncated")
            vals = unpack_uint(payload[pos:pos + nbytes], w, cnt * BLOCK)
            blocks[sel] = vals.reshape(cnt, BLOCK)
            pos += nbytes
        if pos != payload.size:
            raise CodecError("trailing bytes in cuSZp payload")
        zz = blocks.ravel()[:n]
        delta = zigzag_decode(zz)
        prequant = np.cumsum(delta)
        recon = prequant.astype(np.float64) * (2.0 * abs_eb)
        return recon.reshape(shape).astype(dtype)
