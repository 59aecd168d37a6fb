"""FZ-GPU baseline: Lorenzo + bitshuffle + zero-block dedup
(paper §II item 3).

FZ-GPU keeps cuSZ's dual-quant Lorenzo prediction but replaces the entire
Huffman stage with a cheaper pair of lossless transforms: the 16-bit
quant-codes are bit-shuffled (gathering the almost-always-zero high bit
planes into contiguous zero bytes) and the resulting stream is zero-block
deduplicated. Faster than Huffman, lower ratio — the tradeoff Table III
shows.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lorenzo import (lorenzo_delta, lorenzo_prequantize,
                                     lorenzo_reconstruct)
from repro.common.arrayutils import validate_field
from repro.common.container import build_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import open_blob, wrap_lossless
from repro.common.bitpack import zigzag_decode, zigzag_encode
from repro.core.pipeline import resolve_eb
from repro.lossless.bitshuffle import bitshuffle, bitunshuffle
from repro.lossless.dedup import dedup_zero_blocks, restore_zero_blocks
from repro.registry import register

__all__ = ["FZGPU"]


@register
class FZGPU:
    """The FZ-GPU compressor (Lorenzo + bitshuffle + dedup)."""

    name = "fzgpu"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "none", radius: int = 512):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless
        self.radius = int(radius)
        if not 2 <= self.radius <= 32768:
            raise CodecError("fzgpu radius must fit 16-bit codes")

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        prequant = lorenzo_prequantize(data, abs_eb)
        delta = lorenzo_delta(prequant)
        # zigzag instead of cuSZ's +radius offset: the zero-error code must
        # be 0x0000 so the high bit planes dedup away after the shuffle
        flat = delta.ravel()
        bad = np.abs(flat) >= self.radius
        outliers = flat[bad].astype(np.int64)
        zz = zigzag_encode(np.where(bad, 0, flat))
        codes = zz.astype(np.uint16)
        codes[bad] = 2 * self.radius  # reserved outlier marker
        shuffled = bitshuffle(codes)
        payload = dedup_zero_blocks(shuffled.tobytes())
        meta = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "radius": self.radius,
            "n_outliers": int(outliers.size),
        }
        segments = {
            "payload": payload,
            "outliers": outliers.astype(np.int64).tobytes(),
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
        radius = int(meta["radius"])
        n = int(np.prod(shape))
        shuffled = np.frombuffer(restore_zero_blocks(segments["payload"]),
                                 dtype=np.uint8)
        codes = bitunshuffle(shuffled, np.uint16, n)
        outliers = np.frombuffer(segments["outliers"], dtype=np.int64)
        if outliers.size != int(meta["n_outliers"]):
            raise CodecError("outlier segment size mismatch")
        is_out = codes == 2 * radius
        delta = zigzag_decode(np.where(is_out, np.uint16(0), codes))
        if int(is_out.sum()) != outliers.size:
            raise CodecError("outlier count mismatch")
        if outliers.size:
            delta[is_out] = outliers
        delta = delta.reshape(shape)
        recon = lorenzo_reconstruct(delta, abs_eb)
        return recon.astype(dtype)
