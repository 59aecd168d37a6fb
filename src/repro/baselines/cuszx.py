"""cuSZx baseline: monolithic block constant/nonconstant compression
(paper §II item 2).

cuSZx maximizes throughput with a single ultra-simple kernel: the flat
stream is cut into 128-sample blocks; a block whose value range fits inside
``2*eb`` is *constant* and stores only its midpoint; any other block stores
its minimum plus every sample quantized to the block-local ``2*eb`` lattice
at the block's fixed bit width. Ratio is modest except on data with large
flat/zero regions (e.g. RTM wavefields), exactly the regime where the paper
shows cuSZx occasionally leading Table III's left half.
"""

from __future__ import annotations

import numpy as np

from repro.common.arrayutils import validate_field
from repro.common.bitpack import bit_length, pack_uint, unpack_uint
from repro.common.container import build_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import open_blob, wrap_lossless
from repro.core.pipeline import resolve_eb
from repro.registry import register

__all__ = ["CuSZx", "BLOCK"]

#: samples per block (cuSZx processes blocks of up to 128 floats)
BLOCK = 128


@register
class CuSZx:
    """The cuSZx compressor (blockwise constant / fixed-point)."""

    name = "cuszx"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "none"):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        flat = data.astype(np.float64).ravel()
        n = flat.size
        n_blocks = -(-n // BLOCK)
        pad = n_blocks * BLOCK - n
        if pad:
            flat = np.concatenate([flat, np.full(pad, flat[-1])])
        blocks = flat.reshape(n_blocks, BLOCK)
        mins = blocks.min(axis=1)
        maxs = blocks.max(axis=1)
        const = (maxs - mins) <= 2.0 * abs_eb

        # constant blocks: midpoint only
        const_vals = ((mins[const] + maxs[const]) * 0.5).astype(np.float32)

        # nonconstant: block-local lattice at a fixed per-block width
        ncb = blocks[~const]
        nc_mins = mins[~const].astype(np.float32)
        q = np.rint((ncb - nc_mins.astype(np.float64)[:, None])
                    / (2.0 * abs_eb)).astype(np.uint64)
        qmax = q.max(axis=1) if q.size else np.empty(0, np.uint64)
        widths = bit_length(qmax)
        payload_parts: list[bytes] = []
        for w in range(1, 65):
            sel = widths == w
            if not np.any(sel):
                continue
            payload_parts.append(pack_uint(q[sel].ravel(), w).tobytes())

        meta = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "n": n,
        }
        segments = {
            "flags": np.packbits(const.astype(np.uint8)).tobytes(),
            "const_vals": const_vals.tobytes(),
            "nc_mins": nc_mins.tobytes(),
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
        const = np.unpackbits(
            np.frombuffer(segments["flags"], np.uint8),
            count=n_blocks).astype(bool)
        const_vals = np.frombuffer(segments["const_vals"], np.float32)
        nc_mins = np.frombuffer(segments["nc_mins"], np.float32)
        widths = np.frombuffer(segments["widths"], np.uint8)
        payload = np.frombuffer(segments["payload"], np.uint8)
        n_nc = int((~const).sum())
        if const_vals.size != n_blocks - n_nc or nc_mins.size != n_nc \
                or widths.size != n_nc:
            raise CodecError("cuSZx segment sizes inconsistent")

        out = np.empty((n_blocks, BLOCK), dtype=np.float64)
        out[const] = const_vals.astype(np.float64)[:, None]
        q = np.zeros((n_nc, BLOCK), dtype=np.uint64)
        pos = 0
        for w in range(1, 65):
            sel = widths == w
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            nbytes = -(-cnt * BLOCK * w // 8)
            vals = unpack_uint(payload[pos:pos + nbytes], w, cnt * BLOCK)
            q[sel] = vals.reshape(cnt, BLOCK)
            pos += nbytes
        if pos != payload.size:
            raise CodecError("trailing bytes in cuSZx payload")
        out[~const] = (nc_mins.astype(np.float64)[:, None]
                       + q.astype(np.float64) * (2.0 * abs_eb))
        return out.ravel()[:n].reshape(shape).astype(dtype)

