"""Fixed-rate ZFP block codec: block floating point + embedded coding.

Each 4^d block spends exactly ``rate * 4^d`` bits: 8 for the block
exponent, the rest on embedded bit planes of the negabinary-mapped
transform coefficients, most-significant plane first. Plane encoding uses
a group-tested layout: the bits of coefficients already known significant
are emitted raw, then a single flag tests whether the remaining (sequency-
ordered) tail holds any new significant coefficient, and only then is the
tail emitted. Leading all-zero planes therefore cost one bit each, which is
what buys ZFP its accuracy at low rates.

All state machines are vectorized across blocks (one GPU thread block per
ZFP block in cuZFP; one lane per block here), iterating over the 32 planes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cuzfp.transform import (fwd_transform, inv_transform,
                                             sequency_order)
from repro.common.arrayutils import validate_field
from repro.common.container import build_container
from repro.common.errors import CodecError, ConfigError
from repro.common.lossless_wrap import open_blob, wrap_lossless
from repro.common.scan import concat_ranges
from repro.registry import register

__all__ = ["CuZFP"]

_NEGA_MASK = np.int64(0xAAAAAAAA)
_PLANES = 32
#: fixed-point scaling: values in (-2^e, 2^e) map to ~30-bit integers,
#: leaving ZFP's two guard bits for transform range expansion
_FRAC_BITS = 30


def _extract_blocks(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad to multiples of 4 and tile into a ``(nb, 4, .., 4)`` stack."""
    pads = [(0, (-n) % 4) for n in data.shape]
    padded = np.pad(data, pads, mode="edge") if any(
        p[1] for p in pads) else data
    ndim = data.ndim
    counts = tuple(n // 4 for n in padded.shape)
    shape6 = []
    for c in counts:
        shape6.extend((c, 4))
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    blocks = padded.reshape(shape6).transpose(order)
    nb = int(np.prod(counts))
    return blocks.reshape((nb,) + (4,) * ndim).copy(), padded.shape


def _assemble_blocks(blocks: np.ndarray, padded_shape: tuple[int, ...],
                     shape: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`_extract_blocks` and crop back to ``shape``."""
    ndim = len(shape)
    counts = tuple(n // 4 for n in padded_shape)
    stacked = blocks.reshape(counts + (4,) * ndim)
    order = []
    for ax in range(ndim):
        order.extend((ax, ndim + ax))
    padded = stacked.transpose(order).reshape(padded_shape)
    return padded[tuple(slice(0, n) for n in shape)]


#: coefficients per group-test unit in the embedded coder
_GROUP = 8


def _encode_planes(neg: np.ndarray, maxbits: int) -> np.ndarray:
    """Embedded-encode negabinary coefficients into per-block bit rows.

    Per plane: the ``m`` coefficients already known significant are emitted
    raw; the tail is emitted in ``_GROUP``-sized units, each preceded by a
    one-bit test "any significant coefficient at or beyond this group?" —
    a 0 ends the plane, so all-zero planes cost a single bit.
    """
    nb, ncoef = neg.shape
    bitbuf = np.zeros((nb, maxbits), dtype=np.uint8)
    cur = np.zeros(nb, dtype=np.int64)
    m = np.zeros(nb, dtype=np.int64)
    cols = np.arange(ncoef, dtype=np.int64)
    all_rows = np.arange(nb)
    n_groups = -(-ncoef // _GROUP)
    for p in range(_PLANES - 1, -1, -1):
        plane = ((neg >> np.uint64(p)) & np.uint64(1)).astype(np.uint8)
        # significant-prefix bits, raw
        k1 = np.minimum(m, maxbits - cur)
        if int(k1.max(initial=0)) > 0:
            rows = np.repeat(all_rows, k1)
            j = concat_ranges(k1)
            bitbuf[rows, cur[rows] + j] = plane[rows, j]
        cur = cur + k1
        # group-tested tail
        ext = m.copy()            # end of emitted region this plane
        alive = np.ones(nb, dtype=bool)
        for _g in range(n_groups):
            start = ext
            sel = alive & (start < ncoef) & (cur < maxbits)
            if not sel.any():
                break
            has_more = (plane & (cols >= start[:, None])).any(axis=1)
            idx = np.flatnonzero(sel)
            bitbuf[idx, cur[idx]] = has_more[idx]
            cur[sel] += 1
            go = sel & has_more
            glen = np.zeros(nb, dtype=np.int64)
            glen[go] = np.minimum(np.minimum(_GROUP, ncoef - start[go]),
                                  (maxbits - cur)[go])
            if int(glen.max(initial=0)) > 0:
                rows = np.repeat(all_rows, glen)
                j = concat_ranges(glen)
                bitbuf[rows, cur[rows] + j] = plane[rows, start[rows] + j]
            cur = cur + glen
            ext = ext + glen
            alive = go & (glen == _GROUP)
        # significance grows to one past the last emitted 1
        emitted = (cols[None, :] >= m[:, None]) \
            & (cols[None, :] < ext[:, None])
        lastpos = ((plane.astype(np.int64) * emitted)
                   * (cols[None, :] + 1)).max(axis=1)
        m = np.maximum(m, lastpos)
        if bool((cur >= maxbits).all()):
            break
    return bitbuf


def _decode_planes(bitbuf: np.ndarray, ncoef: int) -> np.ndarray:
    """Invert :func:`_encode_planes` back to negabinary coefficients."""
    nb, maxbits = bitbuf.shape
    neg = np.zeros((nb, ncoef), dtype=np.uint64)
    cur = np.zeros(nb, dtype=np.int64)
    m = np.zeros(nb, dtype=np.int64)
    cols = np.arange(ncoef, dtype=np.int64)
    all_rows = np.arange(nb)
    n_groups = -(-ncoef // _GROUP)
    for p in range(_PLANES - 1, -1, -1):
        shift = np.uint64(p)
        k1 = np.minimum(m, maxbits - cur)
        if int(k1.max(initial=0)) > 0:
            rows = np.repeat(all_rows, k1)
            j = concat_ranges(k1)
            bits = bitbuf[rows, cur[rows] + j].astype(np.uint64)
            neg[rows, j] |= bits << shift
        cur = cur + k1
        ext = m.copy()
        alive = np.ones(nb, dtype=bool)
        for _g in range(n_groups):
            start = ext
            sel = alive & (start < ncoef) & (cur < maxbits)
            if not sel.any():
                break
            idx = np.flatnonzero(sel)
            has_more = np.zeros(nb, dtype=bool)
            has_more[idx] = bitbuf[idx, cur[idx]].astype(bool)
            cur[sel] += 1
            go = sel & has_more
            glen = np.zeros(nb, dtype=np.int64)
            glen[go] = np.minimum(np.minimum(_GROUP, ncoef - start[go]),
                                  (maxbits - cur)[go])
            if int(glen.max(initial=0)) > 0:
                rows = np.repeat(all_rows, glen)
                j = concat_ranges(glen)
                bits = bitbuf[rows, cur[rows] + j].astype(np.uint64)
                neg[rows, start[rows] + j] |= bits << shift
            cur = cur + glen
            ext = ext + glen
            alive = go & (glen == _GROUP)
        plane = ((neg >> shift) & np.uint64(1)).astype(np.int64)
        emitted = (cols[None, :] >= m[:, None]) \
            & (cols[None, :] < ext[:, None])
        lastpos = ((plane * emitted) * (cols[None, :] + 1)).max(axis=1)
        m = np.maximum(m, lastpos)
        if bool((cur >= maxbits).all()):
            break
    return neg


@register
class CuZFP:
    """The cuZFP compressor (fixed rate, 1..3D float fields).

    ``rate`` is the bit budget per input value; each 4^d block consumes
    exactly ``rate * 4^d`` bits (8 of which hold the block exponent).
    """

    name = "cuzfp"

    def __init__(self, rate: float = 8.0, lossless: str = "none"):
        self.rate = float(rate)
        self.lossless = lossless
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")

    def _maxbits(self, ndim: int) -> int:
        k = 4 ** ndim
        maxbits = int(round(self.rate * k)) - 8
        if maxbits < 1:
            raise ConfigError(
                f"rate {self.rate} too small for {ndim}D (exponent "
                f"overhead); need rate > {8 / k + 1 / k:.3f}")
        return maxbits

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        ndim = data.ndim
        maxbits = self._maxbits(ndim)
        blocks, padded_shape = _extract_blocks(data.astype(np.float64))
        nb = blocks.shape[0]
        flat = blocks.reshape(nb, -1)

        amax = np.abs(flat).max(axis=1)
        emax = np.zeros(nb, dtype=np.int64)
        nzb = amax > 0
        emax[nzb] = np.frexp(amax[nzb])[1]
        np.clip(emax, -127, 127, out=emax)

        ints = np.rint(np.ldexp(flat, (_FRAC_BITS - emax)[:, None])
                       ).astype(np.int64)
        iblocks = ints.reshape(blocks.shape)
        fwd_transform(iblocks)
        coefs = iblocks.reshape(nb, -1)[:, sequency_order(ndim)]
        neg = (((coefs + _NEGA_MASK) ^ _NEGA_MASK)
               & np.int64(0xFFFFFFFF)).astype(np.uint64)
        bitbuf = _encode_planes(neg, maxbits)
        payload = np.packbits(bitbuf.ravel())

        meta = {
            "shape": list(data.shape),
            "padded_shape": list(padded_shape),
            "dtype": data.dtype.name,
            "rate": self.rate,
            "maxbits": maxbits,
        }
        segments = {
            "emax": (emax + 128).astype(np.uint8).tobytes(),
            "payload": payload.tobytes(),
        }
        inner = build_container(self.name, meta, segments)
        return wrap_lossless(inner, self.lossless)

    def decompress(self, blob: bytes) -> np.ndarray:
        opened = open_blob(blob)
        codec, meta, segments = opened.codec, opened.meta, opened.segments
        if codec != self.name:
            raise CodecError(f"blob codec {codec!r} is not {self.name!r}")
        shape = tuple(meta["shape"])
        padded_shape = tuple(meta["padded_shape"])
        dtype = np.dtype(meta["dtype"])
        maxbits = int(meta["maxbits"])
        ndim = len(shape)
        ncoef = 4 ** ndim
        nb = int(np.prod([n // 4 for n in padded_shape]))

        emax = np.frombuffer(segments["emax"],
                             np.uint8).astype(np.int64) - 128
        if emax.size != nb:
            raise CodecError("exponent table size mismatch")
        payload = np.frombuffer(segments["payload"], np.uint8)
        total_bits = nb * maxbits
        if payload.size * 8 < total_bits:
            raise CodecError("cuZFP payload truncated")
        bitbuf = np.unpackbits(payload, count=total_bits).reshape(
            nb, maxbits)
        neg = _decode_planes(bitbuf, ncoef)
        coefs = ((neg.astype(np.int64) ^ _NEGA_MASK) - _NEGA_MASK)
        perm = sequency_order(ndim)
        unperm = np.empty_like(perm)
        unperm[perm] = np.arange(perm.size)
        iblocks = coefs[:, unperm].reshape((nb,) + (4,) * ndim)
        inv_transform(iblocks)
        vals = np.ldexp(iblocks.reshape(nb, -1).astype(np.float64),
                        (emax - _FRAC_BITS)[:, None])
        blocks = vals.reshape((nb,) + (4,) * ndim)
        return _assemble_blocks(blocks, padded_shape,
                                shape).astype(dtype)
