"""Anchor-point handling (paper §V-A).

One sample per ``anchor_stride``^d sub-grid vertex is stored losslessly
(float32), which (a) removes all cross-chunk data dependencies so chunks
interpolate independently, and (b) lets the decompressor seed the coarsest
interpolation level exactly. For the 3D default stride of 8 that is 1/512
of the samples; the optional de-redundancy pass (§VI-B) shrinks the anchor
segment further.
"""

from __future__ import annotations

import numpy as np

__all__ = ["extract_anchors", "apply_anchors", "anchor_count"]


def _anchor_slices(ndim: int, stride: int) -> tuple[slice, ...]:
    return tuple(slice(0, None, stride) for _ in range(ndim))


def extract_anchors(padded: np.ndarray, stride: int,
                    dtype: np.dtype = np.float32) -> np.ndarray:
    """Pull the anchor sub-grid out of a padded field, stored in ``dtype``
    (the output value dtype, so anchors are lossless w.r.t. the output).

    The padded field must have every axis of length ``k*stride + 1`` so the
    last sample of each axis is itself an anchor.
    """
    return np.ascontiguousarray(
        padded[_anchor_slices(padded.ndim, stride)]).astype(dtype)


def apply_anchors(work: np.ndarray, anchors: np.ndarray,
                  stride: int) -> None:
    """Seed the working array (in its lane dtype) with the stored anchors.

    Used identically by compressor and decompressor so both sides run the
    interpolation from bit-identical anchor values. Anchors are stored in
    the output value dtype, which the lanes carry exactly.
    """
    work[_anchor_slices(work.ndim, stride)] = anchors


def anchor_count(padded_shape: tuple[int, ...], stride: int) -> int:
    """Number of anchors a padded shape yields."""
    n = 1
    for dim in padded_shape:
        n *= -(-dim // stride)  # == (dim - 1) // stride + 1 when dim%stride==1
    return n
