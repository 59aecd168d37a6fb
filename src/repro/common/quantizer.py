"""Error-bounded linear quantization with outlier compaction (paper §III-A).

Every prediction-based compressor in this reproduction shares the same
quantization contract:

* ``q = round((value - prediction) / (2 * eb))`` maps the prediction error
  onto integer bins of width ``2*eb``;
* the reconstruction ``prediction + 2*eb*q`` is then within ``eb`` of the
  original value;
* codes with ``|q| >= radius`` (or that fail the bound after float32
  rounding) are *outliers*: they get the reserved code ``0`` and their exact
  float32 value is stream-compacted into a side channel (§VI-A), matching
  cuSZ's outlier design. Regular codes are stored as ``q + radius`` so the
  full code alphabet is ``[0, 2*radius)``.

The arithmetic runs in the quantizer's *lane dtype*: float32 lanes for
float32 fields (the GPU kernels' single-precision registers), float64 for
float64 fields and for archives written before lanes were recorded.
Compressor and decompressor run the same lane operations in the same order,
so reconstructions replay bit-exactly. Whatever the lanes, the bound check
is exact: it compares the reconstruction, rounded to the output dtype,
with the original value in float64, and any lane whose prediction,
residual or reconstruction is non-finite (a float32 cubic sum can overflow
near float32 max) becomes an outlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError, CorruptStreamError

__all__ = ["LinearQuantizer", "QuantResult", "DEFAULT_RADIUS"]

DEFAULT_RADIUS = 512


@dataclass
class QuantResult:
    """Outcome of quantizing one prediction pass.

    Attributes
    ----------
    codes:
        uint32 array, same length as the pass, values in ``[0, 2*radius)``;
        code 0 marks an outlier.
    reconstructed:
        lane-dtype array the decompressor will reproduce exactly.
    outlier_values:
        float32 array of the original values at outlier positions, in pass
        order (stream compaction).
    """

    codes: np.ndarray
    reconstructed: np.ndarray
    outlier_values: np.ndarray

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_values.size)


class LinearQuantizer:
    """Linear error-bounded quantizer with a symmetric code radius.

    ``value_dtype`` is the dtype the reconstruction will finally be emitted
    in (float32 for the paper's datasets): the error bound is checked after
    rounding to that dtype, and outliers are stored in it, so the bound
    holds on the actual decompressor output. ``lane_dtype`` is the
    precision the residual, rounding and reconstruction arithmetic runs
    in: float64 (the default) or float32, which only float32 values may
    use (float32 lanes would round float64 values before quantizing).
    """

    def __init__(self, radius: int = DEFAULT_RADIUS,
                 value_dtype: np.dtype = np.float32,
                 lane_dtype: np.dtype = np.float64):
        if radius < 2:
            raise ConfigError(f"radius must be >= 2, got {radius}")
        self.radius = int(radius)
        self.value_dtype = np.dtype(value_dtype)
        if self.value_dtype not in (np.float32, np.float64):
            raise ConfigError(f"unsupported value dtype {value_dtype}")
        self.lane_dtype = np.dtype(lane_dtype)
        if self.lane_dtype not in (np.float32, np.float64):
            raise ConfigError(f"unsupported lane dtype {lane_dtype}")
        if self.lane_dtype.itemsize < self.value_dtype.itemsize:
            raise ConfigError(f"{self.lane_dtype} lanes cannot carry "
                              f"{self.value_dtype} values")

    @property
    def n_codes(self) -> int:
        """Size of the code alphabet (including the reserved outlier 0)."""
        return 2 * self.radius

    def _ebx2(self, eb: float):
        """The bin width ``2*eb`` as a lane scalar (both sides round it
        the same way, so it is part of the replayed arithmetic)."""
        if eb <= 0:
            raise ConfigError(f"error bound must be positive, got {eb}")
        return self.lane_dtype.type(2.0 * eb)

    def _outliers(self, q: np.ndarray, r: np.ndarray, values: np.ndarray,
                  eb: float) -> np.ndarray:
        """Lanes that must be stored verbatim: the code leaves the
        alphabet, or the reconstruction rounded to the output dtype is
        not within ``eb`` of the value.

        The bound check is exact: ``|float64(r) - float64(v)| > eb`` on two
        ``value_dtype`` operands, written as ``not (err <= eb)`` so a NaN
        reconstruction (inf prediction) fails it too. When the lanes are
        already the value dtype and narrower than float64, a lane-dtype
        pass screens first: rounding is monotone, so a lane whose rounded
        ``|r - v|`` is below the largest lane number ``<= eb`` is within
        the bound, and only the remaining few go through float64.
        """
        bad = np.abs(q) >= self.radius
        if r.dtype == self.value_dtype == values.dtype != np.float64:
            e_lo = r.dtype.type(eb)
            if float(e_lo) > eb:
                e_lo = np.nextafter(e_lo, r.dtype.type(0))
            d = np.subtract(r, values)
            np.abs(d, out=d)
            check = ~(d < e_lo)
            if check.any():
                err = np.abs(np.subtract(r[check], values[check],
                                         dtype=np.float64))
                bad[check] |= ~(err <= eb)
            return bad
        rv = r if r.dtype == self.value_dtype else r.astype(self.value_dtype)
        err = np.subtract(rv, values, dtype=np.float64)
        np.abs(err, out=err)
        bad |= ~(err <= eb)
        return bad

    def quantize(self, values: np.ndarray, predictions: np.ndarray,
                 eb: float) -> QuantResult:
        """Quantize prediction errors for one pass.

        ``values`` are originals, ``predictions`` the same-shape predicted
        values; ``eb`` the absolute error bound for this pass.
        """
        ebx2 = self._ebx2(eb)
        lane = self.lane_dtype
        vals = np.asarray(values).ravel()
        v = vals.astype(lane, copy=False)
        p = np.asarray(predictions, dtype=lane).ravel()

        q = np.rint((v - p) / ebx2)
        recon = p + ebx2 * q
        bad = self._outliers(q, recon, vals, eb)

        outlier_values = vals[bad].astype(self.value_dtype)
        # Exact round-trip on both sides: the decompressor reads the stored
        # value and converts it to the lane dtype, so do the same here.
        recon[bad] = outlier_values.astype(lane)

        codes = np.zeros(v.size, dtype=np.uint32)
        good = ~bad
        codes[good] = (q[good] + self.radius).astype(np.uint32)
        return QuantResult(codes=codes, reconstructed=recon,
                           outlier_values=outlier_values)

    def quantize_into(self, values: np.ndarray, predictions: np.ndarray,
                      eb: float, codes_out: np.ndarray, *,
                      q_buf: np.ndarray, r_buf: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Buffered :meth:`quantize`: write codes straight into the stream.

        ``values`` may be any-dimensional (a strided view of the original
        field); ``predictions`` is its flat-order prediction vector.
        Codes land in ``codes_out`` (a uint32 slice of the caller's full
        code stream), the rounding runs inside the reusable lane-dtype
        scratch ``q_buf``/``r_buf``, and no per-pass arrays are
        allocated beyond the bound check and the outlier compaction.
        Returns ``(reconstructed, outlier_values)`` where
        ``reconstructed`` is a ``values``-shaped view of ``r_buf`` valid
        until the next call.

        Bit-identical to :meth:`quantize` lane for lane: the subtraction
        converts ``values`` to the lane dtype exactly, the fused
        ``ebx2*q + p`` is the same IEEE sum as ``p + ebx2*q``, and the
        in-place ``q + radius`` / zero-outlier / unsafe-cast sequence
        produces the same uint32 code every reference lane gets.
        """
        ebx2 = self._ebx2(eb)
        shape = values.shape
        n = values.size
        q = q_buf[:n].reshape(shape)
        r = r_buf[:n].reshape(shape)
        p = np.asarray(predictions, dtype=self.lane_dtype).reshape(shape)

        np.subtract(values, p, out=q)     # exact conversion into the lanes
        q /= ebx2
        np.rint(q, out=q)
        np.multiply(q, ebx2, out=r)
        r += p                            # == p + ebx2*q bit for bit
        bad = self._outliers(q, r, values, eb)

        outlier_values = values[bad].astype(self.value_dtype)
        r[bad] = outlier_values

        q += self.radius
        q[bad] = 0.0                      # reserved outlier code
        np.copyto(codes_out.reshape(shape), q, casting="unsafe")
        return r, outlier_values

    def reconstruct_into(self, codes: np.ndarray, predictions: np.ndarray,
                         eb: float, outlier_values: np.ndarray,
                         outlier_cursor: int, out: np.ndarray, *,
                         q_buf: np.ndarray | None = None) -> int:
        """Invert :meth:`quantize_into` for one pass, in place.

        Writes the reconstruction of ``codes`` (flat pass order) straight
        into ``out`` — a lane-dtype array or strided view of the work
        array, in the same raveled order — so no per-pass reconstruction
        array is allocated. ``q_buf`` is optional lane-dtype scratch for
        the dequantized bins (without it they are computed in ``out``).
        ``outlier_values`` is the full compacted outlier stream,
        ``outlier_cursor`` the index of the next unconsumed outlier; the
        advanced cursor is returned. Raises
        :class:`~repro.common.errors.CorruptStreamError` when the outlier
        stream runs dry — a short slice would silently reconstruct garbage
        at every remaining outlier position.

        The lane arithmetic is ``ebx2*(code - radius) + p``: the code
        converts to the lane dtype exactly before the subtraction, so
        every lane equals the compressor's ``p + ebx2*q``.
        """
        ebx2 = self._ebx2(eb)
        shape = out.shape
        n = out.size
        codes = np.asarray(codes)
        if codes.size != n:
            raise CorruptStreamError(
                f"pass needs {n} quant-codes, got {codes.size}")
        codes = codes.reshape(shape)
        p = np.asarray(predictions, dtype=self.lane_dtype).reshape(shape)
        q = out if q_buf is None else q_buf[:n].reshape(shape)
        np.subtract(codes, self.radius, out=q, dtype=self.lane_dtype)
        q *= ebx2
        np.add(q, p, out=out)
        is_out = codes == 0
        n_out = int(np.count_nonzero(is_out))
        if n_out:
            take = outlier_values[outlier_cursor:outlier_cursor + n_out]
            if take.size != n_out:
                raise CorruptStreamError(
                    f"outlier stream exhausted: pass has {n_out} outlier "
                    f"code(s) but only {take.size} stored value(s) remain")
            out[is_out] = take
        return outlier_cursor + n_out
