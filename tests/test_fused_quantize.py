"""Fused pass kernels: bit-exactness in float32 and float64 lanes.

The compiled traversal emits quant-codes straight from the prediction
pass (predict–quantize) and decodes by writing reconstructions straight
into the work array (predict–reconstruct). The contract: the compiled
traversal and the uncompiled reference oracle are byte-identical — codes,
outliers, anchors, and reconstruction — in either lane dtype; decode
replays the compress-side reconstruction bit for bit; and every
execution path (pipeline, slab stream, tiled file, shm and pickle worker
pools) writes the same blobs and decodes them to the same arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import smooth_field
from repro.common.container import parse_container
from repro.common.lossless_wrap import unwrap_lossless
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp import InterpSpec, interp_compress, interp_decompress
from repro.core.pipeline import CuSZi
from repro.runtime.pool import (map_compress, map_decompress,
                                parallel_compress_slabs,
                                parallel_decompress_slabs)
from repro.runtime.tiled import tiled_compress_file, tiled_decompress_file
from repro.streaming import SlabReader, compress_slabs, decompress_slabs

EB = 1e-3
LANES = (np.float64, np.float32)


def _quantizers(quantizer=None):
    """The given quantizer in each lane dtype its values allow."""
    q = quantizer or LinearQuantizer()
    return [LinearQuantizer(q.radius, q.value_dtype, lane)
            for lane in LANES
            if np.dtype(lane).itemsize >= q.value_dtype.itemsize]


def _pair(data, spec, eb=EB, quantizer=None):
    """Compiled vs reference in every lane dtype; returns the f32 run
    (or the f64 one for float64 values)."""
    runs = []
    for q in _quantizers(quantizer):
        fused = interp_compress(data, spec, eb, q)
        ref = interp_compress(data, spec, eb, q, compiled=False)
        assert fused.reconstructed.dtype == q.lane_dtype
        assert np.array_equal(fused.codes, ref.codes)
        assert np.array_equal(fused.outliers, ref.outliers)
        assert np.array_equal(fused.anchors, ref.anchors)
        assert fused.reconstructed.tobytes() == ref.reconstructed.tobytes()
        runs.append((q, fused))
    return runs[-1]


class TestEngineEquivalence:
    def test_3d(self):
        _pair(smooth_field((32, 36, 40)), InterpSpec(anchor_stride=8))

    def test_3d_windowed(self):
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        _pair(smooth_field((24, 24, 48)), spec)

    def test_2d(self):
        _pair(smooth_field((33, 47)), InterpSpec(anchor_stride=8))

    def test_1d(self):
        _pair(smooth_field((129,)), InterpSpec(anchor_stride=8))

    def test_tiny_field(self):
        _pair(smooth_field((8, 8, 8)), InterpSpec(anchor_stride=4))

    def test_f64_values(self):
        data = smooth_field((24, 28, 20)).astype(np.float64)
        q = LinearQuantizer(value_dtype=np.float64)
        _pair(data, InterpSpec(anchor_stride=8), quantizer=q)

    def test_alpha_beta_levels(self):
        spec = InterpSpec(anchor_stride=8, alpha=1.5, beta=3.0)
        _pair(smooth_field((32, 32, 32)), spec)

    def test_decompress_replays_fused_stream(self):
        data = smooth_field((32, 36, 40))
        spec = InterpSpec(anchor_stride=8)
        for q in _quantizers():
            res = interp_compress(data, spec, EB, q)
            for compiled in (True, False):
                out = interp_decompress(data.shape, spec, EB, res.codes,
                                        res.outliers, res.anchors, q,
                                        compiled=compiled)
                assert out.dtype == q.lane_dtype
                assert out.tobytes() == res.reconstructed.tobytes()
            assert np.max(np.abs(out.astype(np.float64)
                                 - data.astype(np.float64))) <= EB


class TestQuantizeInto:
    def test_matches_quantize_lane_for_lane(self, rng):
        values = rng.normal(0, 1, size=(31, 17)).astype(np.float32)
        preds = values.astype(np.float64) \
            + rng.normal(0, 5e-3, size=values.shape)
        # sprinkle outliers: both the radius overflow and the
        # value-dtype round-trip failure lanes
        preds.ravel()[::97] += 10.0
        for q in _quantizers():
            ref = q.quantize(values, preds, EB)
            codes = np.empty(values.size, dtype=np.uint32)
            q_buf = np.empty(values.size, dtype=q.lane_dtype)
            r_buf = np.empty(values.size, dtype=q.lane_dtype)
            recon, outliers = q.quantize_into(
                values, preds.ravel(), EB, codes, q_buf=q_buf, r_buf=r_buf)
            assert np.array_equal(codes, ref.codes)
            assert recon.ravel().tobytes() == ref.reconstructed.tobytes()
            assert np.array_equal(outliers, ref.outlier_values)

    def test_strided_view_input(self, rng):
        # fused passes hand quantize_into a strided n-d view of the field;
        # code order must match the flattened reference order
        base = rng.normal(0, 1, size=(16, 16, 16)).astype(np.float32)
        view = base[1::2, :, 3::4]
        preds = np.zeros(view.size, dtype=np.float64)
        for q in _quantizers():
            ref = q.quantize(np.ascontiguousarray(view), preds, 0.5)
            codes = np.empty(view.size, dtype=np.uint32)
            scratch = np.empty(view.size, dtype=q.lane_dtype)
            recon, outliers = q.quantize_into(
                view, preds, 0.5, codes,
                q_buf=scratch, r_buf=scratch.copy())
            assert np.array_equal(codes, ref.codes)
            assert np.array_equal(outliers, ref.outlier_values)

    def test_rejects_bad_eb(self):
        q = LinearQuantizer()
        from repro.common.errors import ConfigError
        buf = np.empty(4, dtype=np.float64)
        with pytest.raises(ConfigError):
            q.quantize_into(np.zeros(4, np.float32), buf, 0.0,
                            np.empty(4, np.uint32), q_buf=buf,
                            r_buf=buf.copy())

    @pytest.mark.parametrize("eb", [1e-3, 0.1, 3.0, 1e-30, 7e36])
    def test_f32_screen_matches_exact_check(self, rng, eb):
        # reconstructions a few ulps either side of v +- eb, plus far and
        # non-finite ones: the float32 screen must flag exactly the lanes
        # the float64 check flags
        q = LinearQuantizer(value_dtype=np.float32, lane_dtype=np.float32)
        scale = np.float32(min(eb * 1e3, 1e37))
        v = (rng.standard_normal(4000) * scale).astype(np.float32)
        r = v.astype(np.float64) + eb * rng.choice([-1.0, 1.0], v.size)
        r = r.astype(np.float32)
        for k in range(1, 4):
            r[k::7] = np.nextafter(r[k::7], np.float32(np.inf))
            r[k + 3::11] = np.nextafter(r[k + 3::11], np.float32(-np.inf))
        r[::13] = v[::13] + np.float32(2 * eb)
        r[5::101] = np.inf
        r[9::103] = np.nan
        codes = np.zeros(v.size, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            got = q._outliers(codes, r, v, eb)
            want = ~(np.abs(r.astype(np.float64) - v.astype(np.float64))
                     <= eb)
        assert got.any() and not got.all()
        assert np.array_equal(got, want)

    def test_f32_lanes_need_f32_values(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            LinearQuantizer(value_dtype=np.float64, lane_dtype=np.float32)


class TestReconstructInto:
    @pytest.mark.parametrize("lane", LANES)
    def test_inverts_quantize_into_in_a_strided_view(self, rng, lane):
        q = LinearQuantizer(16, lane_dtype=lane)
        values = rng.normal(0, 1, size=(12, 10)).astype(np.float32)
        preds = (values + rng.normal(0, 0.05, size=values.shape)
                 ).astype(lane)
        preds.ravel()[::7] += 5.0                   # outliers
        codes = np.empty(values.size, dtype=np.uint32)
        bufs = [np.empty(values.size, dtype=lane) for _ in range(2)]
        recon, outliers = q.quantize_into(values, preds.ravel(), 0.01,
                                          codes, q_buf=bufs[0],
                                          r_buf=bufs[1])
        assert outliers.size > 0
        work = np.full((24, 30), 7.0, dtype=lane)
        target = work[1::2, ::3]
        for q_buf in (None, np.empty(values.size, dtype=lane)):
            cursor = q.reconstruct_into(codes, preds.ravel(), 0.01,
                                        outliers, 0, target, q_buf=q_buf)
            assert cursor == outliers.size
            assert target.tobytes() == recon.tobytes()
        assert np.all(work[0::2] == 7.0)            # nothing else touched

    def test_code_count_mismatch_is_corrupt(self):
        from repro.common.errors import CorruptStreamError
        q = LinearQuantizer(8)
        with pytest.raises(CorruptStreamError):
            q.reconstruct_into(np.full(3, 8, np.uint32), np.zeros(4), 1e-3,
                               np.zeros(0, np.float32), 0, np.empty(4))


def _compress_side_recon(data, blob):
    """The reconstruction the compressor saw, rebuilt from the blob's own
    header (spec, bound, lanes) by re-running the engine on ``data``."""
    _codec, meta, _ = parse_container(unwrap_lossless(blob))
    lane = np.float32 if meta.get("lanes") == 32 else np.float64
    q = LinearQuantizer(meta["radius"], value_dtype=data.dtype,
                        lane_dtype=lane)
    res = interp_compress(data, InterpSpec.from_meta(meta["spec"]),
                          meta["abs_eb"], q)
    return res.reconstructed, meta


def _assert_replays(data, blob, out):
    recon, meta = _compress_side_recon(data, blob)
    assert meta["lanes"] == 32
    assert out.dtype == data.dtype
    assert out.tobytes() == recon.astype(data.dtype).tobytes()
    assert np.max(np.abs(out.astype(np.float64)
                         - data.astype(np.float64))) <= meta["abs_eb"]


class TestCrossPathBlobIdentity:
    """float32-lane archives replay bit-exactly on every execution path."""

    def test_pipeline_blob(self):
        data = smooth_field((32, 36, 40))
        blob = CuSZi(eb=EB, mode="abs").compress(data)
        _assert_replays(data, blob, CuSZi(eb=EB, mode="abs").decompress(blob))

    def test_slab_stream(self):
        data = smooth_field((24, 20, 20))
        stream = compress_slabs(data, 8, eb=EB)
        pooled = parallel_compress_slabs(data, 8, eb=EB, workers=2,
                                         min_parallel_bytes=0,
                                         transport="pickle")
        assert stream == pooled
        reader = SlabReader(stream)
        for i in range(len(reader)):
            _assert_replays(data[8 * i:8 * (i + 1)], reader.slab_bytes(i),
                            reader.read_slab(i))
        out = decompress_slabs(stream)
        back = parallel_decompress_slabs(stream, workers=2,
                                         min_parallel_bytes=0,
                                         transport="pickle")
        assert out.tobytes() == back.tobytes()

    def test_shm_slab_stream(self):
        data = smooth_field((24, 20, 20))
        stream = compress_slabs(data, 8, eb=EB)
        shm = parallel_compress_slabs(data, 8, eb=EB, workers=2,
                                      min_parallel_bytes=0, transport="shm")
        assert stream == shm
        back = parallel_decompress_slabs(shm, workers=2,
                                         min_parallel_bytes=0,
                                         transport="shm")
        assert back.tobytes() == decompress_slabs(stream).tobytes()

    def test_tiled_file(self, tmp_path):
        data = smooth_field((24, 16, 16))
        raw = tmp_path / "field.raw"
        raw.write_bytes(data.tobytes())
        packed = tmp_path / "field.rsz"
        tiled_compress_file(raw, data.shape, out_path=packed,
                            tile_planes=8, eb=EB)
        assert packed.read_bytes() == compress_slabs(data, 8, eb=EB)
        unpacked = tmp_path / "back.raw"
        tiled_decompress_file(packed, unpacked)
        assert unpacked.read_bytes() == \
            decompress_slabs(packed.read_bytes()).tobytes()

    def test_worker_pool_blobs(self):
        # pool workers must write the serial blobs byte for byte and
        # decode them to the compress-side reconstruction
        fields = [smooth_field((16, 16, 16), seed=s) for s in range(3)]
        serial = map_compress(fields, "cuszi", eb=EB, mode="abs",
                              workers=1)
        pooled = map_compress(fields, "cuszi", eb=EB, mode="abs",
                              workers=2)
        assert serial == pooled
        out = map_decompress(pooled, workers=2)
        for got, want, blob in zip(out, fields, pooled):
            _assert_replays(want, blob, got)


def _offset_field():
    base = smooth_field((24, 20, 28), seed=3)
    return (base + np.float32(1e4) * np.ptp(base)).astype(np.float32)


def _tiny_field():
    return (smooth_field((24, 20, 28), seed=4)
            * np.float32(1e-30)).astype(np.float32)


def _huge_field():
    # near float32 max: the cubic partial sum 9/16*a + 9/16*b overflows
    base = smooth_field((24, 20, 28), seed=5)
    base = (base - base.min()) / np.ptp(base)
    return (np.float32(3.0e38) + np.float32(3.0e37) * base
            ).astype(np.float32)


class TestBoundF32Lanes:
    """max|err| <= abs_eb where float32 lanes are hardest to get right."""

    @pytest.mark.parametrize("make", [_offset_field, _tiny_field,
                                      _huge_field],
                             ids=["offset-1e4-range", "scaled-1e-30",
                                  "near-f32-max"])
    @pytest.mark.parametrize("eb", [1e-2, 1e-4])
    def test_pipeline_bound_and_replay(self, make, eb):
        data = make()
        assert np.isfinite(data).all()
        blob = CuSZi(eb=eb, mode="rel").compress(data)
        out = CuSZi().decompress(blob)
        _assert_replays(data, blob, out)

    @pytest.mark.parametrize("make", [_offset_field, _tiny_field,
                                      _huge_field],
                             ids=["offset-1e4-range", "scaled-1e-30",
                                  "near-f32-max"])
    def test_engine_matches_oracle(self, make):
        data = make()
        eb = 1e-3 * float(np.ptp(data.astype(np.float64)))
        q = LinearQuantizer(value_dtype=np.float32, lane_dtype=np.float32)
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        _q, res = _pair(data, spec, eb, q)
        out = interp_decompress(data.shape, spec, eb, res.codes,
                                res.outliers, res.anchors, q)
        assert out.tobytes() == res.reconstructed.tobytes()
        assert np.max(np.abs(out.astype(np.float64)
                             - data.astype(np.float64))) <= eb

    def test_overflowing_predictions_become_outliers(self):
        data = _huge_field()
        eb = 1e-3 * float(np.ptp(data.astype(np.float64)))
        q = LinearQuantizer(value_dtype=np.float32, lane_dtype=np.float32)
        res = interp_compress(data, InterpSpec(anchor_stride=8), eb, q)
        assert res.outliers.size > 0
        assert np.isfinite(res.reconstructed).all()

    @pytest.mark.parametrize("eb", [1e39, 1e-39])
    def test_bin_width_outside_float32_uses_f64_lanes(self, eb):
        # 2*eb must be a normal float32 to be a lane operand; otherwise
        # the field runs (and is replayed) in float64 lanes
        data = smooth_field((12, 12, 12), seed=6)
        blob = CuSZi(eb=eb, mode="abs").compress(data)
        _codec, meta, _ = parse_container(unwrap_lossless(blob))
        assert "lanes" not in meta
        out = CuSZi().decompress(blob)
        assert np.max(np.abs(out.astype(np.float64)
                             - data.astype(np.float64))) <= eb
