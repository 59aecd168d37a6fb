"""Fault-injection tests: corrupted archives must fail loudly.

The container CRC (and the Huffman payload CRC) turn any bit flip into a
:class:`~repro.common.errors.ReproError` instead of a silently wrong
reconstruction — checked here for every codec and several corruption
positions.
"""

import struct
import zlib

import numpy as np
import pytest

import repro
from conftest import smooth_field
from repro.common.container import (MAGIC, VERSION, build_container,
                                    parse_container)
from repro.common.errors import ReproError
from repro.common.lossless_wrap import (frame_codec, unwrap_lossless,
                                        wrap_lossless)
from repro.registry import available, get_compressor


def _flip(blob: bytes, pos: int) -> bytes:
    arr = bytearray(blob)
    arr[pos] ^= 0x55
    return bytes(arr)


@pytest.fixture(scope="module")
def blobs():
    data = smooth_field((24, 24, 24), seed=100)
    out = {}
    for codec in available():
        if codec == "cuzfp":
            comp = get_compressor(codec, rate=4.0, lossless="none")
        else:
            comp = get_compressor(codec, eb=1e-3, mode="rel",
                                  lossless="none")
        out[codec] = (comp, comp.compress(data))
    return out


@pytest.mark.parametrize("codec", ["cuszi", "cusz", "cuszp", "cuszx",
                                   "fzgpu", "cuzfp", "sz3", "qoz", "sz14"])
class TestCorruption:
    @pytest.mark.parametrize("where", ["header", "early", "middle",
                                       "late"])
    def test_flip_detected(self, blobs, codec, where):
        comp, blob = blobs[codec]
        pos = {"header": 8,
               "early": len(blob) // 4,
               "middle": len(blob) // 2,
               "late": len(blob) - 3}[where]
        with pytest.raises(ReproError):
            comp.decompress(_flip(blob, pos))

    def test_truncation_detected(self, blobs, codec):
        comp, blob = blobs[codec]
        with pytest.raises(ReproError):
            comp.decompress(blob[: len(blob) // 2])

    def test_extension_detected(self, blobs, codec):
        comp, blob = blobs[codec]
        with pytest.raises(ReproError):
            comp.decompress(blob + b"\x00\x01\x02\x03")


class TestCorruptionWithGLE:
    def test_flip_inside_gle_frame_never_silently_wrong(self):
        # a flip must either be detected or land in dead padding bits
        # (e.g. the pack stage's block padding) and change nothing
        data = smooth_field((20, 20, 20), seed=101)
        comp = get_compressor("cuszi", eb=1e-2, mode="rel",
                              lossless="gle")
        blob = comp.compress(data)
        clean = comp.decompress(blob)
        for pos in (10, len(blob) // 3, len(blob) // 2, len(blob) - 2):
            try:
                out = comp.decompress(_flip(blob, pos))
            except ReproError:
                continue
            np.testing.assert_array_equal(out, clean)


def _rebuilt(blob: bytes, edit) -> bytes:
    """``blob`` after ``edit(meta, segments)``, with an honest CRC, so only
    the decoder's own validation stands between it and the bytes."""
    codec, meta, segments = parse_container(unwrap_lossless(blob))
    edit(meta, segments)
    return wrap_lossless(build_container(codec, meta, segments),
                         frame_codec(blob))


class TestHostileBytes:
    """Crafted (not just flipped) bytes must still raise only ReproError."""

    @pytest.fixture(scope="class")
    def blob(self):
        return repro.compress(smooth_field((12, 14, 16), seed=102),
                              eb=1e-3)

    def test_non_utf8_lossless_name(self, blob):
        bad = bytearray(blob)
        bad[5] = 0xFF                 # first byte of the codec name
        with pytest.raises(ReproError):
            repro.decompress(bytes(bad))

    @pytest.mark.parametrize("field", ["codec", "segment"])
    def test_non_utf8_container_names(self, field):
        name = b"\xff\xfe"
        if field == "codec":
            body = (struct.pack("<B", 2) + name + struct.pack("<I", 2)
                    + b"{}" + struct.pack("<H", 0))
        else:
            body = (struct.pack("<B", 1) + b"x" + struct.pack("<I", 2)
                    + b"{}" + struct.pack("<H", 1) + struct.pack("<B", 2)
                    + name + struct.pack("<Q", 0))
        inner = (MAGIC + struct.pack("<H", VERSION)
                 + struct.pack("<I", zlib.crc32(body)) + body)
        with pytest.raises(ReproError):
            parse_container(inner)

    @pytest.mark.parametrize("value", [64, 16, "32", 32.0, True, None,
                                       [32], {"bits": 32}],
                             ids=["64", "16", "str", "float", "bool",
                                  "null", "list", "object"])
    def test_bad_lanes_value(self, blob, value):
        hostile = _rebuilt(blob, lambda meta, _s: meta.update(lanes=value))
        with pytest.raises(ReproError):
            repro.decompress(hostile)

    def test_f32_lanes_on_f64_field_rejected(self):
        data = smooth_field((10, 12, 14), seed=103).astype(np.float64)
        blob = repro.compress(data, eb=1e-3)
        hostile = _rebuilt(blob, lambda meta, _s: meta.update(lanes=32))
        with pytest.raises(ReproError):
            repro.decompress(hostile)

    @pytest.mark.parametrize("key", ["shape", "dtype", "spec", "radius"])
    def test_malformed_header_field(self, blob, key):
        hostile = _rebuilt(blob,
                           lambda meta, _s: meta.update({key: "junk"}))
        with pytest.raises(ReproError):
            repro.decompress(hostile)

    @pytest.mark.parametrize("edit", ["short-anchors", "odd-outliers",
                                      "no-huffman"])
    def test_inconsistent_segments(self, blob, edit):
        def apply(_meta, segments):
            if edit == "short-anchors":
                segments["anchors"] = segments["anchors"][:-4]
            elif edit == "odd-outliers":
                segments["outliers"] += b"\x00"
            else:
                del segments["huffman"]
        with pytest.raises(ReproError):
            repro.decompress(_rebuilt(blob, apply))
