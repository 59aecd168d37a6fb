"""Golden legacy archives must keep decoding bit for bit.

``tests/data/legacy/`` holds small blobs written by the release whose
G-Interp traversal ran in float64 lanes for every field (see
``tests/data/make_legacy_fixtures.py``). Their container meta carries no
``lanes`` key, so the decoder must replay them in float64 and produce
exactly the arrays whose SHA-256 the manifest pins.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.common.container import parse_container
from repro.common.lossless_wrap import unwrap_lossless
from repro.streaming import SlabReader, decompress_slabs

DATA = pathlib.Path(__file__).resolve().parent / "data" / "legacy"
MANIFEST = json.loads((DATA / "manifest.json").read_text())


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _blobs(entry) -> list[bytes]:
    raw = (DATA / entry["file"]).read_bytes()
    if entry["kind"] == "slabs":
        reader = SlabReader(raw)
        return [reader.slab_bytes(i) for i in range(len(reader))]
    return [raw]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_decodes_bit_exactly(name):
    entry = MANIFEST[name]
    raw = (DATA / entry["file"]).read_bytes()
    out = (decompress_slabs(raw) if entry["kind"] == "slabs"
           else repro.decompress(raw))
    assert list(out.shape) == entry["shape"]
    assert out.dtype.name == entry["dtype"]
    assert _digest(out) == entry["sha256"]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_fixture_predates_lanes_key(name):
    # the fixtures must exercise the legacy (key-absent) decode rule
    for blob in _blobs(MANIFEST[name]):
        _codec, meta, _segs = parse_container(unwrap_lossless(blob))
        assert "lanes" not in meta
