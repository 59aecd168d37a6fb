"""Write the golden legacy blobs under ``tests/data/legacy/``.

These archives were written by the release whose G-Interp traversal ran
every field in a float64 work array (container meta without a ``lanes``
key). ``tests/test_legacy_fixtures.py`` decodes them with the current
code and compares the SHA-256 of each decoded array against
``manifest.json``, which pins "archives written by any earlier release
still decode, bit for bit".

Do not rerun this script to "refresh" the fixtures after a format or
engine change: the point of the files is that they were written by the
old code. It is kept so the provenance of every blob is reproducible::

    PYTHONPATH=src python tests/data/make_legacy_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

import repro
from repro.streaming import compress_slabs

OUT = pathlib.Path(__file__).resolve().parent / "legacy"


def field(shape, seed, dtype=np.float32):
    """Deterministic smooth field: a few separable waves plus weak noise."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, n) for n in shape],
                        indexing="ij")
    out = np.zeros(shape, dtype=np.float64)
    for k in range(3):
        freqs = rng.uniform(1.0, 4.0, size=len(shape))
        phase = rng.uniform(0.0, 2 * np.pi)
        arg = sum(f * g for f, g in zip(freqs, grids))
        out += np.sin(2 * np.pi * arg + phase) / (k + 1)
    out += 0.001 * rng.standard_normal(shape)
    return out.astype(dtype)


#: name -> (field, codec kwargs); the slab stream is written separately
CASES = {
    "f32_1d": (lambda: field((1500,), 1), dict(eb=1e-3)),
    "f32_2d": (lambda: field((45, 70), 2), dict(eb=1e-3, lossless="gle",
                                                   pad=True)),
    "f32_3d": (lambda: field((20, 26, 34), 3), dict(eb=1e-3,
                                                    lossless="none")),
    "f64_3d": (lambda: field((17, 18, 20), 4, np.float64),
               dict(eb=1e-3, lossless="zlib")),
}
SLAB_CASE = ("f32_slabs", lambda: field((24, 18, 22), 5), 8,
             dict(eb=1e-3, mode="abs"))


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, (make, kwargs) in CASES.items():
        blob = repro.compress(make(), "cuszi", **kwargs)
        out = repro.decompress(blob)
        (OUT / f"{name}.rpz").write_bytes(blob)
        manifest[name] = {"file": f"{name}.rpz", "kind": "blob",
                          "shape": list(out.shape), "dtype": out.dtype.name,
                          "sha256": _digest(out)}
    name, make, planes, kwargs = SLAB_CASE
    stream = compress_slabs(make(), planes, **kwargs)
    out = repro.streaming.decompress_slabs(stream)
    (OUT / f"{name}.rpst").write_bytes(stream)
    manifest[name] = {"file": f"{name}.rpst", "kind": "slabs",
                      "shape": list(out.shape), "dtype": out.dtype.name,
                      "sha256": _digest(out)}
    (OUT / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
