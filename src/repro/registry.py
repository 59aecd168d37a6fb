"""Compressor registry and the common compressor protocol.

Every compressor in this reproduction — cuSZ-i and the six baselines —
implements the same small surface:

* ``name`` — registry key;
* ``compress(ndarray) -> bytes`` — self-describing container blob;
* ``decompress(bytes) -> ndarray`` — original shape and dtype restored.

so experiments iterate over compressors uniformly, and
:func:`repro.decompress` can route any blob to its codec by the container's
codec field.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.common.errors import ConfigError

__all__ = ["Compressor", "register", "get_compressor", "available",
           "decompress_any"]


@runtime_checkable
class Compressor(Protocol):
    """Minimal protocol every registered compressor satisfies."""

    name: str

    def compress(self, data: np.ndarray) -> bytes:
        """Compress a float field into a self-describing blob."""
        ...

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the field from a blob produced by ``compress``
        (or from the :class:`~repro.common.lossless_wrap.OpenedBlob`
        :func:`decompress_any` made of it)."""
        ...


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a compressor to the registry by its name."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigError(f"{cls!r} lacks a string `name` attribute")
    if name in _REGISTRY:
        raise ConfigError(f"compressor {name!r} registered twice")
    _REGISTRY[name] = cls
    return cls


def _ensure_loaded() -> None:
    """Import the modules that register compressors (idempotent)."""
    import repro.core.pipeline  # noqa: F401
    import repro.baselines  # noqa: F401


def available() -> list[str]:
    """Names of all registered compressors."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name with its kwargs."""
    _ensure_loaded()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}")
    return cls(**kwargs)


def decompress_any(blob: bytes) -> np.ndarray:
    """Decompress a blob produced by any registered compressor.

    The codec is read from the container header; codec parameters needed
    for decoding all travel in the stream, so a default-constructed
    instance can decode it.
    """
    _ensure_loaded()
    from repro.common.lossless_wrap import open_blob
    # the codec name sits inside the lossless-wrapped container, so the
    # frame must be undone to route the blob; the codec then decodes the
    # opened blob instead of unwrapping and parsing it a second time
    opened = open_blob(blob)
    if opened.codec not in _REGISTRY:
        raise ConfigError(
            f"blob was produced by unknown codec {opened.codec!r}")
    return _REGISTRY[opened.codec]().decompress(opened)
