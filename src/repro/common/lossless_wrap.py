"""Outer de-redundancy framing (paper §VI-B).

The paper applies Bitcomp-lossless to the *entire* compressed archive (and,
for fairness in Table III, to every baseline's output too). This module
provides that outer pass: a tiny frame recording which lossless codec
wrapped the container, so any blob remains self-describing.

Frame layout: ``b"RPW1" | u8 codec-name length | codec name | payload``.
A frame with codec ``none`` keeps the payload verbatim, so the wrap is
uniform across pipeline variants.

:func:`open_blob` undoes the frame *and* parses the inner container once;
:func:`repro.decompress` routes the result to the codec, which decodes it
without unwrapping or parsing again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro import telemetry
from repro.common.container import parse_container
from repro.common.errors import ContainerError
from repro.lossless import get_lossless

__all__ = ["wrap_lossless", "unwrap_lossless", "frame_codec", "peek_codec",
           "open_blob", "OpenedBlob"]

_MAGIC = b"RPW1"

#: codec instances reused across wrap/unwrap calls. Stateful codecs rely
#: on this: the orchestrator's plan cache only pays off when successive
#: containers in a slab loop hit the *same* instance.
_INSTANCES: dict[str, object] = {}


def _codec_for(name: str):
    codec = _INSTANCES.get(name)
    if codec is None:
        codec = _INSTANCES[name] = get_lossless(name)
    return codec


def wrap_lossless(container: bytes, lossless: str) -> bytes:
    """Apply the named lossless pass over a container blob and frame it."""
    codec = _codec_for(lossless)
    with telemetry.span("lossless.wrap", codec=codec.name,
                        bytes_in=len(container)) as sp:
        payload = codec.compress_bytes(container)
        name = codec.name.encode("utf-8")
        blob = _MAGIC + struct.pack("<B", len(name)) + name + payload
        sp.set(bytes_out=len(blob))
    return blob


def frame_codec(blob: bytes) -> str:
    """The lossless codec name recorded in a wrap frame's header."""
    if len(blob) < 5 or blob[:4] != _MAGIC:
        raise ContainerError("missing lossless wrap frame")
    nlen = blob[4]
    if len(blob) < 5 + nlen:
        raise ContainerError("truncated lossless wrap frame")
    try:
        return bytes(blob[5:5 + nlen]).decode("utf-8")
    except UnicodeDecodeError:
        raise ContainerError("lossless codec name is not valid UTF-8")


def unwrap_lossless(blob: bytes) -> bytes:
    """Undo :func:`wrap_lossless`, returning the inner container bytes."""
    name = frame_codec(blob)
    codec = _codec_for(name)
    with telemetry.span("lossless.unwrap", codec=name,
                        bytes_in=len(blob)) as sp:
        inner = codec.decompress_bytes(blob[5 + blob[4]:])
        sp.set(bytes_out=len(inner))
    return inner


@dataclass(frozen=True)
class OpenedBlob:
    """A framed blob after the lossless pass and the container parse.

    Every registered codec's ``decompress`` accepts one in place of the
    raw bytes, so a router that had to open the blob to learn the codec
    name (:func:`repro.registry.decompress_any`) hands over the work
    instead of making the codec redo it.
    """

    codec: str
    meta: dict[str, Any]
    segments: dict[str, bytes]
    lossless: str       # the outer frame's lossless codec name
    nbytes: int         # length of the framed blob


def open_blob(blob) -> OpenedBlob:
    """Unwrap the lossless frame and parse the container, once.

    An :class:`OpenedBlob` passes through unchanged.
    """
    if isinstance(blob, OpenedBlob):
        return blob
    inner = unwrap_lossless(blob)
    codec, meta, segments = parse_container(inner)
    return OpenedBlob(codec, meta, segments, frame_codec(blob), len(blob))


def peek_codec(blob: bytes) -> str:
    """Read the inner container's codec name."""
    return open_blob(blob).codec
