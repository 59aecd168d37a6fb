"""Span tracing for the benchmark's traced runs (``--trace 1``).

The program is not edited: :class:`Tracer` swaps a timing wrapper onto
each name a calling module binds (``repro.core.pipeline.interp_compress``,
``repro.huffman.codec.build_lut_tables``, ...) and restores the originals
on :meth:`Tracer.uninstall`. Untraced runs never construct a tracer.

Each span records its name, start, end, parent span, op id and thread,
plus a few counts taken at the same boundary (values, symbols, bytes,
cache hits). Spans stay in memory. Worker processes forked after
:meth:`Tracer.install` inherit the wrappers; each writes its own spans to
a per-process file when it exits, and :meth:`Tracer.merge_workers` reads
them back and assigns each worker span to the parent op whose interval
contains it (``time.perf_counter`` is the system-wide monotonic clock).
"""

from __future__ import annotations

import bisect
import functools
import glob
import importlib
import itertools
import json
import math
import multiprocessing.util
import os
import threading
import time
from contextlib import contextmanager

#: spans around a whole codec call; they hold layer spans but are not a
#: layer themselves, so they do not count as covered op time
CODEC_SPANS = ("codec.compress", "codec.decompress")


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _interp_compress_note(args, kwargs, out):
    data = args[0]
    return {"values": int(data.size),
            "bytes": _nbytes(data, out.codes, out.outliers, out.anchors,
                             out.reconstructed)}


def _interp_decompress_note(args, kwargs, out):
    codes, outliers, anchors = args[3:6]
    return {"values": int(out.size),
            "bytes": _nbytes(codes, outliers, anchors, out)}


def _cache_probe(stats_fn, key):
    return lambda: int(stats_fn()[key])


def _lut_miss_probe():
    from repro.huffman.canonical import codebook_cache_stats
    return ("built", _cache_probe(codebook_cache_stats, "lut_misses"))


def _targets():
    """``(module, attribute path, span name, note, probe)`` per wrapper.

    ``note(args, kwargs, result)`` returns counts for the span; ``probe``
    returns a cache counter, and whether it moved across the call is
    recorded as the span's ``hit``, ``compiled`` or ``built`` flag (0/1).

    ``build_lut_tables`` returns early on an LUT cache hit, so its spans
    carry ``built`` from the LUT miss counter. Besides the decoder's
    binding, canonical's own binding (the encode-side prewarm thread and
    ``warm_tables`` in pool workers call it) and the static family's are
    wrapped, so every LUT build is measured wherever it runs.
    """
    from repro.core.ginterp.autotune import autotune_cache_stats
    from repro.core.ginterp.plans import plan_cache_stats
    from repro.huffman import fingerprint_cache_stats

    pipe = "repro.core.pipeline"
    lwrap = "repro.common.lossless_wrap"
    huff = "repro.huffman.codec"
    pool = "repro.runtime.pool"
    lut = ("huffman.lut_build", None, _lut_miss_probe())
    return [
        (pipe, "CuSZi.compress", "codec.compress", None, None),
        (pipe, "CuSZi.decompress", "codec.decompress", None, None),
        (pipe, "autotune", "tune", None,
         ("hit", _cache_probe(autotune_cache_stats, "hits"))),
        (pipe, "get_plan", "plan", None,
         ("compiled", _cache_probe(plan_cache_stats, "misses"))),
        (pipe, "interp_compress", "ginterp.compress",
         _interp_compress_note, None),
        (pipe, "interp_decompress", "ginterp.decompress",
         _interp_decompress_note, None),
        (pipe, "huffman_encode", "huffman.encode",
         lambda a, k, out: {"symbols": int(out.n_symbols)}, None),
        (pipe, "huffman_decode", "huffman.decode",
         lambda a, k, out: {"symbols": int(out.size)}, None),
        (huff, "histogram", "huffman.histogram", None, None),
        (huff, "fingerprint_code_lengths", "huffman.code_lengths", None,
         ("hit", _cache_probe(fingerprint_cache_stats, "hits"))),
        (huff, "build_lut_tables", *lut),
        ("repro.huffman.canonical", "build_lut_tables", *lut),
        ("repro.huffman.static", "build_lut_tables", *lut),
        (pipe, "build_container", "container.build", None, None),
        (pipe, "parse_container", "container.parse", None, None),
        (lwrap, "parse_container", "container.parse", None, None),
        (pipe, "wrap_lossless", "lossless.encode",
         lambda a, k, out: {"bytes_in": len(a[0]), "bytes_out": len(out)},
         None),
        (pipe, "unwrap_lossless", "lossless.decode", None, None),
        (lwrap, "unwrap_lossless", "lossless.decode", None, None),
        (pool, "frame_slabs", "streaming.frame",
         lambda a, k, out: {"slabs": len(a[0])}, None),
        (pool, "SlabReader", "streaming.reader",
         lambda a, k, out: {"slabs": len(out)}, None),
        ("repro.runtime", "parallel_compress_slabs", "runtime.compress",
         None, None),
        ("repro.runtime", "parallel_decompress_slabs",
         "runtime.decompress", None, None),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.parent_pid = os.getpid()
        #: the closed-loop caller's thread; its op spans are the roots
        self.caller_thread = threading.get_ident()
        self._reset_process()
        self._undo: list[tuple[object, str, object]] = []
        #: ``(op id, kind, start, end)`` of every op the parent timed
        self.ops: list[tuple[str, str, float, float]] = []

    def _reset_process(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note, probe):
        tracer = self
        counter, probe_fn = probe if probe else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe_fn() if probe_fn else 0
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = f"{tracer.pid}:{next(tracer._ids)}"
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "op": tracer.op,
                    "pid": tracer.pid, "thread": threading.get_ident()}
            if note:
                span.update(note(args, kwargs, out))
            if probe_fn:
                span[counter] = min(1, probe_fn() - before)
            tracer.spans.append(span)
            return out
        return wrapper

    @contextmanager
    def op_span(self, op_id: str, kind: str):
        """Root span of one benchmark op; layer spans below carry its id."""
        stack = self._stack()
        sid = f"{self.pid}:{next(self._ids)}"
        stack.append(sid)
        self.op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.op = None
            self.spans.append({"id": sid, "parent": None,
                               "name": f"op.{kind}", "start": start,
                               "end": end, "op": op_id, "pid": self.pid,
                               "thread": threading.get_ident()})
            self.ops.append((op_id, kind, start, end))

    # -- wrapper lifecycle --------------------------------------------------

    def install(self) -> None:
        """Swap the wrappers in. Call before any worker pool starts."""
        for module, path, name, note, probe in _targets():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, note, probe))
            self._undo.append((owner, attr, original))
        multiprocessing.util.register_after_fork(self, Tracer._in_child)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _in_child(self) -> None:
        # a forked worker: drop the parent's spans, write ours at exit
        self._reset_process()
        multiprocessing.util.Finalize(None, self._write_worker_file,
                                      exitpriority=100)

    def _write_worker_file(self) -> None:
        path = os.path.join(self.out_dir,
                            f"spans-{self.parent_pid}-{self.pid}.jsonl")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def merge_workers(self, worker_pids: list[int]) -> list[int]:
        """Fold worker span files into :attr:`spans`; returns the pids
        whose file is missing (their in-worker layers are unmeasured)."""
        intervals = sorted((s, e, op) for op, _k, s, e in self.ops)
        found = set()
        pattern = os.path.join(self.out_dir,
                               f"spans-{self.parent_pid}-*.jsonl")
        for path in glob.glob(pattern):
            with open(path) as fh:
                for line in fh:
                    span = json.loads(line)
                    span["op"] = _containing_op(intervals, span["start"])
                    self.spans.append(span)
                    found.add(span["pid"])
            os.remove(path)
        return [pid for pid in worker_pids if pid not in found]

    def timed_spans(self) -> list[dict]:
        """Spans of the timed ``compress`` and ``decompress`` ops (set-up
        and serial-baseline spans excluded)."""
        timed = {op for op, kind, _s, _e in self.ops
                 if kind in ("compress", "decompress")}
        return [s for s in self.spans if s["op"] in timed]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _containing_op(intervals, t: float) -> str | None:
    """The op whose ``(start, end, op)`` interval holds ``t``; intervals
    are sorted and disjoint (one closed-loop caller)."""
    i = bisect.bisect_right(intervals, (t, math.inf, "")) - 1
    if i >= 0 and intervals[i][1] >= t:
        return intervals[i][2]
    return None


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """``name -> (count, total s, self s)``; self time is a span's
    duration minus the part of it its child spans cover."""
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
    out: dict[str, list] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - _union_length(children.get(s["id"], []))
        row = out.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += own
    return {k: tuple(v) for k, v in out.items()}


def unaccounted_share(spans: list[dict], ops, kind: str, pid: int,
                      thread: int) -> float:
    """Share of the ``kind`` ops' wall that no layer span of the calling
    thread covers (codec wrapper spans do not count as covered; spans of
    helper threads such as the LUT prewarm run alongside, not inside)."""
    by_op: dict[str, list] = {}
    for s in spans:
        if (s["pid"] == pid and s["thread"] == thread
                and s["op"] is not None
                and not s["name"].startswith("op.")
                and s["name"] not in CODEC_SPANS):
            by_op.setdefault(s["op"], []).append((s["start"], s["end"]))
    wall = uncovered = 0.0
    for op, k, start, end in ops:
        if k != kind:
            continue
        wall += end - start
        uncovered += (end - start) - _union_length(by_op.get(op, []))
    return uncovered / wall if wall else 0.0


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics over :meth:`Tracer.timed_spans`."""
    spans = tracer.timed_spans()

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(s["end"] - s["start"] for s in pick(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in pick(*names))

    def rate(count, seconds):
        return count / seconds / 1e6 if seconds else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["tune.busy_s"] = busy("tune")
    m["tune.calls"] = len(pick("tune"))
    m["tune.cache_hit_ratio"] = ratio(total("hit", "tune"),
                                      m["tune.calls"])
    m["plan.busy_s"] = busy("plan")
    m["plan.compiles"] = total("compiled", "plan")
    for side in ("compress", "decompress"):
        name = f"ginterp.{side}"
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.mvalues_s"] = rate(total("values", name), busy(name))
        m[f"{name}.bytes_computed"] = total("bytes", name)
    m["huffman.encode.busy_s"] = busy("huffman.encode")
    m["huffman.encode.msym_s"] = rate(total("symbols", "huffman.encode"),
                                      m["huffman.encode.busy_s"])
    m["huffman.codebook.busy_s"] = busy("huffman.histogram",
                                        "huffman.code_lengths")
    m["huffman.codebook.hit_ratio"] = ratio(
        total("hit", "huffman.code_lengths"),
        len(pick("huffman.code_lengths")))
    m["huffman.decode.busy_s"] = busy("huffman.decode")
    m["huffman.decode.msym_s"] = rate(total("symbols", "huffman.decode"),
                                      m["huffman.decode.busy_s"])
    built = [s for s in pick("huffman.lut_build") if s["built"]]
    m["huffman.lut_build.busy_s"] = sum(s["end"] - s["start"] for s in built)
    m["huffman.lut_build.count"] = len(built)
    m["container.busy_s"] = busy("container.build", "container.parse")
    m["lossless.encode.busy_s"] = busy("lossless.encode")
    m["lossless.decode.busy_s"] = busy("lossless.decode")
    m["streaming.frame.busy_s"] = busy("streaming.frame",
                                       "streaming.reader")
    m["streaming.slabs"] = total("slabs", "streaming.frame",
                                 "streaming.reader")

    parent = tracer.parent_pid
    runtime = [s for s in pick("runtime.compress", "runtime.decompress")
               if s["pid"] == parent]
    call_wall = sum(s["end"] - s["start"] for s in runtime)
    worker_busy = sum(s["end"] - s["start"] for s in pick(*CODEC_SPANS)
                      if s["pid"] != parent)
    in_parent = [s for s in spans if s["pid"] == parent]
    m["runtime.worker_busy_s"] = worker_busy
    m["runtime.parent_wait_s"] = sum(
        v[2] for k, v in self_times(in_parent).items()
        if k in ("runtime.compress", "runtime.decompress"))
    m["runtime.parallel_efficiency"] = ratio(worker_busy,
                                             workers * call_wall)
    for kind in ("compress", "decompress"):
        m[f"unaccounted.{kind}_share"] = unaccounted_share(
            spans, tracer.ops, kind, parent, tracer.caller_thread)
    return m
