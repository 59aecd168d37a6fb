"""Seeded-corpus benchmark of the cuSZ-i reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fields-eb1e-2 --seed 1 \\
        --seconds 8 --trace 0

One run generates a seeded corpus, sets the program up, compresses the
whole corpus in order through the public API (the write phase), then
decompresses it in order (the read phase), one closed-loop caller, and
checks every decoded field. ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` is a separate invocation of the same workload and seed: it
makes the same untraced pass, then installs timing wrappers
(``tracing.py``), sets up again with cold caches, repeats both phases on
the same corpus and prints the per-layer metrics. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import bytebudget
import corpus
from tracing import Tracer, layer_metrics, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: corpus files, span files, traces
WORK = os.path.join(ROOT, ".perfbench")

#: later performance claims must also hold on this seed; do not tune on it
HELD_OUT_SEED = 9973

#: float32 reconstruction may exceed the bound by this factor (the same
#: slack the test suite allows, tests/conftest.py EB_SLACK)
EB_SLACK = 1.0 + 1e-3

#: pool width of the slab workload (the 2-CPU reference box's nproc)
WORKERS = 2
SLAB_PLANES = 8

#: corpus sizing. The corpus must not depend on measured speed, or
#: bits_per_value would differ between runs of one seed; so ``--seconds``
#: maps to a fixed op count through the nominal cost of one round (six
#: fields, compress + decompress) or one slab field on a 2-CPU box
NOMINAL_ROUND_S = 1.5
NOMINAL_SLAB_FIELD_S = 0.95
#: floors that keep >= 10 samples beyond a tail percentile above p50
MIN_FIELD_ROUNDS = 4
MIN_SLAB_FIELDS = 24

#: set-up is measured this many times per run (this process plus fresh
#: subprocesses) and reported as the median
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "fields" or "slabs"
    eb: float


WORKLOADS = {w.name: w for w in (
    Workload("fields-eb1e-2", "fields", 1e-2),
    Workload("fields-eb1e-4", "fields", 1e-4),
    Workload("slabs-pool-eb1e-3", "slabs", 1e-3),
)}


def import_repro():
    """Import the package from this checkout's ``src`` (never another)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    import repro.runtime  # noqa: F401  (slab API, transport facts)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    return repro


def corpus_specs(wl: Workload, seed: int, seconds: int):
    if wl.kind == "fields":
        rounds = max(MIN_FIELD_ROUNDS, math.ceil(seconds / NOMINAL_ROUND_S))
        return corpus.fields_corpus(seed, rounds)
    n = max(MIN_SLAB_FIELDS, math.ceil(seconds / NOMINAL_SLAB_FIELD_S))
    return corpus.slabs_corpus(seed, n)


class Ops:
    """The two timed calls of a workload, through the public API."""

    def __init__(self, repro, wl: Workload):
        self.repro = repro
        self.wl = wl

    def compress(self, field):
        if self.wl.kind == "fields":
            return self.repro.compress(field, eb=self.wl.eb, mode="rel")
        return self.repro.runtime.parallel_compress_slabs(
            field, SLAB_PLANES, workers=WORKERS, codec="cuszi",
            eb=self.wl.eb, mode="rel")

    def decompress(self, blob):
        if self.wl.kind == "fields":
            return self.repro.decompress(blob)
        return self.repro.runtime.parallel_decompress_slabs(
            blob, workers=WORKERS)


def setup(wl: Workload):
    """Import, pool start and warm-up ops; returns ``(seconds, ops)``.

    Warm-up fields are cheap analytic fields, never part of the timed
    corpus; building them is excluded from the returned time. One warm-up
    op per corpus shape compiles that shape's pass plans here.
    """
    t0 = time.perf_counter()
    repro = import_repro()
    ops = Ops(repro, wl)
    t1 = time.perf_counter()
    if wl.kind == "fields":
        shapes = [corpus.default_shape(n) for n in corpus.DATASETS]
    else:
        shapes = [corpus.SLAB_FIELD_SHAPE]
    warm = [corpus.warmup_field(s, i) for i, s in enumerate(shapes)]
    t2 = time.perf_counter()
    for field in warm:
        ops.decompress(ops.compress(field))
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2), ops


def clear_program_caches() -> None:
    """Forget every cache the untraced pass filled (content-keyed tuning,
    code lengths, codebooks, LUTs, and the plans set-up compiles), so the
    traced pass over the same corpus starts as cold as the first."""
    from repro.core.ginterp.autotune import clear_autotune_cache
    from repro.core.ginterp.plans import clear_plan_cache
    from repro.huffman.canonical import (clear_codebook_caches,
                                         drain_lut_prewarm)
    from repro.huffman.tree import clear_fingerprint_cache
    drain_lut_prewarm()
    for clear in (clear_autotune_cache, clear_plan_cache,
                  clear_codebook_caches, clear_fingerprint_cache):
        clear()


def setup_sample(wl: Workload) -> float:
    """One set-up measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", wl.name]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


_T0 = time.perf_counter()


def log(msg: str) -> None:
    """Progress on standard error (standard output carries the result)."""
    print(f"[{time.perf_counter() - _T0:7.1f}s] {msg}", file=sys.stderr,
          flush=True)


def stop_processes() -> None:
    """Stop every process this one started and wait for each to end: the
    program's worker pools, any other child left, and the multiprocessing
    resource tracker, which otherwise outlives this process by a moment."""
    runtime = sys.modules.get("repro.runtime")
    if runtime is not None:
        runtime.shutdown_pools()
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# -- process memory -----------------------------------------------------------

def _our_pids() -> list[int]:
    return [os.getpid()] + sorted(p.pid for p in
                                  multiprocessing.active_children())


def reset_peak_rss(pids) -> None:
    """Restart each process's high-water mark (Linux ``clear_refs``)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass   # the mark then also covers set-up


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb * 1024 / 1e6


# -- statistics ---------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int, int]:
    """``(value, percentile, n)`` at the highest integer percentile that
    leaves at least ten samples beyond it (nearest-rank)."""
    xs = sorted(samples)
    n = len(xs)
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    rank = max(1, math.ceil(best * n / 100))
    return xs[rank - 1], best, n


def cache_state(before: dict, after: dict) -> dict:
    """Per-cache hits/lookups over a phase, and whether it ran warm."""
    from repro.telemetry import caches
    d = caches.diff(before, after)
    used = {k: f"{v['hits']}/{v['lookups']}" for k, v in d.items()
            if v["lookups"]}
    hits = sum(v["hits"] for v in d.values())
    return {"state": "warm" if hits else "cold", "hits/lookups": used}


# -- the run ------------------------------------------------------------------

class Run:
    """Counts and drives the timed ops of one workload."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.tracer: Tracer | None = None
        self.failed = 0
        self.attempted = 0
        self.errors: list[str] = []

    def timed(self, op_id: str, kind: str, fn, arg):
        ctx = self.tracer.op_span(op_id, kind) if self.tracer \
            else nullcontext()
        with ctx:
            t0 = time.perf_counter()
            out = fn(arg)
            t1 = time.perf_counter()
        return out, t1 - t0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def check(self, spec, field, out) -> float | None:
        """PSNR of a decoded field, or None (counted) if it is wrong."""
        import numpy as np
        from repro import psnr
        if out.shape != field.shape or out.dtype != field.dtype:
            self.fail(f"{spec.label}: decoded {out.shape} {out.dtype}")
            return None
        abs_eb = self.wl.eb * float(field.max() - field.min())
        err = float(np.max(np.abs(field.astype(np.float64)
                                  - out.astype(np.float64))))
        if err > abs_eb * EB_SLACK:
            self.fail(f"{spec.label}: max|err| {err:.4g} > eb {abs_eb:.4g}")
            return None
        return psnr(field, out)

    def phases(self, ops: Ops, specs, corpus_dir: str) -> dict:
        """Write phase, then read phase, over the whole corpus."""
        from repro.runtime import transport_stats
        from repro.runtime.pool import serial_fallbacks
        from repro.telemetry import caches
        r: dict = {"c_lat": [], "d_lat": [], "c_bytes": 0, "d_bytes": 0,
                   "psnr": [], "blobs": []}
        pids = _our_pids()
        reset_peak_rss(pids)
        stats0, fb0 = transport_stats(), serial_fallbacks()
        snap0 = caches.snapshot()
        for spec in specs:                       # write phase
            field = corpus.load(corpus_dir, spec)
            self.attempted += 1
            try:
                blob, dt = self.timed(f"c{spec.index}", "compress",
                                      ops.compress, field)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.fail(f"{spec.label}: compress raised {exc!r}")
                blob = None
            else:
                r["c_lat"].append(dt)
                r["c_bytes"] += field.nbytes
            r["blobs"].append(blob)
        snap1 = caches.snapshot()
        for spec, blob in zip(specs, r["blobs"]):  # read phase
            self.attempted += 1
            if blob is None:
                self.fail(f"{spec.label}: nothing to decompress")
                continue
            try:
                out, dt = self.timed(f"d{spec.index}", "decompress",
                                     ops.decompress, blob)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.fail(f"{spec.label}: decompress raised {exc!r}")
                continue
            field = corpus.load(corpus_dir, spec)
            p = self.check(spec, field, out)
            if p is not None:
                r["d_lat"].append(dt)
                r["d_bytes"] += out.nbytes
                r["psnr"].append(p)
        snap2 = caches.snapshot()
        stats1, fb1 = transport_stats(), serial_fallbacks()
        r["peak_rss_mb"] = peak_rss_mb(pids)
        r["runtime"] = {
            "shm_bytes": stats1["shm_bytes"] - stats0["shm_bytes"],
            "pickled_bytes": stats1["pickled_bytes"] - stats0["pickled_bytes"],
            "serial_fallbacks": sum(fb1.values()) - sum(fb0.values()),
        }
        r["phases"] = {"write": cache_state(snap0, snap1),
                       "read": cache_state(snap1, snap2)}
        r["values"] = sum(math.prod(s.shape) for s in specs)
        r["digest"] = digest_of(r["blobs"])
        return r

    def serial_baseline(self, specs, corpus_dir: str) -> str:
        """Traced slab runs only: every field through the serial
        ``compress_slabs`` (for the digest), and the first round of the
        six datasets also through ``decompress_slabs`` (for the speed-up,
        kept short so a traced run stays well inside its time limit);
        returns the digest."""
        from repro.streaming import compress_slabs, decompress_slabs
        digest = hashlib.sha256()
        for spec in specs:
            field = corpus.load(corpus_dir, spec)
            stream, _ = self.timed(
                f"sc{spec.index}", "serial_compress",
                lambda f: compress_slabs(f, SLAB_PLANES, codec="cuszi",
                                         eb=self.wl.eb, mode="rel"),
                field)
            digest.update(stream)
            if spec.index < len(corpus.DATASETS):
                self.timed(f"sd{spec.index}", "serial_decompress",
                           decompress_slabs, stream)
        return digest.hexdigest()


def byte_budget(wl: Workload, blobs) -> tuple[dict, int, list[str]]:
    parts = dict.fromkeys(bytebudget.PARTS, 0)
    saving = 0
    errors = []
    measure = (bytebudget.blob_budget if wl.kind == "fields"
               else bytebudget.stream_budget)
    for i, blob in enumerate(blobs):
        if blob is None:
            continue
        try:
            p, s = measure(blob)
        except bytebudget.BudgetError as exc:
            errors.append(f"blob {i}: {exc}")
            continue
        for k, v in p.items():
            parts[k] += v
        saving += s
    return parts, saving, errors


def end_to_end(r: dict, parts: dict, setup_s: float) -> tuple[dict, dict]:
    c_tail, c_p, c_n = tail(r["c_lat"])
    d_tail, d_p, d_n = tail(r["d_lat"])
    metrics = {
        "compress_mb_s": (r["c_bytes"] / sum(r["c_lat"]) / 1e6, "MB/s"),
        "decompress_mb_s": (r["d_bytes"] / sum(r["d_lat"]) / 1e6, "MB/s"),
        "compress_ms_p50": (1e3 * statistics.median(r["c_lat"]), "ms"),
        "compress_ms_tail": (1e3 * c_tail, "ms"),
        "decompress_ms_p50": (1e3 * statistics.median(r["d_lat"]), "ms"),
        "decompress_ms_tail": (1e3 * d_tail, "ms"),
        "bits_per_value": (8 * sum(len(b) for b in r["blobs"] if b)
                           / r["values"], "bits"),
        "overhead_bpv": (sum(parts[p] for p in bytebudget.OVERHEAD)
                         / r["values"], "bits"),
        "psnr_db": (statistics.fmean(r["psnr"]), "dB"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    notes = {"compress_ms_tail": f"p{c_p} of {c_n} ops",
             "decompress_ms_tail": f"p{d_p} of {d_n} ops"}
    return metrics, notes


def digest_of(blobs) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        if blob is not None:
            digest.update(blob)
    return digest.hexdigest()


def measure(wl: Workload, args, corpus_dir: str) -> dict:
    """Set up, generate, run both phases, and for a traced run repeat
    them with the wrappers installed; stops the workers in every case."""
    setup_s, ops = setup(wl)
    log(f"set-up {setup_s:.3f} s")
    specs = corpus_specs(wl, args.seed, args.seconds)
    corpus.write_corpus(specs, corpus_dir, processes=WORKERS)
    log(f"corpus of {len(specs)} fields ready")
    run = Run(wl)
    out: dict = {"setup_s": setup_s, "specs": specs, "run": run,
                 "serial_digest": None}
    try:
        out["r"] = run.phases(ops, specs, corpus_dir)
        log("write and read phases done")
        if args.trace:
            # the wrappers must be in place before the pool forks, so the
            # untraced pool goes, and set-up runs again on cold caches
            ops.repro.runtime.shutdown_pools()
            clear_program_caches()
            run.tracer = Tracer(WORK)
            run.tracer.install()
            _setup_s, ops = setup(wl)
            out["traced"] = run.phases(ops, specs, corpus_dir)
            log("traced write and read phases done")
            if wl.kind == "slabs":
                out["serial_digest"] = run.serial_baseline(specs,
                                                           corpus_dir)
    finally:
        out["worker_pids"] = _our_pids()[1:]
        ops.repro.runtime.shutdown_pools()
    from repro.runtime import transport_kind
    out["transport"] = transport_kind()
    log("workers stopped")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure one set-up and print it (internal)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.setup_only:
        setup_s, _ops = setup(wl)
        stop_processes()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(WORK, exist_ok=True)
    corpus_dir = os.path.join(WORK, f"corpus-{os.getpid()}")
    try:
        m = measure(wl, args, corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    r, run, specs = m["r"], m["run"], m["specs"]

    parts, saving, budget_errors = byte_budget(wl, r["blobs"])
    run.errors.extend(budget_errors)
    log("byte budget checked")

    host = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "fields": len(specs),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "transport": m["transport"], "phases": r["phases"],
    }
    if args.trace:
        host["traced_phases"] = m["traced"]["phases"]
    print("host " + json.dumps(host, sort_keys=True))

    if not args.trace:
        samples = [m["setup_s"]] + [setup_sample(wl)
                                    for _ in range(SETUP_SAMPLES - 1)]
        log("set-up samples done")
        metrics, notes = end_to_end(r, parts, statistics.median(samples))
        notes["setup_s"] = "median of " + ", ".join(
            f"{s:.3f}" for s in samples)
    else:
        tracer, traced = run.tracer, m["traced"]
        missing = tracer.merge_workers(m["worker_pids"])
        tracer.uninstall()
        tracer.write(os.path.join(
            WORK, f"trace-{wl.name}-seed{args.seed}.jsonl"))
        metrics, notes = traced_metrics(m, parts, saving, missing)
        print(f"digest {wl.name} seed={args.seed} traced "
              f"sha256={traced['digest']}")
        if traced["digest"] != r["digest"]:
            run.errors.append("traced digest differs from untraced")
        if m["serial_digest"] not in (None, r["digest"]):
            run.errors.append("pooled stream differs from serial stream")
        compress_ops = {op for op, kind, _s, _e in tracer.ops
                        if kind == "compress"}
        enc_saving = sum(s["bytes_in"] - s["bytes_out"]
                         for s in tracer.spans
                         if s["name"] == "lossless.encode"
                         and s["op"] in compress_ops)
        if not missing and enc_saving != saving:
            run.errors.append(f"lossless saving {enc_saving} B seen by "
                              f"wrap_lossless, {saving} B by the budget")
        print_self_times(tracer)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    print(f"digest {wl.name} seed={args.seed} sha256={r['digest']}")
    for err in run.errors:
        print(f"error {err}")
    result = {
        "correct": not run.errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(m_run, parts, saving, missing):
    tracer, r = m_run["run"].tracer, m_run["traced"]
    m = layer_metrics(tracer, WORKERS)
    notes = {}
    values = r["values"]
    m["lossless.saved_bpv"] = 8 * saving / values
    for part in bytebudget.PARTS:
        m[f"bytes.{part}_bpv"] = parts[part] / values
    # speed-up over the fields that went through both paths
    walls = {op: end - start for op, _k, start, end in tracer.ops}
    both = [op[2:] for op in walls if op.startswith("sd")]
    serial = sum(walls[f"sc{i}"] + walls[f"sd{i}"] for i in both)
    pooled = sum(walls.get(f"c{i}", 0.0) + walls.get(f"d{i}", 0.0)
                 for i in both)
    m["runtime.speedup_vs_serial"] = serial / pooled if pooled else 0.0
    for key, value in r["runtime"].items():
        m[f"runtime.{key}"] = value
    plain = m_run["r"]
    untraced = sum(plain["c_lat"]) + sum(plain["d_lat"])
    traced = sum(r["c_lat"]) + sum(r["d_lat"])
    m["trace.overhead_share"] = traced / untraced - 1.0
    notes["trace.overhead_share"] = (f"traced {traced:.3f} s vs untraced "
                                     f"{untraced:.3f} s of op wall")
    if missing:
        # e.g. no fork: worker spans never reach the parent
        notes["runtime.worker_busy_s"] = (
            "in-worker layers unmeasured: no spans from workers "
            + ",".join(map(str, missing)))
    out = {}
    for name in PER_LAYER:
        out[name] = (float(m[name]), _unit(name))
    return out, notes


def _unit(name: str) -> str:
    for suffix, unit in (("_bpv", "bits"), ("busy_s", "s"), ("wait_s", "s"),
                         ("mvalues_s", "Mvalues/s"), ("msym_s", "Msym/s"),
                         ("bytes_computed", "B"), ("_bytes", "B"),
                         ("calls", "count"), ("compiles", "count"),
                         ("count", "count"), ("slabs", "count"),
                         ("fallbacks", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


#: per-layer metric names, in report order (BENCHMARK.json per_layer)
PER_LAYER = (
    "tune.busy_s", "tune.calls", "tune.cache_hit_ratio",
    "plan.busy_s", "plan.compiles",
    "ginterp.compress.busy_s", "ginterp.compress.mvalues_s",
    "ginterp.compress.bytes_computed",
    "ginterp.decompress.busy_s", "ginterp.decompress.mvalues_s",
    "ginterp.decompress.bytes_computed",
    "huffman.encode.busy_s", "huffman.encode.msym_s",
    "huffman.codebook.busy_s", "huffman.codebook.hit_ratio",
    "huffman.decode.busy_s", "huffman.decode.msym_s",
    "huffman.lut_build.busy_s", "huffman.lut_build.count",
    "container.busy_s",
    "lossless.encode.busy_s", "lossless.decode.busy_s",
    "lossless.saved_bpv",
    "bytes.payload_bpv", "bytes.chunk_table_bpv", "bytes.padding_bpv",
    "bytes.codebook_bpv", "bytes.anchors_bpv", "bytes.outliers_bpv",
    "bytes.header_bpv",
    "streaming.frame.busy_s", "streaming.slabs",
    "runtime.worker_busy_s", "runtime.parent_wait_s",
    "runtime.parallel_efficiency", "runtime.speedup_vs_serial",
    "runtime.shm_bytes", "runtime.pickled_bytes",
    "runtime.serial_fallbacks",
    "unaccounted.compress_share", "unaccounted.decompress_share",
    "trace.overhead_share",
)


def print_self_times(tracer: Tracer) -> None:
    rows = self_times(tracer.timed_spans())
    print(f"  {'span':24s} {'count':>7s} {'total s':>10s} {'self s':>10s}")
    for name, (count, total, own) in sorted(rows.items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"  {name:24s} {count:7d} {total:10.4f} {own:10.4f}")


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # noqa: BLE001 - report, exit non-zero, no result
        import traceback
        traceback.print_exc()
        code = 1
    finally:
        stop_processes()
    sys.exit(code)
