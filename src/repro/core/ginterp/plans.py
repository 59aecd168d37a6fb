"""Compiled pass plans: precomputed geometry + dense tap kernels.

The GPU kernels this engine mirrors (paper §V-A/§V-D) owe their speed to a
*fixed launch geometry*: the per-level/per-axis pass structure and the
33x9x9 shared-window neighbor layout are compile-time constants, so each
launch only moves data. The NumPy engine used to rebuild all of that
geometry — per-axis index grids, flat target blocks, spline classification,
class broadcasts, and four full-size clipped neighbor index arrays — on
*every* traversal, even though it depends only on ``(shape, spec)``.

:func:`compile_plan` hoists that work out of the hot path. For one
``(shape, resolved InterpSpec)`` it precomputes, per pass:

* the target lattice as strided-view selectors (the exact raveled block
  order the reference path emits, so quant-code streams stay
  byte-identical — but gathered and scattered through plain slices
  instead of int64 fancy indexing);
* the **staged even lattice**: every neighbor of every target lies on the
  complementary even lattice along the pass axis (``t = s*(2i+1)`` and
  odd offsets ``k`` give ``t + k*s = 2s*(i + (k+1)/2)``), so one
  contiguous copy of it, with a zero sample padded before and two after,
  turns the four neighbors of target ``i`` into the staged samples
  ``i..i+3``;
* the **tap weights**: the spline class of each target depends only on
  its position along the pass axis, so the whole pass is four *dense*
  multiply-adds — staged tap view times a per-position weight vector
  broadcast over the other axes. No class runs, no index gathers, no
  ``np.clip``.

Bit-exactness is non-negotiable and holds by construction. Every target is
computed by the same accumulation the reference path runs, in the work
array's lane dtype (float32 or float64) — zero-init then
``pred += w_k * neighbor_k`` over
:data:`~repro.core.ginterp.splines.NEIGHBOR_OFFSETS` in order, with the
same lane-rounded weight values and operands. Where the reference path
gathers a *zero-weight* neighbor (clipped, out of the window, or not yet
reconstructed) the tap reads some other finite sample or a zero pad;
both products are ``±0.0``, and adding ``±0.0`` is an identity on the
accumulation: work samples are always finite (the engine rejects NaN/Inf
input up front, and reconstructions that are not become outliers), an
accumulator seeded at ``+0.0`` can never become ``-0.0`` (a nonzero sum
has magnitude at least the smallest subnormal, and
``+0.0 + ±0.0 == +0.0``), and a sum that overflowed to ``±inf`` stays
there. For the same reason a tap whose weight is zero at every position
is skipped outright.

Plans are LRU-cached per process (:func:`get_plan`), keyed on the geometry
``(shape, anchor_stride, window_shape, cubic_variant, axis_order)`` —
``alpha``/``beta`` only scale error bounds and are deliberately excluded,
so re-tuning the same field at a new error bound, the decompress replay,
every slab of a stream, and every same-shape field of a batch all hit the
same compiled plan. Hit/miss counters are exported via telemetry
(``ginterp.plan_cache.{hit,miss}``) and :func:`plan_cache_stats`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.telemetry import caches
from repro.common.errors import ConfigError
from repro.core.ginterp.splines import NEIGHBOR_OFFSETS, SPLINE_WEIGHTS

__all__ = ["CompiledPass", "PassPlan", "compile_plan", "get_plan",
           "plan_cache_stats", "clear_plan_cache", "set_plan_cache_limit"]

#: staged samples padded before the even lattice: target 0's ``k = -3``
#: neighbor is even sample -1
_PAD_FRONT = 1
_N_TAPS = len(NEIGHBOR_OFFSETS)


class CompiledPass:
    """Precompiled geometry + kernel for one interpolation pass.

    ``target_view`` addresses the pass's target lattice as plain slices of
    the work array — targets along the interpolation axis are
    ``stride::2*stride`` and ``0::step`` on every other axis — so the
    quantize gather and the reconstruction scatter are strided view ops,
    not int64 fancy indexing. ``ev_sel`` selects the even lattice the
    neighbors live on; it is staged into a buffer of ``ev_shape`` (the
    block shape, with ``m + 3`` samples along the pass axis for ``m``
    targets) at ``stage_sel``, with ``pad_sels`` zeroed. ``taps`` lists
    ``(j, staged selector)`` for each tap with a nonzero weight anywhere;
    ``weights`` is the ``(4, m)`` float64 weight table.
    """

    __slots__ = ("desc", "block_shape", "target_view", "n_targets",
                 "ev_sel", "ev_shape", "ev_size", "stage_sel", "pad_sels",
                 "taps", "weights", "lane_weights", "compile_s")

    def __init__(self, desc, block_shape, target_view, n_targets, ev_sel,
                 ev_shape, stage_sel, pad_sels, taps, weights, compile_s):
        self.desc = desc
        self.block_shape = block_shape
        self.target_view = target_view
        self.n_targets = n_targets
        self.ev_sel = ev_sel
        self.ev_shape = ev_shape
        self.ev_size = math.prod(ev_shape)
        self.stage_sel = stage_sel
        self.pad_sels = pad_sels
        self.taps = taps
        self.weights = weights
        self.lane_weights: dict[np.dtype, tuple[np.ndarray, ...]] = {}
        self.compile_s = compile_s

    @property
    def nbytes(self) -> int:
        return self.weights.nbytes

    def _weights_in(self, lane: np.dtype) -> tuple[np.ndarray, ...]:
        """Each tap's weight vector rounded to ``lane`` and shaped to
        broadcast along the pass axis (cached; the reference path rounds
        :data:`SPLINE_WEIGHTS` the same way)."""
        w = self.lane_weights.get(lane)
        if w is None:
            view = [1] * len(self.block_shape)
            view[self.desc.axis] = self.block_shape[self.desc.axis]
            w = tuple(self.weights[j].astype(lane).reshape(view)
                      for j, _sel in self.taps)
            for arr in w:
                arr.setflags(write=False)
            self.lane_weights[lane] = w
        return w

    def predict(self, work: np.ndarray,
                pred_buf: np.ndarray | None = None,
                mul_buf: np.ndarray | None = None,
                ev_buf: np.ndarray | None = None) -> np.ndarray:
        """Predictions for every pass target, in flat (block) order.

        Runs in ``work``'s dtype (the lanes). Bit-identical to the
        reference gather path (see the module docstring).
        ``pred_buf``/``mul_buf``/``ev_buf`` are optional reusable scratch
        buffers of the lane dtype (see :meth:`PassPlan.workspace`);
        staging only *copies* values, so it cannot change any bit of the
        accumulation.
        """
        n = self.n_targets
        lane = work.dtype
        pred = (np.empty(n, dtype=lane) if pred_buf is None
                else pred_buf[:n]).reshape(self.block_shape)
        pred.fill(0.0)
        staged = (np.empty(self.ev_size, dtype=lane) if ev_buf is None
                  else ev_buf[:self.ev_size]).reshape(self.ev_shape)
        for sel in self.pad_sels:
            staged[sel] = 0.0
        np.copyto(staged[self.stage_sel], work[self.ev_sel])
        buf = (np.empty(n, dtype=lane) if mul_buf is None
               else mul_buf[:n]).reshape(self.block_shape)
        for (_j, sel), w in zip(self.taps, self._weights_in(lane)):
            np.multiply(staged[sel], w, out=buf)
            pred += buf
        return pred.reshape(-1)

    def predict_quantize(self, work: np.ndarray, data: np.ndarray,
                         quantizer, eb: float, codes_out: np.ndarray,
                         scr_pred: np.ndarray, scr_mul: np.ndarray,
                         scr_ev: np.ndarray, q_buf: np.ndarray,
                         r_buf: np.ndarray) -> np.ndarray:
        """Fused predict → quantize → reconstruct for one pass.

        Runs :meth:`predict` and immediately folds the quantization into
        the same pass: int codes land directly in ``codes_out`` (the
        pass's slice of the full stream), the reconstruction is scattered
        back into ``work`` through the strided target view, and only the
        compacted outlier values (returned) are newly allocated — no
        float residual intermediates, no per-pass code arrays.
        Bit-identical to predict-then-:meth:`LinearQuantizer.quantize`
        because :meth:`~repro.common.quantizer.LinearQuantizer\
.quantize_into` replays the same lane arithmetic.
        """
        pred = self.predict(work, scr_pred, scr_mul, scr_ev)
        recon, outliers = quantizer.quantize_into(
            data[self.target_view], pred, eb, codes_out,
            q_buf=q_buf, r_buf=r_buf)
        work[self.target_view] = recon
        return outliers

    def predict_reconstruct(self, work: np.ndarray, quantizer, eb: float,
                            codes: np.ndarray, outliers: np.ndarray,
                            outlier_cursor: int, scr_pred: np.ndarray,
                            scr_mul: np.ndarray, scr_ev: np.ndarray,
                            q_buf: np.ndarray) -> int:
        """Fused predict → dequantize → reconstruct for one pass (the
        decode mirror of :meth:`predict_quantize`).

        ``codes`` is the pass's slice of the code stream; the
        reconstruction is written straight into ``work`` through the
        strided target view by
        :meth:`~repro.common.quantizer.LinearQuantizer.reconstruct_into`,
        so no per-pass reconstruction array is allocated. Returns the
        advanced outlier cursor.
        """
        pred = self.predict(work, scr_pred, scr_mul, scr_ev)
        return quantizer.reconstruct_into(
            codes, pred, eb, outliers, outlier_cursor,
            work[self.target_view], q_buf=q_buf)


@dataclass(frozen=True)
class PassPlan:
    """A fully compiled traversal for one ``(shape, geometry)`` pair."""

    shape: tuple[int, ...]
    key: tuple
    passes: tuple[CompiledPass, ...]
    compile_s: float

    @property
    def n_targets(self) -> int:
        return sum(cp.n_targets for cp in self.passes)

    @property
    def n_taps(self) -> int:
        """Dense multiply-adds per traversal (zero-weight taps skipped)."""
        return sum(len(cp.taps) for cp in self.passes)

    @property
    def nbytes(self) -> int:
        return sum(cp.nbytes for cp in self.passes)

    @property
    def max_targets(self) -> int:
        return max((cp.n_targets for cp in self.passes), default=0)

    @property
    def max_staged(self) -> int:
        return max((cp.ev_size for cp in self.passes), default=0)

    def workspace(self, lane: np.dtype = np.float64
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh reusable scratch buffers for :meth:`CompiledPass.predict`
        in the ``lane`` dtype: prediction, tap product, staged lattice.

        One triple per traversal keeps every pass allocation-free; callers
        must not hold a pass's prediction past the next ``predict`` call.
        """
        return (np.empty(self.max_targets, dtype=lane),
                np.empty(self.max_targets, dtype=lane),
                np.empty(self.max_staged, dtype=lane))

    def quant_workspace(self, lane: np.dtype = np.float64
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Scratch pair for :meth:`CompiledPass.predict_quantize` in the
        ``lane`` dtype: the rounding and reconstruction buffers, sized for
        the widest pass so the fused traversal allocates nothing per
        pass."""
        return (np.empty(self.max_targets, dtype=lane),
                np.empty(self.max_targets, dtype=lane))


def _lattice_slice(idx: np.ndarray) -> slice:
    """The equally-spaced index array ``idx`` as an equivalent slice."""
    if idx.size == 1:
        return slice(int(idx[0]), int(idx[0]) + 1, 1)
    step = int(idx[1] - idx[0])
    if not np.all(np.diff(idx) == step):  # pragma: no cover - by construction
        raise ConfigError("pass targets do not form a regular lattice")
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


def _compile_pass(shape: tuple[int, ...], spec, p) -> CompiledPass:
    """Precompute one pass's target lattice, staging and tap weights."""
    from repro.core.ginterp.engine import _axis_indices, _class_1d
    t0 = time.perf_counter()
    ndim = len(shape)
    ax = p.axis
    axes_idx = _axis_indices(shape, p)
    block_shape = tuple(int(a.size) for a in axes_idx)
    n_targets = math.prod(block_shape)
    if n_targets == 0:
        empty_view = tuple(slice(0, 0, 1) for _ in range(ndim))
        return CompiledPass(p, block_shape, empty_view, 0, empty_view,
                            block_shape, empty_view, (), (),
                            np.empty((_N_TAPS, 0)),
                            time.perf_counter() - t0)
    # every pass's target set is itself a regular lattice, so the quantize
    # gather / reconstruction scatter compile to strided views
    target_view = tuple(_lattice_slice(idx) for idx in axes_idx)

    t = axes_idx[ax]
    n = shape[ax]
    s = p.stride
    window = spec.window_shape[ax] if spec.window_shape else None
    cls1d = _class_1d(t, n, s, window, spec.cubic_variant[ax])
    weights = np.ascontiguousarray(SPLINE_WEIGHTS[cls1d].T)   # (4, m)
    weights.setflags(write=False)

    m = t.size
    m_ev = len(range(0, n, 2 * s))
    ev_sel = tuple(slice(0, n, 2 * s) if a == ax
                   else slice(0, shape[a], p.steps[a]) for a in range(ndim))

    def along(sl: slice) -> tuple[slice, ...]:
        return tuple(sl if a == ax else slice(None) for a in range(ndim))

    # target i's neighbor at offset k sits on even sample i + (k+1)/2,
    # staged at _PAD_FRONT + i + (k+1)/2; a nonzero weight must always
    # sit on a real (in-domain) sample, never on a pad
    first = [_PAD_FRONT + (k + 1) // 2 for k in NEIGHBOR_OFFSETS]
    staged_len = first[-1] + m
    ev_shape = tuple(staged_len if a == ax else block_shape[a]
                     for a in range(ndim))
    stage_sel = along(slice(_PAD_FRONT, _PAD_FRONT + m_ev))
    pad_sels = (along(slice(0, _PAD_FRONT)),
                along(slice(_PAD_FRONT + m_ev, staged_len)))
    taps = []
    for j, lo in enumerate(first):
        ev = np.arange(m) + lo - _PAD_FRONT
        if np.any(weights[j][(ev < 0) | (ev >= m_ev)] != 0.0):
            raise ConfigError(  # pragma: no cover - classifier invariant
                "spline weight on an out-of-domain neighbor")
        if np.any(weights[j] != 0.0):
            taps.append((j, along(slice(lo, lo + m))))
    return CompiledPass(p, block_shape, target_view, n_targets, ev_sel,
                        ev_shape, stage_sel, pad_sels, tuple(taps), weights,
                        time.perf_counter() - t0)


def _plan_key(shape: tuple[int, ...], spec) -> tuple:
    """Geometry-only cache key: ``alpha``/``beta`` scale error bounds but
    never change addressing, so eb re-tunes share the compiled plan."""
    return (tuple(shape), spec.anchor_stride, spec.window_shape,
            spec.cubic_variant, spec.axis_order)


def compile_plan(shape: tuple[int, ...], spec) -> PassPlan:
    """Compile the full pass plan for ``(shape, spec)`` (uncached)."""
    from repro.core.ginterp.engine import pass_plan
    shape = tuple(int(n) for n in shape)
    spec = spec.resolved(len(shape))
    t0 = time.perf_counter()
    with telemetry.span("ginterp.plan_compile", shape=list(shape)) as sp:
        passes = tuple(_compile_pass(shape, spec, p)
                       for p in pass_plan(len(shape), spec))
        plan = PassPlan(shape=shape, key=_plan_key(shape, spec),
                        passes=passes,
                        compile_s=time.perf_counter() - t0)
        sp.set(n_passes=len(passes), n_taps=plan.n_taps,
               plan_nbytes=plan.nbytes)
    return plan


# -- per-process LRU cache --------------------------------------------------

_DEFAULT_CACHE_LIMIT = 16

_cache_lock = threading.Lock()
_plan_cache: OrderedDict[tuple, PassPlan] = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
_cache_limit = _DEFAULT_CACHE_LIMIT


def get_plan(shape: tuple[int, ...], spec) -> PassPlan:
    """The compiled plan for ``(shape, spec)``, LRU-cached per process."""
    shape = tuple(int(n) for n in shape)
    spec = spec.resolved(len(shape))
    key = _plan_key(shape, spec)
    with _cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            _cache_stats["hits"] += 1
    if plan is not None:
        telemetry.incr("ginterp.plan_cache.hit")
        return plan
    telemetry.incr("ginterp.plan_cache.miss")
    plan = compile_plan(shape, spec)
    with _cache_lock:
        _cache_stats["misses"] += 1
        _plan_cache[key] = plan
        _plan_cache.move_to_end(key)
        while len(_plan_cache) > _cache_limit:
            _plan_cache.popitem(last=False)
            _cache_stats["evictions"] += 1
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Snapshot of the plan cache hit/miss counters and occupancy."""
    with _cache_lock:
        return {**_cache_stats, "size": len(_plan_cache),
                "limit": _cache_limit,
                "size_bytes": sum(p.nbytes
                                  for p in _plan_cache.values())}


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (mainly for tests)."""
    with _cache_lock:
        _plan_cache.clear()
        _cache_stats["hits"] = 0
        _cache_stats["misses"] = 0
        _cache_stats["evictions"] = 0


def set_plan_cache_limit(limit: int) -> int:
    """Resize the LRU (returns the previous limit; mainly for tests)."""
    global _cache_limit
    if limit < 1:
        raise ConfigError(f"plan cache limit must be >= 1, got {limit}")
    with _cache_lock:
        old = _cache_limit
        _cache_limit = int(limit)
        while len(_plan_cache) > _cache_limit:
            _plan_cache.popitem(last=False)
            _cache_stats["evictions"] += 1
    return old


caches.register("ginterp.plan", plan_cache_stats)
