"""Anchored multi-level interpolation traversal (paper §V-A, §V-D).

One engine drives both sides of the codec and all three interpolation-based
compressors in this repository:

* **G-Interp** (cuSZ-i): anchor stride 8 (3D), window-confined neighbor
  availability matching the 33x9x9 shared thread-block layout of Fig. 2;
* **SZ3 / QoZ CPU references**: global (unconfined) neighbor availability,
  larger/whole-array anchor strides.

The traversal is a flat list of *passes* — (level stride, axis) pairs — in
which every target is predicted only from already-reconstructed samples, so
each pass is a single set of vectorized gathers (the NumPy analogue of one
fully parallel GPU kernel launch). Compression and decompression run the
identical pass plan and identical arithmetic; the only difference is
whether quant-codes are produced or consumed, which guarantees bit-exact
replay.

The arithmetic runs in the quantizer's **lane dtype**
(:attr:`~repro.common.quantizer.LinearQuantizer.lane_dtype`): the work
array, the predictions, the staged neighbor copies and the quantize /
reconstruct lanes all live in it. The cuSZ-i pipeline uses float32 lanes
for float32 fields, as the paper's single-precision kernels do; float64
fields, the CPU baselines and archives written before the lanes were
recorded run in float64.

By default both traversals execute through a **compiled pass plan**
(:mod:`repro.core.ginterp.plans`): the per-pass geometry — target indices,
spline classification, neighbor addressing — is precomputed once per
``(shape, geometry)`` and LRU-cached, every pass is predicted by dense
multiply-adds over a staged copy of its neighbor lattice instead of index
gathers, and each pass predicts and quantizes (or predicts and
reconstructs) in one kernel. The uncompiled reference traversal (``compiled=False``) is the
test oracle: the compiled path is bit-identical to it in either lane
dtype (the equivalence suites assert it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.common.errors import ConfigError, CorruptStreamError, DataError
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp.anchors import apply_anchors, extract_anchors
from repro.core.ginterp.splines import (NEIGHBOR_OFFSETS, SPLINE_WEIGHTS,
                                        CUBIC_NAK, classify)

__all__ = ["InterpSpec", "PassDesc", "pass_plan", "level_error_bounds",
           "interp_compress", "interp_decompress", "InterpResult"]


@dataclass(frozen=True)
class InterpSpec:
    """Full configuration of one interpolation predictor.

    Attributes
    ----------
    anchor_stride:
        Power-of-two spacing of losslessly stored anchors; also fixes the
        number of interpolation levels (``log2(anchor_stride)``).
    window_shape:
        Per-axis shared-window extents (G-Interp: ``(9, 9, 33)`` — window
        length in samples, anchor-inclusive). ``None`` disables confinement
        (the CPU-style global interpolation).
    cubic_variant:
        Per-axis cubic spline choice (CUBIC_NAK / CUBIC_NAT class ids),
        normally from auto-tuning.
    axis_order:
        Order in which axes are interpolated inside each level; the paper
        tunes this least-smooth-first.
    alpha, beta:
        Level-wise error-bound reduction: level ``l`` (stride ``2**(l-1)``)
        uses ``eb / min(alpha**(l-1), beta)`` (§V-B.2; beta is the QoZ-style
        cap, ``inf`` = uncapped).
    """

    anchor_stride: int = 8
    window_shape: tuple[int, ...] | None = None
    cubic_variant: tuple[int, ...] = ()
    axis_order: tuple[int, ...] = ()
    alpha: float = 1.0
    beta: float = math.inf

    def __post_init__(self):
        s = self.anchor_stride
        if s < 2 or (s & (s - 1)) != 0:
            raise ConfigError(
                f"anchor_stride must be a power of two >= 2, got {s}")
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 1.0:
            raise ConfigError(f"beta must be >= 1, got {self.beta}")

    @property
    def n_levels(self) -> int:
        return self.anchor_stride.bit_length() - 1

    def resolved(self, ndim: int) -> "InterpSpec":
        """Fill per-axis defaults for an ``ndim``-dimensional input."""
        cubic = self.cubic_variant or tuple([CUBIC_NAK] * ndim)
        order = self.axis_order or tuple(range(ndim))
        if len(cubic) != ndim or len(order) != ndim:
            raise ConfigError("per-axis spec lengths do not match ndim")
        if sorted(order) != list(range(ndim)):
            raise ConfigError(f"axis_order {order} is not a permutation")
        if self.window_shape is not None:
            if len(self.window_shape) != ndim:
                raise ConfigError("window_shape rank mismatch")
            for w in self.window_shape:
                if w < 2:
                    raise ConfigError("window extents must be >= 2")
        return InterpSpec(anchor_stride=self.anchor_stride,
                          window_shape=self.window_shape,
                          cubic_variant=tuple(cubic),
                          axis_order=tuple(order),
                          alpha=self.alpha, beta=self.beta)

    def to_meta(self) -> dict:
        """JSON-serializable form for the container header."""
        return {
            "anchor_stride": self.anchor_stride,
            "window_shape": list(self.window_shape)
            if self.window_shape else None,
            "cubic_variant": list(self.cubic_variant),
            "axis_order": list(self.axis_order),
            "alpha": self.alpha,
            "beta": self.beta if math.isfinite(self.beta) else None,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "InterpSpec":
        return cls(anchor_stride=int(meta["anchor_stride"]),
                   window_shape=tuple(meta["window_shape"])
                   if meta.get("window_shape") else None,
                   cubic_variant=tuple(meta["cubic_variant"]),
                   axis_order=tuple(meta["axis_order"]),
                   alpha=float(meta["alpha"]),
                   beta=float(meta["beta"])
                   if meta.get("beta") is not None else math.inf)


@dataclass(frozen=True)
class PassDesc:
    """One interpolation pass: all targets at ``stride`` along ``axis``."""

    level: int                 # 1-based; stride == 2**(level-1)
    stride: int
    axis: int
    steps: tuple[int, ...]     # per-axis sampling step *entering* this pass


def pass_plan(ndim: int, spec: InterpSpec) -> list[PassDesc]:
    """The deterministic pass sequence for an ``ndim``-D input.

    Levels run coarse to fine (stride ``anchor_stride/2`` down to 1); inside
    each level axes run in ``spec.axis_order``. The per-axis step tuple
    captures which samples are already known when the pass starts.
    """
    passes: list[PassDesc] = []
    s = spec.anchor_stride // 2
    while s >= 1:
        steps = [2 * s] * ndim
        for ax in spec.axis_order:
            passes.append(PassDesc(level=s.bit_length(), stride=s, axis=ax,
                                   steps=tuple(steps)))
            steps[ax] = s
        s //= 2
    return passes


def level_error_bounds(eb: float, spec: InterpSpec) -> dict[int, float]:
    """Per-level absolute error bounds ``e_l = e / min(alpha^(l-1), beta)``."""
    return {lv: eb / min(spec.alpha ** (lv - 1), spec.beta)
            for lv in range(1, spec.n_levels + 1)}


@dataclass
class InterpResult:
    """Everything the pipeline needs after a compression traversal."""

    codes: np.ndarray            # uint32 quant-codes in pass order
    outliers: np.ndarray         # compacted outlier values (value dtype)
    anchors: np.ndarray          # anchor grid (value dtype)
    reconstructed: np.ndarray    # lane dtype, what the decompressor sees
    pass_sizes: list[int] = field(default_factory=list)


def _axis_indices(shape: tuple[int, ...], p: PassDesc) -> list[np.ndarray]:
    """Per-axis sample positions making up this pass's target grid."""
    out = []
    for ax, n in enumerate(shape):
        if ax == p.axis:
            out.append(np.arange(p.stride, n, 2 * p.stride, dtype=np.int64))
        else:
            out.append(np.arange(0, n, p.steps[ax], dtype=np.int64))
    return out


def _flat_block(axes_idx: list[np.ndarray], shape: tuple[int, ...]
                ) -> np.ndarray:
    """Broadcast-sum per-axis offsets into a block of flat C indices."""
    ndim = len(shape)
    strides = [1] * ndim
    for ax in range(ndim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    total = np.zeros((1,) * ndim, dtype=np.int64)
    for ax, idx in enumerate(axes_idx):
        view = [1] * ndim
        view[ax] = idx.size
        total = total + (idx * strides[ax]).reshape(view)
    return total


def _class_1d(t: np.ndarray, n: int, s: int, window: int | None,
              cubic_variant: int) -> np.ndarray:
    """Spline class per target position along the interpolation axis."""
    avail = {}
    if window is not None:
        wstep = window - 1
        lo = (t // wstep) * wstep
        hi = np.minimum(lo + wstep, n - 1)
    for k in NEIGHBOR_OFFSETS:
        pos = t + k * s
        ok = (pos >= 0) & (pos <= n - 1)
        if window is not None:
            ok &= (pos >= lo) & (pos <= hi)
        avail[k] = ok
    return classify(avail[-3], avail[-1], avail[1], avail[3], cubic_variant)


def _pass_predict(work_flat: np.ndarray, shape: tuple[int, ...],
                  spec: InterpSpec, p: PassDesc
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Compute (flat target indices, predictions) for one pass."""
    axes_idx = _axis_indices(shape, p)
    t = axes_idx[p.axis]
    if t.size == 0 or any(a.size == 0 for a in axes_idx):
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=work_flat.dtype)
    flat = _flat_block(axes_idx, shape)
    block_shape = flat.shape
    flat = flat.ravel()

    window = spec.window_shape[p.axis] if spec.window_shape else None
    cls1d = _class_1d(t, shape[p.axis], p.stride, window,
                      spec.cubic_variant[p.axis])
    view = [1] * len(shape)
    view[p.axis] = t.size
    cls = np.broadcast_to(cls1d.reshape(view), block_shape).ravel()

    ndim = len(shape)
    ax_stride = 1
    for ax in range(p.axis + 1, ndim):
        ax_stride *= shape[ax]
    size = work_flat.size
    pred = np.zeros(flat.size, dtype=work_flat.dtype)
    weights = SPLINE_WEIGHTS.astype(work_flat.dtype)
    for j, k in enumerate(NEIGHBOR_OFFSETS):
        w = weights[cls, j]
        idx = flat + (k * p.stride * ax_stride)
        np.clip(idx, 0, size - 1, out=idx)
        pred += w * work_flat[idx]
    return flat, pred


def _resolve_plan(shape: tuple[int, ...], spec: InterpSpec, plan,
                  compiled: bool):
    """Normalize the ``plan=``/``compiled=`` fast-path knobs.

    ``plan`` may be an explicit :class:`~repro.core.ginterp.plans.PassPlan`
    (validated against this call's geometry); otherwise ``compiled=True``
    fetches the LRU-cached plan and ``compiled=False`` selects the
    uncompiled reference traversal (returns ``None``).
    """
    from repro.core.ginterp import plans as _plans
    if plan is not None:
        key = _plans._plan_key(shape, spec)
        if plan.key != key:
            raise ConfigError(
                f"pass plan was compiled for {plan.key}, not {key}")
        return plan
    if compiled:
        return _plans.get_plan(shape, spec)
    return None


def _check_finite(data: np.ndarray) -> None:
    """Reject NaN/Inf up front: a single non-finite sample poisons every
    prediction that (even with zero weight) gathers it — ``0.0 * inf``
    is NaN — and would silently destroy the whole field."""
    if not np.isfinite(data).all():
        bad = int(data.size - np.isfinite(data).sum())
        raise DataError(
            f"interpolation input contains {bad} non-finite value(s) "
            f"(NaN/Inf); mask or filter them before compression")


def interp_compress(data: np.ndarray, spec: InterpSpec, eb: float,
                    quantizer: LinearQuantizer | None = None, *,
                    plan=None, compiled: bool = True) -> InterpResult:
    """Run the full interpolation-compression traversal.

    ``data`` is the (possibly padded) float field; returns quant-codes in
    pass order, compacted outliers, the anchor grid (in the quantizer's
    value dtype), and the exact reconstruction the decompressor will
    reproduce, in the quantizer's lane dtype.

    ``plan``/``compiled`` select the execution path (see
    :func:`_resolve_plan`); both produce bit-identical streams. On the
    compiled path every pass is one fused predict–quantize kernel: codes
    land straight in the preallocated stream, with no float residual
    intermediates.
    """
    spec = spec.resolved(data.ndim)
    _check_finite(data)
    quantizer = quantizer or LinearQuantizer()
    lane = quantizer.lane_dtype
    plan = _resolve_plan(data.shape, spec, plan, compiled)
    work = data.astype(lane, copy=True)
    anchors = extract_anchors(work, spec.anchor_stride,
                              quantizer.value_dtype)
    apply_anchors(work, anchors, spec.anchor_stride)

    ebs = level_error_bounds(eb, spec)
    outlier_parts: list[np.ndarray] = []
    sizes: list[int] = []
    with _lane_errstate():
        codes = _compress_passes(work, data, spec, quantizer, plan, ebs,
                                 outlier_parts, sizes)
    outliers = (np.concatenate(outlier_parts) if outlier_parts
                else np.empty(0, quantizer.value_dtype))
    return InterpResult(codes=codes, outliers=outliers, anchors=anchors,
                        reconstructed=work, pass_sizes=sizes)


def _lane_errstate():
    """Silence lane overflow: near the dtype's max a spline sum can
    overflow to ±inf (and ``inf - inf`` give NaN); the quantizer turns
    every such lane into an outlier, so the warning carries no news."""
    return np.errstate(over="ignore", invalid="ignore")


def _compress_passes(work, data, spec, quantizer, plan, ebs,
                     outlier_parts, sizes) -> np.ndarray:
    """Run every compression pass; returns the quant-code stream."""
    lane = quantizer.lane_dtype
    if plan is None:
        codes = _reference_compress(work.ravel(), data, spec, quantizer,
                                    ebs, outlier_parts, sizes)
    else:
        codes = np.empty(plan.n_targets, dtype=np.uint32)
        scratch = plan.workspace(lane)
        q_buf, r_buf = plan.quant_workspace(lane)
        cursor = 0
        for step in plan.passes:
            p = step.desc
            n = step.n_targets
            sizes.append(int(n))
            # one span per level/axis pass, mirroring one GPU kernel
            # launch; predict, quantize and reconstruct run in it fused
            with telemetry.span("ginterp.pass", level=p.level, axis=p.axis,
                                stride=p.stride, targets=int(n)):
                if n == 0:
                    continue
                with telemetry.span("ginterp.pq", level=p.level):
                    outlier_parts.append(step.predict_quantize(
                        work, data, quantizer, ebs[p.level],
                        codes[cursor:cursor + n], *scratch, q_buf, r_buf))
                cursor += n
                telemetry.observe("ginterp.pass_targets", n)
        if cursor != codes.size:  # pragma: no cover - plan invariant
            raise ConfigError("fused traversal did not fill the code "
                              "stream")
    return codes


def _reference_compress(work_flat, data, spec, quantizer, ebs,
                        outlier_parts, sizes) -> np.ndarray:
    """The uncompiled traversal (the oracle): flat index gathers and the
    allocating :meth:`LinearQuantizer.quantize`, one pass at a time."""
    orig_flat = data.ravel()
    codes_parts: list[np.ndarray] = []
    for p in pass_plan(data.ndim, spec):
        with telemetry.span("ginterp.pass", level=p.level, axis=p.axis,
                            stride=p.stride) as psp:
            flat, pred = _pass_predict(work_flat, data.shape, spec, p)
            n = flat.size
            sizes.append(int(n))
            psp.set(targets=int(n))
            if n == 0:
                continue
            res = quantizer.quantize(orig_flat[flat], pred, ebs[p.level])
            work_flat[flat] = res.reconstructed
            codes_parts.append(res.codes)
            outlier_parts.append(res.outlier_values)
            telemetry.observe("ginterp.pass_targets", n)
    return (np.concatenate(codes_parts) if codes_parts
            else np.empty(0, np.uint32))


def interp_decompress(shape: tuple[int, ...], spec: InterpSpec, eb: float,
                      codes: np.ndarray, outliers: np.ndarray,
                      anchors: np.ndarray,
                      quantizer: LinearQuantizer | None = None, *,
                      plan=None, compiled: bool = True) -> np.ndarray:
    """Replay :func:`interp_compress` from its outputs.

    Returns the reconstruction in the quantizer's lane dtype,
    bit-identical to ``InterpResult.reconstructed``. On the compiled path
    each pass is one fused predict–reconstruct kernel writing straight
    into the work array. Raises
    :class:`~repro.common.errors.CorruptStreamError` when the quant-code
    or outlier stream is shorter (or longer) than the traversal demands —
    truncated input must fail loudly, not decode garbage.
    """
    spec = spec.resolved(len(shape))
    quantizer = quantizer or LinearQuantizer()
    lane = quantizer.lane_dtype
    plan = _resolve_plan(tuple(shape), spec, plan, compiled)
    work = np.zeros(shape, dtype=lane)
    apply_anchors(work, anchors.reshape(
        tuple(-(-n // spec.anchor_stride) for n in shape)),
        spec.anchor_stride)

    with _lane_errstate():
        _decompress_passes(work, tuple(shape), spec,
                           level_error_bounds(eb, spec), np.asarray(codes),
                           outliers, quantizer, plan)
    return work


def _decompress_passes(work, shape, spec, ebs, codes, outliers,
                       quantizer, plan) -> None:
    """Replay every pass into ``work``, consuming codes and outliers."""
    lane = quantizer.lane_dtype
    work_flat = work.ravel()
    cursor = 0
    out_cursor = 0
    if plan is not None:
        scratch = plan.workspace(lane)
        q_buf = np.empty(plan.max_targets, dtype=lane)  # dequantized bins
    for step in (plan.passes if plan is not None
                 else pass_plan(len(shape), spec)):
        p = step.desc if plan is not None else step
        with telemetry.span("ginterp.pass", level=p.level, axis=p.axis,
                            stride=p.stride) as psp:
            if plan is not None:
                n = step.n_targets
            else:
                flat, pred = _pass_predict(work_flat, shape, spec, p)
                n = flat.size
            psp.set(targets=int(n))
            if n == 0:
                continue
            if cursor + n > codes.size:
                raise CorruptStreamError(
                    f"quant-code stream exhausted at level {p.level} "
                    f"axis {p.axis}: pass needs {n} codes, "
                    f"{codes.size - cursor} remain")
            pass_codes = codes[cursor:cursor + n]
            cursor += n
            if plan is not None:
                with telemetry.span("ginterp.pr", level=p.level):
                    out_cursor = step.predict_reconstruct(
                        work, quantizer, ebs[p.level],
                        pass_codes, outliers, out_cursor, *scratch, q_buf)
            else:
                recon = np.empty(n, dtype=lane)
                out_cursor = quantizer.reconstruct_into(
                    pass_codes, pred, ebs[p.level], outliers, out_cursor,
                    recon)
                work_flat[flat] = recon
    if cursor != codes.size:
        raise CorruptStreamError(
            f"quant-code stream has {codes.size - cursor} trailing "
            f"code(s) after the final pass")
