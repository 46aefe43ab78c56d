"""AC-SpGEMM driver: the paper's four-stage pipeline (Figure 2).

1. **Global load balancing** — static non-zero split of A (Algorithm 1).
2. **Adaptive chunk-based ESC** — per-block multi-iteration local ESC
   with chunk output and restart support.
3. **Chunk merging** — Multi / Path / Search Merge of shared rows.
4. **Output** — row-pointer prefix sum and parallel chunk copy.

The driver also owns the chunk-pool estimate and the restart loop: when
the pool is exhausted, affected blocks persist their restart state, the
host grows the pool ("expanding the chunk pool is as easy as adding
another memory region") and relaunches only the unfinished blocks.

:func:`ac_spgemm` returns the result matrix together with the full cost
accounting the evaluation section reports: per-stage simulated times
(Figure 7), memory consumption (Table 3 / Figure 8), restart count and
multiprocessor load (Table 3).

Failure handling (see ``docs/ARCHITECTURE.md`` §6) also lives here:
every engineered failure raises a typed
:class:`~repro.resilience.errors.ReproError` with stage/block/restart
context; ``options.fault_plan`` injects deterministic faults at the
driver's chokepoints (identically on every engine);
``options.sanitize`` checks pipeline invariants at stage boundaries;
and ``options.on_failure="fallback"`` degrades unrecoverable runs to
the global-ESC baseline instead of raising, recording the failure on
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import get_engine
from ..engine.base import EngineContext
from ..gpu.cost import CostMeter
from ..gpu.counters import TrafficCounters
from ..gpu.memory import ScratchpadOverflow
from ..gpu.scheduler import KernelTiming, partition_aborted, schedule_blocks
from ..obs.device import BlockMeta, DeviceTrace
from ..obs.span import SpanRecorder
from ..resilience.errors import ReproError, RestartBudgetExceeded, SanitizerError
from ..resilience.sanitize import check_stage_boundary
from ..sparse.csr import CSRMatrix
from ..sparse.validate import validate_csr
from .chunks import ChunkPool, PoolExhausted, RowChunkTracker
from .esc import EscBlock
from .load_balance import global_load_balance
from .memory_estimate import estimate_chunk_pool_bytes
from .merge import MultiMergeBlock, assign_merges
from .merge_path import PathMergeBlock
from .merge_search import SearchMergeBlock
from .options import AcSpgemmOptions, DEFAULT_OPTIONS
from .output import build_row_pointer

__all__ = ["MemoryReport", "AcSpgemmResult", "ac_spgemm"]

#: stage keys in Figure 7 order: global load balancing, AC-ESC, merge
#: case assignment, multi merge, path merge, search merge, chunk copy
STAGE_KEYS = ("GLB", "ESC", "MCC", "MM", "PM", "SM", "CC")


@dataclass(frozen=True)
class MemoryReport:
    """Global memory consumption (Table 3 / Figure 8)."""

    helper_bytes: int
    chunk_pool_bytes: int
    chunk_used_bytes: int
    output_bytes: int

    @property
    def used_over_output(self) -> float:
        """Chunk memory actually used relative to the output matrix
        (Table 3 column "u/o"); near 1.0 means local ESC iterations
        "essentially produce completed chunks of the output matrix"."""
        if self.output_bytes == 0:
            return 0.0
        return self.chunk_used_bytes / self.output_bytes

    @property
    def used_fraction(self) -> float:
        """Fraction of the allocated pool that was used (Table 3 "%")."""
        if self.chunk_pool_bytes == 0:
            return 0.0
        return self.chunk_used_bytes / self.chunk_pool_bytes


@dataclass
class AcSpgemmResult:
    """Output matrix plus the paper's full accounting."""

    matrix: CSRMatrix
    stage_cycles: dict[str, float]
    counters: TrafficCounters
    memory: MemoryReport
    restarts: int
    multiprocessor_load: float
    n_chunks: int
    n_blocks: int
    clock_ghz: float
    shared_rows: int = 0
    merge_stats: dict[str, int] = field(default_factory=dict)
    #: root :class:`~repro.obs.span.Span` of the pipeline span tree —
    #: always recorded; identical across engines for the same input
    spans: object | None = None
    #: host-side engine telemetry (blocks stepped, fused launches);
    #: engine-specific by design, unlike every simulated statistic
    engine_stats: dict = field(default_factory=dict)
    #: aggregate fraction of SM-cycles busy over the block-level kernel
    #: launches (1.0 when no block-level kernel ran)
    sm_utilization: float = 1.0
    #: True when the adaptive pipeline failed and the result was
    #: recomputed by the global-ESC fallback (``on_failure="fallback"``)
    degraded: bool = False
    #: the failure that triggered degradation, as
    #: ``ReproError.context()`` (kind/stage/block_id/restarts/message)
    failure: dict | None = None
    #: device-level trace (populated when ``options.device_trace`` is
    #: set): per-block SM timelines and counter attribution, see
    #: :class:`~repro.obs.device.DeviceTrace`.  Byte-identical across
    #: engines; carries a truncation marker on degraded runs
    device_trace: object | None = None
    #: backend name this multiply was routed to, set by the adaptive
    #: selector (``repro.backends``); None for direct engine calls
    dispatched_to: str | None = None
    #: the selector's flight-recorder dispatch event (predicted vs.
    #: actual cycles, regret bound); None for direct engine calls
    routing_audit: dict | None = None

    @property
    def total_cycles(self) -> float:
        """Sum of all stage makespans."""
        return float(sum(self.stage_cycles.values()))

    @property
    def seconds(self) -> float:
        """Simulated execution time."""
        return self.total_cycles / (self.clock_ghz * 1e9)

    def stage_fractions(self) -> dict[str, float]:
        """Relative per-stage runtime (the bars of Figure 7)."""
        total = self.total_cycles
        if total == 0:
            return {k: 0.0 for k in STAGE_KEYS}
        return {k: v / total for k, v in self.stage_cycles.items()}


def _device_wide_cycles(meter: CostMeter, num_sms: int) -> float:
    """A device-wide pass parallelises perfectly over the SMs."""
    return meter.cycles / num_sms


def _worker_id(worker) -> int | None:
    """Block id of an ESC block or merge worker, for error context."""
    if worker is None:
        return None
    block_id = getattr(worker, "block_id", None)
    if block_id is None:
        block_id = getattr(worker, "block_index", None)
    return block_id


def _finish_spans(spans: SpanRecorder, owns: bool, anchor, **attrs):
    """Close the recorder we own, or unwind back to an injected anchor.

    When the caller (the adaptive selector) injected its own recorder,
    the driver must not ``close()`` the whole tree — it finishes spans
    until its own ``anchor`` span is popped, leaving the caller's root
    open for further recording.
    """
    if owns:
        return spans.close(**attrs)
    while spans.current is not anchor:
        spans.finish()
    spans.finish(**attrs)
    return anchor


def ac_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    options: AcSpgemmOptions | None = None,
    *,
    spans: SpanRecorder | None = None,
    dtrace: DeviceTrace | None = None,
) -> AcSpgemmResult:
    """Compute ``C = A @ B`` with AC-SpGEMM on the simulated device.

    Deterministic and bit-stable: repeated calls with the same inputs
    and options produce byte-identical results.

    ``spans``/``dtrace`` allow a caller that already opened its own
    recording context — the adaptive selector in ``repro.backends`` —
    to nest this run inside it; by default the driver owns both.

    Unrecoverable execution failures raise typed
    :class:`~repro.resilience.errors.ReproError` subclasses; with
    ``options.on_failure="fallback"`` they degrade to the global-ESC
    baseline instead (input-validation errors always raise).
    """
    opts = options or DEFAULT_OPTIONS
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )
    owns_spans = spans is None
    if owns_spans:
        spans = SpanRecorder(clock_ghz=opts.device.clock_ghz)
    anchor = spans.start(
        "acspgemm",
        engine=opts.engine,
        rows=a.rows,
        inner=a.cols,
        cols=b.cols,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
    )
    with spans.span("setup", validated=opts.validate_inputs):
        if opts.validate_inputs:
            # sanitizer mode also rejects non-finite values: a NaN/Inf
            # input poisons every product it touches, which the
            # stage-boundary checks cannot distinguish from corruption
            validate_csr(a, require_finite=opts.sanitize)
            validate_csr(b, require_finite=opts.sanitize)
    if dtrace is None and opts.device_trace:
        dtrace = DeviceTrace(
            clock_ghz=opts.device.clock_ghz, num_sms=opts.device.num_sms
        )
    try:
        return _run_pipeline(
            a, b, opts, spans, dtrace, owns_spans=owns_spans, anchor=anchor
        )
    except (PoolExhausted, RestartBudgetExceeded, ScratchpadOverflow, SanitizerError) as exc:
        if opts.on_failure != "fallback":
            raise
        return _degraded_result(
            a, b, opts, exc, spans, dtrace, owns_spans=owns_spans, anchor=anchor
        )


def _degraded_result(
    a: CSRMatrix,
    b: CSRMatrix,
    opts: AcSpgemmOptions,
    exc: ReproError,
    spans: SpanRecorder,
    dtrace: DeviceTrace | None = None,
    *,
    owns_spans: bool = True,
    anchor=None,
) -> AcSpgemmResult:
    """Recompute C with the global-ESC baseline after ``exc``.

    The fallback gets one fresh conservative allocation (sized for every
    temporary product, so it cannot fail the same way) and its C is
    bit-identical to the Gustavson reference; the triggering failure is
    recorded on the result instead of being raised.
    """
    from ..obs.trace import current_trace_attrs
    from ..resilience.degrade import conservative_pool_bytes, fallback_multiply

    spans.abort(reason=exc.one_line(), **current_trace_attrs())
    spans.event("degraded", detail=exc.one_line())
    if dtrace is not None:
        # the trace keeps every record collected before the failure; the
        # marker tells consumers the adaptive records are partial and the
        # result totals cover only the fallback
        dtrace.mark_truncated(exc.one_line())
    fb_start = spans.now
    run = fallback_multiply(a, b, opts, spans=spans)
    stage_cycles = {k: 0.0 for k in STAGE_KEYS}
    stage_cycles["FB"] = run.cycles
    if dtrace is not None:
        dtrace.record_device_wide(
            "FB",
            "fallback",
            start_cycle=fb_start,
            cycles=run.cycles,
            counters=run.counters.snapshot(),
        )
    memory = MemoryReport(
        helper_bytes=0,
        chunk_pool_bytes=conservative_pool_bytes(a, b, opts),
        chunk_used_bytes=run.extra_memory_bytes,
        output_bytes=run.matrix.nbytes(),
    )
    return AcSpgemmResult(
        matrix=run.matrix,
        stage_cycles=stage_cycles,
        counters=run.counters,
        memory=memory,
        restarts=exc.restarts or 0,
        multiprocessor_load=1.0,
        n_chunks=0,
        n_blocks=0,
        clock_ghz=opts.device.clock_ghz,
        spans=spans.close(degraded=True) if owns_spans else anchor,
        degraded=True,
        failure=exc.context(),
        device_trace=dtrace,
    )


def _run_pipeline(
    a: CSRMatrix,
    b: CSRMatrix,
    opts: AcSpgemmOptions,
    spans: SpanRecorder,
    dtrace: DeviceTrace | None = None,
    *,
    owns_spans: bool = True,
    anchor=None,
) -> AcSpgemmResult:
    """The four-stage pipeline proper (validated inputs, typed raises)."""
    cfg = opts.device
    engine = get_engine(opts.engine)
    launch = opts.costs.kernel_launch_cycles
    stage_cycles = {k: 0.0 for k in STAGE_KEYS}
    counters = TrafficCounters()
    min_mp_load = 1.0
    util_busy = 0.0
    util_cap = 0.0

    def track_timing(timing: KernelTiming) -> None:
        nonlocal min_mp_load, util_busy, util_cap
        if timing.n_blocks >= cfg.num_sms:
            min_mp_load = min(min_mp_load, timing.multiprocessor_load)
        if timing.n_blocks:  # empty launches are pure overhead, not idle SMs
            util_busy += timing.total_block_cycles
            util_cap += len(timing.sm_busy_cycles) * timing.makespan_cycles

    # ---- stage 1: global load balancing --------------------------------
    glb_meter = CostMeter(config=cfg, constants=opts.costs)
    glb = global_load_balance(a, cfg.nnz_per_block_glb, glb_meter)
    stage_cycles["GLB"] = _device_wide_cycles(glb_meter, cfg.num_sms) + launch
    counters.merge(glb_meter.counters)
    counters.kernel_launches += 1
    if dtrace is not None:
        glb_attr = glb_meter.counters.snapshot()
        glb_attr["kernel_launches"] += 1
        dtrace.record_device_wide(
            "GLB",
            "glb",
            start_cycle=spans.now,
            cycles=stage_cycles["GLB"],
            counters=glb_attr,
        )
    spans.leaf("glb", stage_cycles["GLB"], stage="GLB", blocks=glb.n_blocks)

    # ---- stage 2: AC-ESC with restart loop ------------------------------
    with spans.span("estimate", estimator=opts.estimator) as est:
        if opts.chunk_pool_bytes is not None or opts.estimator == "uniform":
            pool_bytes = estimate_chunk_pool_bytes(a, b, opts)
        else:
            # OCEAN-style sampled symbolic estimate: a real (cheap)
            # device pass, so it is charged like one — its cycles land
            # in ESC ahead of the first round and its traffic in the
            # run counters, keeping the device trace reconcilable
            from .estimate_sampling import sampled_chunk_pool_bytes

            est_meter = CostMeter(config=cfg, constants=opts.costs)
            pool_bytes = sampled_chunk_pool_bytes(a, b, opts, meter=est_meter)
            if est_meter.counters.kernel_launches:
                # the meter already charged its own launch latency;
                # keep it out of the device-wide division
                est_cycles = (
                    est_meter.cycles - launch
                ) / cfg.num_sms + launch
                stage_cycles["ESC"] += est_cycles
                counters.merge(est_meter.counters)
                if dtrace is not None:
                    dtrace.record_device_wide(
                        "ESC",
                        "estimate.sample",
                        start_cycle=spans.now,
                        cycles=est_cycles,
                        counters=est_meter.counters.snapshot(),
                    )
                spans.leaf(
                    "estimate.sample", est_cycles, stage="ESC", sampled=True
                )
        est.attrs["pool_bytes"] = pool_bytes
    pool = ChunkPool(capacity_bytes=pool_bytes)
    tracker = RowChunkTracker(n_rows=a.rows)

    injector = opts.fault_plan.activate() if opts.fault_plan is not None else None
    if injector is not None:
        pool.fault_hook = injector.pool_gate

    ectx = EngineContext(a=a, b=b, glb=glb, options=opts, pool=pool, tracker=tracker)

    def esc_row_range(block_id: int) -> tuple[int, int]:
        """A-row range covered by an ESC block's non-zero slice."""
        lo = block_id * glb.nnz_per_block
        hi = min(lo + glb.nnz_per_block, glb.row_of_nnz.shape[0])
        if hi <= lo:
            return -1, -1
        return int(glb.row_of_nnz[lo]), int(glb.row_of_nnz[hi - 1])

    def esc_meta(blk, outcome=None) -> BlockMeta:
        row_lo, row_hi = esc_row_range(blk.block_id)
        if outcome is None:  # aborted before dispatch
            return BlockMeta(
                worker_id=blk.block_id,
                row_lo=row_lo,
                row_hi=row_hi,
                esc_iterations=blk.esc_iterations,
            )
        return BlockMeta(
            worker_id=blk.block_id,
            row_lo=row_lo,
            row_hi=row_hi,
            cycles=outcome.cycles,
            done=outcome.done,
            scratch_high_water=outcome.scratch_high_water,
            esc_iterations=blk.esc_iterations,
            sort_log=outcome.sort_log,
            counters=outcome.counters.snapshot(),
        )

    def merge_meta(stage: str, w, outcome=None) -> BlockMeta:
        if stage == "MM":
            row_lo, row_hi = int(min(w.rows)), int(max(w.rows))
        else:
            row_lo = row_hi = int(w.row)
        if outcome is None:  # aborted before dispatch
            return BlockMeta(worker_id=w.block_index, row_lo=row_lo, row_hi=row_hi)
        return BlockMeta(
            worker_id=w.block_index,
            row_lo=row_lo,
            row_hi=row_hi,
            cycles=outcome.cycles,
            done=outcome.done,
            scratch_high_water=outcome.scratch_high_water,
            sort_log=outcome.sort_log,
            counters=outcome.counters.snapshot(),
        )

    def enter_round(stage: str, round_index: int, pending_list: list, restarts: int):
        """Apply driver-level injected faults at a stage-round entry.

        Returns ``(run_list, aborted)``; both fault classes applied here
        are decided before any engine work, so they are engine-identical
        by construction.  An injected overflow raises immediately.
        """
        if injector is None:
            return pending_list, []
        spec = injector.overflow_for(stage, round_index)
        if spec is not None:
            victim = (
                pending_list[min(spec.block, len(pending_list) - 1)]
                if pending_list
                else None
            )
            raise ScratchpadOverflow(
                f"injected scratchpad overflow in {stage} round {round_index}",
                stage=stage,
                block_id=_worker_id(victim),
                restarts=restarts,
            )
        return partition_aborted(pending_list, injector.aborts_for(stage, round_index))

    blocks = [
        EscBlock(block_id=i, a=a, b=b, glb=glb, options=opts)
        for i in range(glb.n_blocks)
    ]
    pending = list(blocks)
    restarts = 0
    esc_round_index = 0
    with spans.span("esc", stage="ESC"):
        while pending:
            rnd = esc_round_index
            run_list, aborted = enter_round("ESC", rnd, pending, restarts)
            esc_round_index += 1
            if aborted:
                spans.event(
                    "blocks_aborted", detail=f"{len(aborted)} blocks in round {rnd}"
                )
            outcomes = engine.esc_round(ectx, run_list) if run_list else []
            round_cycles = [o.cycles for o in outcomes]
            # re-queue in original block order: aborted blocks keep their
            # position relative to the blocks whose allocations failed
            outcome_of = dict(zip(map(id, run_list), outcomes))
            still_pending: list[EscBlock] = []
            for blk in pending:
                outcome = outcome_of.get(id(blk))
                if outcome is None:  # aborted before dispatch
                    still_pending.append(blk)
                    continue
                counters.merge(outcome.counters)
                if not outcome.done:
                    still_pending.append(blk)
            timing = schedule_blocks(
                round_cycles,
                cfg.num_sms,
                launch_overhead=launch,
                record_placements=dtrace is not None,
            )
            stage_cycles["ESC"] += timing.makespan_cycles
            counters.kernel_launches += 1
            track_timing(timing)
            if dtrace is not None:
                dtrace.record_launch(
                    "ESC",
                    round_index=rnd,
                    start_cycle=spans.now,
                    timing=timing,
                    launch_overhead=launch,
                    workers=[
                        esc_meta(blk, o) for blk, o in zip(run_list, outcomes)
                    ],
                    aborted=[esc_meta(blk) for blk in aborted],
                    counters={"kernel_launches": 1},
                    pool=pool,
                )
            spans.leaf(
                "esc.round",
                timing.makespan_cycles,
                stage="ESC",
                round=rnd,
                blocks=len(run_list),
                pending_after=len(still_pending),
            )
            if still_pending:
                restarts += 1
                if restarts > opts.max_restarts:
                    raise RestartBudgetExceeded(
                        f"chunk pool restart limit exceeded ({opts.max_restarts})",
                        stage="ESC",
                        block_id=_worker_id(still_pending[0]),
                        restarts=restarts - 1,
                    )
                growth = max(
                    int(pool.capacity_bytes * (opts.pool_growth_factor - 1.0)),
                    opts.device.elements_per_block * opts.element_bytes,
                )
                pool.grow(growth)
                stage_cycles["ESC"] += opts.costs.host_round_trip_cycles
                counters.host_round_trips += 1
                spans.event(
                    "restart",
                    detail=f"pool grown to {pool.capacity_bytes} B, "
                    f"{len(still_pending)} blocks pending",
                )
                if dtrace is not None:
                    dtrace.record_host(
                        "ESC",
                        "restart",
                        start_cycle=spans.now,
                        cycles=opts.costs.host_round_trip_cycles,
                        counters={"host_round_trips": 1},
                        pool=pool,
                    )
                spans.leaf(
                    "esc.restart",
                    opts.costs.host_round_trip_cycles,
                    stage="ESC",
                    pool_bytes=pool.capacity_bytes,
                )
            pending = still_pending

    if opts.sanitize:
        check_stage_boundary(pool, tracker, stage="ESC")

    # ---- stage 3: merging ------------------------------------------------
    def run_merge_kernel(stage: str, workers) -> None:
        """Launch a merge kernel with its own restart loop."""
        nonlocal restarts
        pending_workers = list(workers)
        if not pending_workers:
            return
        round_index = 0
        with spans.span(stage.lower(), stage=stage, workers=len(pending_workers)):
            while pending_workers:
                rnd = round_index
                run_list, aborted = enter_round(stage, rnd, pending_workers, restarts)
                round_index += 1
                if aborted:
                    spans.event(
                        "blocks_aborted",
                        detail=f"{len(aborted)} blocks in round {rnd}",
                    )
                outcomes = engine.merge_round(ectx, stage, run_list) if run_list else []
                cycles = [o.cycles for o in outcomes]
                outcome_of = dict(zip(map(id, run_list), outcomes))
                still = []
                for w in pending_workers:
                    outcome = outcome_of.get(id(w))
                    if outcome is None:  # aborted before dispatch
                        still.append(w)
                        continue
                    counters.merge(outcome.counters)
                    if not outcome.done:
                        still.append(w)
                timing = schedule_blocks(
                    cycles,
                    cfg.num_sms,
                    launch_overhead=launch,
                    record_placements=dtrace is not None,
                )
                stage_cycles[stage] += timing.makespan_cycles
                counters.kernel_launches += 1
                track_timing(timing)
                if dtrace is not None:
                    dtrace.record_launch(
                        stage,
                        round_index=rnd,
                        start_cycle=spans.now,
                        timing=timing,
                        launch_overhead=launch,
                        workers=[
                            merge_meta(stage, w, o)
                            for w, o in zip(run_list, outcomes)
                        ],
                        aborted=[merge_meta(stage, w) for w in aborted],
                        counters={"kernel_launches": 1},
                        pool=pool,
                    )
                spans.leaf(
                    f"{stage.lower()}.round",
                    timing.makespan_cycles,
                    stage=stage,
                    round=rnd,
                    blocks=len(run_list),
                    pending_after=len(still),
                )
                if still:
                    restarts += 1
                    if restarts > opts.max_restarts:
                        raise RestartBudgetExceeded(
                            f"chunk pool restart limit exceeded ({opts.max_restarts})",
                            stage=stage,
                            block_id=_worker_id(still[0]),
                            restarts=restarts - 1,
                        )
                    pool.grow(
                        max(
                            int(pool.capacity_bytes * (opts.pool_growth_factor - 1.0)),
                            opts.device.elements_per_block * opts.element_bytes,
                        )
                    )
                    stage_cycles[stage] += opts.costs.host_round_trip_cycles
                    counters.host_round_trips += 1
                    spans.event(
                        "restart",
                        detail=f"pool grown to {pool.capacity_bytes} B, "
                        f"{len(still)} workers pending",
                    )
                    if dtrace is not None:
                        dtrace.record_host(
                            stage,
                            "restart",
                            start_cycle=spans.now,
                            cycles=opts.costs.host_round_trip_cycles,
                            counters={"host_round_trips": 1},
                            pool=pool,
                        )
                    spans.leaf(
                        f"{stage.lower()}.restart",
                        opts.costs.host_round_trip_cycles,
                        stage=stage,
                        pool_bytes=pool.capacity_bytes,
                    )
                pending_workers = still
        if opts.sanitize:
            check_stage_boundary(pool, tracker, stage=stage)

    with spans.span("merge"):
        mcc_meter = CostMeter(config=cfg, constants=opts.costs)
        assignment = assign_merges(tracker, opts, mcc_meter)
        stage_cycles["MCC"] = _device_wide_cycles(mcc_meter, cfg.num_sms)
        if assignment.n_shared_rows:
            stage_cycles["MCC"] += launch
            counters.kernel_launches += 1
        counters.merge(mcc_meter.counters)
        if dtrace is not None:
            mcc_attr = mcc_meter.counters.snapshot()
            if assignment.n_shared_rows:
                mcc_attr["kernel_launches"] += 1
            dtrace.record_device_wide(
                "MCC",
                "mcc",
                start_cycle=spans.now,
                cycles=stage_cycles["MCC"],
                counters=mcc_attr,
                pool=pool,
            )
        spans.leaf(
            "mcc",
            stage_cycles["MCC"],
            stage="MCC",
            shared_rows=assignment.n_shared_rows,
        )

        merge_stats = {
            "multi_merge_blocks": len(assignment.multi_groups),
            "path_merge_rows": len(assignment.path_rows),
            "search_merge_rows": len(assignment.search_rows),
        }

        multi_blocks = [
            MultiMergeBlock(block_index=i, rows=g)
            for i, g in enumerate(assignment.multi_groups)
        ]
        run_merge_kernel("MM", multi_blocks)

        path_blocks = [
            PathMergeBlock(block_index=i, row=r)
            for i, r in enumerate(assignment.path_rows)
        ]
        run_merge_kernel("PM", path_blocks)

        search_blocks = [
            SearchMergeBlock(block_index=i, row=r)
            for i, r in enumerate(assignment.search_rows)
        ]
        run_merge_kernel("SM", search_blocks)

    # ---- stage 4: output matrix and chunk copy ---------------------------
    with spans.span("output"):
        out_meter = CostMeter(config=cfg, constants=opts.costs)
        row_ptr = build_row_pointer(tracker, out_meter)
        c, copy_cycles = engine.copy_output(ectx, row_ptr, out_meter)
        timing = schedule_blocks(
            copy_cycles,
            cfg.num_sms,
            launch_overhead=launch,
            record_placements=dtrace is not None,
        )
        scan_cycles = _device_wide_cycles(out_meter, cfg.num_sms)
        stage_cycles["CC"] = scan_cycles + timing.makespan_cycles
        counters.merge(out_meter.counters)
        counters.kernel_launches += 2  # row-pointer scan + copy
        track_timing(timing)
        if dtrace is not None:
            scan_attr = out_meter.counters.snapshot()
            scan_attr["kernel_launches"] += 1
            dtrace.record_device_wide(
                "CC",
                "output.row_ptr",
                start_cycle=spans.now,
                cycles=scan_cycles,
                counters=scan_attr,
                pool=pool,
            )
        spans.leaf("output.row_ptr", scan_cycles, stage="CC")
        if dtrace is not None:
            # one copy block per chunk, in the chunk order the copy
            # walked (pool.ordered_chunks()); its traffic is already in
            # the out_meter sink, so blocks carry no counter deltas
            dtrace.record_launch(
                "CC",
                round_index=0,
                start_cycle=spans.now,
                timing=timing,
                launch_overhead=launch,
                workers=[
                    BlockMeta(
                        worker_id=i,
                        row_lo=int(ch.first_row),
                        row_hi=int(ch.last_row),
                        cycles=copy_cycles[i],
                    )
                    for i, ch in enumerate(pool.ordered_chunks())
                ],
                counters={"kernel_launches": 1},
                pool=pool,
            )
            dtrace.finalize_chunks(pool, glb.n_blocks)
        spans.leaf(
            "output.copy", timing.makespan_cycles, stage="CC", blocks=timing.n_blocks
        )

    helper_bytes = (
        glb.helper_bytes
        + tracker.helper_bytes()
        + 12 * glb.n_blocks  # per-block restart state
        + 8 * len(pool.chunks)  # chunk pointer array
    )
    memory = MemoryReport(
        helper_bytes=helper_bytes,
        chunk_pool_bytes=pool.capacity_bytes,
        chunk_used_bytes=pool.used_bytes,
        output_bytes=c.nbytes(),
    )

    return AcSpgemmResult(
        matrix=c,
        stage_cycles=stage_cycles,
        counters=counters,
        memory=memory,
        restarts=restarts,
        multiprocessor_load=min_mp_load,
        n_chunks=len(pool.chunks),
        n_blocks=glb.n_blocks,
        clock_ghz=cfg.clock_ghz,
        shared_rows=assignment.n_shared_rows,
        merge_stats=merge_stats,
        spans=_finish_spans(spans, owns_spans, anchor, restarts=restarts),
        engine_stats={k: engine.host_stats[k] for k in sorted(engine.host_stats)},
        sm_utilization=util_busy / util_cap if util_cap else 1.0,
        device_trace=dtrace,
    )
