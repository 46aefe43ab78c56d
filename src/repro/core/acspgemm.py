"""AC-SpGEMM driver: the paper's four-stage pipeline (Figure 2).

1. **Global load balancing** — static non-zero split of A (Algorithm 1).
2. **Adaptive chunk-based ESC** — per-block multi-iteration local ESC
   with chunk output and restart support.
3. **Chunk merging** — Multi / Path / Search Merge of shared rows.
4. **Output** — row-pointer prefix sum and parallel chunk copy.

The driver also owns the chunk-pool estimate and one restart loop,
shared by ESC and the three merge kernels: when the pool is exhausted,
affected workers persist their restart state, the host grows the pool
("expanding the chunk pool is as easy as adding another memory region")
and relaunches only the unfinished workers.

:func:`ac_spgemm` returns the result matrix together with the full cost
accounting the evaluation section reports: per-stage simulated times
(Figure 7), memory consumption (Table 3 / Figure 8), restart count and
multiprocessor load (Table 3).  The driver reports each kernel launch,
device-wide pass and restart once, to a
:class:`~repro.obs.ledger.LaunchLedger`, which writes the stage cycles,
the counters, the span leaf and (when tracing) the device record.

Failure handling (see ``docs/ARCHITECTURE.md`` §5) also lives here:
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
from functools import partial

from ..engine import get_engine
from ..engine.base import EngineContext, RoundOutcomes
from ..gpu.cost import CostMeter
from ..gpu.counters import TrafficCounters
from ..gpu.memory import ScratchpadOverflow
from ..gpu.scheduler import partition_aborted
from ..obs.device import BlockMeta
from ..obs.ledger import LaunchLedger
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


def _worker_id(worker) -> int | None:
    """Block id of an ESC block or merge worker, for error context."""
    if worker is None:
        return None
    block_id = getattr(worker, "block_id", None)
    if block_id is None:
        block_id = getattr(worker, "block_index", None)
    return block_id


def _merge_rows(w) -> tuple[int, int]:
    """A-row range of a merge worker: a Multi Merge block's row group,
    or the one shared row of a Path/Search Merge."""
    if isinstance(w, MultiMergeBlock):
        return int(min(w.rows)), int(max(w.rows))
    return int(w.row), int(w.row)


def _block_meta(w, row_range, outcome=None) -> BlockMeta:
    """What the device trace records of one worker's round."""
    row_lo, row_hi = row_range(w)
    esc_iterations = getattr(w, "esc_iterations", 0)
    if outcome is None:  # aborted before dispatch
        return BlockMeta(_worker_id(w), row_lo, row_hi, esc_iterations=esc_iterations)
    return BlockMeta(
        _worker_id(w),
        row_lo,
        row_hi,
        cycles=outcome.cycles,
        done=outcome.done,
        scratch_high_water=outcome.scratch_high_water,
        esc_iterations=esc_iterations,
        sort_log=outcome.sort_log,
        counters=outcome.counters.snapshot(),
    )


class _RestartLoop:
    """The restart loop shared by ESC and the three merge kernels.

    A stage launches its pending workers round after round.  Workers
    whose chunk allocations failed stay pending; the host then grows
    the pool ("as easy as adding another memory region") and relaunches
    only those, until every worker is done or ``max_restarts`` growth
    rounds are spent.  ``restarts`` counts rounds across all stages.
    """

    def __init__(self, ledger: LaunchLedger, opts: AcSpgemmOptions, pool, injector):
        self.ledger = ledger
        self.opts = opts
        self.pool = pool
        self.injector = injector
        self.restarts = 0

    def _enter_round(self, stage: str, rnd: int, pending: list):
        """Apply driver-level injected faults at a stage-round entry.

        Returns ``(run_list, aborted)``; both fault classes applied here
        are decided before any engine work, so they are engine-identical
        by construction.  An injected overflow raises immediately.
        """
        if self.injector is None:
            return pending, []
        spec = self.injector.overflow_for(stage, rnd)
        if spec is not None:
            victim = pending[min(spec.block, len(pending) - 1)] if pending else None
            raise ScratchpadOverflow(
                f"injected scratchpad overflow in {stage} round {rnd}",
                stage=stage,
                block_id=_worker_id(victim),
                restarts=self.restarts,
            )
        return partition_aborted(pending, self.injector.aborts_for(stage, rnd))

    def run(self, stage: str, workers, run_round, row_range, noun: str) -> None:
        """Run ``workers`` to completion; ``run_round`` executes one
        round's list on the engine, ``row_range`` gives a worker's A-row
        range and ``noun`` names the workers in restart events."""
        ledger, opts, pool = self.ledger, self.opts, self.pool
        pending = list(workers)
        rnd = 0
        while pending:
            run_list, aborted = self._enter_round(stage, rnd, pending)
            if aborted:
                ledger.spans.event(
                    "blocks_aborted", detail=f"{len(aborted)} blocks in round {rnd}"
                )
            outcomes = run_round(run_list) if run_list else RoundOutcomes.of([])
            # re-queue in original order: aborted workers keep their
            # position relative to the workers whose allocations failed
            done = {id(w) for w, d in zip(run_list, outcomes.done.tolist()) if d}
            still = [w for w in pending if id(w) not in done]
            ledger.launch(
                stage,
                rnd,
                outcomes.cycles.tolist(),
                traffic=outcomes.traffic(),
                metas=lambda: [
                    _block_meta(w, row_range, o) for w, o in zip(run_list, outcomes)
                ],
                aborted=lambda: [_block_meta(w, row_range) for w in aborted],
                round=rnd,
                blocks=len(run_list),
                pending_after=len(still),
            )
            rnd += 1
            if still:
                self.restarts += 1
                if self.restarts > opts.max_restarts:
                    raise RestartBudgetExceeded(
                        f"chunk pool restart limit exceeded ({opts.max_restarts})",
                        stage=stage,
                        block_id=_worker_id(still[0]),
                        restarts=self.restarts - 1,
                    )
                pool.grow(
                    max(
                        int(pool.capacity_bytes * (opts.pool_growth_factor - 1.0)),
                        opts.device.elements_per_block * opts.element_bytes,
                    )
                )
                ledger.spans.event(
                    "restart",
                    detail=f"pool grown to {pool.capacity_bytes} B, "
                    f"{len(still)} {noun} pending",
                )
                ledger.host(stage, "restart", pool_bytes=pool.capacity_bytes)
            pending = still


def ac_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    options: AcSpgemmOptions | None = None,
    *,
    ledger: LaunchLedger | None = None,
) -> AcSpgemmResult:
    """Compute ``C = A @ B`` with AC-SpGEMM on the simulated device.

    Deterministic and bit-stable: repeated calls with the same inputs
    and options produce byte-identical results.

    ``ledger`` lets a caller that already opened its own recording
    context — the adaptive selector in ``repro.backends`` — nest this
    run's spans and device records inside it; by default the run owns
    its own.

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
    ledger = LaunchLedger(opts, STAGE_KEYS, parent=ledger)
    anchor = ledger.spans.start(
        "acspgemm",
        engine=opts.engine,
        rows=a.rows,
        inner=a.cols,
        cols=b.cols,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
    )
    with ledger.spans.span("setup", validated=opts.validate_inputs):
        if opts.validate_inputs:
            # sanitizer mode also rejects non-finite values: a NaN/Inf
            # input poisons every product it touches, which the
            # stage-boundary checks cannot distinguish from corruption
            validate_csr(a, require_finite=opts.sanitize)
            validate_csr(b, require_finite=opts.sanitize)
    try:
        return _run_pipeline(a, b, opts, ledger, anchor)
    except (PoolExhausted, RestartBudgetExceeded, ScratchpadOverflow, SanitizerError) as exc:
        if opts.on_failure != "fallback":
            raise
        return _degraded_result(a, b, opts, exc, ledger, anchor)


def _degraded_result(
    a: CSRMatrix,
    b: CSRMatrix,
    opts: AcSpgemmOptions,
    exc: ReproError,
    ledger: LaunchLedger,
    anchor,
) -> AcSpgemmResult:
    """Recompute C with the global-ESC baseline after ``exc``.

    The fallback gets one fresh conservative allocation (sized for every
    temporary product, so it cannot fail the same way) and its C is
    bit-identical to the Gustavson reference; the triggering failure is
    recorded on the result instead of being raised.  The device trace
    keeps the failed run's records behind a truncation marker; stage
    cycles and counters cover the fallback only.
    """
    from ..resilience.degrade import conservative_pool_bytes, fallback_multiply

    ledger.truncate(exc.one_line(), STAGE_KEYS + ("FB",))
    run = fallback_multiply(a, b, opts)
    ledger.charge(
        "device_wide",
        "FB",
        "fallback",
        run.cycles,
        run.counters.snapshot(),
        algorithm=run.algorithm,
    )
    memory = MemoryReport(
        helper_bytes=0,
        chunk_pool_bytes=conservative_pool_bytes(a, b, opts),
        chunk_used_bytes=run.extra_memory_bytes,
        output_bytes=run.matrix.nbytes(),
    )
    return AcSpgemmResult(
        matrix=run.matrix,
        memory=memory,
        restarts=exc.restarts or 0,
        n_chunks=0,
        n_blocks=0,
        clock_ghz=opts.device.clock_ghz,
        spans=ledger.finish(anchor, degraded=True),
        degraded=True,
        failure=exc.context(),
        **ledger.totals(),
    )


def _run_pipeline(
    a: CSRMatrix,
    b: CSRMatrix,
    opts: AcSpgemmOptions,
    ledger: LaunchLedger,
    anchor,
) -> AcSpgemmResult:
    """The four-stage pipeline proper (validated inputs, typed raises)."""
    cfg = opts.device
    engine = get_engine(opts.engine)
    spans = ledger.spans

    # ---- stage 1: global load balancing --------------------------------
    glb_meter = CostMeter(config=cfg, constants=opts.costs)
    glb = global_load_balance(a, cfg.nnz_per_block_glb, glb_meter)
    ledger.device_wide("GLB", "glb", glb_meter, blocks=glb.n_blocks)

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
                ledger.device_wide("ESC", "estimate.sample", est_meter, sampled=True)
        est.attrs["pool_bytes"] = pool_bytes
    pool = ledger.pool = ChunkPool(capacity_bytes=pool_bytes)
    tracker = RowChunkTracker(n_rows=a.rows)

    injector = opts.fault_plan.activate() if opts.fault_plan is not None else None
    if injector is not None:
        pool.fault_hook = injector.pool_gate

    ectx = EngineContext(a=a, b=b, glb=glb, options=opts, pool=pool, tracker=tracker)
    loop = _RestartLoop(ledger, opts, pool, injector)

    def esc_rows(blk) -> tuple[int, int]:
        """A-row range covered by an ESC block's non-zero slice."""
        lo = blk.block_id * glb.nnz_per_block
        hi = min(lo + glb.nnz_per_block, glb.row_of_nnz.shape[0])
        if hi <= lo:
            return -1, -1
        return int(glb.row_of_nnz[lo]), int(glb.row_of_nnz[hi - 1])

    blocks = [
        EscBlock(block_id=i, a=a, b=b, glb=glb, options=opts)
        for i in range(glb.n_blocks)
    ]
    with spans.span("esc", stage="ESC"):
        loop.run("ESC", blocks, partial(engine.esc_round, ectx), esc_rows, "blocks")

    if opts.sanitize:
        check_stage_boundary(pool, tracker, stage="ESC")

    # ---- stage 3: merging ------------------------------------------------
    with spans.span("merge"):
        mcc_meter = CostMeter(config=cfg, constants=opts.costs)
        assignment = assign_merges(tracker, opts, mcc_meter)
        # case assignment only costs a launch when there are shared rows
        ledger.device_wide(
            "MCC",
            "mcc",
            mcc_meter,
            launches=int(bool(assignment.n_shared_rows)),
            shared_rows=assignment.n_shared_rows,
        )

        merge_stats = {
            "multi_merge_blocks": len(assignment.multi_groups),
            "path_merge_rows": len(assignment.path_rows),
            "search_merge_rows": len(assignment.search_rows),
        }
        kernels = {
            "MM": [
                MultiMergeBlock(block_index=i, rows=g)
                for i, g in enumerate(assignment.multi_groups)
            ],
            "PM": [
                PathMergeBlock(block_index=i, row=r)
                for i, r in enumerate(assignment.path_rows)
            ],
            "SM": [
                SearchMergeBlock(block_index=i, row=r)
                for i, r in enumerate(assignment.search_rows)
            ],
        }
        for stage, workers in kernels.items():
            if not workers:
                continue
            with spans.span(stage.lower(), stage=stage, workers=len(workers)):
                run_round = partial(engine.merge_round, ectx, stage)
                loop.run(stage, workers, run_round, _merge_rows, "workers")
            if opts.sanitize:
                check_stage_boundary(pool, tracker, stage=stage)

    # ---- stage 4: output matrix and chunk copy ---------------------------
    with spans.span("output"):
        out_meter = CostMeter(config=cfg, constants=opts.costs)
        row_ptr = build_row_pointer(tracker, out_meter)
        c, copy_cycles = engine.copy_output(ectx, row_ptr, out_meter)
        # the row-pointer scan counts as a launch, but only the copy
        # launch's latency reaches the makespan
        ledger.device_wide("CC", "output.row_ptr", out_meter, priced_launches=0)
        # one copy block per chunk, in the chunk order the copy walked
        # (pool.ordered_chunks()); its traffic is already in the
        # out_meter sink, so blocks carry no counter deltas
        ledger.launch(
            "CC",
            0,
            copy_cycles,
            metas=lambda: [
                BlockMeta(
                    worker_id=i,
                    row_lo=int(ch.first_row),
                    row_hi=int(ch.last_row),
                    cycles=copy_cycles[i],
                )
                for i, ch in enumerate(pool.ordered_chunks())
            ],
            name="output.copy",
            blocks=len(copy_cycles),
        )
        ledger.count_chunks(glb.n_blocks)

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
        memory=memory,
        restarts=loop.restarts,
        n_chunks=len(pool.chunks),
        n_blocks=glb.n_blocks,
        clock_ghz=cfg.clock_ghz,
        shared_rows=assignment.n_shared_rows,
        merge_stats=merge_stats,
        spans=ledger.finish(anchor, restarts=loop.restarts),
        engine_stats={k: engine.host_stats[k] for k in sorted(engine.host_stats)},
        **ledger.totals(),
    )
