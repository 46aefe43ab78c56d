"""The original per-block execution path, unchanged.

One :class:`~repro.gpu.block.BlockContext` per simulated block per
round; blocks are stepped sequentially in block order, mutating the
shared chunk pool and row tracker directly.  This is the semantic
ground truth the other engines replicate.
"""

from __future__ import annotations

import numpy as np

from ..core.chunks import PoolExhausted
from ..core.output import copy_chunks
from ..gpu.block import BlockContext
from .base import Engine, EngineContext, RoundOutcome, RoundOutcomes

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """Step every simulated block one at a time (the seed behaviour)."""

    name = "reference"

    def esc_round(self, ectx: EngineContext, pending: list) -> RoundOutcomes:
        opts = ectx.options
        self.count("esc_rounds")
        self.count("blocks_stepped", len(pending))
        out: list[RoundOutcome] = []
        for blk in pending:
            ctx = BlockContext(
                config=opts.device, block_id=blk.block_id, constants=opts.costs
            )
            if opts.device_trace:
                ctx.meter.sort_log = []
            outcome = blk.run(ctx, ectx.pool, ectx.tracker)
            out.append(
                RoundOutcome(
                    outcome.cycles,
                    outcome.done,
                    ctx.meter.counters,
                    scratch_high_water=ctx.scratchpad.high_water,
                    sort_log=tuple(ctx.meter.sort_log or ()),
                )
            )
        return RoundOutcomes.of(out)

    def merge_round(
        self, ectx: EngineContext, stage: str, workers: list
    ) -> RoundOutcomes:
        opts = ectx.options
        self.count("merge_rounds")
        self.count("merge_workers_stepped", len(workers))
        out: list[RoundOutcome] = []
        for idx, w in enumerate(workers):
            ctx = BlockContext(
                config=opts.device, block_id=idx, constants=opts.costs
            )
            if opts.device_trace:
                ctx.meter.sort_log = []
            if stage == "MM":
                # Multi Merge restart starts from scratch (§3.3)
                try:
                    w.run(ctx, ectx.tracker, ectx.pool, ectx.b, opts)
                    done = True
                except PoolExhausted:
                    done = False
            else:
                done = w.run(ctx, ectx.tracker, ectx.pool, ectx.b, opts)
            out.append(
                RoundOutcome(
                    ctx.meter.cycles,
                    done,
                    ctx.meter.counters,
                    scratch_high_water=ctx.scratchpad.high_water,
                    sort_log=tuple(ctx.meter.sort_log or ()),
                )
            )
        return RoundOutcomes.of(out)

    def copy_output(
        self, ectx: EngineContext, row_ptr: np.ndarray, counter_sink
    ):
        self.count("copy_launches")
        return copy_chunks(
            ectx.pool, ectx.tracker, row_ptr, ectx.b, ectx.options, counter_sink
        )
