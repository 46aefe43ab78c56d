"""RMerge baseline [17] (§2): iterative row merging.

Gremse et al. split B into factors with bounded row length and compute
the product as a sequence of merges that always complete in efficient
(on-chip) memory, processing the factors from right to left.  Each merge
level streams the current intermediate matrix through global memory, so
the total traffic scales with ``temp x levels`` where
``levels ≈ ceil(log_W(merge ways))`` for merge width W.

Special structures with uniform short rows need a single level — the
regime where RMerge occasionally leads (the paper's ``landmark`` case).
Merging is deterministic, so RMerge is bit-stable.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["RMerge"]


class RMerge(SpGEMMAlgorithm):
    """Hierarchical W-way row merging (bit-stable)."""

    name = "rmerge"
    bit_stable = True
    merge_width = 32  # rows merged per warp-level pass

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        # ---- preprocessing: split B / build merge schedule ---------------
        mark = meter.cycles
        meter.global_read(b.nnz, 4 + dtype.itemsize)
        meter.global_write(b.nnz, 4 + dtype.itemsize)
        meter.global_read(a.rows + 1, 8)
        launches += 2
        mark = stage("split", mark)

        # ---- iterative merge levels ------------------------------------
        # ways merged per output row = length of the A row; the level
        # count is the depth of the W-ary merge tree over the longest row
        a_lengths = a.row_lengths()
        max_ways = int(a_lengths.max()) if a.rows and a.nnz else 1
        levels = max(
            1, int(np.ceil(np.log(max(2, max_ways)) / np.log(self.merge_width)))
        )
        per_row_temp = plan.per_row
        temp = int(per_row_temp.sum())
        elem = 4 + dtype.itemsize
        # The first level assigns one warp per output row: a warp merges
        # up to W rows of B, one per lane.  Rows of A shorter than W
        # leave lanes idle, so the charged work is per warp *slot*, not
        # per element — the under-utilisation that costs RMerge its lead
        # on irregular sparse matrices.
        ways = a_lengths
        active = ways > 0
        warp_groups = np.ceil(ways[active] / self.merge_width)
        lane_load = per_row_temp[active] / np.maximum(ways[active], 1)
        slots = int((warp_groups * self.merge_width * np.ceil(lane_load)).sum())
        slots = max(slots, temp)
        # idle lanes cannot hide memory latency, so the gather is charged
        # per slot: at 20% utilisation the warp spends 5x longer fetching
        meter.global_read(slots, elem, coalesced=False)
        meter.alu(8 * slots)
        meter.global_write(temp, elem)
        launches += 1
        # deeper levels stream the surviving intermediate matrices; a
        # crude geometric shrink models in-level compaction
        level_elems = max(temp * 3 // 4, 1) if temp else 0
        for _ in range(levels - 1):
            meter.global_read(level_elems, elem)
            meter.global_write(level_elems, elem)
            meter.alu(8 * level_elems)  # warp-wide merge network steps
            launches += 1
            level_elems = max(level_elems * 3 // 4, 1) if level_elems else 0
        meter.flops(2 * temp)
        mark = stage("merge", mark)

        # ---- output -----------------------------------------------------
        c = plan.product(dtype)
        meter.global_write(c.nnz, elem)
        launches += 1
        stage("output", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        # split factors + ping-pong intermediate matrices
        extra_mem = 2 * temp * elem + b.nnz * elem
        return c, extra_mem
