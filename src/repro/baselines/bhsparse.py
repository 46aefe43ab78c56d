"""bhSparse baseline [20] (§2): binned merge strategies.

Liu & Vinter's framework groups output rows by their number of
intermediate products and adaptively selects a merge algorithm per bin:

* tiny rows (<= 32 products) — a register heap per thread;
* medium rows — bitonic/merge sort in scratchpad;
* long rows — iterative merge passes through global memory.

The binning needs the same full inspection pass as every
product-counting load balancer, and each bin is a separate kernel.
Merging is order-deterministic, so bhSparse is bit-stable (no † in
Table 1).
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["BhSparse"]


class BhSparse(SpGEMMAlgorithm):
    """Per-row-bin merge selection (bit-stable)."""

    name = "bhsparse"
    bit_stable = True
    heap_limit = 32
    scratch_limit = 2048
    n_bins = 10  # the original uses 37 size classes; kernels batch ~10

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        per_row = plan.per_row
        temp = int(per_row.sum())
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        # ---- inspection + binning ------------------------------------
        mark = meter.cycles
        meter.global_read(a.nnz, 4)
        meter.global_read(a.nnz, 8, coalesced=False)
        meter.global_write(a.rows, 4)
        meter.alu(4 * a.rows)
        meter.scan(a.rows)
        launches += 3
        mark = stage("binning", mark)

        # ---- per-bin merge kernels --------------------------------------
        heap_rows = per_row <= self.heap_limit
        scratch_rows = (~heap_rows) & (per_row <= self.scratch_limit)
        global_rows = per_row > self.scratch_limit
        temp_heap = int(per_row[heap_rows].sum())
        temp_scratch = int(per_row[scratch_rows].sum())
        temp_global = int(per_row[global_rows].sum())

        meter.global_read(a.nnz, 12)
        meter.global_read(temp, 4 + dtype.itemsize)
        meter.flops(2 * temp)
        # bhSparse materialises the expanded products in per-bin global
        # buffers before merging them (the "high intermediate memory" of
        # ESC-family approaches, §1)
        elem = 4 + dtype.itemsize
        meter.global_write(temp, elem)
        meter.global_read(temp, elem)

        # register heap: ~log2(heap) ALU steps per inserted product
        meter.alu(6 * temp_heap)
        # scratchpad merge: log2(row length) passes through scratchpad
        if temp_scratch:
            avg = max(2.0, temp_scratch / max(1, int(scratch_rows.sum())))
            passes = int(np.ceil(np.log2(avg)))
            meter.scratchpad(2 * passes * temp_scratch)
            meter.alu(2 * passes * temp_scratch)
        # global merge: each pass streams the long rows through DRAM
        if temp_global:
            avg = temp_global / max(1, int(global_rows.sum()))
            passes = max(1, int(np.ceil(np.log2(avg / self.scratch_limit))))
            meter.global_read(passes * temp_global, 4 + dtype.itemsize)
            meter.global_write(passes * temp_global, 4 + dtype.itemsize)
        launches += self.n_bins
        mark = stage("merge", mark)

        # ---- output ----------------------------------------------------
        c = plan.product(dtype)
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += 1
        stage("output", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        # upper-bound intermediate buffers sized per bin
        extra_mem = temp * (4 + dtype.itemsize) + 8 * a.rows
        return c, extra_mem
