"""Multi-threaded CPU baseline (Patwary et al. [24] / Intel MKL style).

bhSparse's authors report an average GPU speedup of 2.5/2.2 (single /
double precision) over an MKL CPU implementation (§2); the paper's own
CPU remark (§4) compares against "state-of-the-art CPU implementations
[14] on a consumer grade CPU of similar cost (Intel Xeon E5-2630)".

This baseline models a row-parallel SPA SpGEMM over ``n_threads`` cores
with cache-blocked accumulator accesses [24]: rows are distributed
dynamically, each core runs the two-pass Gustavson algorithm, and the
makespan is the maximum per-core work plus a parallel-section overhead.
Results are computed per row in ascending-column order — bit-stable, as
row-parallel CPU SpGEMM genuinely is.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from ..gpu.scheduler import schedule_blocks
from ..sparse.ops import spgemm_reference
from .base import SpGEMMAlgorithm

__all__ = ["MklLikeCPU"]


class MklLikeCPU(SpGEMMAlgorithm):
    """Row-parallel two-pass SPA SpGEMM on a multi-core host."""

    name = "cpu-mkl"
    bit_stable = True
    cpu_clock_ghz = 2.2  # Xeon E5-2630 v4 base clock
    n_threads = 16  # the paper's host: "Intel Xeon E5-2630 16 GB" (2x8C)
    ipc = 2.0
    parallel_overhead_cycles = 20000.0  # fork/join + dynamic scheduling
    #: bytes moved per product: the blocked accumulators of [24] give
    #: partial line reuse, so ~half a line per product on average; all
    #: threads share the aggregate L3 (in-cache) or DRAM (beyond)
    line_bytes = 32
    l3_bytes = 8 * 1024 * 1024
    l3_bytes_per_cycle = 100.0  # ~220 GB/s aggregate L3
    dram_bytes_per_cycle = 60e9 / 2.2e9

    def multiply(self, a, b, *, dtype=np.float64, scheduler_seed: int = 0, plan=None):
        """Multiply on the host clock (overrides the GPU clock)."""
        run = super().multiply(
            a, b, dtype=dtype, scheduler_seed=scheduler_seed, plan=plan
        )
        run.clock_ghz = self.cpu_clock_ghz
        return run

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        c = spgemm_reference(
            a.astype(dtype) if a.dtype != dtype else a,
            b.astype(dtype) if b.dtype != dtype else b,
        )
        per_row = plan.per_row
        # per-row work: both passes touch each product, plus SPA resets
        # bounded by the row's output nnz
        c_rows = c.row_lengths()
        row_cycles = (4.0 * per_row + 2.0 * c_rows) / self.ipc + 12.0 * (
            per_row > 0
        )
        # dynamic row scheduling over the cores (greedy, like OpenMP
        # dynamic scheduling with chunk size 1 on sorted-by-id rows)
        timing = schedule_blocks(
            row_cycles.tolist(),
            self.n_threads,
            launch_overhead=self.parallel_overhead_cycles,
        )
        temp = int(per_row.sum())
        # all threads share the cache/memory system — the usual SpGEMM
        # scaling limit on multicore hosts
        working_set = a.nbytes() + b.nbytes() + c.nbytes()
        rate = (
            self.l3_bytes_per_cycle
            if working_set <= self.l3_bytes
            else self.dram_bytes_per_cycle
        )
        moved = temp * self.line_bytes
        makespan = max(timing.makespan_cycles, moved / rate)
        meter.cycles += makespan
        meter.counters.flops += 2 * temp
        meter.counters.global_bytes_read += moved
        stage_cycles["cpu-parallel"] = makespan
        return c, 8 * self.n_threads * max(b.cols, 1) // 64  # blocked SPAs
