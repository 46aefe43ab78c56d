"""CPU baseline: Gustavson's row-wise SpGEMM with a sparse accumulator.

The paper notes (§4) that below ~1e4 non-zeros CPU implementations beat
the GPU (no launch overhead, no under-occupancy) and that from there on
the GPU takes over; this baseline regenerates that crossover
(``benchmarks/bench_cpu_crossover.py``).

The CPU cost model is deliberately simple: one multiply-add pipeline at
``cpu_clock_ghz`` with superscalar factor ``ipc``, a per-element memory
cost, and zero launch overhead.  That yields the ~1–3 GFLOPS a single
Xeon core achieves on SpGEMM — the right order of magnitude for the
crossover claim, which is the only claim this baseline supports.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spgemm_reference
from .base import SpGEMMAlgorithm

__all__ = ["GustavsonCPU"]


class GustavsonCPU(SpGEMMAlgorithm):
    """Sequential two-pass SPA SpGEMM on the host (bit-stable)."""

    name = "cpu-gustavson"
    bit_stable = True
    cpu_clock_ghz = 3.6  # the paper's host: Intel i7-7700 at 3.60 GHz
    ipc = 1.5  # sustained ops per cycle incl. SPA bookkeeping stalls
    #: each temporary product touches ~one cache line (B gather + SPA)
    line_bytes = 64
    #: random line throughput of one core: within the 8 MB L3 vs DRAM
    l3_bytes = 8 * 1024 * 1024
    l3_bytes_per_cycle = 25.0
    dram_bytes_per_cycle = 12e9 / 3.6e9

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
        b_lengths = b.row_lengths()
        temp = int(b_lengths[a.col_idx].sum()) if a.nnz else 0
        # SPA pass 1 (symbolic) + pass 2 (numeric): each touches every
        # temporary product once; the run is the slower of the compute
        # and the random-line memory bound.  Inputs that fit L3 enjoy
        # cache-speed lines; beyond that DRAM throughput governs.
        work_ops = 2 * temp  # multiply + accumulate
        spa_ops = 2 * temp  # presence checks / scatter of both passes
        compute = (work_ops + spa_ops) / self.ipc
        working_set = a.nbytes() + b.nbytes() + c.nbytes()
        rate = (
            self.l3_bytes_per_cycle
            if working_set <= self.l3_bytes
            else self.dram_bytes_per_cycle
        )
        moved = temp * self.line_bytes
        cycles = max(compute, moved / rate)
        meter.cycles += cycles
        meter.counters.flops += work_ops
        meter.counters.global_bytes_read += moved
        stage_cycles["cpu"] = cycles
        return c, 0
