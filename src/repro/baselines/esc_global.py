"""CUSP-style global ESC baseline [5, 8] (§2).

"In its original form all intermediate products go through slow global
GPU memory": the expansion writes every temporary product to a global
buffer, a device-wide radix sort orders them by (row, column), and a
compaction pass produces C.  Load balancing is excellent (every thread
handles the same number of products) but the memory traffic is
proportional to ``sort passes x temporary products`` — the cost AC-ESC's
local iterations avoid.

Bit-stable: the device-wide sort is stable, fixing the accumulation
order.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["EscGlobal"]


class EscGlobal(SpGEMMAlgorithm):
    """Expand to global memory, sort device-wide, compress."""

    name = "cusp-esc"
    bit_stable = True
    #: device-wide radix digests more bits per pass than the block-level
    #: sort, but every pass streams all pairs through global memory twice.
    device_radix_bits = 6

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        temp = int(plan.per_row.sum())
        pair_bytes = 8 + dtype.itemsize  # packed 64-bit key + value
        launches = 0

        def stage(name: str, mark: float) -> float:
            done = self._device_parallel(meter, meter.cycles - mark)
            stage_cycles[name] = done
            return meter.cycles

        # expansion kernel: stream A, gather B, write all pairs out
        mark = meter.cycles
        meter.global_read(a.nnz, 12)
        meter.global_read(temp, 4 + dtype.itemsize)
        meter.global_write(temp, pair_bytes)
        meter.flops(2 * temp)
        launches += 1
        mark = stage("expand", mark)

        # device-wide stable radix sort of packed 64-bit (row, col) keys;
        # without AC's dynamic bit reduction the full key width is sorted
        if temp:
            key_bits = 64
            passes = -(-key_bits // self.device_radix_bits)
            meter.global_read(passes * temp, pair_bytes)
            meter.global_write(passes * temp, pair_bytes)
            meter.alu(4 * passes * temp)
            meter.counters.sorted_elements += temp
            meter.counters.sort_passes += passes
            launches += passes
        mark = stage("sort", mark)

        # compaction: one streaming pass with a device-wide scan
        meter.global_read(temp, pair_bytes)
        meter.scan(temp)
        c = plan.product(dtype)
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += 1
        stage("compress", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        extra_mem = 2 * temp * pair_bytes  # double-buffered sort storage
        return c, extra_mem
