"""cuSPARSE-style baseline [12, 23] (§2): dual hash tables.

Demouth's design, used inside cuSPARSE's ``csrgemm``: a primary hash
table in scratchpad and a secondary one in global memory.  Compared with
nsparse it lacks size-adapted binning — the scratchpad table has a fixed
(small) size, so overflow into the slow global table happens much
earlier; the generic (non-specialised) kernel path also costs more
instructions per probe, and both the symbolic (``csrgemmNnz``) and
numeric phases pay the full expansion traffic.

Accumulation order is hash/scheduler dependent — not bit-stable (†).
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["CusparseLike"]


class CusparseLike(SpGEMMAlgorithm):
    """Fixed-size scratchpad hash with global overflow table."""

    name = "cusparse"
    bit_stable = False
    #: fixed primary table (distinct column slots) — no per-bin sizing.
    primary_table_entries = 2048
    collision_factor = 0.5  # fixed table size => high load factors
    generic_alu_per_probe = 12  # un-specialised kernel path

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        per_row = plan.per_row
        temp = int(per_row.sum())
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        c = plan.product(dtype, None if seed is None else seed + 1)
        in_scratch = c.row_lengths()[: a.rows] <= self.primary_table_entries
        temp_local = int(per_row[in_scratch].sum())
        temp_global = temp - temp_local

        def hash_phase() -> None:
            # the fixed-size primary table is cleared for every row
            meter.scratchpad(int(np.count_nonzero(per_row)) * self.primary_table_entries)
            meter.hash_probe(temp_local, in_scratchpad=True)
            meter.hash_probe(temp_global, in_scratchpad=False)
            meter.hash_collision(int(self.collision_factor * temp_local))
            meter.alu(self.generic_alu_per_probe * temp)

        # ---- symbolic (csrgemmNnz): count output nnz ---------------------
        # the generic gather path does not exploit row-contiguity in B,
        # so B accesses are scattered (uncoalesced)
        mark = meter.cycles
        meter.global_read(a.nnz, 12)
        meter.global_read(temp, 4, coalesced=False)
        hash_phase()
        meter.global_write(a.rows, 4)
        launches += 6  # estimate, bin, scan + per-size kernels
        mark = stage("symbolic", mark)

        # ---- numeric (csrgemm): accumulate values (the value gather
        # walks B rows sequentially, so it coalesces) ----------------------
        meter.global_read(temp, 4 + dtype.itemsize)
        meter.flops(2 * temp)
        hash_phase()
        meter.radix_sort(c.nnz, 24)  # emit sorted rows, no bit reduction
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += 6
        stage("numeric", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        extra_mem = 8 * a.rows + temp_global * 12  # global overflow tables
        return c, extra_mem
