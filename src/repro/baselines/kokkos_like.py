"""Kokkos baseline [13, 14] (§2): portable two-level hashing.

Deveci et al. combine hierarchical (team/thread) partitioning with a
two-level hash data structure: a first-level scratchpad table backed by
a second-level global table that is "only used temporarily and
reclaimed".  The portability layer costs extra instructions per probe
relative to the hand-tuned nsparse, and the global second level engages
sooner, but binning/inspection overheads are comparable.

Hash accumulation order is scheduler dependent — not bit-stable (†).
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["KokkosLike"]


class KokkosLike(SpGEMMAlgorithm):
    """Two-level hash with hierarchical team parallelism."""

    name = "kokkos"
    bit_stable = False
    first_level_entries = 4096
    min_table_entries = 512
    collision_factor = 0.25
    portability_alu_per_probe = 6  # abstraction-layer instruction overhead
    team_size = 128  # one team per row: idle lanes on short rows

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        per_row = plan.per_row
        temp = int(per_row.sum())
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        # ---- inspection + team partitioning ------------------------------
        mark = meter.cycles
        meter.global_read(a.nnz, 4)
        meter.global_read(a.nnz, 8, coalesced=False)
        meter.global_write(a.rows, 4)
        meter.scan(a.rows)
        launches += 2
        mark = stage("partition", mark)

        # ---- symbolic + numeric with the two-level table -----------------
        c = plan.product(dtype, None if seed is None else seed + 2)
        in_first = c.row_lengths()[: a.rows] <= self.first_level_entries
        temp_first = int(per_row[in_first].sum())
        temp_second = temp - temp_first
        # first-level tables are sized per row bin; initialising them
        # costs one scratchpad sweep of the table per processed row
        nnz_rows = c.row_lengths()[: a.rows]
        table_sizes = np.maximum(self.min_table_entries, 2 * nnz_rows[per_row > 0])
        table_init = int(np.minimum(table_sizes, self.first_level_entries).sum())
        # one team per row: short rows leave team lanes idle, which
        # cannot hide memory latency — charge the gather per team slot
        active_rows = int(np.count_nonzero(per_row))
        idle_slots = max(0, active_rows * self.team_size - temp)
        for phase in ("symbolic", "numeric"):
            phase_bytes = 4 + (dtype.itemsize if phase == "numeric" else 0)
            meter.global_read(temp, phase_bytes)
            # idle team slots stall on the same latency without moving
            # useful data — charged as wasted sectors
            meter.global_read(idle_slots, phase_bytes, coalesced=False)
            meter.scratchpad(table_init)
            meter.hash_probe(temp_first, in_scratchpad=True)
            meter.hash_probe(temp_second, in_scratchpad=False)
            meter.hash_collision(int(self.collision_factor * temp_first))
            meter.alu(self.portability_alu_per_probe * temp)
            launches += 3
            if phase == "numeric":
                meter.flops(2 * temp)
            else:
                # the portable two-level design stages compressed partial
                # results through global memory between the phases
                meter.global_write(temp, 8)
                meter.global_read(temp, 8)
            mark_next = stage(phase, mark)
            mark = mark_next

        # ---- output -------------------------------------------------------
        meter.radix_sort(c.nnz, 16)
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += 1
        stage("output", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        extra_mem = 8 * a.rows + temp_second * 12  # reclaimed global tables
        return c, extra_mem
