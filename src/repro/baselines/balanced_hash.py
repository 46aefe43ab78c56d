"""BalancedHash baseline [3] (§2): local-only hashing with size estimates.

Anh et al.'s approach "restricts itself to local hash tables and avoids
overflows using 'better size estimates' [2]" (Amossen/Campagna/Pagh
sketch-based nnz estimation).  The pipeline:

1. a sketch pass estimates nnz(C) per row bin (cheaper than nsparse's
   exact symbolic count but still a full read of A and B's lengths);
2. all rows run through *scratchpad* hash tables sized by the estimate;
   rows the estimate got wrong overflow and are retried with doubled
   tables (modelled as a re-run of the affected products);
3. a numeric pass accumulates and emits sorted rows.

Local-only tables avoid nsparse's global-memory fallback but pay a
retry penalty wherever the estimate undershoots.  Hash insertion order
is scheduler-dependent — not bit-stable.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["BalancedHash"]


class BalancedHash(SpGEMMAlgorithm):
    """Estimate-driven local hashing (non-deterministic order)."""

    name = "balanced-hash"
    bit_stable = False
    max_table_entries = 8192
    min_table_entries = 256
    collision_factor = 0.25
    #: fraction of rows whose sketch estimate undershoots and retries
    retry_fraction = 0.08

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        per_row = plan.per_row
        temp = int(per_row.sum())
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        # ---- sketch-based size estimation ---------------------------------
        mark = meter.cycles
        meter.global_read(a.nnz, 4)
        meter.global_read(a.nnz, 8, coalesced=False)  # B row lengths
        meter.alu(8 * a.nnz)  # sketch updates
        meter.global_write(a.rows, 4)
        launches += 2
        mark = stage("estimate", mark)

        # ---- hashed expansion, local tables only ---------------------------
        c = plan.product(dtype, None if seed is None else seed + 3)
        nnz_rows = c.row_lengths()[: a.rows]
        table_init = int(
            np.minimum(
                np.maximum(self.min_table_entries, 2 * nnz_rows[per_row > 0]),
                self.max_table_entries,
            ).sum()
        )
        for phase in ("symbolic", "numeric"):
            meter.scratchpad(table_init)
            meter.global_read(
                temp, 4 + (dtype.itemsize if phase == "numeric" else 0)
            )
            meter.hash_probe(temp, in_scratchpad=True)
            meter.hash_collision(int(self.collision_factor * temp))
            # estimate misses: affected rows re-run with doubled tables
            retry = int(self.retry_fraction * temp)
            meter.hash_probe(retry, in_scratchpad=True)
            meter.scratchpad(int(self.retry_fraction * table_init) * 2)
            launches += 4
            if phase == "numeric":
                meter.flops(2 * temp)
            mark = stage(phase, mark)

        meter.radix_sort(c.nnz, 16)
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += 1
        stage("output", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        extra_mem = 8 * a.rows  # estimates only; tables live in scratchpad
        return c, extra_mem
