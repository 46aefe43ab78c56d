"""nsparse baseline [22] (§2): row-grouped scratchpad hashing.

Nagasaka et al.'s pipeline, the strongest competitor in the paper
(fastest on denser matrices, Table 1):

1. *Setup / load balancing*: count the temporary products of every row
   (a full inspection pass over A and B's row lengths) and group rows
   into bins by that count — "this entails a complete matrix inspection
   (which can consume up to 30% runtime; cf. [22] fig. 6)".
2. *Symbolic phase*: per row bin, expand the products and insert column
   ids into a scratchpad hash table sized for the bin to count nnz(C).
   Rows exceeding the largest table use a global-memory hash.
3. *Numeric phase*: re-expand (B is gathered a second time) and
   accumulate values through the same tables, then emit sorted rows.

Accumulation order is the hash-insertion order, which depends on the
hardware scheduler — not bit-stable (†).
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from .base import SpGEMMAlgorithm

__all__ = ["NsparseHash"]


class NsparseHash(SpGEMMAlgorithm):
    """Two-phase binned scratchpad hashing (non-deterministic order)."""

    name = "nsparse"
    bit_stable = False
    #: largest scratchpad hash table (distinct column slots); rows whose
    #: output exceeds it fall back to a global-memory table.
    max_table_entries = 8192
    min_table_entries = 256
    #: expected extra probes per insert at the design load factor.
    collision_factor = 0.20
    #: bin setup + symbolic bins + numeric bins kernel launches.
    n_bins = 6

    def _execute(self, a, b, plan, dtype, meter: CostMeter, stage_cycles, seed):
        per_row = plan.per_row
        temp = int(per_row.sum())
        launches = 0

        def stage(name: str, mark: float) -> float:
            stage_cycles[name] = self._device_parallel(meter, meter.cycles - mark)
            return meter.cycles

        # ---- setup: full inspection + binning + prefix sums ------------
        mark = meter.cycles
        meter.global_read(a.nnz, 4)  # column ids of A
        meter.global_read(a.nnz, 8, coalesced=False)  # B row-pointer pairs
        meter.global_write(a.rows, 4)  # per-row product counts
        meter.global_read(a.rows, 4)  # binning pass
        meter.alu(4 * a.rows)
        meter.scan(a.rows)
        launches += 3  # count, bin, scan
        mark = stage("setup", mark)

        # ---- symbolic: hash-count distinct columns per row ---------------
        c = plan.product(dtype, seed)
        # rows whose distinct-column count exceeds the largest
        # scratchpad table are processed through the global hash
        in_scratch = c.row_lengths()[: a.rows] <= self.max_table_entries
        temp_local = int(per_row[in_scratch].sum())
        temp_global = temp - temp_local
        # per-row hash tables are sized to the bin; the smallest bin
        # still allocates (and clears) a 256-slot table, so very short
        # rows pay a fixed initialisation sweep — one of the per-row
        # overheads that hurts hashing on highly sparse matrices
        nnz_rows = c.row_lengths()[: a.rows]
        table_init = int(
            np.minimum(
                np.maximum(self.min_table_entries, 2 * nnz_rows[per_row > 0]),
                self.max_table_entries,
            ).sum()
        )
        meter.scratchpad(table_init)
        meter.global_read(temp, 4)  # gather B column ids
        meter.hash_probe(temp_local, in_scratchpad=True)
        meter.hash_probe(temp_global, in_scratchpad=False)
        meter.hash_collision(int(self.collision_factor * temp_local))
        meter.global_write(a.rows, 4)  # nnz(C) per row
        launches += self.n_bins
        mark = stage("symbolic", mark)

        # ---- numeric: re-expand, accumulate, emit sorted rows ------------
        meter.scratchpad(table_init)  # tables are rebuilt for the pass
        meter.global_read(temp, 4 + dtype.itemsize)  # gather B again
        meter.flops(2 * temp)
        meter.hash_probe(temp_local, in_scratchpad=True)
        meter.hash_probe(temp_global, in_scratchpad=False)
        meter.hash_collision(int(self.collision_factor * temp_local))
        # per-row sort of the hash-table contents before writing C
        meter.radix_sort(c.nnz, 16)
        meter.global_write(c.nnz, 4 + dtype.itemsize)
        launches += self.n_bins
        stage("numeric", mark)

        meter.cycles = (
            sum(stage_cycles.values())
            + launches * self.costs.kernel_launch_cycles
        )
        meter.counters.kernel_launches += launches
        # "nsparse requires hardly any additional memory" (§4.3)
        extra_mem = 8 * a.rows + temp_global * 8
        return c, extra_mem
