"""Stage 4 — output matrix assembly and chunk copy (§3.5).

"Once all chunks have been finalized, generating the final result is
straightforward: A device-wide prefix sum over the row counts yields the
row pointer array and C's memory requirement for allocation of the
values and column id arrays.  Then, in parallel, we iterate over all
chunks and copy their data to the newly allocated C.  Each chunk uses a
complete block of threads to copy data in a coalesced fashion."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.cost import CostMeter
from ..sparse.csr import CSRMatrix
from .chunks import Chunk, ChunkPool, RowChunkTracker
from .options import AcSpgemmOptions

__all__ = ["ChunkCopyPlan", "build_row_pointer", "copy_chunks"]


@dataclass(frozen=True)
class ChunkCopyPlan:
    """Chunks to copy and which of their rows each still owns."""

    chunks: tuple[Chunk, ...]


def build_row_pointer(
    tracker: RowChunkTracker, meter: CostMeter
) -> np.ndarray:
    """Device-wide exclusive prefix sum over the (now exact) row counts."""
    n = tracker.n_rows
    meter.scan(n)
    meter.global_read(n, 4)
    meter.global_write(n + 1, 8)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tracker.row_counts, out=row_ptr[1:])
    return row_ptr


def copy_chunks(
    pool: ChunkPool,
    tracker: RowChunkTracker,
    row_ptr: np.ndarray,
    b: CSRMatrix,
    options: AcSpgemmOptions,
    counter_sink: CostMeter,
) -> tuple[CSRMatrix, list[float]]:
    """Copy every live chunk into the output arrays.

    A chunk's row is *live* for it iff the tracker's final per-row list
    still references this chunk (rows that went through merging are
    owned by the merge-produced chunks instead).  Returns the output
    matrix and per-chunk-copy block cycle counts for the scheduler.
    """
    n_rows = tracker.n_rows
    nnz = int(row_ptr[-1])
    col_idx = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=options.value_dtype)
    written = np.zeros(nnz, dtype=bool)

    block_cycles: list[float] = []
    elem_bytes = options.element_bytes

    for chunk in pool.ordered_chunks():
        meter = CostMeter(config=options.device, constants=options.costs)
        copied = 0
        for row in chunk.covered_rows().tolist():
            if not any(o is chunk for o in tracker.chunks_for(row)):
                continue  # row was merged into replacement chunks
            seg = chunk.row_segment(row)
            cols = chunk.columns(b)[seg]
            vals = chunk.values(b)[seg]
            base = int(row_ptr[row]) + chunk.segment_offset(row)
            dest = slice(base, base + cols.shape[0])
            if dest.stop > int(row_ptr[row + 1]):
                raise AssertionError(
                    f"chunk copy overflows row {row}: "
                    f"{dest.stop - int(row_ptr[row])} > "
                    f"{int(row_ptr[row + 1]) - int(row_ptr[row])}"
                )
            if written[dest].any():
                raise AssertionError(f"double write into row {row}")
            col_idx[dest] = cols
            values[dest] = vals
            written[dest] = True
            copied += cols.shape[0]
        if copied:
            meter.global_read(copied, elem_bytes)
            meter.global_write(copied, elem_bytes)
        counter_sink.merge(meter)
        block_cycles.append(meter.cycles)

    if not written.all():
        missing = int((~written).sum())
        raise AssertionError(f"{missing} output entries were never written")

    c = CSRMatrix(
        rows=n_rows,
        cols=b.cols,
        row_ptr=row_ptr,
        col_idx=col_idx,
        values=values,
    )
    return c, block_cycles
