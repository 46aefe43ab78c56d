"""Stage 3 — chunk merging: assignment and Multi Merge (§3.3).

Rows whose data is spread over multiple chunks (typically two, when
global load balancing split the row across blocks) are re-compacted
here.  Three block-level algorithms exist:

* **Multi Merge** (this module): several small shared rows packed into
  one block via a prefix scan over their remaining-product counts.
* **Path Merge** (:mod:`repro.core.merge_path`): one row, a bounded
  number of chunks, per-chunk entry sampling.
* **Search Merge** (:mod:`repro.core.merge_search`): one row, arbitrary
  chunk count, binary-search sampling over the column range.

Merging re-runs the ESC machinery on the gathered elements; chunk order
(the global order key) fixes the accumulation order, so results remain
bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.block import BlockContext
from ..gpu.cost import CostMeter
from ..gpu.primitives import block_reduce_minmax
from ..gpu.radix import bits_required, radix_sort_permutation
from ..sparse.csr import CSRMatrix
from .chunks import Chunk, ChunkPool, RowChunkTracker
from .compaction import compact_sorted
from .options import AcSpgemmOptions

__all__ = [
    "MergeAssignment",
    "assign_merges",
    "RowSegments",
    "gather_row_segments",
    "esc_merge_batch",
    "MultiMergeBlock",
    "MERGE_BLOCK_SEQ_BASE",
]

#: Merge-produced chunks get block ids above any ESC block id so their
#: order keys never collide; ESC block counts are bounded by nnz(A).
MERGE_BLOCK_SEQ_BASE = 1 << 40


@dataclass(frozen=True)
class MergeAssignment:
    """Which merge algorithm handles which shared rows.

    Produced by one device-wide scan over the shared-rows array using
    the per-row remaining-product counts accumulated during AC-ESC
    ("Merge Assignment", the MCC slice of Figure 7).
    """

    multi_groups: tuple[tuple[int, ...], ...]
    path_rows: tuple[int, ...]
    search_rows: tuple[int, ...]

    @property
    def n_shared_rows(self) -> int:
        """Shared rows across all merge kinds."""
        return (
            sum(len(g) for g in self.multi_groups)
            + len(self.path_rows)
            + len(self.search_rows)
        )


def assign_merges(
    tracker: RowChunkTracker,
    options: AcSpgemmOptions,
    meter: CostMeter,
) -> MergeAssignment:
    """Classify shared rows and pack Multi Merge groups.

    A shared row goes to Multi Merge when its chunk count is at most
    ``multi_merge_max_chunks`` *and* its remaining products fit one
    block; consecutive such rows are packed greedily while their sum
    fits ("combine row range identifiers if the sum of their respective
    elements does not overflow the number of elements we can handle in
    one block", §3.3).  Larger chunk counts go to Path Merge up to
    ``path_merge_max_chunks`` and to Search Merge beyond.
    """
    capacity = options.device.elements_per_block
    shared = tracker.sorted_shared_rows()
    meter.scan(shared.shape[0])
    meter.global_read(shared.shape[0], 8)

    multi_groups: list[tuple[int, ...]] = []
    path_rows: list[int] = []
    search_rows: list[int] = []

    group: list[int] = []
    group_sum = 0
    for row, n_chunks, remaining in zip(
        shared.tolist(),
        tracker.n_links[shared].tolist(),
        tracker.row_counts[shared].tolist(),
    ):
        if n_chunks <= options.multi_merge_max_chunks and remaining <= capacity:
            if group and group_sum + remaining > capacity:
                multi_groups.append(tuple(group))
                group, group_sum = [], 0
            group.append(row)
            group_sum += remaining
        elif n_chunks <= options.path_merge_max_chunks:
            path_rows.append(row)
        else:
            search_rows.append(row)
    if group:
        multi_groups.append(tuple(group))

    return MergeAssignment(
        multi_groups=tuple(multi_groups),
        path_rows=tuple(path_rows),
        search_rows=tuple(search_rows),
    )


@dataclass
class RowSegments:
    """The per-chunk column/value runs of one shared row, in the
    deterministic global chunk order."""

    row: int
    cols: list[np.ndarray] = field(default_factory=list)
    vals: list[np.ndarray] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Elements across all of the row's segments."""
        return sum(c.shape[0] for c in self.cols)


def gather_row_segments(
    row: int,
    tracker: RowChunkTracker,
    b: CSRMatrix,
    options: AcSpgemmOptions,
    meter: CostMeter,
    *,
    materialize_cost: bool = True,
) -> RowSegments:
    """Collect the row's segments from its chunks (ordered, lazily
    charging the global reads)."""
    segs = RowSegments(row=row)
    for chunk in tracker.chunks_for(row):
        sl = chunk.row_segment(row)
        cols = chunk.columns(b)[sl]
        vals = chunk.values(b)[sl]
        segs.cols.append(np.asarray(cols, dtype=np.int64))
        segs.vals.append(np.asarray(vals, dtype=options.value_dtype))
        if materialize_cost:
            meter.global_read(cols.shape[0], options.element_bytes)
    return segs


def esc_merge_batch(
    ctx: BlockContext,
    rows_rel: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    options: AcSpgemmOptions,
    n_rows: int,
):
    """Sort + compact one merge batch (the "remaining steps of our
    AC-ESC", §3.3).  ``rows_rel`` are block-local row indices."""
    meter = ctx.meter
    if options.enable_bit_reduction and cols.shape[0]:
        col_min, col_max = block_reduce_minmax(meter, cols)
    else:
        col_min, col_max = 0, int(cols.max(initial=0))
    col_bits = bits_required(max(0, col_max - col_min))
    row_bits = bits_required(max(0, n_rows - 1))
    keys = (
        rows_rel.astype(np.uint64) << np.uint64(col_bits)
    ) | (cols - col_min).astype(np.uint64)
    perm = radix_sort_permutation(meter, keys, row_bits + col_bits)
    comp = compact_sorted(meter, keys[perm], vals[perm], col_bits)
    comp_cols = (comp.keys & np.uint64((1 << col_bits) - 1)).astype(np.int64) + col_min
    # the merge's additions re-combine already-counted products, so they
    # are charged as ALU work without inflating the FLOP counter
    meter.alu(cols.shape[0] - comp.n)
    return comp, comp_cols


@dataclass
class MultiMergeBlock:
    """One Multi Merge thread block handling a packed group of rows."""

    block_index: int
    rows: tuple[int, ...]

    def run(
        self,
        ctx: BlockContext,
        tracker: RowChunkTracker,
        pool: ChunkPool,
        b: CSRMatrix,
        options: AcSpgemmOptions,
    ) -> Chunk:
        """Gather, ESC and write one chunk covering all packed rows.

        Raises :class:`~repro.core.chunks.PoolExhausted` on allocation
        failure; a Multi Merge restart "simply starts from scratch"
        (§3.3) — re-calling :meth:`run` is exactly that.
        """
        meter = ctx.meter
        rows_rel_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for rel, row in enumerate(self.rows):
            segs = gather_row_segments(row, tracker, b, options, meter)
            for c, v in zip(segs.cols, segs.vals):
                rows_rel_parts.append(np.full(c.shape[0], rel, dtype=np.int64))
                cols_parts.append(c)
                vals_parts.append(v)
        rows_rel = np.concatenate(rows_rel_parts)
        cols = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
        if cols.shape[0] > options.device.elements_per_block:
            raise AssertionError(
                "Multi Merge group exceeds block capacity — assignment bug"
            )

        comp, comp_cols = esc_merge_batch(
            ctx, rows_rel, cols, vals, options, len(self.rows)
        )
        rows_global = np.asarray(self.rows, dtype=np.int64)[comp.rows]

        chunk = Chunk(
            order_key=(MERGE_BLOCK_SEQ_BASE + self.block_index, 0),
            kind="data",
            first_row=int(rows_global[0]),
            last_row=int(rows_global[-1]),
            rows=rows_global,
            cols=comp_cols,
            vals=comp.values,
        )
        nbytes = pool.data_bytes(
            comp.n, options.value_dtype.itemsize, options.col_index_bytes
        )
        pool.allocate(chunk, nbytes, meter)
        meter.scratchpad(2 * comp.n)
        meter.global_write(comp.n, options.element_bytes)
        meter.global_write(1, 32)

        # set exact counts and swap the rows over to the merged chunk
        counts = np.bincount(comp.rows, minlength=len(self.rows))
        for rel, row in enumerate(self.rows):
            tracker.replace_row(row, [chunk], int(counts[rel]))
            meter.atomic(1)
        return chunk
