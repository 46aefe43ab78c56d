"""Stage 2 — adaptive chunk-based ESC (§3.2).

Each thread block processes an equally sized slice of A's non-zeros and
runs *multiple* local iterations of expand-sort-compact, carrying the
(incomplete) last row between iterations, until its work distribution is
drained.  Complete row runs are written to chunks; scratchpad capacity
is never exceeded; chunk-pool exhaustion produces a restartable state
instead of failure.

Everything in this module is deterministic: expansion order is the
consumption order of the work distribution, the radix sort is stable,
and compaction folds equal-key runs left to right — so repeated
executions yield bit-identical floating point results (§3.2: "a stable
sort algorithm always yields identical floating point results").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.block import BlockContext
from ..gpu.primitives import block_reduce_minmax
from ..gpu.radix import bits_required, radix_sort_permutation
from ..resilience.sanitize import check_scratchpad_clean
from ..sparse.csr import CSRMatrix
from .chunks import Chunk, ChunkPool, PoolExhausted, RowChunkTracker
from .compaction import compact_sorted
from .load_balance import GlobalLoadBalance
from .long_rows import long_row_mask
from .options import AcSpgemmOptions
from .work_distribution import LocalWorkDistribution

__all__ = ["EscBlock", "EscBlockOutcome"]


@dataclass(frozen=True)
class EscBlockOutcome:
    """Result of one execution attempt of an ESC block."""

    done: bool  # False => pool exhausted, restart required
    cycles: float
    chunks_written: int


@dataclass
class EscBlock:
    """Restartable state of one stage-2 thread block.

    The persistent fields (``committed``, ``n_long_emitted``,
    ``chunk_seq``) are the block's restart information in global memory
    (§3.2.4); everything else is re-derived on each launch.
    """

    block_id: int
    a: CSRMatrix
    b: CSRMatrix
    glb: GlobalLoadBalance
    options: AcSpgemmOptions
    committed: int = 0
    n_long_emitted: int = 0
    chunk_seq: int = 0
    done: bool = False
    attempts: int = 0
    total_cycles: float = field(default=0.0)
    #: expand-sort-compact iterations actually executed (Fig. 9's
    #: "ESC iterations" distribution); restart rollback rewinds this
    #: together with ``committed`` so faulted runs count like the
    #: reference execution
    esc_iterations: int = 0

    # ------------------------------------------------------------------

    def _entry_range(self) -> tuple[int, int]:
        lo = self.block_id * self.glb.nnz_per_block
        hi = min(self.a.nnz, lo + self.glb.nnz_per_block)
        return lo, hi

    def _next_chunk_key(self) -> tuple[int, int]:
        key = (self.block_id, self.chunk_seq)
        self.chunk_seq += 1
        return key

    # ------------------------------------------------------------------

    def run(
        self,
        ctx: BlockContext,
        pool: ChunkPool,
        tracker: RowChunkTracker,
    ) -> EscBlockOutcome:
        """Execute (or resume) the block; returns its outcome.

        On :class:`PoolExhausted` the block's restart info remains valid
        and ``run`` can be called again after the pool has grown.
        """
        self.attempts += 1
        opts = self.options
        cfg = opts.device
        meter = ctx.meter
        a, b = self.a, self.b
        lo, hi = self._entry_range()
        n_entries = hi - lo
        chunks_written = 0
        # shared-row atomics are settled once at every exit (see
        # RowChunkTracker.insert_chunk): one n*atomic_cycles addition, the
        # same float operation the batched engine's replay applies
        shared0 = len(tracker.shared_rows)

        # ---- Fetch A (§3.2.1) -----------------------------------------
        a_cols = a.col_idx[lo:hi]
        a_vals = a.values[lo:hi].astype(opts.value_dtype, copy=False)
        a_rows = self.glb.row_of_nnz[lo:hi]
        meter.global_read(n_entries, opts.col_index_bytes + opts.value_dtype.itemsize)
        meter.global_read(n_entries, 4)  # row ids via blockRowStarts walk
        ctx.scratchpad.alloc_array("A_cols", n_entries, 4)
        ctx.scratchpad.alloc_array("A_vals", n_entries, opts.value_dtype.itemsize)
        ctx.scratchpad.alloc_array("A_rows", n_entries, 4)

        # local row dictionary: row id -> index of the row's first
        # non-zero inside the block (bounds row bits by NNZ_PER_BLOCK).
        unique_rows, local_row = np.unique(a_rows, return_inverse=True)
        meter.alu(2 * n_entries)

        # referenced B row lengths (inspected "now", when B must be read
        # anyway, instead of in a costly global pre-pass — §3.2.2)
        b_start = b.row_ptr[a_cols]
        b_len = b.row_ptr[a_cols + 1] - b_start
        meter.global_read(n_entries, 8, coalesced=False)

        # ---- Write Long Rows (§3.4) -------------------------------------
        counts = b_len.copy()
        if opts.enable_long_row_handling:
            long_mask = long_row_mask(b_len, opts)
            counts[long_mask] = 0
            long_entries = np.nonzero(long_mask)[0]
            for j, e in enumerate(long_entries.tolist()):
                if j < self.n_long_emitted:
                    continue  # already emitted before a restart
                chunk = Chunk(
                    order_key=self._next_chunk_key(),
                    kind="pointer",
                    first_row=int(unique_rows[local_row[e]]),
                    last_row=int(unique_rows[local_row[e]]),
                    b_row=int(a_cols[e]),
                    factor=float(a_vals[e]),
                    b_length=int(b_len[e]),
                )
                try:
                    pool.allocate(chunk, pool.data_bytes(0, 0), meter)
                except PoolExhausted:
                    self.chunk_seq -= 1
                    self._cleanup(ctx)
                    if opts.sanitize:
                        check_scratchpad_clean(
                            ctx.scratchpad, stage="ESC", block_id=self.block_id
                        )
                    meter.atomic(len(tracker.shared_rows) - shared0)
                    self.total_cycles += meter.cycles
                    return EscBlockOutcome(False, meter.cycles, chunks_written)
                meter.global_write(1, pool.data_bytes(0, 0))
                tracker.insert_chunk(chunk, b, meter)
                self.n_long_emitted += 1
                chunks_written += 1

        # ---- Work distribution ----------------------------------------
        wd = LocalWorkDistribution(ctx, n_entries)
        wd.place_work_with_origin(counts)
        if self.committed:
            wd.restart_from(self.committed)

        elem_bytes = opts.element_bytes
        dtype = opts.value_dtype
        carried_rows = np.zeros(0, dtype=np.int64)  # block-local row ids
        carried_cols = np.zeros(0, dtype=np.int64)
        carried_vals = np.zeros(0, dtype=dtype)

        # ESC scratchpad layout: keys + values for a full iteration.  Key
        # width is 32 or 64 bit depending on the worst-case bit demand
        # (§3.2.3: 9 row bits + up to 23 column bits fit 32 bits).
        worst_bits = bits_required(max(0, n_entries - 1)) + bits_required(
            max(0, b.cols - 1)
        )
        key_bytes = 4 if worst_bits <= 32 else 8
        ctx.scratchpad.alloc_array("ESC_keys", cfg.elements_per_block, key_bytes)
        ctx.scratchpad.alloc_array("ESC_vals", cfg.elements_per_block, dtype.itemsize)

        # row index of the first entry of each local row (for the
        # restart commit point of a carried row)
        first_entry_of_row = np.searchsorted(local_row, np.arange(unique_rows.shape[0]))

        while True:
            capacity = cfg.elements_per_block - carried_rows.shape[0]
            a_res, b_res, taken = wd.receive_work(capacity)

            if taken == 0 and carried_rows.shape[0] == 0:
                break  # drained and nothing held locally
            self.esc_iterations += 1

            # ---- Expansion (§3.2.3) ------------------------------------
            if taken:
                b_elem = b_start[a_res] + b_res
                new_cols = b.col_idx[b_elem]
                new_vals = (a_vals[a_res] * b.values[b_elem]).astype(
                    dtype, copy=False
                )
                new_rows = local_row[a_res]
                meter.global_read(taken, elem_bytes)
                meter.flops(2 * taken)
            else:
                new_cols = np.zeros(0, dtype=np.int64)
                new_vals = np.zeros(0, dtype=dtype)
                new_rows = np.zeros(0, dtype=np.int64)

            # carried results first: stable sort keeps their accumulated
            # value ahead of the new products (deterministic order)
            rows_l = np.concatenate([carried_rows, new_rows])
            cols_l = np.concatenate([carried_cols, new_cols])
            vals_l = np.concatenate([carried_vals, new_vals])
            n_batch = rows_l.shape[0]

            # ---- Sort with dynamic bit reduction (§3.2.3) ----------------
            if opts.enable_bit_reduction:
                col_min, col_max = block_reduce_minmax(meter, cols_l)
                row_min, row_max = block_reduce_minmax(meter, rows_l)
            else:
                col_min, col_max = 0, b.cols - 1
                row_min, row_max = 0, max(0, n_entries - 1)
            col_bits = bits_required(col_max - col_min)
            row_bits = bits_required(row_max - row_min)
            keys = (
                ((rows_l - row_min).astype(np.uint64) << np.uint64(col_bits))
                | (cols_l - col_min).astype(np.uint64)
            )
            perm = radix_sort_permutation(meter, keys, row_bits + col_bits)
            keys_s = keys[perm]
            vals_s = vals_l[perm]

            # ---- Compaction (Algorithm 3) -------------------------------
            comp = compact_sorted(meter, keys_s, vals_s, col_bits)
            comp_rows = comp.rows + row_min  # block-local row ids
            comp_cols = (
                comp.keys & np.uint64((1 << col_bits) - 1)
            ).astype(np.int64) + col_min

            # ---- Keep-last-row decision (§3.2.3) -------------------------
            wd_empty = wd.size() == 0
            keep_n = 0
            if not wd_empty and opts.enable_keep_last_row and comp.n:
                last_row_local = int(comp_rows[-1])
                keep_n = int(
                    comp.n - np.searchsorted(comp_rows, last_row_local, "left")
                )
                if keep_n > cfg.keep_elements:
                    keep_n = 0  # too large to hold locally: spill everything
            write_n = comp.n - keep_n

            if write_n:
                commit_point = (
                    wd.committed_before_entry(
                        int(first_entry_of_row[int(comp_rows[-1])])
                    )
                    if keep_n
                    else wd.consumed_total
                )
                chunk_rows_global = unique_rows[comp_rows[:write_n]]
                chunk = Chunk(
                    order_key=self._next_chunk_key(),
                    kind="data",
                    first_row=int(chunk_rows_global[0]),
                    last_row=int(chunk_rows_global[-1]),
                    rows=chunk_rows_global,
                    cols=comp_cols[:write_n].copy(),
                    vals=comp.values[:write_n].copy(),
                )
                nbytes = pool.data_bytes(write_n, dtype.itemsize, opts.col_index_bytes)
                try:
                    pool.allocate(chunk, nbytes, meter)
                except PoolExhausted:
                    # restart info: everything up to the last successful
                    # write stays committed; this batch is re-expanded.
                    self.chunk_seq -= 1
                    self._cleanup(ctx, wd)
                    if opts.sanitize:
                        check_scratchpad_clean(
                            ctx.scratchpad, stage="ESC", block_id=self.block_id
                        )
                    meter.atomic(len(tracker.shared_rows) - shared0)
                    self.total_cycles += meter.cycles
                    return EscBlockOutcome(False, meter.cycles, chunks_written)
                # compacting round trip through scratchpad, then a
                # coalesced global write (§3.2.4)
                meter.scratchpad(2 * write_n)
                meter.global_write(write_n, elem_bytes)
                meter.global_write(1, 32)  # header
                tracker.insert_chunk(chunk, b, meter)
                chunks_written += 1
                self.committed = commit_point
            elif wd_empty and comp.n == 0:
                break

            if keep_n:
                carried_rows = comp_rows[write_n:]
                carried_cols = comp_cols[write_n:]
                carried_vals = comp.values[write_n:]
            else:
                carried_rows = carried_rows[:0]
                carried_cols = carried_cols[:0]
                carried_vals = carried_vals[:0]

            if wd_empty and carried_rows.shape[0] == 0:
                break

        self.committed = wd.consumed_total
        self.done = True
        self._cleanup(ctx, wd)
        if opts.sanitize:
            check_scratchpad_clean(
                ctx.scratchpad, stage="ESC", block_id=self.block_id
            )
        meter.atomic(len(tracker.shared_rows) - shared0)
        self.total_cycles += meter.cycles
        return EscBlockOutcome(True, meter.cycles, chunks_written)

    def _cleanup(
        self, ctx: BlockContext, wd: LocalWorkDistribution | None = None
    ) -> None:
        if wd is not None:
            wd.release()
        for name in ("A_cols", "A_vals", "A_rows", "ESC_keys", "ESC_vals"):
            if name in ctx.scratchpad.allocations:
                ctx.scratchpad.free(name)
