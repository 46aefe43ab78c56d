"""Batched vectorized execution of the block-level stages.

The ready blocks of one kernel launch are fused into flat numpy arrays
and stepped in lockstep, one slab of consecutive blocks at a time (at
most :data:`SLAB_ELEMENTS` uncommitted products per slab):

* **Expansion** — the per-block work-distribution ``searchsorted`` over
  the decremented count state is replaced by one global ``searchsorted``
  over the concatenated *original* prefix sums offset per block (the two
  are provably equivalent: consumption is a contiguous window of the
  original product order).
* **Sort** — the per-block stable LSD radix sorts become one sort per
  lockstep batch of unique 64-bit words ``(segment << (kb + pb)) |
  (key << pb) | position``.  No two words are equal, so the order in
  each segment is the per-block stable sort's, preserving the tie
  order that fixes floating-point accumulation.
* **Compaction** — equal-key run boundaries from one neighbour compare
  with forced segment breaks, then one ``np.add.reduceat``.  ``reduceat``
  folds each run independently of surrounding data, so per-run sums are
  bit-identical to the per-block path.

Cost fidelity: ESC and the output copy price their blocks on one
:class:`~repro.gpu.cost.BlockArrayMeter` (a row per block), adding the
reference's per-block charges in its call order, and one
:func:`~repro.gpu.memory.layout_high_water` call checks an ESC slab's
scratchpad layouts.  Multi Merge keeps a scalar
:class:`~repro.gpu.cost.CostMeter` per group: a launch holds a few
capacity-packed groups, so one meter per group costs less than array
charges.  Pool allocations run through the optimistic record / serial
replay machinery (:mod:`repro.engine.replay`) so restart behaviour,
chunk offsets and shared-row attribution are exactly the reference's.
ESC and Multi Merge hand the replay their blocks and records as arrays
(:class:`~repro.engine.replay.OptimisticBatch`), so their host time
follows products, not blocks.

Path/Search Merge are not batched: :class:`BatchedEngine` runs the
reference workers under :func:`~repro.gpu.radix.fast_stable_sort`.
Only shared rows with more chunks than Multi Merge takes, or more
products than one block holds, reach them: long output rows spread over
several blocks.  A launch holds few such workers.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy

import numpy as np

from ..core.chunks import Chunk
from ..core.long_rows import long_row_mask
from ..core.merge import MERGE_BLOCK_SEQ_BASE
from ..gpu.cost import BlockArrayMeter, CostMeter
from ..gpu.counters import counter_rows
from ..gpu.memory import layout_high_water
from ..gpu.radix import bits_required, bits_required_array, fast_stable_sort
from ..resilience.errors import SanitizerError
from ..sparse.csr import CSRMatrix
from ..sparse.ops import ragged_arange
from .base import EngineContext, RoundOutcomes
from .reference import ReferenceEngine
from .replay import OptimisticBatch, replay

__all__ = ["BatchedEngine"]


def _ragged_revrange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i] + lengths[i] - 1, starts[i] - 1, -1)``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    off = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=off[1:])
    out = np.repeat(
        np.asarray(starts, dtype=np.int64) + lengths - 1 + off, lengths
    )
    out -= np.arange(total, dtype=np.int64)
    return out


def _segmented_sort(
    keys: np.ndarray, seg_sizes: np.ndarray, key_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable per-segment sort permutation of ``keys``, and the sorted keys.

    Each element becomes the unique word ``(segment << (kb + pb)) |
    (key << pb) | position`` (``kb = key_bits``, the widest key; ``pb``
    the position bits), so one unstable ``np.sort`` yields the stable
    per-segment order.  Past 64 bits, ``np.lexsort`` over (segment,
    key) gives the same permutation.
    """
    n = keys.shape[0]
    seg = np.repeat(np.arange(seg_sizes.shape[0], dtype=np.uint64), seg_sizes)
    pb = bits_required(max(n - 1, 0))
    if bits_required(max(seg_sizes.shape[0] - 1, 0)) + key_bits + pb > 64:
        perm = np.lexsort((keys, seg))
        return perm, keys[perm]
    words = seg
    words <<= np.uint64(key_bits + pb)
    shifted = keys.astype(np.uint64)
    shifted <<= np.uint64(pb)
    words |= shifted
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    # positions stay below 2**63, so the int64 view is exact
    perm = np.bitwise_and(words, np.uint64((1 << pb) - 1), out=shifted).view(np.int64)
    words >>= np.uint64(pb)
    words &= np.uint64((1 << key_bits) - 1)
    return perm, words.astype(keys.dtype, copy=False)


def _as_int64(a: np.ndarray) -> np.ndarray:
    """``a`` as int64: a view of uint64 values (all below 2**63 here),
    a converted copy otherwise."""
    return a.view(np.int64) if a.dtype == np.uint64 else a.astype(np.int64)


def _segmented_compact(
    keys_s: np.ndarray,
    vals_s: np.ndarray,
    seg_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact equal-key runs per segment in one pass.

    Returns ``(comp_keys, comp_vals, comp_counts)`` where ``comp_counts``
    is the number of compacted entries per segment.  Runs never cross a
    segment boundary (boundaries force a run end).  Each run's sum is
    ``np.add.reduceat`` over the run alone, so it is the same bits
    however many other runs are summed with it.
    """
    n = keys_s.shape[0]
    ends = np.empty(n, dtype=bool)
    ends[-1] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=ends[:-1])
    ends[seg_off[1:] - 1] = True
    end_idx = np.flatnonzero(ends)
    comp_counts = np.diff(np.searchsorted(end_idx, seg_off))
    # every run start is the previous run's end + 1
    start_idx = np.empty_like(end_idx)
    start_idx[0] = 0
    np.add(end_idx[:-1], 1, out=start_idx[1:])
    comp_vals = np.add.reduceat(vals_s, start_idx)
    return keys_s[end_idx], comp_vals, comp_counts


# ---------------------------------------------------------------------------
# stage 2: lockstep batched AC-ESC
# ---------------------------------------------------------------------------


#: the full scratchpad layout of one ESC block (allocated at round
#: entry, held until the state retires — the batched analogue of the
#: reference's named alloc/free pairs)
_ESC_SCRATCH_LAYOUT = frozenset(
    {"A_cols", "A_vals", "A_rows", "WDState", "ESC_keys", "ESC_vals"}
)


#: elements one slab may hold: the uncommitted products an ESC slab
#: expands.  A launch runs as slabs of consecutive blocks under this
#: budget, the
#: host analogue of §3.2's bounded per-block window: the working set
#: stays fixed instead of growing with the launch, as global ESC's does.
SLAB_ELEMENTS = 1 << 17


def _slab_bounds(sizes: list[int]) -> list[tuple[int, int]]:
    """``[start, stop)`` runs of consecutive items whose sizes sum to at
    most :data:`SLAB_ELEMENTS`; an item above it forms a run of its own."""
    bounds: list[tuple[int, int]] = []
    first = held = 0
    for k, size in enumerate(sizes):
        if k > first and held + size > SLAB_ELEMENTS:
            bounds.append((first, k))
            first, held = k, 0
        held += size
    if first < len(sizes):
        bounds.append((first, len(sizes)))
    return bounds


def _entry_index(los: np.ndarray, n_ent: np.ndarray) -> slice | np.ndarray:
    """Index of A's entries ``[los[i], los[i] + n_ent[i])`` of every block,
    in order: one slice when the ranges are back to back (consecutive
    blocks, as in every first round)."""
    if n_ent.shape[0] and (los[1:] == los[:-1] + n_ent[:-1]).all():
        return slice(int(los[0]), int(los[-1] + n_ent[-1]))
    return ragged_arange(los, n_ent)


def _esc_slabs(ectx: EngineContext, pending: list) -> list[list]:
    """Split ``pending`` into runs of consecutive blocks whose
    uncommitted products stay within :data:`SLAB_ELEMENTS`."""
    a, b, opts = ectx.a, ectx.b, ectx.options
    npb = ectx.glb.nnz_per_block
    n_pending = len(pending)
    los = np.fromiter(
        (blk.block_id * npb for blk in pending), dtype=np.int64, count=n_pending
    )
    n_ent = np.minimum(a.nnz, los + npb) - los
    cols = a.col_idx[_entry_index(los, n_ent)]
    counts = b.row_ptr[cols + 1] - b.row_ptr[cols]
    if opts.enable_long_row_handling:
        counts[long_row_mask(counts, opts)] = 0  # pointer chunks, no products
    starts = np.zeros(n_pending, dtype=np.int64)
    np.cumsum(n_ent[:-1], out=starts[1:])
    rem = np.add.reduceat(counts, starts) - np.fromiter(
        (blk.committed for blk in pending), dtype=np.int64, count=n_pending
    )
    return [pending[s0:s1] for s0, s1 in _slab_bounds(rem.tolist())]


def _esc_optimistic_batch(ectx: EngineContext, pending: list) -> OptimisticBatch:
    opts = ectx.options
    cfg = opts.device
    a, b = ectx.a, ectx.b
    glb = ectx.glb
    dtype = opts.value_dtype
    elem_bytes = opts.element_bytes
    epb = cfg.elements_per_block
    n_pending = len(pending)

    # ---- fetch A across all pending blocks (§3.2.1) -------------------
    npb = glb.nnz_per_block
    los = np.fromiter(
        (blk.block_id * npb for blk in pending), dtype=np.int64, count=n_pending
    )
    n_ent = np.minimum(a.nnz, los + npb) - los
    ent_off = np.zeros(n_pending + 1, dtype=np.int64)
    np.cumsum(n_ent, out=ent_off[1:])
    total_ent = int(ent_off[-1])
    idx = _entry_index(los, n_ent)
    a_cols_cat = a.col_idx[idx]
    a_rows_cat = glb.row_of_nnz[idx]
    a_vals_cat = a.values[idx].astype(dtype, copy=False)

    # local row dictionary per block, via boundary flags on the (sorted)
    # per-block row-id runs: equals np.unique(..., return_inverse=True)
    flag = np.empty(total_ent, dtype=bool)
    flag[0] = True
    np.not_equal(a_rows_cat[1:], a_rows_cat[:-1], out=flag[1:])
    flag[ent_off[:-1]] = True
    csum = np.cumsum(flag)
    local_row_cat = csum - np.repeat(csum[ent_off[:-1]], n_ent)
    uniq_pos = np.nonzero(flag)[0]
    uniq_rows_cat = a_rows_cat[uniq_pos]
    n_uniq = local_row_cat[ent_off[1:] - 1] + 1
    uniq_off = np.zeros(n_pending + 1, dtype=np.int64)
    np.cumsum(n_uniq, out=uniq_off[1:])
    fe_local_cat = uniq_pos - np.repeat(ent_off[:-1], n_uniq)

    # referenced B row lengths and the per-block product prefix sums
    b_start_cat = b.row_ptr[a_cols_cat]
    b_len_cat = b.row_ptr[a_cols_cat + 1] - b_start_cat
    counts_cat = b_len_cat.copy()
    long_mask_cat = None
    if opts.enable_long_row_handling:
        long_mask_cat = long_row_mask(b_len_cat, opts)
        counts_cat[long_mask_cat] = 0

    # product prefix sums over the slab's entries: ``prev`` before each
    # entry, ``base`` before each block's first entry
    cs = np.cumsum(counts_cat)
    prev = cs - counts_cat
    base = prev[ent_off[:-1]]
    totals = cs[ent_off[1:] - 1] - base

    # ---- whole-round expansion: every still-uncommitted product gets
    # its (row, column, value) up front at entry granularity; the
    # lockstep iterations then slice disjoint windows out of these
    # arrays.  Only the first entry of each block's remainder can be
    # partially consumed, so per entry the window is a clip against the
    # block's resume point --------------------------------------------
    c0s = np.fromiter((blk.committed for blk in pending), np.int64, n_pending)
    rem = totals - c0s
    exp_off = np.zeros(n_pending + 1, dtype=np.int64)
    np.cumsum(rem, out=exp_off[1:])
    lo = np.maximum(prev, np.repeat(base + c0s, n_ent))
    take = np.maximum(cs - lo, 0)
    exp_rows = np.repeat(local_row_cat, take)
    # products walk each referenced B row back to front, so an entry's
    # committed prefix occupies the row's tail and the remainder is the
    # first ``take`` elements, emitted in descending offset order
    b_elem = _ragged_revrange(b_start_cat, take)
    exp_cols = b.col_idx[b_elem]
    # in place: the same mixed-precision loop and final cast as
    # ``(a * b).astype(dtype)``, one product-sized temporary fewer
    exp_vals = np.repeat(a_vals_cat, take)
    np.multiply(exp_vals, b.values[b_elem], out=exp_vals)
    del lo, take, b_elem

    # ---- setup charges, one BlockArrayMeter row per block, and the
    # six-array scratchpad layout, checked for the whole slab at once --
    itemsize = dtype.itemsize
    bm = BlockArrayMeter(cfg, n_pending, opts.costs)
    bm.global_read(n_ent, opts.col_index_bytes + itemsize)
    bm.global_read(n_ent, 4)
    bm.alu(2 * n_ent)  # local row dictionary
    bm.global_read(n_ent, 8, coalesced=False)
    worst_bits = bits_required_array(np.maximum(n_ent - 1, 0)) + bits_required(
        max(0, b.cols - 1)
    )
    layout = {
        "A_cols": 4 * n_ent,
        "A_vals": itemsize * n_ent,
        "A_rows": 4 * n_ent,
        "WDState": 4 * (n_ent + 1),
        "ESC_keys": epb * np.where(worst_bits <= 32, 4, 8),
        "ESC_vals": epb * itemsize,
    }
    if opts.sanitize and set(layout) != _ESC_SCRATCH_LAYOUT:
        raise SanitizerError(
            f"batched ESC scratchpad layout diverged: "
            f"{sorted(layout)} != {sorted(_ESC_SCRATCH_LAYOUT)}",
            stage="ESC",
            block_id=pending[0].block_id,
        )
    high_water = np.asarray(layout_high_water(cfg, layout), dtype=np.int64)
    # pointer chunks are written before WDState and the ESC arrays exist
    a_high = layout["A_cols"] + layout["A_vals"] + layout["A_rows"]

    # ---- the lockstep state of every block, as arrays ------------------
    block_ids = np.fromiter((blk.block_id for blk in pending), np.int64, n_pending)
    seq = np.fromiter((blk.chunk_seq for blk in pending), np.int64, n_pending)
    iters = np.fromiter((blk.esc_iterations for blk in pending), np.int64, n_pending)
    n_long = np.fromiter((blk.n_long_emitted for blk in pending), np.int64, n_pending)
    committed = c0s.copy()  # the restart commit point
    consumed = c0s.copy()  # products consumed (== wd.consumed_total)
    exp_pos = exp_off[:-1].copy()  # cursor into the round's expansion arrays
    carried_n = np.zeros(n_pending, dtype=np.int64)
    alive = np.ones(n_pending, dtype=bool)
    round_sorts = np.zeros(n_pending, dtype=np.int64)  # sort-log length
    sort_logs: list = (
        [[] for _ in range(n_pending)] if opts.device_trace else [()] * n_pending
    )
    recs = _EscRecords(bm)

    # ---- Write Long Rows (§3.4): pointer chunks in entry order, one
    # pass per j over every block's j-th long entry ---------------------
    if opts.enable_long_row_handling:
        long_at = np.flatnonzero(long_mask_cat)
        owner = np.searchsorted(ent_off, long_at, side="right") - 1
        rank = np.arange(long_at.shape[0]) - np.searchsorted(owner, owner)
        fresh = rank >= n_long[owner]  # the rest went out before a restart
        ptr_bytes = ectx.pool.data_bytes(0, 0)
        for j in np.unique(rank[fresh]).tolist():
            pick = fresh & (rank == j)
            sel = long_at[pick]
            ks = owner[pick]
            rows = a_rows_cat[sel]
            chunks = [
                Chunk(
                    order_key=(bid, sq),
                    kind="pointer",
                    first_row=row,
                    last_row=row,
                    b_row=b_row,
                    factor=factor,
                    b_length=b_length,
                )
                for bid, sq, row, b_row, factor, b_length in zip(
                    block_ids[ks].tolist(),
                    seq[ks].tolist(),
                    rows.tolist(),
                    a_cols_cat[sel].tolist(),
                    a_vals_cat[sel].tolist(),
                    b_len_cat[sel].tolist(),
                )
            ]
            recs.add(
                ks,
                chunks,
                np.full(ks.shape[0], ptr_bytes, dtype=np.int64),
                restore=(committed[ks], n_long[ks], iters[ks]),
                pre_high=a_high[ks],
                pre_sorts=round_sorts[ks],
                link_len=np.ones(ks.shape[0], dtype=np.int64),
                link_rows=rows,
                link_counts=b_len_cat[sel],
            )
            seq[ks] += 1
            n_long[ks] += 1
            on = np.zeros(n_pending, dtype=np.int64)
            on[ks] = 1
            bm.atomic(on)  # pool bump allocation
            bm.global_write(on, ptr_bytes)
            bm.atomic(2 * on)  # tracker insert (one row)

    # LocalWorkDistribution: placement + optional restart drop
    bm.scan(n_ent)  # place_work's inclusive prefix sum
    bm.scratchpad(np.where(c0s > 0, n_ent, 0))  # restart_from

    # ---- lockstep ESC iterations --------------------------------------
    carried_rows = carried_cols = np.zeros(0, dtype=np.int64)
    carried_vals = np.zeros(0, dtype=dtype)
    keep_elems = cfg.keep_elements
    enable_keep = opts.enable_keep_last_row
    col_bytes = opts.col_index_bytes
    while True:
        act = np.flatnonzero(alive)
        taken = np.minimum(epb - carried_n[act], totals[act] - consumed[act])
        idle = (taken == 0) & (carried_n[act] == 0)
        if idle.any():  # drained, nothing held: the block retires
            gone = act[idle]
            committed[gone] = consumed[gone]
            alive[gone] = False
            act, taken = act[~idle], taken[~idle]
        if not act.shape[0]:
            break
        ks = act
        nseg = ks.shape[0]
        iters[ks] += 1
        round_sorts[ks] += 1

        # each block consumes the next window of the round arrays
        # (charges are batched below)
        new_lo = exp_pos[ks]
        exp_pos[ks] += taken
        consumed[ks] += taken
        held = carried_n[ks]
        seg_sizes = held + taken
        seg_off = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(seg_sizes, out=seg_off[1:])
        seg_starts = seg_off[:-1]
        seg_last = seg_off[1:] - 1

        # assemble [carried, new] per segment (carried first: the stable
        # sort keeps accumulated values ahead of new products).  With
        # nothing carried and the windows back to back, that is one
        # slice of the round arrays.
        if not held.any() and (new_lo[1:] == new_lo[:-1] + taken[:-1]).all():
            window = slice(int(new_lo[0]), int(new_lo[0]) + int(seg_off[-1]))
            rows_b = exp_rows[window]
            cols_b = exp_cols[window]
            vals_b = exp_vals[window]
        else:
            src = ragged_arange(new_lo, taken)
            dst_new = ragged_arange(seg_starts + held, taken)
            dst_held = ragged_arange(seg_starts, held)
            rows_b = np.empty(int(seg_off[-1]), dtype=np.int64)
            cols_b = np.empty_like(rows_b)
            vals_b = np.empty(rows_b.shape[0], dtype=dtype)
            rows_b[dst_new] = exp_rows[src]
            cols_b[dst_new] = exp_cols[src]
            vals_b[dst_new] = exp_vals[src]
            rows_b[dst_held] = carried_rows
            cols_b[dst_held] = carried_cols
            vals_b[dst_held] = carried_vals
            del src, dst_new, dst_held

        # dynamic bit reduction (§3.2.3), per segment.  Row ranges come
        # free: carried runs and expansion windows are both row-sorted,
        # so each segment's extremes are the ends of its two parts.
        if opts.enable_bit_reduction:
            cmin = np.minimum.reduceat(cols_b, seg_starts)
            cmax = np.maximum.reduceat(cols_b, seg_starts)
            rmin = np.minimum(
                rows_b[seg_starts],
                rows_b[np.minimum(seg_starts + held, seg_last)],
            )
            rmax = np.maximum(
                rows_b[seg_last],
                rows_b[np.maximum(seg_starts + held - 1, seg_starts)],
            )
        else:
            cmin = np.zeros(nseg, dtype=np.int64)
            cmax = np.full(nseg, b.cols - 1, dtype=np.int64)
            rmin = np.zeros(nseg, dtype=np.int64)
            rmax = np.maximum(n_ent[ks] - 1, 0)
        col_bits = bits_required_array(cmax - cmin)
        row_bits = bits_required_array(rmax - rmin)
        key_bits = row_bits + col_bits

        # one shared column width for the whole iteration: each segment's
        # key stays monotone in (row, col) with identical tie structure,
        # so sort order and run equality are unchanged while both minimum
        # subtractions fold into a single scalar offset per segment.
        # Charged bit counts (key_bits) still use per-segment widths.
        cbmax = int(col_bits.max())
        sort_bits = int(row_bits.max()) + cbmax
        offs = (rmin << cbmax) + cmin
        # (cbmax < 16 keeps every shift strictly inside the 16-bit lane)
        kdt = np.uint16 if cbmax < 16 and sort_bits <= 16 else np.uint64
        # modular arithmetic: intermediates may wrap, the reduced key
        # fits the dtype, so the wrapped result is exact
        keys = rows_b.astype(kdt)
        keys <<= cbmax
        keys += cols_b.astype(kdt)
        if offs.any():
            keys -= np.repeat(offs.astype(kdt), seg_sizes)

        perm, keys_s = _segmented_sort(keys, seg_sizes, sort_bits)
        vals_s = vals_b[perm]
        # drop each iteration-sized temporary once consumed, so the
        # iteration's peak holds as few element-sized arrays as possible
        del rows_b, cols_b, vals_b, keys, perm

        comp_keys, comp_vals, comp_counts = _segmented_compact(
            keys_s, vals_s, seg_off
        )
        del keys_s, vals_s
        comp_off = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(comp_counts, out=comp_off[1:])
        comp_total = int(comp_off[-1])
        # each compacted entry's row as an index into the slab's row
        # dictionary (the block's first unique row plus its local row)
        uoffs = uniq_off[ks]
        row_idx = _as_int64(comp_keys >> cbmax)
        row_idx += np.repeat(rmin + uoffs, comp_counts)
        comp_cols_all = _as_int64(comp_keys & kdt((1 << cbmax) - 1))
        del comp_keys
        if cmin.any():
            comp_cols_all += np.repeat(cmin, comp_counts)
        # ---- the iteration's charges in reference call order (receive,
        # expansion, min/max scans, radix sort, compaction); a block that
        # sits out an iteration gets zero counts, which charge nothing --
        t_full = np.zeros(n_pending, dtype=np.int64)
        t_full[ks] = taken
        s_full = np.zeros(n_pending, dtype=np.int64)
        s_full[ks] = seg_sizes
        kb_full = np.zeros(n_pending, dtype=np.int64)
        kb_full[ks] = key_bits
        took = t_full > 0  # receive_work charges nothing when nothing is taken
        bm.scratchpad(np.where(took, epb, 0))  # clear(Offsets)
        bm.scratchpad(np.where(took, 2 * n_ent, 0))  # state reads
        bm.scan(t_full)  # inclusive max scan
        bm.scratchpad(2 * t_full)  # layout exchange
        bm.alu(2 * t_full)
        bm.scratchpad(np.where(took, n_ent, 0))  # state decrement
        bm.global_read(t_full, elem_bytes)  # B columns/values
        bm.flops(2 * t_full)
        if opts.enable_bit_reduction:
            bm.scan(s_full)  # min/max over columns
            bm.scan(s_full)  # min/max over rows
        bm.radix_sort(s_full, kb_full)
        bm.alu(2 * s_full)  # compaction neighbour compares
        bm.scan(s_full)  # Algorithm 3's single scan
        if opts.device_trace:
            # CostMeter.radix_sort's log entry for the reference's
            # (n_batch, row_bits + col_bits) sort
            for k, n_sorted, kb in zip(
                ks.tolist(), seg_sizes.tolist(), key_bits.tolist()
            ):
                sort_logs[k].append((n_sorted, kb))

        # ---- per-(segment, row) runs: tracker commit lists and keep
        # decisions ------------------------------------------------------
        glob_rows_all = uniq_rows_cat[row_idx]
        rflag = np.empty(comp_total, dtype=bool)
        rflag[0] = True
        np.not_equal(row_idx[1:], row_idx[:-1], out=rflag[1:])
        rflag[comp_off[:-1]] = True
        rpos = np.nonzero(rflag)[0]
        rcnt = np.empty(rpos.shape[0], dtype=np.int64)
        np.subtract(rpos[1:], rpos[:-1], out=rcnt[:-1])
        rcnt[-1] = comp_total - rpos[-1]
        run_rows = glob_rows_all[rpos]
        # each segment's runs: r_lo up to r_hi (every segment starts one)
        r_lo = np.searchsorted(rpos, comp_off[:-1])
        r_hi = np.searchsorted(rpos, comp_off[1:])
        # keep-last-row candidate == size of each segment's last row run
        last_start = rpos[r_hi - 1]
        keep_cand = comp_off[1:] - last_start
        # commit point if the last row is kept: its first original product
        first = prev[ent_off[ks] + fe_local_cat[row_idx[comp_off[1:] - 1]]]

        # ---- keep-last-row decisions and chunk emission, per block ----
        cons = consumed[ks]
        wd_empty = cons == totals[ks]
        keep_n = np.zeros(nseg, dtype=np.int64)
        if enable_keep:
            hold = ~wd_empty & (comp_counts > 0) & (keep_cand <= keep_elems)
            keep_n[hold] = keep_cand[hold]  # too large to hold: spill all
        write_n = comp_counts - keep_n
        kept = keep_n > 0
        wr = np.flatnonzero(write_n)
        kw = ks[wr]
        w_n = write_n[wr]
        lo_c = comp_off[wr]
        lo_r = r_lo[wr]
        n_runs = r_hi[wr] - kept[wr] - lo_r
        run_sel = ragged_arange(lo_r, n_runs)
        # slices stay views: the iteration's comp and run arrays are
        # never written again, so chunks can share their storage
        chunks = [
            Chunk(
                order_key=(bid, sq),
                kind="data",
                first_row=fr,
                last_row=lr,
                rows=glob_rows_all[c0 : c0 + m],
                cols=comp_cols_all[c0 : c0 + m],
                vals=comp_vals[c0 : c0 + m],
            )
            for bid, sq, fr, lr, c0, m in zip(
                block_ids[kw].tolist(),
                seq[kw].tolist(),
                run_rows[lo_r].tolist(),
                run_rows[lo_r + n_runs - 1].tolist(),
                lo_c.tolist(),
                w_n.tolist(),
            )
        ]
        recs.add(
            kw,
            chunks,
            ectx.pool.data_bytes(w_n, itemsize, col_bytes),
            restore=(committed[kw], n_long[kw], iters[kw]),
            pre_high=high_water[kw],
            pre_sorts=round_sorts[kw],
            link_len=n_runs,
            link_rows=run_rows[run_sel],
            link_counts=rcnt[run_sel],
        )
        seq[kw] += 1
        committed[kw] = np.where(
            kept[wr], np.minimum(cons[wr], first[wr] - base[kw]), cons[wr]
        )

        # the kept last rows carry into the next iteration; a drained
        # block holding nothing retires
        held_sel = ragged_arange(comp_off[:-1] + write_n, keep_n)
        carried_rows = row_idx[held_sel] - np.repeat(uoffs, keep_n)
        carried_cols = comp_cols_all[held_sel]
        carried_vals = comp_vals[held_sel]
        carried_n[ks] = keep_n
        gone = ks[wd_empty & ~kept]
        committed[gone] = consumed[gone]
        alive[gone] = False

        # ---- emission charges, vectorised over the writing blocks -----
        w_full = np.zeros(n_pending, dtype=np.int64)
        w_full[kw] = w_n
        rows_full = np.zeros(n_pending, dtype=np.int64)
        rows_full[kw] = n_runs
        on = w_full > 0
        bm.atomic(on)  # pool bump allocation
        bm.scratchpad(2 * w_full)  # stage the chunk in scratchpad
        bm.global_write(w_full, elem_bytes)  # the chunk payload
        bm.global_write(on, 32)  # header
        bm.atomic(2 * rows_full)  # tracker inserts: two atomics per row

    # the optimistic end state; the replay rolls a failed block back
    for blk, c, it, nl, sq in zip(
        pending, committed.tolist(), iters.tolist(), n_long.tolist(), seq.tolist()
    ):
        blk.attempts += 1
        blk.committed = c
        blk.esc_iterations = it
        blk.n_long_emitted = nl
        blk.chunk_seq = sq
        blk.done = True
    return recs.batch(pending, high_water, sort_logs)


class _EscRecords:
    """An ESC slab's allocation records, gathered pass by pass as arrays
    (each :meth:`add` snapshots the writing blocks' meter rows)."""

    def __init__(self, bm: BlockArrayMeter) -> None:
        self.bm = bm
        self.chunks: list[Chunk] = []
        self.passes: list[tuple] = []

    def add(self, ks, chunks, nbytes, *, restore, pre_high, pre_sorts,
            link_len, link_rows, link_counts) -> None:
        """Blocks ``ks`` each allocate one of ``chunks``, now."""
        self.chunks += chunks
        self.passes.append((
            ks, nbytes, self.bm.cycles[ks], self.bm.matrix[:, ks], pre_high,
            pre_sorts, np.stack(restore), link_len, link_rows, link_counts,
        ))

    def batch(self, pending, high_water, sort_logs) -> OptimisticBatch:
        """The slab's runs, records ordered run by run."""
        if not self.passes:
            none = np.zeros(0, dtype=np.int64)
            self.add(none, [], none, restore=(none,) * 3, pre_high=none,
                     pre_sorts=none, link_len=none, link_rows=none,
                     link_counts=none)
        cols = self.passes[0] if len(self.passes) == 1 else [
            np.concatenate(col, axis=-1) for col in zip(*self.passes)
        ]
        (owner, nbytes, pre_cycles, pre_counters, pre_high, pre_sorts,
         restore, link_len, link_rows, link_counts) = cols
        pre_counters, restore = pre_counters.T, restore.T
        link_off = np.zeros(link_len.shape[0] + 1, dtype=np.int64)
        np.cumsum(link_len, out=link_off[1:])
        chunks = self.chunks
        if len(self.passes) > 1 and (owner[1:] < owner[:-1]).any():
            # later passes wrote for earlier blocks: order run by run
            order = np.argsort(owner, kind="stable")
            sel = ragged_arange(link_off[order], link_len[order])
            link_rows, link_counts = link_rows[sel], link_counts[sel]
            np.cumsum(link_len[order], out=link_off[1:])
            chunks = [chunks[j] for j in order.tolist()]
            owner, nbytes, pre_cycles, pre_counters, pre_high, pre_sorts, restore = (
                col[order]
                for col in (
                    owner, nbytes, pre_cycles, pre_counters, pre_high,
                    pre_sorts, restore,
                )
            )
        return OptimisticBatch(
            workers=pending,
            cycles=self.bm.cycles,
            counters=self.bm.matrix.T,
            scratch_high=high_water,
            sort_logs=sort_logs,
            chunks=chunks,
            owner=owner,
            nbytes=nbytes,
            pre_cycles=pre_cycles,
            pre_counters=pre_counters,
            pre_scratch_high=pre_high,
            pre_sort_len=pre_sorts,
            commit="insert",
            link_off=link_off,
            link_rows=link_rows,
            link_counts=link_counts,
            restore=restore,
        )


def _esc_settle(pending: list, batch: OptimisticBatch, outcomes, failed) -> None:
    """After the replay: every block adds its outcome cycles, and a
    block whose allocation failed rolls back to that record's state."""
    for blk, cycles in zip(pending, outcomes.cycles.tolist()):
        blk.total_cycles += cycles
    for i in np.flatnonzero(failed >= 0).tolist():
        j = int(failed[i])
        blk = pending[i]
        blk.committed, blk.n_long_emitted, blk.esc_iterations = (
            batch.restore[j].tolist()
        )
        blk.chunk_seq = batch.chunks[j].order_key[1]
        blk.done = False


# ---------------------------------------------------------------------------
# stage 3: batched Multi Merge
# ---------------------------------------------------------------------------


def _multi_merge_optimistic_batch(
    ectx: EngineContext, workers: list
) -> OptimisticBatch:
    opts = ectx.options
    cfg = opts.device
    b, tracker = ectx.b, ectx.tracker
    dtype = opts.value_dtype
    epb = cfg.elements_per_block
    n = len(workers)

    # every group's rows, back to back, and each row's links in the
    # deterministic global chunk order
    rows_flat = np.fromiter(
        (row for w in workers for row in w.rows), dtype=np.int64
    )
    n_rows = np.fromiter((len(w.rows) for w in workers), np.int64, n)
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_rows, out=row_start[1:])
    row_grp = np.repeat(np.arange(n), n_rows)
    pos, ids, offs, cnts = tracker.row_links(rows_flat.tolist())
    keys = [tracker.chunks[i].order_key for i in ids.tolist()]
    order = np.lexsort(
        (
            np.fromiter((k[1] for k in keys), np.int64, len(keys)),
            np.fromiter((k[0] for k in keys), np.int64, len(keys)),
            pos,
        )
    )
    pos, ids, offs, cnts = pos[order], ids[order], offs[order], cnts[order]

    # gather each link's segment: data chunks hold it, pointer chunks
    # scale B's row
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for i, lo, m in zip(ids.tolist(), offs.tolist(), cnts.tolist()):
        chunk = tracker.chunks[i]
        if chunk.kind == "pointer":
            lo += int(b.row_ptr[chunk.b_row])
            cols_parts.append(b.col_idx[lo : lo + m])
            vals_parts.append(chunk.factor * b.values[lo : lo + m])
        else:
            cols_parts.append(chunk.cols[lo : lo + m])
            vals_parts.append(chunk.vals[lo : lo + m])
    cols_b = np.concatenate(cols_parts).astype(np.int64, copy=False)
    vals_b = np.concatenate(vals_parts).astype(dtype, copy=False)
    link_grp = row_grp[pos]
    rows_b = np.repeat(pos - row_start[link_grp], cnts)  # group-local row
    seg_sizes = np.bincount(link_grp, weights=cnts, minlength=n).astype(np.int64)
    sizes = seg_sizes.tolist()
    if max(sizes) > epb:
        raise AssertionError(
            "Multi Merge group exceeds block capacity — assignment bug"
        )
    if min(sizes) == 0:
        raise AssertionError("empty Multi Merge group — assignment bug")
    seg_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(seg_sizes, out=seg_off[1:])

    # esc_merge_batch per group: column-only bit reduction, rows as-is
    if opts.enable_bit_reduction:
        cmin = np.minimum.reduceat(cols_b, seg_off[:-1])
        cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
    else:
        cmin = np.zeros(n, dtype=np.int64)
        cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
    col_bits = bits_required_array(cmax - cmin)
    row_bits = bits_required_array(n_rows - 1)
    key_bits = row_bits + col_bits

    keys = rows_b.astype(np.uint64)
    keys <<= np.repeat(col_bits, seg_sizes).astype(np.uint64)
    keys |= (cols_b - np.repeat(cmin, seg_sizes)).astype(np.uint64)
    perm, keys_s = _segmented_sort(keys, seg_sizes, int(key_bits.max()))
    vals_s = vals_b[perm]

    comp_keys, comp_vals, comp_counts = _segmented_compact(keys_s, vals_s, seg_off)
    comp_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(comp_counts, out=comp_off[1:])
    rep_cb = np.repeat(col_bits, comp_counts).astype(np.uint64)
    rl = comp_keys >> rep_cb
    comp_rows_all = rl.astype(np.int64) + np.repeat(row_start[:-1], comp_counts)
    rl <<= rep_cb
    comp_cols_all = (comp_keys - rl).astype(np.int64) + np.repeat(
        cmin, comp_counts
    )

    # a launch holds a few groups (each packs up to a block's worth of
    # rows), so each is priced on its own CostMeter in the reference's
    # call order; only the segment reads are charged as one array
    link_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(link_grp, minlength=n), out=link_off[1:])
    meters: list[CostMeter] = []
    pre: list[tuple[float, object]] = []
    for lo, hi, m, kb, comp_n, rows_n in zip(
        link_off[:-1].tolist(),
        link_off[1:].tolist(),
        sizes,
        key_bits.tolist(),
        comp_counts.tolist(),
        n_rows.tolist(),
    ):
        meter = CostMeter(config=cfg, constants=opts.costs)
        if opts.device_trace:
            meter.sort_log = []
        meter.global_reads(cnts[lo:hi], opts.element_bytes)
        if opts.enable_bit_reduction:
            meter.scan(m)  # block min/max reduction
        meter.radix_sort(m, kb)
        meter.alu(2 * m)  # compaction neighbour compares
        meter.scan(m)  # Algorithm 3's single scan
        meter.alu(m - comp_n)  # the merge's re-combining additions
        pre.append((meter.cycles, copy(meter.counters)))
        meter.atomic(1)  # pool bump allocation
        meter.scratchpad(2 * comp_n)
        meter.global_write(comp_n, opts.element_bytes)
        meter.global_write(1, 32)
        meter.atomic(rows_n)  # per-row count/list swap
        meters.append(meter)

    rows_global = rows_flat[comp_rows_all]
    chunks = [
        Chunk(
            order_key=(MERGE_BLOCK_SEQ_BASE + w.block_index, 0),
            kind="data",
            first_row=int(rows_global[lo]),
            last_row=int(rows_global[hi - 1]),
            rows=rows_global[lo:hi],
            cols=comp_cols_all[lo:hi],
            vals=comp_vals[lo:hi],
        )
        for w, lo, hi in zip(workers, comp_off[:-1].tolist(), comp_off[1:].tolist())
    ]
    return OptimisticBatch(
        workers=workers,
        cycles=np.asarray([m.cycles for m in meters], dtype=np.float64),
        counters=counter_rows([m.counters for m in meters]),
        scratch_high=np.zeros(n, dtype=np.int64),
        sort_logs=[m.sort_log or () for m in meters],
        chunks=chunks,
        owner=np.arange(n),
        nbytes=ectx.pool.data_bytes(comp_counts, dtype.itemsize, opts.col_index_bytes),
        pre_cycles=np.asarray([c for c, _ in pre], dtype=np.float64),
        pre_counters=counter_rows([t for _, t in pre]),
        pre_scratch_high=np.zeros(n, dtype=np.int64),
        pre_sort_len=np.ones(n, dtype=np.int64),  # the one radix sort
        commit="replace",
        link_off=row_start,
        link_rows=rows_flat,
        link_counts=np.bincount(comp_rows_all, minlength=rows_flat.shape[0]),
    )


# ---------------------------------------------------------------------------
# stage 4: batched chunk copy
# ---------------------------------------------------------------------------


def _copy_chunks_batched(
    ectx: EngineContext, row_ptr: np.ndarray, counter_sink: CostMeter
) -> tuple[CSRMatrix, list[float]]:
    pool, tracker, b, opts = ectx.pool, ectx.tracker, ectx.b, ectx.options
    nnz = int(row_ptr[-1])
    col_idx = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=opts.value_dtype)
    # the element-exact double-write/coverage tracking costs several
    # full-size boolean gathers and scatters per multiply, so it runs
    # only under --sanitize; the unconditional completeness check at the
    # end (total copied count == nnz) still catches lost or duplicated
    # segments, just without naming the exact element
    check = opts.sanitize
    written = np.zeros(nnz, dtype=bool) if check else None

    chunks = pool.ordered_chunks()
    n_chunks = len(chunks)

    # every live (chunk, row) link with its element range, in global
    # chunk order and element order.  Order keys are unique, so a linked
    # chunk's position in the global order is a binary search of its key.
    order_keys = [ch.order_key for ch in chunks]
    position = np.fromiter(
        (bisect_left(order_keys, ch.order_key) for ch in tracker.chunks),
        np.int64,
        len(tracker.chunks),
    )
    link_ids, rows, src, cnt = tracker.live_links()
    pos = position[link_ids]
    span = int(src.max()) + 1 if src.shape[0] else 1
    order = np.argsort(pos * span + src)  # unique (chunk, element) keys
    pos, rows, src, cnt = pos[order], rows[order], src[order], cnt[order]
    # rows split over merge-produced chunks carry explicit in-row
    # segment offsets; everything else starts at the row pointer
    dst = row_ptr[rows]
    has_off = np.fromiter(
        (ch.segment_offsets is not None for ch in chunks), bool, n_chunks
    )
    for i in np.flatnonzero(has_off[pos]).tolist():
        dst[i] += chunks[pos[i]].segment_offset(int(rows[i]))
    if np.any(dst + cnt > row_ptr[rows + 1]):
        raise AssertionError("chunk copy overflows a row")

    # adjacent links are almost always contiguous on both the source and
    # destination side and come from the same chunk, so the copy runs as
    # a few thousand slice copies straight out of each chunk's arrays
    brk = np.empty(pos.shape[0], dtype=bool)
    brk[:1] = True
    brk[1:] = (
        (pos[1:] != pos[:-1])
        | (src[1:] != src[:-1] + cnt[:-1])
        | (dst[1:] != dst[:-1] + cnt[:-1])
    )
    starts = np.flatnonzero(brk)
    seg_len = np.add.reduceat(cnt, starts) if starts.shape[0] else starts
    for ci, s0, d0, ln in zip(
        pos[starts].tolist(), src[starts].tolist(), dst[starts].tolist(),
        seg_len.tolist(),
    ):
        ch = chunks[ci]
        de = d0 + ln
        if check:
            if written[d0:de].any():
                raise AssertionError("double write during chunk copy")
            written[d0:de] = True
        if ch.kind == "pointer":
            lo = b.row_ptr[ch.b_row] + s0
            col_idx[d0:de] = b.col_idx[lo : lo + ln]
            values[d0:de] = ch.factor * b.values[lo : lo + ln]
        else:
            col_idx[d0:de] = ch.cols[s0 : s0 + ln]
            values[d0:de] = ch.vals[s0 : s0 + ln]
    copied = np.bincount(pos, weights=cnt, minlength=n_chunks).astype(np.int64)

    # ---- per-chunk charges: one block per chunk; a chunk that copies
    # nothing charges nothing ------------------------------------------
    bm = BlockArrayMeter(opts.device, n_chunks, opts.costs)
    bm.global_read(copied, opts.element_bytes)
    bm.global_write(copied, opts.element_bytes)
    counter_sink.counters.merge(bm.totals())

    if check and not written.all():
        missing = int((~written).sum())
        raise AssertionError(f"{missing} output entries were never written")
    if int(copied.sum()) != nnz:
        raise AssertionError(
            f"chunk copy covered {int(copied.sum())} of {nnz} entries"
        )

    c = CSRMatrix(
        rows=tracker.n_rows,
        cols=b.cols,
        row_ptr=row_ptr,
        col_idx=col_idx,
        values=values,
    )
    return c, bm.cycles.tolist()


# ---------------------------------------------------------------------------


class BatchedEngine(ReferenceEngine):
    """Fuse all ready blocks of each kernel launch into numpy batches.

    ESC runs as one flat batch per slab of each round, Multi Merge as
    one flat batch per round, and the output copy as slice copies of
    the live links.  Path/Search Merge run the reference workers under
    :func:`~repro.gpu.radix.fast_stable_sort`: they see few rows (long
    output rows spread over several blocks), and the single-pass sort,
    not running the workers in lockstep, is what makes them cheaper.
    """

    name = "batched"

    def esc_round(self, ectx: EngineContext, pending: list) -> RoundOutcomes:
        self.count("fused_esc_launches")
        self.count("fused_esc_blocks", len(pending))
        # blocks are independent until the serial replay, so running the
        # launch slab by slab leaves every run (and the one replay below,
        # which alone touches the pool and tracker) unchanged
        batches = []
        for slab in _esc_slabs(ectx, pending):
            self.count("fused_esc_slabs")
            batches.append(_esc_optimistic_batch(ectx, slab))
        batch = OptimisticBatch.concat(batches)
        outcomes, failed = replay(ectx.pool, ectx.tracker, batch, ectx.options.costs)
        _esc_settle(pending, batch, outcomes, failed)
        return outcomes

    def merge_round(
        self, ectx: EngineContext, stage: str, workers: list
    ) -> RoundOutcomes:
        if stage == "MM":
            self.count("fused_mm_launches")
            self.count("fused_mm_groups", len(workers))
            batch = _multi_merge_optimistic_batch(ectx, workers)
            outcomes, _ = replay(
                ectx.pool, ectx.tracker, batch, ectx.options.costs
            )
            return outcomes
        # PM/SM: the reference workers, with their radix sorts run as
        # single numpy passes (same permutations, same charges)
        with fast_stable_sort():
            return super().merge_round(ectx, stage, workers)

    def copy_output(
        self, ectx: EngineContext, row_ptr: np.ndarray, counter_sink
    ):
        self.count("fused_copy_launches")
        return _copy_chunks_batched(ectx, row_ptr, counter_sink)
