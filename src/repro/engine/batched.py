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

Cost fidelity: ESC and the output copy price a slab's blocks on one
:class:`~repro.gpu.cost.BlockArrayMeter` (a row per block), adding the
reference's per-block charges in its call order, and one
:func:`~repro.gpu.memory.layout_high_water` call checks the slab's
scratchpad layouts.  The merges keep a
scalar :class:`~repro.gpu.cost.CostMeter` per worker, because the
shared merge helpers charge one.  Pool allocations run through
the optimistic record / serial replay machinery (:mod:`repro.engine.replay`)
so restart behaviour, chunk offsets and shared-row attribution are
exactly the reference's.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from ..core.chunks import Chunk
from ..core.long_rows import long_row_mask
from ..core.merge import MERGE_BLOCK_SEQ_BASE, gather_row_segments
from ..gpu.cost import BlockArrayMeter, CostMeter
from ..gpu.memory import layout_high_water
from ..gpu.radix import bits_required, bits_required_array, fast_stable_sort
from ..resilience.errors import SanitizerError
from ..sparse.csr import CSRMatrix
from ..sparse.ops import ragged_arange
from .base import EngineContext, RoundOutcome
from .reference import ReferenceEngine
from .replay import AllocationRecord, OptimisticRun, replay_and_commit

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
    words = seg << np.uint64(key_bits + pb)
    words |= keys.astype(np.uint64) << np.uint64(pb)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    perm = (words & np.uint64((1 << pb) - 1)).astype(np.int64)
    words >>= np.uint64(pb)
    words &= np.uint64((1 << key_bits) - 1)
    return perm, words.astype(keys.dtype)


def _segmented_compact(
    keys_s: np.ndarray,
    vals_s: np.ndarray,
    seg_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact equal-key runs per segment in one pass.

    Returns ``(comp_keys, comp_vals, comp_counts)`` where ``comp_counts``
    is the number of compacted entries per segment.  Runs never cross a
    segment boundary (boundaries force a run end).
    """
    n = keys_s.shape[0]
    ends = np.empty(n, dtype=bool)
    ends[-1] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=ends[:-1])
    ends[seg_off[1:] - 1] = True
    end_idx = np.nonzero(ends)[0]
    # every run start is the previous run's end + 1
    start_idx = np.empty_like(end_idx)
    start_idx[0] = 0
    np.add(end_idx[:-1], 1, out=start_idx[1:])
    comp_vals = np.add.reduceat(vals_s, start_idx)
    comp_keys = keys_s[end_idx]
    # compacted entries per segment: run-ends inside each window
    comp_counts = np.diff(np.searchsorted(end_idx, seg_off, side="left"))
    assert int(comp_counts.sum()) == comp_keys.shape[0]
    return comp_keys, comp_vals, comp_counts


# ---------------------------------------------------------------------------
# stage 2: lockstep batched AC-ESC
# ---------------------------------------------------------------------------


@dataclass
class _EscState:
    """Per-block lockstep state of one batched ESC round."""

    blk: object
    k: int  # the block's index in the slab (its BlockArrayMeter row)
    total: int  # total products of this block
    c: int  # products consumed so far (== wd.consumed_total)
    sort_log: list
    records: list = field(default_factory=list)
    carried_rows: np.ndarray | None = None
    carried_cols: np.ndarray | None = None
    carried_vals: np.ndarray | None = None
    taken: int = 0
    exp_pos: int = 0  # cursor into the round's expansion arrays
    new_lo: int = 0
    new_hi: int = 0


def _esc_on_success(blk, cycles: float) -> None:
    blk.total_cycles += cycles


def _esc_restore(blk) -> dict:
    """The restart state a failing allocation rolls ``blk`` back to."""
    return {
        "committed": blk.committed,
        "n_long_emitted": blk.n_long_emitted,
        "esc_iterations": blk.esc_iterations,
    }


def _esc_on_fail(blk, rec: AllocationRecord, cycles: float) -> None:
    blk.committed = rec.restore["committed"]
    blk.n_long_emitted = rec.restore["n_long_emitted"]
    blk.esc_iterations = rec.restore["esc_iterations"]
    blk.chunk_seq = rec.chunk.order_key[1]
    blk.done = False
    blk.total_cycles += cycles


#: the full scratchpad layout of one ESC block (allocated at round
#: entry, held until the state retires — the batched analogue of the
#: reference's named alloc/free pairs)
_ESC_SCRATCH_LAYOUT = frozenset(
    {"A_cols", "A_vals", "A_rows", "WDState", "ESC_keys", "ESC_vals"}
)


def _esc_finish(st: _EscState, layout: dict, sanitize: bool = False) -> None:
    """Block drained: same final state the reference run() sets."""
    st.blk.committed = st.c
    st.blk.done = True
    if sanitize and set(layout) != _ESC_SCRATCH_LAYOUT:
        raise SanitizerError(
            f"batched ESC scratchpad layout diverged at retirement: "
            f"{sorted(layout)} != {sorted(_ESC_SCRATCH_LAYOUT)}",
            stage="ESC",
            block_id=st.blk.block_id,
        )


#: elements one slab may hold: the uncommitted products an ESC slab
#: expands, or the chunk entries the output copy indexes at once.  A
#: launch runs as slabs of consecutive blocks under this budget, the
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
    cols = a.col_idx[ragged_arange(los, n_ent)]
    counts = b.row_ptr[cols + 1] - b.row_ptr[cols]
    if opts.enable_long_row_handling:
        counts[long_row_mask(counts, opts)] = 0  # pointer chunks, no products
    starts = np.zeros(n_pending, dtype=np.int64)
    np.cumsum(n_ent[:-1], out=starts[1:])
    rem = np.add.reduceat(counts, starts) - np.fromiter(
        (blk.committed for blk in pending), dtype=np.int64, count=n_pending
    )
    return [pending[s0:s1] for s0, s1 in _slab_bounds(rem.tolist())]


def _esc_optimistic_batch(
    ectx: EngineContext, pending: list
) -> list[OptimisticRun]:
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
    idx = ragged_arange(los, n_ent)
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

    # G: concatenated per-block prefix sums, offset so they are globally
    # nondecreasing — one searchsorted then serves every block at once
    cs = np.cumsum(counts_cat)
    g_off = ent_off[:-1] + np.arange(n_pending, dtype=np.int64)
    G = np.empty(total_ent + n_pending, dtype=np.int64)
    pos_mask = np.ones(total_ent + n_pending, dtype=bool)
    pos_mask[g_off] = False
    G[pos_mask] = cs
    base = np.empty(n_pending, dtype=np.int64)
    base[0] = 0
    base[1:] = cs[ent_off[1:-1] - 1]
    G[g_off] = base
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
    prev = cs - counts_cat  # per-entry global product start
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
    del prev, lo, take, b_elem

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
    high_water = layout_high_water(cfg, layout).tolist()
    # pointer chunks are written before WDState and the ESC arrays exist
    a_high = (layout["A_cols"] + layout["A_vals"] + layout["A_rows"]).tolist()

    empty_i = np.zeros(0, dtype=np.int64)
    empty_v = np.zeros(0, dtype=dtype)
    states = [
        _EscState(
            blk=blk,
            k=k,
            total=total,
            c=blk.committed,
            sort_log=[],
            exp_pos=e0,
            carried_rows=empty_i,
            carried_cols=empty_i,
            carried_vals=empty_v,
        )
        for k, (blk, total, e0) in enumerate(
            zip(pending, totals.tolist(), exp_off.tolist())
        )
    ]
    for blk in pending:
        blk.attempts += 1

    # ---- Write Long Rows (§3.4): pointer chunks in entry order, one
    # pass per j over every block's j-th long entry ---------------------
    if opts.enable_long_row_handling:
        long_at = np.flatnonzero(long_mask_cat)
        owner = np.searchsorted(ent_off, long_at, side="right") - 1
        rank = np.arange(long_at.shape[0]) - np.searchsorted(owner, owner)
        emitted = np.fromiter(
            (blk.n_long_emitted for blk in pending), np.int64, n_pending
        )
        fresh = rank >= emitted[owner]  # the rest went out before a restart
        ptr_bytes = ectx.pool.data_bytes(0, 0)
        for j in np.unique(rank[fresh]).tolist():
            pick = fresh & (rank == j)
            sel = long_at[pick]
            ks = owner[pick]
            for k, row, b_row, factor, b_length, (cyc, ctr) in zip(
                ks.tolist(),
                a_rows_cat[sel].tolist(),
                a_cols_cat[sel].tolist(),
                a_vals_cat[sel].tolist(),
                b_len_cat[sel].tolist(),
                bm.snapshot(ks),
            ):
                blk = pending[k]
                chunk = Chunk(
                    order_key=blk._next_chunk_key(),
                    kind="pointer",
                    first_row=row,
                    last_row=row,
                    b_row=b_row,
                    factor=factor,
                    b_length=b_length,
                )
                states[k].records.append(
                    AllocationRecord(
                        chunk=chunk,
                        nbytes=ptr_bytes,
                        pre_cycles=cyc,
                        pre_counters=ctr,
                        commit=("insert", [row], [b_length]),
                        restore=_esc_restore(blk),
                        pre_scratch_high=a_high[k],
                    )
                )
                blk.n_long_emitted += 1
            on = np.zeros(n_pending, dtype=np.int64)
            on[ks] = 1
            bm.atomic(on)  # pool bump allocation
            bm.global_write(on, ptr_bytes)
            bm.atomic(2 * on)  # tracker insert (one row)

    # LocalWorkDistribution: placement + optional restart drop
    bm.scan(n_ent)  # place_work's inclusive prefix sum
    bm.scratchpad(np.where(c0s > 0, n_ent, 0))  # restart_from

    # ---- lockstep ESC iterations --------------------------------------
    active = list(states)
    while active:
        runnable: list[_EscState] = []
        for st in active:
            st.taken = min(epb - st.carried_rows.shape[0], st.total - st.c)
            if st.taken == 0 and st.carried_rows.shape[0] == 0:
                _esc_finish(st, layout, opts.sanitize)  # drained, nothing held
            else:
                st.blk.esc_iterations += 1
                runnable.append(st)
        if not runnable:
            break
        ks = np.fromiter((st.k for st in runnable), np.int64, len(runnable))

        # precomputed expansion windows: each block's consumption is the
        # next window of the round arrays (charges are batched below)
        for st in runnable:
            t = st.taken
            if t:
                st.new_lo = st.exp_pos
                st.exp_pos += t
                st.new_hi = st.exp_pos
                st.c += t

        # assemble [carried, new] per segment (carried first: the stable
        # sort keeps accumulated values ahead of new products)
        parts_r: list[np.ndarray] = []
        parts_c: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        carried_n = np.empty(len(runnable), dtype=np.int64)
        seg_sizes = np.empty(len(runnable), dtype=np.int64)
        for i, st in enumerate(runnable):
            carried_n[i] = st.carried_rows.shape[0]
            if carried_n[i]:
                parts_r.append(st.carried_rows)
                parts_c.append(st.carried_cols)
                parts_v.append(st.carried_vals)
            if st.taken:
                parts_r.append(exp_rows[st.new_lo : st.new_hi])
                parts_c.append(exp_cols[st.new_lo : st.new_hi])
                parts_v.append(exp_vals[st.new_lo : st.new_hi])
            seg_sizes[i] = carried_n[i] + st.taken
        rows_b = np.concatenate(parts_r)
        cols_b = np.concatenate(parts_c)
        vals_b = np.concatenate(parts_v)
        seg_off = np.zeros(len(runnable) + 1, dtype=np.int64)
        np.cumsum(seg_sizes, out=seg_off[1:])
        seg_starts = seg_off[:-1]
        seg_last = seg_off[1:] - 1

        # dynamic bit reduction (§3.2.3), per segment.  Row ranges come
        # free: carried runs and expansion windows are both row-sorted,
        # so each segment's extremes are the ends of its two parts.
        if opts.enable_bit_reduction:
            cmin = np.minimum.reduceat(cols_b, seg_starts)
            cmax = np.maximum.reduceat(cols_b, seg_starts)
            rmin = np.minimum(
                rows_b[seg_starts],
                rows_b[np.minimum(seg_starts + carried_n, seg_last)],
            )
            rmax = np.maximum(
                rows_b[seg_last],
                rows_b[np.maximum(seg_starts + carried_n - 1, seg_starts)],
            )
        else:
            cmin = np.zeros(len(runnable), dtype=np.int64)
            cmax = np.full(len(runnable), b.cols - 1, dtype=np.int64)
            rmin = np.zeros(len(runnable), dtype=np.int64)
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
        comp_off = np.zeros(len(runnable) + 1, dtype=np.int64)
        np.cumsum(comp_counts, out=comp_off[1:])
        comp_total = int(comp_off[-1])
        rl = comp_keys >> cbmax
        comp_rows_all = rl.astype(np.int64)
        rl <<= cbmax
        comp_cols_all = (comp_keys - rl).astype(np.int64)
        del comp_keys, rl
        if rmin.any():
            comp_rows_all += np.repeat(rmin, comp_counts)
        if cmin.any():
            comp_cols_all += np.repeat(cmin, comp_counts)
        # ---- the iteration's charges in reference call order (receive,
        # expansion, min/max scans, radix sort, compaction); a block that
        # sits out an iteration gets zero counts, which charge nothing --
        t_full = np.zeros(n_pending, dtype=np.int64)
        t_full[ks] = [st.taken for st in runnable]
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
            for st, n_sorted, kb in zip(
                runnable, seg_sizes.tolist(), key_bits.tolist()
            ):
                st.sort_log.append((n_sorted, kb))

        # ---- batch the per-block emission bookkeeping ------------------
        # global row id of every compacted entry
        uoffs = uniq_off[ks]
        glob_rows_all = uniq_rows_cat[
            comp_rows_all + np.repeat(uoffs, comp_counts)
        ]
        # per-(segment, row) runs: tracker commit lists and keep decisions
        rflag = np.empty(comp_total, dtype=bool)
        rflag[0] = True
        np.not_equal(comp_rows_all[1:], comp_rows_all[:-1], out=rflag[1:])
        rflag[comp_off[:-1]] = True
        rpos = np.nonzero(rflag)[0]
        rcnt = np.empty(rpos.shape[0], dtype=np.int64)
        np.subtract(rpos[1:], rpos[:-1], out=rcnt[:-1])
        rcnt[-1] = comp_total - rpos[-1]
        run_rows = glob_rows_all[rpos]
        rcum = np.cumsum(rflag)
        r_lo_list = (rcum[comp_off[:-1]] - 1).tolist()
        r_hi_list = rcum[comp_off[1:] - 1].tolist()
        # keep-last-row candidate == size of each segment's last row run
        last_start = rpos[rcum[comp_off[1:] - 1] - 1]
        keep_cand_list = (comp_off[1:] - last_start).tolist()
        # commit point if the last row is kept: its first original product
        last_local = comp_rows_all[comp_off[1:] - 1]
        first = G[g_off[ks] + fe_local_cat[uoffs + last_local]]
        orig_list = (first - base[ks]).tolist()
        comp_off_list = comp_off.tolist()

        # ---- per-block keep-last-row decision and chunk emission -------
        keep_elems = cfg.keep_elements
        enable_keep = opts.enable_keep_last_row
        col_bytes = opts.col_index_bytes
        # every block's state just before its pool allocation, and the
        # emission's counts (zero for blocks that write nothing)
        pre = bm.snapshot(ks)
        w_full = np.zeros(n_pending, dtype=np.int64)
        rows_full = np.zeros(n_pending, dtype=np.int64)
        next_active: list[_EscState] = []
        for i, st in enumerate(runnable):
            lo_c, hi_c = comp_off_list[i], comp_off_list[i + 1]
            comp_n = hi_c - lo_c
            blk = st.blk
            wd_empty = st.c == st.total
            keep_n = 0
            if not wd_empty and enable_keep and comp_n:
                keep_n = keep_cand_list[i]
                if keep_n > keep_elems:
                    keep_n = 0  # too large to hold locally: spill everything
            write_n = comp_n - keep_n

            if write_n:
                commit_point = min(st.c, orig_list[i]) if keep_n else st.c
                r_lo = r_lo_list[i]
                r_hi = r_hi_list[i] - 1 if keep_n else r_hi_list[i]
                # slices stay views: the iteration's comp and run arrays
                # are never written again, so chunks and records can
                # share their storage
                rows_u = run_rows[r_lo:r_hi]
                chunk = Chunk(
                    order_key=blk._next_chunk_key(),
                    kind="data",
                    first_row=int(rows_u[0]),
                    last_row=int(rows_u[-1]),
                    rows=glob_rows_all[lo_c : lo_c + write_n],
                    cols=comp_cols_all[lo_c : lo_c + write_n],
                    vals=comp_vals[lo_c : lo_c + write_n],
                )
                cyc, ctr = pre[i]
                st.records.append(
                    AllocationRecord(
                        chunk=chunk,
                        nbytes=ectx.pool.data_bytes(write_n, itemsize, col_bytes),
                        pre_cycles=cyc,
                        pre_counters=ctr,
                        commit=("insert", rows_u, rcnt[r_lo:r_hi]),
                        restore=_esc_restore(blk),
                        pre_scratch_high=high_water[st.k],
                        pre_sort_len=len(st.sort_log),
                    )
                )
                w_full[st.k] = write_n
                rows_full[st.k] = r_hi - r_lo
                blk.committed = commit_point
            elif wd_empty and comp_n == 0:
                _esc_finish(st, layout, opts.sanitize)
                continue

            if keep_n:
                st.carried_rows = comp_rows_all[lo_c + write_n : hi_c]
                st.carried_cols = comp_cols_all[lo_c + write_n : hi_c]
                st.carried_vals = comp_vals[lo_c + write_n : hi_c]
            else:
                st.carried_rows = empty_i
                st.carried_cols = empty_i
                st.carried_vals = empty_v

            if wd_empty and st.carried_rows.shape[0] == 0:
                _esc_finish(st, layout, opts.sanitize)
            else:
                next_active.append(st)
        active = next_active

        # ---- emission charges, vectorised over the writing blocks -----
        on = w_full > 0
        bm.atomic(on)  # pool bump allocation
        bm.scratchpad(2 * w_full)  # stage the chunk in scratchpad
        bm.global_write(w_full, elem_bytes)  # the chunk payload
        bm.global_write(on, 32)  # header
        bm.atomic(2 * rows_full)  # tracker inserts: two atomics per row

    return [
        OptimisticRun(
            worker=st.blk,
            cycles=cyc,
            counters=ctr,
            records=st.records,
            on_success=_esc_on_success,
            on_fail=_esc_on_fail,
            sort_log=st.sort_log,
            scratch_high_water=high_water[st.k],
        )
        for st, (cyc, ctr) in zip(states, bm.snapshot(slice(None)))
    ]


# ---------------------------------------------------------------------------
# stage 3: batched Multi Merge
# ---------------------------------------------------------------------------


def _multi_merge_optimistic_batch(
    ectx: EngineContext, workers: list
) -> list[OptimisticRun]:
    opts = ectx.options
    cfg = opts.device
    b = ectx.b
    dtype = opts.value_dtype
    epb = cfg.elements_per_block

    # gather every group's segments (charges the per-segment reads)
    meters: list[CostMeter] = []
    grp_rows: list[np.ndarray] = []
    grp_cols: list[np.ndarray] = []
    grp_vals: list[np.ndarray] = []
    for w in workers:
        meter = CostMeter(config=cfg, constants=opts.costs)
        if opts.device_trace:
            meter.sort_log = []
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for rel, row in enumerate(w.rows):
            segs = gather_row_segments(row, ectx.tracker, b, opts, meter)
            for c, v in zip(segs.cols, segs.vals):
                rows_parts.append(np.full(c.shape[0], rel, dtype=np.int64))
                cols_parts.append(c)
                vals_parts.append(v)
        rows_rel = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
        if cols.shape[0] > epb:
            raise AssertionError(
                "Multi Merge group exceeds block capacity — assignment bug"
            )
        if cols.shape[0] == 0:
            raise AssertionError("empty Multi Merge group — assignment bug")
        meters.append(meter)
        grp_rows.append(rows_rel)
        grp_cols.append(cols)
        grp_vals.append(vals)

    seg_sizes = np.fromiter((c.shape[0] for c in grp_cols), np.int64, len(workers))
    seg_off = np.zeros(len(workers) + 1, dtype=np.int64)
    np.cumsum(seg_sizes, out=seg_off[1:])
    rows_b = np.concatenate(grp_rows)
    cols_b = np.concatenate(grp_cols)
    vals_b = np.concatenate(grp_vals)

    # esc_merge_batch per group: column-only bit reduction, rows as-is
    if opts.enable_bit_reduction:
        cmin = np.minimum.reduceat(cols_b, seg_off[:-1])
        cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
        for i in range(len(workers)):
            meters[i].scan(int(seg_sizes[i]))
    else:
        cmin = np.zeros(len(workers), dtype=np.int64)
        cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
    col_bits = bits_required_array(cmax - cmin)
    row_bits = bits_required_array(
        np.fromiter((len(w.rows) - 1 for w in workers), np.int64, len(workers))
    )
    key_bits = row_bits + col_bits

    keys = rows_b.astype(np.uint64)
    keys <<= np.repeat(col_bits, seg_sizes).astype(np.uint64)
    keys |= (cols_b - np.repeat(cmin, seg_sizes)).astype(np.uint64)
    perm, keys_s = _segmented_sort(keys, seg_sizes, int(key_bits.max()))
    vals_s = vals_b[perm]
    for i in range(len(workers)):
        meters[i].radix_sort(int(seg_sizes[i]), int(key_bits[i]))

    comp_keys, comp_vals, comp_counts = _segmented_compact(keys_s, vals_s, seg_off)
    comp_off = np.zeros(len(workers) + 1, dtype=np.int64)
    np.cumsum(comp_counts, out=comp_off[1:])
    rep_cb = np.repeat(col_bits, comp_counts).astype(np.uint64)
    rl = comp_keys >> rep_cb
    comp_rows_all = rl.astype(np.int64)
    rl <<= rep_cb
    comp_cols_all = (comp_keys - rl).astype(np.int64) + np.repeat(
        cmin, comp_counts
    )

    runs: list[OptimisticRun] = []
    for i, w in enumerate(workers):
        meter = meters[i]
        m = int(seg_sizes[i])
        meter.alu(2 * m)  # compaction neighbour compares
        meter.scan(m)  # Algorithm 3's single scan
        lo_c, hi_c = int(comp_off[i]), int(comp_off[i + 1])
        comp_n = hi_c - lo_c
        comp_rows = comp_rows_all[lo_c:hi_c]
        meter.alu(m - comp_n)  # the merge's re-combining additions
        rows_global = np.asarray(w.rows, dtype=np.int64)[comp_rows]
        chunk = Chunk(
            order_key=(MERGE_BLOCK_SEQ_BASE + w.block_index, 0),
            kind="data",
            first_row=int(rows_global[0]),
            last_row=int(rows_global[-1]),
            rows=rows_global,
            cols=comp_cols_all[lo_c:hi_c],
            vals=comp_vals[lo_c:hi_c],
        )
        nbytes = ectx.pool.data_bytes(comp_n, dtype.itemsize, opts.col_index_bytes)
        counts = np.bincount(comp_rows, minlength=len(w.rows))
        rec = AllocationRecord(
            chunk=chunk,
            nbytes=nbytes,
            pre_cycles=meter.cycles,
            pre_counters=copy(meter.counters),
            commit=("replace", list(w.rows), [int(c) for c in counts]),
            pre_sort_len=len(meter.sort_log or ()),
        )
        meter.atomic(1)  # pool bump allocation
        meter.scratchpad(2 * comp_n)
        meter.global_write(comp_n, opts.element_bytes)
        meter.global_write(1, 32)
        meter.atomic(len(w.rows))  # per-row count/list swap
        runs.append(
            OptimisticRun(
                worker=w,
                cycles=meter.cycles,
                counters=meter.counters,
                records=[rec],
                sort_log=meter.sort_log or (),
            )
        )
    return runs


# ---------------------------------------------------------------------------
# stage 3: batched Path/Search Merge (iterative row merges)
# ---------------------------------------------------------------------------


class _MergeCtx:
    """The slice of :class:`~repro.gpu.block.BlockContext` the threshold
    hooks consume (``.config`` and ``.meter``) — iterative merge workers
    never touch a scratchpad, so building the full context per worker
    per round would be pure allocation churn."""

    __slots__ = ("config", "meter")

    def __init__(self, config, meter):
        self.config = config
        self.meter = meter


@dataclass
class _IterMergeState:
    """Per-worker lockstep state of one batched PM/SM round."""

    w: object
    meter: CostMeter
    ctx: _MergeCtx
    records: list = field(default_factory=list)
    final_commit: object = None
    # slice of the current iteration's segment in the batch arrays
    cols: np.ndarray | None = None
    vals: np.ndarray | None = None
    take: np.ndarray | None = None


def _iter_merge_on_fail(w, rec: AllocationRecord, cycles: float) -> None:
    """Roll the worker back to the failing allocation's snapshot; its
    cursors from earlier successful iterations survive (the reference
    resumes mid-row after pool growth)."""
    w._cursors = list(rec.restore["cursors"])
    del w._produced[rec.restore["n_produced"] :]
    w._offset = rec.restore["offset"]
    w._emit_seq = rec.restore["emit_seq"]
    w.done = False


def _iterative_merge_optimistic_batch(
    ectx: EngineContext, workers: list
) -> list[OptimisticRun]:
    """Run every Path/Search Merge worker of one round in lockstep.

    Each lockstep iteration gathers every still-active worker's next
    column slice (threshold selection stays per-worker — it is sampling
    over tiny arrays — but charges land on the worker's own meter in
    reference order), then executes the sort + compaction of *all*
    slices as one segmented batch.  Keys are column-only: an iterative
    merge block handles exactly one row, so the reference's composite
    ``(row_rel << col_bits) | col`` key has a constant zero in its
    single row bit and the permutation equals sorting the column part.
    Charges still account the full ``row_bits + col_bits`` wide sort.
    """
    opts = ectx.options
    cfg = opts.device
    b = ectx.b
    dtype = opts.value_dtype
    capacity = cfg.elements_per_block
    elem_bytes = opts.element_bytes

    states: list[_IterMergeState] = []
    for w in workers:
        w.attempts += 1
        meter = CostMeter(config=cfg, constants=opts.costs)
        if opts.device_trace:
            meter.sort_log = []
        if w._cols is None:
            segs = gather_row_segments(
                w.row, ectx.tracker, b, opts, meter, materialize_cost=False
            )
            w._cols = segs.cols
            w._vals = segs.vals
            w._cursors = [0] * len(segs.cols)
        states.append(
            _IterMergeState(w=w, meter=meter, ctx=_MergeCtx(cfg, meter))
        )

    tracker = ectx.tracker
    active = states
    while active:
        batch: list[_IterMergeState] = []
        for st in active:
            w = st.w
            meter = st.meter
            remaining_cols = [
                c[cur:] for c, cur in zip(w._cols, w._cursors)
            ]
            total = sum(c.shape[0] for c in remaining_cols)
            if total == 0:
                # retire: the multi-chunk row swap is deferred to the
                # run's final_commit so the replay applies it at the
                # reference's point of the serial order — and only when
                # no allocation of this run failed
                meter.atomic(1)
                w.done = True

                def _commit(row=w.row, chunks=list(w._produced), off=w._offset):
                    tracker.replace_row(row, chunks, off)

                st.final_commit = _commit
                continue

            if total <= capacity:
                take = np.asarray(
                    [c.shape[0] for c in remaining_cols], dtype=np.int64
                )
            else:
                threshold = w._choose_threshold(st.ctx, remaining_cols, capacity)
                take = w._counts_for(remaining_cols, threshold)
                taken_total = int(take.sum())
                if taken_total == 0 or taken_total > capacity:
                    raise AssertionError(
                        "threshold selection violated the capacity contract"
                    )

            take_list = take.tolist()
            cols_parts = [
                c[:t] for c, t in zip(remaining_cols, take_list) if t
            ]
            vals_parts = [
                v[cur : cur + t]
                for v, cur, t in zip(w._vals, w._cursors, take_list)
                if t
            ]
            st.cols = (
                cols_parts[0] if len(cols_parts) == 1 else np.concatenate(cols_parts)
            )
            st.vals = (
                vals_parts[0] if len(vals_parts) == 1 else np.concatenate(vals_parts)
            )
            st.take = take
            meter.global_read(st.cols.shape[0], elem_bytes)
            batch.append(st)

        if not batch:
            break

        # ---- batched esc_merge_batch over every active segment --------
        nseg = len(batch)
        seg_sizes = np.fromiter((st.cols.shape[0] for st in batch), np.int64, nseg)
        seg_off = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(seg_sizes, out=seg_off[1:])
        cols_b = (
            batch[0].cols if nseg == 1 else np.concatenate([st.cols for st in batch])
        )
        vals_b = (
            batch[0].vals if nseg == 1 else np.concatenate([st.vals for st in batch])
        )

        if opts.enable_bit_reduction:
            cmin = np.minimum.reduceat(cols_b, seg_off[:-1])
            cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
            for i in range(nseg):
                batch[i].meter.scan(int(seg_sizes[i]))
        else:
            cmin = np.zeros(nseg, dtype=np.int64)
            cmax = np.maximum.reduceat(cols_b, seg_off[:-1])
        col_bits = bits_required_array(cmax - cmin)
        # one row per block: row_bits == bits_required(0) == 1, and the
        # row part of every key is zero
        key_bits = col_bits + 1

        keys = (cols_b - np.repeat(cmin, seg_sizes)).astype(np.uint64)
        perm, keys_s = _segmented_sort(keys, seg_sizes, int(col_bits.max()))
        vals_s = vals_b[perm]
        for i in range(nseg):
            batch[i].meter.radix_sort(int(seg_sizes[i]), int(key_bits[i]))

        comp_keys, comp_vals, comp_counts = _segmented_compact(
            keys_s, vals_s, seg_off
        )
        comp_off = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(comp_counts, out=comp_off[1:])
        comp_cols_all = comp_keys.astype(np.int64) + np.repeat(cmin, comp_counts)

        # ---- per-worker chunk emission (reference charge order) --------
        next_active: list[_IterMergeState] = []
        for i, st in enumerate(batch):
            w = st.w
            meter = st.meter
            m = int(seg_sizes[i])
            meter.alu(2 * m)  # compaction neighbour compares
            meter.scan(m)  # Algorithm 3's single scan
            lo_c, hi_c = int(comp_off[i]), int(comp_off[i + 1])
            comp_n = hi_c - lo_c
            meter.alu(m - comp_n)  # the merge's re-combining additions

            chunk = Chunk(
                order_key=w._order_key(),
                kind="data",
                first_row=w.row,
                last_row=w.row,
                rows=np.full(comp_n, w.row, dtype=np.int64),
                cols=comp_cols_all[lo_c:hi_c],
                vals=comp_vals[lo_c:hi_c],
                segment_offsets={w.row: w._offset},
            )
            nbytes = ectx.pool.data_bytes(
                comp_n, dtype.itemsize, opts.col_index_bytes
            )
            rec = AllocationRecord(
                chunk=chunk,
                nbytes=nbytes,
                pre_cycles=meter.cycles,
                pre_counters=copy(meter.counters),
                commit=("none", (), ()),
                restore={
                    "cursors": list(w._cursors),
                    "n_produced": len(w._produced),
                    "offset": w._offset,
                    "emit_seq": w._emit_seq,
                },
                pre_sort_len=len(meter.sort_log or ()),
            )
            st.records.append(rec)
            meter.atomic(1)  # pool bump allocation
            meter.scratchpad(2 * comp_n)
            meter.global_write(comp_n, elem_bytes)
            meter.global_write(1, 32)

            # optimistic advance (rolled back by _iter_merge_on_fail)
            w._emit_seq += 1
            w._offset += comp_n
            w._produced.append(chunk)
            w._cursors = [
                cur + int(t) for cur, t in zip(w._cursors, st.take.tolist())
            ]
            st.cols = st.vals = st.take = None
            next_active.append(st)
        active = next_active

    return [
        OptimisticRun(
            worker=st.w,
            cycles=st.meter.cycles,
            counters=st.meter.counters,
            records=st.records,
            on_fail=_iter_merge_on_fail,
            sort_log=st.meter.sort_log or (),
            final_commit=st.final_commit,
        )
        for st in states
    ]


# ---------------------------------------------------------------------------
# stage 4: batched chunk copy
# ---------------------------------------------------------------------------


def _copy_chunks_batched(
    ectx: EngineContext, row_ptr: np.ndarray, counter_sink: CostMeter
) -> tuple[CSRMatrix, list[float]]:
    pool, tracker, b, opts = ectx.pool, ectx.tracker, ectx.b, ectx.options
    n_rows = tracker.n_rows
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

    # (chunk, row) liveness as sorted composite keys: a row belongs to a
    # chunk iff the tracker's final per-row list still references it.
    # Order keys are unique, so a linked chunk's position in the global
    # order is a binary search of its key.
    order_keys = [ch.order_key for ch in chunks]
    position = np.fromiter(
        (bisect_left(order_keys, ch.order_key) for ch in tracker.chunks),
        np.int64,
        len(tracker.chunks),
    )
    link_ids, link_rows = tracker.live_links()
    link_pos = position[link_ids]
    owned_keys = np.sort(link_pos * n_rows + link_rows)
    linked = np.zeros(n_chunks, dtype=bool)
    linked[link_pos] = True
    copied = np.zeros(n_chunks, dtype=np.int64)

    # ---- pointer chunks (one row each, live iff linked): single-row
    # slice copies -------------------------------------------------------
    for ci, chunk in enumerate(chunks):
        if chunk.kind != "pointer" or not linked[ci]:
            continue
        row = chunk.first_row
        lo = b.row_ptr[chunk.b_row]
        m = chunk.b_length
        base = int(row_ptr[row]) + chunk.segment_offset(row)
        if base + m > int(row_ptr[row + 1]):
            raise AssertionError(f"chunk copy overflows row {row}")
        dest = slice(base, base + m)
        if check:
            if written[dest].any():
                raise AssertionError(f"double write into row {row}")
            written[dest] = True
        col_idx[dest] = b.col_idx[lo : lo + m]
        values[dest] = chunk.factor * b.values[lo : lo + m]
        copied[ci] = m

    # ---- data chunks: coalesced slice copies over the live runs, one
    # slab of consecutive chunks at a time (the per-element index arrays
    # below then stay bounded; coalesced copies never span chunks) -----
    data_ci = [
        ci
        for ci, ch in enumerate(chunks)
        if ch.kind == "data" and ch.rows.shape[0]
    ]
    data_lens = np.fromiter(
        (chunks[ci].rows.shape[0] for ci in data_ci), np.int64, len(data_ci)
    )
    for c0, c1 in _slab_bounds(data_lens.tolist()):
        slab_ci = np.asarray(data_ci[c0:c1], dtype=np.int64)
        dchunks = [chunks[ci] for ci in data_ci[c0:c1]]
        lens = data_lens[c0:c1]
        off = np.zeros(len(dchunks) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        rows_cat = np.concatenate([ch.rows for ch in dchunks])
        n_tot = rows_cat.shape[0]

        # per-(chunk, row) runs via boundary flags with chunk breaks
        flag = np.empty(n_tot, dtype=bool)
        flag[0] = True
        np.not_equal(rows_cat[1:], rows_cat[:-1], out=flag[1:])
        flag[off[:-1]] = True
        pos = np.nonzero(flag)[0]
        run_cnt = np.empty(pos.shape[0], dtype=np.int64)
        np.subtract(pos[1:], pos[:-1], out=run_cnt[:-1])
        run_cnt[-1] = n_tot - pos[-1]
        run_row = rows_cat[pos]
        # pos ascends, so invert the chunk lookup (|off| ≪ |pos|)
        run_di = np.cumsum(
            np.bincount(
                np.searchsorted(pos, off[1:], side="left"),
                minlength=pos.shape[0] + 1,
            )[: pos.shape[0]]
        )
        run_key = slab_ci[run_di] * n_rows + run_row
        if owned_keys.shape[0]:
            j = np.searchsorted(owned_keys, run_key)
            jc = np.minimum(j, owned_keys.shape[0] - 1)
            live = owned_keys[jc] == run_key
        else:
            live = np.zeros(pos.shape[0], dtype=bool)

        # rows split over merge-produced chunks carry explicit in-row
        # segment offsets; everything else starts at the row pointer
        seg_base = np.zeros(pos.shape[0], dtype=np.int64)
        has_off = np.fromiter(
            (ch.segment_offsets is not None for ch in dchunks),
            bool,
            len(dchunks),
        )
        special = np.nonzero(live & has_off[run_di])[0]
        for ri in special.tolist():
            ch = dchunks[int(run_di[ri])]
            seg_base[ri] = ch.segment_offsets.get(int(run_row[ri]), 0)

        rows_l = run_row[live]
        cnt_l = run_cnt[live]
        pos_l = pos[live]
        di_l = run_di[live]
        dst_base = row_ptr[rows_l] + seg_base[live]
        if np.any(dst_base + cnt_l > row_ptr[rows_l + 1]):
            raise AssertionError("chunk copy overflows a row")

        if pos_l.shape[0]:
            # adjacent live runs are almost always contiguous on both the
            # source and destination side and come from the same chunk, so
            # the element-granular gather/scatter collapses into a few
            # thousand slice copies straight out of each chunk's own
            # arrays — no cols/vals concatenation, no index vectors
            brk = np.empty(pos_l.shape[0], dtype=bool)
            brk[0] = True
            brk[1:] = (
                (pos_l[1:] != pos_l[:-1] + cnt_l[:-1])
                | (dst_base[1:] != dst_base[:-1] + cnt_l[:-1])
                | (di_l[1:] != di_l[:-1])
            )
            starts = np.nonzero(brk)[0]
            bounds = np.append(starts, pos_l.shape[0])
            cum = np.zeros(cnt_l.shape[0] + 1, dtype=np.int64)
            np.cumsum(cnt_l, out=cum[1:])
            seg_len = cum[bounds[1:]] - cum[bounds[:-1]]
            src0_list = (pos_l[starts] - off[di_l[starts]]).tolist()
            dst0_list = dst_base[starts].tolist()
            sdi_list = di_l[starts].tolist()
            for s0, d0, di, ln in zip(
                src0_list, dst0_list, sdi_list, seg_len.tolist()
            ):
                ch = dchunks[di]
                de = d0 + ln
                if check:
                    if written[d0:de].any():
                        raise AssertionError("double write during chunk copy")
                    written[d0:de] = True
                col_idx[d0:de] = ch.cols[s0 : s0 + ln]
                values[d0:de] = ch.vals[s0 : s0 + ln]

        copied[slab_ci] = np.bincount(di_l, weights=cnt_l, minlength=len(dchunks))

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
        rows=n_rows,
        cols=b.cols,
        row_ptr=row_ptr,
        col_idx=col_idx,
        values=values,
    )
    return c, bm.cycles.tolist()


# ---------------------------------------------------------------------------


class BatchedEngine(ReferenceEngine):
    """Fuse all ready blocks of each kernel launch into numpy batches.

    Every stage is batched: ESC as one flat batch per slab of each
    round, Multi Merge as one flat batch per round, Path/Search Merge
    as lockstep iterations whose sorts and
    compactions fuse across workers (threshold sampling stays
    per-worker — it reads tiny arrays and carries restart cursors).
    """

    name = "batched"

    def esc_round(self, ectx: EngineContext, pending: list) -> list[RoundOutcome]:
        self.count("fused_esc_launches")
        self.count("fused_esc_blocks", len(pending))
        # blocks are independent until the serial replay, so running the
        # launch slab by slab leaves every run (and the one replay below,
        # which alone touches the pool and tracker) unchanged
        runs: list[OptimisticRun] = []
        for slab in _esc_slabs(ectx, pending):
            self.count("fused_esc_slabs")
            runs += _esc_optimistic_batch(ectx, slab)
        return replay_and_commit(
            ectx.pool, ectx.tracker, runs, ectx.options.costs
        )

    def merge_round(
        self, ectx: EngineContext, stage: str, workers: list
    ) -> list[RoundOutcome]:
        if stage == "MM":
            self.count("fused_mm_launches")
            self.count("fused_mm_groups", len(workers))
            runs = _multi_merge_optimistic_batch(ectx, workers)
            return replay_and_commit(
                ectx.pool, ectx.tracker, runs, ectx.options.costs
            )
        # PM/SM: lockstep-batched iterative merges.  The threshold
        # hooks' internal sample sorts run under the single-pass
        # execution mode (same permutations, same charges).
        self.count("fused_iter_launches")
        self.count("fused_iter_workers", len(workers))
        with fast_stable_sort():
            runs = _iterative_merge_optimistic_batch(ectx, workers)
        return replay_and_commit(
            ectx.pool, ectx.tracker, runs, ectx.options.costs
        )

    def copy_output(
        self, ectx: EngineContext, row_ptr: np.ndarray, counter_sink
    ):
        self.count("fused_copy_launches")
        return _copy_chunks_batched(ectx, row_ptr, counter_sink)
