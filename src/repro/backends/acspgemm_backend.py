"""AC-SpGEMM as a registered backend.

A thin adapter: the driver in ``repro.core.acspgemm`` already produces
the full result contract; this class adds the registry name, the
ledger passthrough the selector needs, and the
partition-faithful cycle prediction used for routing.
"""

from __future__ import annotations

import numpy as np

from ..core.acspgemm import ac_spgemm
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..gpu.radix import bits_required, bits_required_array
from ..gpu.scheduler import schedule_blocks
from ..obs.ledger import device_wide_cycles
from .base import Backend
from .registry import register_backend

__all__ = ["AcSpgemmBackend"]


@register_backend
class AcSpgemmBackend(Backend):
    """The paper's adaptive chunk-based ESC pipeline."""

    name = "ac-spgemm"
    bit_stable = True

    def run(self, a, b, options=None, *, ledger=None, scheduler_seed=0):
        # bit-stable by construction: the scheduler seed cannot change
        # the sorted accumulation order, so it is ignored
        return ac_spgemm(a, b, options, ledger=ledger)

    def predict_cycles(self, features, options: AcSpgemmOptions | None = None) -> float:
        """Sum of the predicted per-stage makespans."""
        return float(sum(self.predict_stage_cycles(features, options).values()))

    def predict_stage_cycles(
        self, features, options: AcSpgemmOptions | None = None
    ) -> dict[str, float]:
        """Per-stage cycle prediction replaying the pipeline's shape.

        Rebuilds the decisions the driver would actually take from the
        Table-2 row statistics: the GLB partition (uniform slices of
        A's non-zeros), per-block ESC iteration counts, the shared rows
        produced by block and iteration cuts, the Multi/Path Merge
        split and the capacity-packed merge groups.  Every term is
        charged to a meter and scheduled over the SMs exactly like the
        execution, so the estimate moves with the cost constants and
        tracks the measured stage makespans to within a few percent —
        close enough for the adaptive selector to resolve engine gaps
        of ~5%.
        """
        opts = options or DEFAULT_OPTIONS
        cfg = opts.device
        costs = opts.costs
        launch = costs.kernel_launch_cycles
        eb = opts.element_bytes
        f = features

        if f.nnz_a == 0 or f.temp_products == 0:
            # GLB over an empty partition plus the trivial output pass
            m = self._fresh_meter(opts)
            m.global_read(f.rows + 1, 8)
            m.scan(f.rows)
            return {
                "GLB": device_wide_cycles(m, cfg.num_sms, launch),
                "CC": launch,
            }

        temps = np.asarray(f.row_temps, dtype=np.int64)
        lens = np.asarray(f.row_lengths_a, dtype=np.int64)
        npb = cfg.nnz_per_block_glb
        epb = cfg.elements_per_block
        n_blocks = -(-f.nnz_a // npb)
        bounds = np.minimum(np.arange(n_blocks + 1) * npb, f.nnz_a)
        cum_e = np.concatenate([[0], np.cumsum(lens)])
        cum_t = np.concatenate([[0], np.cumsum(temps)])
        # per-block temp load / row span, linearly interpolated within
        # rows (entries of one row share its temp count uniformly)
        t_at = np.interp(bounds, cum_e, cum_t)
        r_at = np.interp(bounds, cum_e, np.arange(f.rows + 1))
        block_t = np.diff(t_at)
        block_e = np.diff(bounds)
        block_r = np.maximum(1.0, np.diff(r_at))

        compaction = max(1.0, f.compaction)
        span_cols = max(2.0, f.span_fraction * max(f.cols, 2))
        col_bits = int(
            np.clip(
                np.ceil(np.log2(span_cols)), 4, bits_required(max(f.cols - 1, 1))
            )
        )
        if not opts.enable_bit_reduction:
            col_bits = bits_required(max(f.cols - 1, 1))

        # ---- ESC: one block per GLB block, scheduled over the SMs ----
        # every block repeats the same iteration charge n_it times; the
        # iterations run as a loop masked to the blocks still iterating
        m = self._block_meter(opts, n_blocks)
        # A fetch, local row ids, unique-row count, B row lengths
        m.global_read(block_e, eb)
        m.global_read(block_e, 4)
        m.alu(2 * block_e)
        m.global_read(block_e, 8, coalesced=False)
        n_it = np.maximum(1, np.ceil(block_t / epb).astype(np.int64))
        sort_bits = bits_required_array(block_r.astype(np.int64)) + col_bits
        tb = block_t / n_it
        w = (block_t / compaction) / n_it
        tb1, tb2 = tb.astype(np.int64), (2 * tb).astype(np.int64)
        w1, w2 = w.astype(np.int64), (2 * w).astype(np.int64)
        for it in range(int(n_it.max())):
            on = n_it > it
            m.global_read(np.where(on, tb1, 0), eb)  # expansion gather
            m.flops(np.where(on, tb2, 0))
            m.scan(np.where(on, tb2, 0))  # min/max bit-reduction sweeps
            m.radix_sort(np.where(on, tb1, 0), sort_bits)
            m.scan(np.where(on, tb1, 0))  # compaction scan
            m.alu(np.where(on, tb2, 0))  # neighbour comparisons
            m.scratchpad(np.where(on, w2, 0))  # chunk staging round trip
            m.global_write(np.where(on, w1, 0), eb)
            m.global_write(on, 32)  # chunk header
        esc = schedule_blocks(
            m.cycles.tolist(), cfg.num_sms, launch_overhead=launch
        ).makespan_cycles

        glb = self._fresh_meter(opts)
        glb.global_read(f.rows + 1, 8)
        glb.global_write(n_blocks, 4)
        glb.alu(2 * f.rows)
        stage_glb = device_wide_cycles(glb, cfg.num_sms, launch)

        # ---- shared rows: block cuts plus iteration-overflow cuts ----
        interior = bounds[1:-1]
        cut_pos = interior[~np.isin(interior, cum_e)]
        cuts = np.bincount(
            np.searchsorted(cum_e, cut_pos, "right") - 1, minlength=f.rows
        ).astype(np.int64)
        # a row also splits across chunks when its compacted tail cannot
        # be carried between ESC iterations (keep-last-row capacity)
        remaining = np.maximum(1, temps // int(max(1.0, compaction)))
        overflow = remaining > cfg.keep_elements
        cuts += np.where(overflow, np.maximum(0, -(-temps // epb) - 1), 0)
        shared_rows = np.nonzero(cuts > 0)[0]
        n_shared = int(shared_rows.size)
        n_chunks_r = cuts[shared_rows] + 1
        rem_r = remaining[shared_rows]

        mcc = self._fresh_meter(opts)
        mcc.scan(n_shared)
        mcc.global_read(n_shared, 8)
        stage_mcc = device_wide_cycles(mcc, cfg.num_sms, launch)

        mm_mask = (n_chunks_r <= opts.multi_merge_max_chunks) & (rem_r <= epb)

        def merge_block_costs(n_rows, elems, n_segs) -> list[float]:
            """Cycles of one merge block per entry (arrays of rows,
            elements and chunk segments per block)."""
            m = self._block_meter(opts, len(elems))
            # gather: each segment is its own (transaction-quantised) read
            seg = np.maximum(1, (elems / np.maximum(1, n_segs)).astype(np.int64))
            for k in range(int(n_segs.max(initial=0))):
                m.global_read(np.where(n_segs > k, seg, 0), eb)
            m.scan(2 * elems)  # min/max reduction
            m.radix_sort(
                elems, bits_required_array(np.maximum(1, n_rows - 1)) + col_bits
            )
            m.scan(elems)
            m.alu(2 * elems)
            m.scratchpad(2 * elems)
            m.global_write(elems, eb)
            m.global_write(1, 32)
            m.atomic(n_rows)
            return m.cycles.tolist()

        # ---- MM: greedy capacity packing, one block per group --------
        stage_mm = launch
        if mm_mask.any():
            mm_rem = rem_r[mm_mask]
            mm_chunks = n_chunks_r[mm_mask]
            csum = np.cumsum(mm_rem)
            # rows are packed in order, so each group is a run of rows
            group_id = (csum - mm_rem) // epb
            firsts = np.flatnonzero(np.diff(group_id, prepend=-1))
            group_costs = merge_block_costs(
                np.diff(np.append(firsts, len(group_id))),
                np.add.reduceat(mm_rem, firsts),
                np.add.reduceat(mm_chunks, firsts),
            )
            stage_mm = schedule_blocks(
                group_costs, cfg.num_sms, launch_overhead=launch
            ).makespan_cycles

        # ---- PM/SM: one block per oversized shared row ---------------
        stage_pm = 0.0
        if (~mm_mask).any():
            pm_costs = merge_block_costs(
                np.ones(int((~mm_mask).sum()), dtype=np.int64),
                rem_r[~mm_mask],
                n_chunks_r[~mm_mask],
            )
            stage_pm = schedule_blocks(
                pm_costs, cfg.num_sms, launch_overhead=launch
            ).makespan_cycles

        # ---- CC: row pointer scan + chunk copy -----------------------
        est_nnz = max(1.0, f.est_nnz_c)
        cc = self._fresh_meter(opts)
        cc.scan(f.rows)
        cc.global_read(f.rows, 4)
        cc.global_write(f.rows + 1, 8)
        cc.global_read(int(est_nnz), eb)
        cc.global_write(int(est_nnz), eb)
        stage_cc = device_wide_cycles(cc, cfg.num_sms, launch)

        return {
            "GLB": stage_glb,
            "ESC": esc,
            "MCC": stage_mcc,
            "MM": stage_mm,
            "PM": stage_pm,
            "CC": stage_cc,
        }
