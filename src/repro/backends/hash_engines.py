"""First-class simulated-GPU hash SpGEMM engines.

Two engines, promoted from the host-side cost sketches in
``repro.baselines`` to full pipeline drivers on the simulated device:

``hash-spgemm``
    An nsparse/balanced-hash style binned engine: a device-wide binning
    pass groups A's rows by their temporary-product count, per-bin
    symbolic kernels count nnz per output row in power-of-two
    scratchpad hash tables (rows whose table cannot fit scratchpad run
    against global-memory tables), a device-wide scan builds the row
    pointer, and per-bin numeric kernels accumulate values and emit
    each row sorted by column.

``hashmap-spgemm``
    A Deveci-style (KokkosKernels) multi-level hashmap engine: one
    partitioning pass splits A into contiguous row blocks, then a
    *single* symbolic and a *single* numeric launch run every block
    with a two-level linked-list hashmap — an L1 in scratchpad and an
    L2 spill region in global memory.  Fewer kernel launches and no
    per-row sort (rows are emitted through a cheap compaction
    traversal), at the price of chain-chasing ALU work per probe.

Both engines record through the AC-SpGEMM driver's
:class:`~repro.obs.ledger.LaunchLedger` — per-block cycles and traffic
counters, the :class:`~repro.gpu.memory.Scratchpad` capacity limit,
:func:`~repro.gpu.scheduler.schedule_blocks` makespans, span trees and
device traces — so :func:`repro.obs.analyze.reconcile` holds with zero
tolerance.  Numerically they model the scheduler-dependent hash
insertion order with a seeded shuffle, so they are *not* bit-stable
(the †-rows of Table 1).

The op list each run executes is built by ``_build_ops`` from pure
row statistics (temporary products and output nnz per row).  Each
launch is priced whole: its block plan (the nsparse bins and
global-table rows, or the Deveci row blocks) is reduced to per-block
sums with ``np.add.reduceat`` and charged to one
:class:`~repro.gpu.cost.BlockArrayMeter`, which gives every block the
cycles a per-block :class:`~repro.gpu.cost.CostMeter` would, bit for
bit.  The selector's :meth:`predict_cycles` builds the same op list
from *estimated* per-row output sizes — so the prediction shares every
cost constant and scheduling decision with the execution, and its only
error source is the sampled nnz estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import ProductPlan
from ..core.acspgemm import AcSpgemmResult, MemoryReport
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..gpu.cost import BlockArrayMeter
from ..gpu.memory import layout_high_water
from ..gpu.scheduler import schedule_blocks
from ..obs.device import BlockMeta
from ..obs.ledger import LaunchLedger, device_wide_cycles
from ..sparse.validate import validate_csr
from .base import Backend
from .registry import register_backend

__all__ = ["NsparseHashBackend", "DeveciHashmapBackend"]


@dataclass
class _Blocks:
    """A launch's block plan: per-block row statistics in dispatch order.

    Block ``i`` covers A rows ``row_lo[i]..row_hi[i]`` and has id
    ``first_id + i``; ``temps``/``a_len``/``nnz`` are its rows' sums.
    """

    first_id: int
    row_lo: np.ndarray
    row_hi: np.ndarray
    n_rows: np.ndarray
    temps: np.ndarray
    a_len: np.ndarray
    nnz: np.ndarray

    @classmethod
    def of(cls, first_id, rows, starts, temps, a_lengths, nnz_rows):
        """Blocks of consecutive entries of ``rows`` beginning at ``starts``."""
        if not len(starts):
            empty = np.zeros(0, dtype=np.int64)
            return cls(first_id, empty, empty, empty, empty, empty, empty)
        ends = np.append(starts[1:], len(rows))
        return cls(
            first_id=first_id,
            row_lo=rows[starts],
            row_hi=rows[ends - 1],
            n_rows=ends - starts,
            temps=np.add.reduceat(temps[rows], starts),
            a_len=np.add.reduceat(a_lengths[rows], starts),
            nnz=np.add.reduceat(nnz_rows[rows], starts),
        )

    def __len__(self) -> int:
        return len(self.n_rows)


@dataclass
class _DevicePass:
    """A device-wide pass (perfect SM parallelism plus one launch)."""

    stage: str
    label: str
    meter: object
    attrs: dict


@dataclass
class _Launch:
    """One scheduled kernel launch: its blocks and their meters."""

    stage: str
    round_index: int
    blocks: _Blocks
    meter: BlockArrayMeter
    scratch_high_water: np.ndarray

    def metas(self) -> list[BlockMeta]:
        """The device trace's view of each block, in dispatch order."""
        blk = self.blocks
        return [
            BlockMeta(
                worker_id=blk.first_id + i,
                row_lo=lo,
                row_hi=hi,
                cycles=cyc,
                done=True,
                scratch_high_water=hw,
                counters=snap,
            )
            for i, (lo, hi, cyc, hw, snap) in enumerate(
                zip(
                    blk.row_lo.tolist(),
                    blk.row_hi.tolist(),
                    self.meter.cycles.tolist(),
                    self.scratch_high_water.tolist(),
                    self.meter.snapshots(),
                )
            )
        ]


def _pow2_ceil(x: np.ndarray) -> np.ndarray:
    """Element-wise next power of two (inputs >= 1)."""
    return (1 << np.ceil(np.log2(np.maximum(x, 1))).astype(np.int64)).astype(
        np.int64
    )


class _SimulatedHashEngine(Backend):
    """Shared driver loop of the two hash engines."""

    bit_stable = False
    stage_keys: tuple[str, ...] = ()

    # -- per-engine plan construction ---------------------------------

    def _build_ops(
        self,
        *,
        temps: np.ndarray,
        nnz_rows: np.ndarray,
        a_lengths: np.ndarray,
        rows: int,
        cols: int,
        nnz_a: int,
        b_rows: int,
        opts: AcSpgemmOptions,
    ) -> tuple[list, dict]:
        """The chronological op list plus memory/blocks info."""
        raise NotImplementedError

    # -- execution -----------------------------------------------------

    def run(self, a, b, options=None, *, ledger=None, scheduler_seed=0):
        opts = options or DEFAULT_OPTIONS
        if a.cols != b.rows:
            raise ValueError(
                f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
            )
        ledger = LaunchLedger(opts, self.stage_keys, parent=ledger)
        anchor = ledger.spans.start(
            self.name,
            rows=a.rows,
            inner=a.cols,
            cols=b.cols,
            nnz_a=a.nnz,
            nnz_b=b.nnz,
        )
        with ledger.spans.span("setup", validated=opts.validate_inputs):
            if opts.validate_inputs:
                validate_csr(a)
                validate_csr(b)

        # the true product; the seeded shuffle models the
        # scheduler-dependent hash insertion order (not bit-stable)
        plan = ProductPlan(a, b)
        c = plan.product(opts.value_dtype, scheduler_seed)
        temps = plan.per_row
        del plan  # keeps the per-row counts, drops the sorted products
        nnz_rows = np.asarray(c.row_lengths(), dtype=np.int64)

        ops, info = self._build_ops(
            temps=temps,
            nnz_rows=nnz_rows,
            a_lengths=np.asarray(a.row_lengths(), dtype=np.int64),
            rows=a.rows,
            cols=b.cols,
            nnz_a=a.nnz,
            b_rows=b.rows,
            opts=opts,
        )
        for op in ops:
            if isinstance(op, _DevicePass):
                ledger.device_wide(op.stage, op.label, op.meter, **op.attrs)
            else:
                ledger.launch(
                    op.stage,
                    op.round_index,
                    op.meter.cycles.tolist(),
                    traffic=op.meter.totals(),
                    metas=op.metas,
                    round=op.round_index,
                    blocks=len(op.blocks),
                )

        memory = MemoryReport(
            helper_bytes=info["helper_bytes"],
            chunk_pool_bytes=info["global_table_bytes"],
            chunk_used_bytes=info["global_table_bytes"],
            output_bytes=c.nbytes(),
        )
        return AcSpgemmResult(
            matrix=c,
            memory=memory,
            restarts=0,
            n_chunks=0,
            n_blocks=info["n_blocks"],
            clock_ghz=opts.device.clock_ghz,
            spans=ledger.finish(anchor),
            **ledger.totals(),
        )

    # -- prediction ----------------------------------------------------

    def predict_cycles(self, features, options: AcSpgemmOptions | None = None) -> float:
        """Replay the engine's own op construction on estimated per-row
        output sizes: the prediction shares every cost constant and
        scheduling decision with the execution."""
        opts = options or DEFAULT_OPTIONS
        cfg = opts.device
        launch = opts.costs.kernel_launch_cycles
        f = features
        temps = np.asarray(f.row_temps, dtype=np.int64)
        compaction = max(1.0, f.compaction)
        nnz_est = np.minimum(
            temps, np.ceil(temps / compaction).astype(np.int64)
        )
        if f.cols:
            np.minimum(nnz_est, f.cols, out=nnz_est)
        ops, _ = self._build_ops(
            temps=temps,
            nnz_rows=nnz_est,
            a_lengths=np.asarray(f.row_lengths_a, dtype=np.int64),
            rows=f.rows,
            cols=f.cols,
            nnz_a=f.nnz_a,
            b_rows=f.inner,
            opts=opts,
        )
        total = 0.0
        for op in ops:
            if isinstance(op, _DevicePass):
                total += device_wide_cycles(op.meter, cfg.num_sms, launch)
            else:
                total += schedule_blocks(
                    op.meter.cycles.tolist(),
                    cfg.num_sms,
                    launch_overhead=launch,
                ).makespan_cycles
        return total


@register_backend
class NsparseHashBackend(_SimulatedHashEngine):
    """Binned scratchpad-hash engine (nsparse / balanced hash style)."""

    name = "hash-spgemm"
    stage_keys = ("BIN", "SYM", "PTR", "NUM")

    #: smallest per-row hash table (entries); nsparse's smallest bin
    min_table_entries = 256
    #: fraction of probes that collide and re-probe
    collision_factor = 0.2

    def _capacity_entries(self, opts: AcSpgemmOptions) -> int:
        """Largest power-of-two table fitting scratchpad in the numeric
        phase (entry = column id + value); the same capacity classifies
        rows as local/global in both phases so the binning is stable."""
        cap = opts.device.scratchpad_bytes // opts.element_bytes
        return 1 << int(np.floor(np.log2(max(cap, 2))))

    def _build_ops(
        self, *, temps, nnz_rows, a_lengths, rows, cols, nnz_a, b_rows, opts
    ):
        cfg = opts.device
        eb = opts.element_bytes
        key_bits = self._key_bits(cols)
        collide = self.collision_factor
        ops: list = []

        # ---- BIN: product counts and bin bucketing (device-wide) ----
        m = self._fresh_meter(opts)
        m.global_read(rows + 1, 4)
        m.global_read(nnz_a, 4)
        if nnz_a:
            m.global_read(min(nnz_a, b_rows), 4, coalesced=False)
        m.alu(2 * nnz_a + rows)
        m.global_write(rows, 4)
        m.scan(rows)
        m.global_write(rows, 4)
        ops.append(_DevicePass("BIN", "bin", m, {"rows": rows}))

        # ---- binning plan (mirrors what the BIN kernel computed) ----
        # one launch per power-of-two table size (rows in row order,
        # cap // size rows per block), then one single-row block per
        # row whose table cannot fit scratchpad; size 0 marks that bin
        cap = self._capacity_entries(opts)
        active = np.nonzero(temps)[0]
        need = np.maximum(self.min_table_entries, 2 * temps[active])
        is_global = need > cap
        local_rows = active[~is_global]
        global_rows = active[is_global]
        sizes = _pow2_ceil(need[~is_global])
        plan: list[tuple[int, _Blocks]] = []
        block_id = 0
        for size in np.unique(sizes).tolist():
            bin_rows = local_rows[sizes == size]
            starts = np.arange(0, len(bin_rows), max(1, cap // size))
            blk = _Blocks.of(block_id, bin_rows, starts, temps, a_lengths, nnz_rows)
            plan.append((size, blk))
            block_id += len(starts)
        if len(global_rows):
            starts = np.arange(len(global_rows))
            blk = _Blocks.of(block_id, global_rows, starts, temps, a_lengths, nnz_rows)
            plan.append((0, blk))
            block_id += len(starts)

        # ---- SYM: count nnz per row in hash tables ------------------
        for rnd, (size, blk) in enumerate(plan):
            bm = self._block_meter(opts, len(blk))
            if size:  # scratchpad bin: 4-byte keys
                table = blk.n_rows * size
                high_water = layout_high_water(cfg, {"tables": table * 4})
                bm.global_read(2 * blk.n_rows, 4)  # row list + pointer pairs
                bm.global_read(blk.a_len, 4)
                bm.global_read(blk.temps, 4, coalesced=False)  # gather B cols
                bm.scratchpad(table)  # table init
                bm.hash_probe(blk.temps, in_scratchpad=True)
                bm.hash_collision((collide * blk.temps).astype(np.int64))
                bm.scratchpad(table)  # count sweep
                bm.global_write(blk.n_rows, 4)
            else:  # global-table bin
                high_water = np.zeros(len(blk), dtype=np.int64)
                bm.global_read(2, 4)
                bm.global_read(blk.a_len, 4)
                bm.global_read(blk.temps, 4, coalesced=False)
                bm.hash_probe(blk.temps, in_scratchpad=False)
                bm.hash_probe(
                    (collide * blk.temps).astype(np.int64), in_scratchpad=False
                )
                bm.global_write(1, 4)
            ops.append(_Launch("SYM", rnd, blk, bm, high_water))

        # ---- PTR: row-pointer prefix scan (device-wide) -------------
        m = self._fresh_meter(opts)
        m.global_read(rows, 4)
        m.scan(rows)
        m.global_write(rows + 1, 4)
        ops.append(_DevicePass("PTR", "row_ptr", m, {}))

        # ---- NUM: accumulate values, sort each row, write C ---------
        for rnd, (size, blk) in enumerate(plan):
            bm = self._block_meter(opts, len(blk))
            bm.global_read(2 * blk.n_rows, 4)
            bm.global_read(blk.a_len, eb)
            bm.global_read(blk.temps, eb, coalesced=False)
            if size:  # scratchpad bin
                table = blk.n_rows * size
                high_water = layout_high_water(cfg, {"tables": table * eb})
                bm.scratchpad(table)  # table init
                bm.hash_probe(blk.temps, in_scratchpad=True)
                bm.hash_collision((collide * blk.temps).astype(np.int64))
            else:  # global-table bin
                high_water = np.zeros(len(blk), dtype=np.int64)
                bm.hash_probe(blk.temps, in_scratchpad=False)
                bm.hash_probe(
                    (collide * blk.temps).astype(np.int64), in_scratchpad=False
                )
            bm.flops(2 * blk.temps)
            bm.radix_sort(blk.nnz, key_bits)  # emit rows column-sorted
            bm.global_write(blk.nnz, eb)
            ops.append(_Launch("NUM", rnd, blk, bm, high_water))

        global_table_bytes = int((2 * temps[global_rows]).sum() * eb)
        info = {
            "n_blocks": block_id,
            "global_table_bytes": global_table_bytes,
            # temp counts, bin permutation, row pointer scratch
            "helper_bytes": 8 * rows + 4 * (rows + 1),
        }
        return ops, info


def _row_block_starts(temps: np.ndarray, cap: int) -> np.ndarray:
    """First row of each contiguous block of the greedy row partition.

    A block closes before the row that would push its non-empty load
    past ``cap`` temporary products, so a row heavier than ``cap`` gets
    a block of its own.  Walks block to block over the cumulative load
    with ``searchsorted``, so the cost grows with blocks, not rows.
    """
    rows = len(temps)
    if not rows:
        return np.zeros(0, dtype=np.int64)
    load = np.concatenate(([0], np.cumsum(temps)))
    starts = [0]
    start = 0
    while True:
        # first row r whose inclusion overflows: load[r + 1] - load[start] > cap
        over = int(np.searchsorted(load, load[start] + cap, side="right")) - 1
        if over >= rows:
            break
        # close before it, unless it is the block's first loaded row
        end = over if load[over] > load[start] else over + 1
        if end >= rows:
            break
        starts.append(end)
        start = end
    return np.asarray(starts, dtype=np.int64)


@register_backend
class DeveciHashmapBackend(_SimulatedHashEngine):
    """Two-level linked-list hashmap engine (Deveci et al. style)."""

    name = "hashmap-spgemm"
    stage_keys = ("PART", "SYM", "OUT", "NUM")

    #: ALU ops per probe spent chasing the collision chain
    chain_alu = 2

    def _l1_entries(self, opts: AcSpgemmOptions, *, numeric: bool) -> int:
        """L1 hashmap capacity: key + chain pointer (+ value)."""
        entry = 4 + 4 + (opts.value_dtype.itemsize if numeric else 0)
        return max(1, opts.device.scratchpad_bytes // entry)

    def _build_ops(
        self, *, temps, nnz_rows, a_lengths, rows, cols, nnz_a, b_rows, opts
    ):
        cfg = opts.device
        eb = opts.element_bytes
        ops: list = []

        # ---- PART: product counts and team partition (device-wide) --
        m = self._fresh_meter(opts)
        m.global_read(rows + 1, 4)
        m.global_read(nnz_a, 4)
        if nnz_a:
            m.global_read(min(nnz_a, b_rows), 4, coalesced=False)
        m.alu(2 * nnz_a + rows)
        m.scan(rows)
        m.global_write(rows, 4)

        # contiguous row blocks, one team each; a block closes once it
        # holds elements_per_block temporary products (huge rows get a
        # block of their own — the L2 spill absorbs them)
        starts = _row_block_starts(temps, cfg.elements_per_block)
        blocks = _Blocks.of(
            0, np.arange(rows, dtype=np.int64), starts, temps, a_lengths, nnz_rows
        )
        ops.append(_DevicePass("PART", "partition", m, {"blocks": len(blocks)}))

        def phase(stage: str, numeric: bool) -> _Launch:
            l1 = self._l1_entries(opts, numeric=numeric)
            entry_bytes = 4 + 4 + (opts.value_dtype.itemsize if numeric else 0)
            in_bytes = eb if numeric else 4
            spilled = 2 * temps > l1  # rows served from the L2 spill
            l2_temp = np.add.reduceat(np.where(spilled, temps, 0), starts)
            l1_temp = blocks.temps - l2_temp
            used = np.minimum(l1, 2 * blocks.temps)
            high_water = layout_high_water(cfg, {"l1": used * entry_bytes})
            bm = self._block_meter(opts, len(blocks))
            bm.global_read(2, 4)  # block descriptor
            bm.global_read(blocks.a_len, in_bytes)
            bm.global_read(blocks.temps, in_bytes, coalesced=False)
            bm.scratchpad(used)  # head-array init
            bm.hash_probe(l1_temp, in_scratchpad=True)
            bm.alu(self.chain_alu * l1_temp)  # chain chase
            bm.hash_probe(l2_temp, in_scratchpad=False)
            bm.alu(self.chain_alu * l2_temp)
            if numeric:
                bm.flops(2 * blocks.temps)
                l2_nnz = np.add.reduceat(np.where(spilled, nnz_rows, 0), starts)
                bm.global_read(l2_nnz, eb, coalesced=False)
                # compaction traversal instead of a per-row sort
                bm.scratchpad(2 * blocks.nnz)
                bm.alu(2 * blocks.nnz)
                bm.global_write(blocks.nnz, eb)
            else:
                bm.global_write(blocks.n_rows, 4)  # per-row nnz counts
            return _Launch(stage, 0, blocks, bm, high_water)

        if len(blocks):
            ops.append(phase("SYM", numeric=False))

        m = self._fresh_meter(opts)
        m.global_read(rows, 4)
        m.scan(rows)
        m.global_write(rows + 1, 4)
        ops.append(_DevicePass("OUT", "row_ptr", m, {}))

        if len(blocks):
            ops.append(phase("NUM", numeric=True))

        l1_num = self._l1_entries(opts, numeric=True)
        spill_temps = temps[2 * temps > l1_num]
        info = {
            "n_blocks": len(blocks),
            # L2 spill pool: chained (key, value, next) nodes
            "global_table_bytes": int(
                (2 * spill_temps).sum() * (opts.element_bytes + 4)
            ),
            "helper_bytes": 8 * rows + 4 * (rows + 1),
        }
        return ops, info
