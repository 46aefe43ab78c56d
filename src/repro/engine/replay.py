"""Optimistic execution with serial replay/commit.

The reference engine steps blocks **in block order**, and each block
stops at its *first* failed chunk-pool allocation — so which blocks hit
:class:`~repro.core.chunks.PoolExhausted` in a round depends on the
block-major allocation order.  A batched host cannot preserve that
order while executing, so it must not touch the shared
pool or tracker during execution.  Instead every block runs
*optimistically* against unlimited virtual space, recording an ordered
list of :class:`AllocationRecord`; afterwards :func:`replay_and_commit`
replays all allocations serially in block order against the real pool:

* a record that fits commits for real — the bump offset is fetched, the
  chunk registered, and its rows linked into the tracker;
* the first record that does not fit fails its block exactly as the
  reference would: the block's restart state is rolled back to the
  snapshot taken when the record was created, its cycles/counters are
  truncated to the pre-allocation snapshot, and the block's remaining
  records are discarded.

Shared-row attribution is the other order-dependent effect: the block
that inserts the *second* chunk of a row pays one extra atomic
(:meth:`RowChunkTracker.insert`).  Which block that is only becomes
known during the serial commit, so optimistic runs skip that charge and
the replay adds it to the committing block's cycles and counters, as
counted per chunk by the tracker's batched :meth:`RowChunkTracker.link`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.chunks import Chunk, ChunkPool, RowChunkTracker
from ..gpu.cost import CostConstants
from ..gpu.counters import TrafficCounters
from .base import RoundOutcome

__all__ = ["AllocationRecord", "OptimisticRun", "replay_and_commit"]


@dataclass
class AllocationRecord:
    """One pool allocation attempted by an optimistically executed block.

    ``pre_cycles`` / ``pre_counters`` are value copies of the block's
    charges just before the allocation (what the reference block would
    report when this allocation raises; the replay owns the copy),
    ``restore`` the worker state to roll back
    to, and ``commit`` the tracker mutation to apply on success:
    ``("insert", rows, counts)`` links the chunk into each covered
    row's list, ``("replace", rows, counts)`` swaps merged rows over,
    and ``("none", (), ())`` registers the chunk in the pool without
    touching the tracker (iterative merges defer their row swap to the
    run's ``final_commit``, because the replacement spans every chunk
    the worker produced, across rounds).
    """

    chunk: Chunk
    nbytes: int
    pre_cycles: float
    pre_counters: TrafficCounters
    commit: tuple
    restore: dict = field(default_factory=dict)
    #: device-trace snapshots taken with ``pre_cycles``: the scratchpad
    #: high-water mark and sort-log length at the moment the reference
    #: execution would have attempted (and failed) this allocation
    pre_scratch_high: int = 0
    pre_sort_len: int = 0


@dataclass
class OptimisticRun:
    """One block's optimistic execution: its final charges, its
    allocation records in emission order, and how to finalise it.

    ``cycles`` and ``counters`` are the block's totals had every record
    committed (the replay owns ``counters`` and adds the shared-row
    atomics to it); ``sort_log`` lists the block's radix sorts as
    ``(n_elements, key_bits)`` (empty unless the device is traced) and
    ``scratch_high_water`` its peak scratchpad bytes.
    """

    worker: object
    cycles: float
    counters: TrafficCounters
    records: list[AllocationRecord]
    #: applied on success with the final outcome cycles
    on_success: Callable[[object, float], None] | None = None
    #: applied on failure with the failing record and truncated cycles
    on_fail: Callable[[object, AllocationRecord, float], None] | None = None
    sort_log: Sequence[tuple[int, int]] = ()
    scratch_high_water: int = 0
    #: tracker mutation applied once all records committed — the
    #: reference executes it at the same point of the serial order (a
    #: retiring worker's last act, before the next block allocates)
    final_commit: Callable[[], None] | None = None


def replay_and_commit(
    pool: ChunkPool,
    tracker: RowChunkTracker,
    runs: list[OptimisticRun],
    constants: CostConstants,
) -> list[RoundOutcome]:
    """Serially commit optimistic runs in list (block) order.

    Returns one :class:`RoundOutcome` per run with exactly the cycles
    and counters the reference execution would have produced.

    The admission scan is scalar, so the fault hook sees the reference's
    attempts in its order.  Committed ``insert`` records are linked in
    one :meth:`RowChunkTracker.link` batch, flushed first by a
    ``replace`` record or a ``final_commit`` to keep tracker mutations
    in serial order.
    """
    failed_at: list[AllocationRecord | None] = []
    extra_shared = np.zeros(len(runs), dtype=np.int64)
    batch: list[tuple[int, AllocationRecord]] = []  # (run, insert record)

    def link_batch() -> None:
        if batch:
            owners, recs = zip(*batch)
            made = tracker.link(
                [rec.chunk for rec in recs],
                [rec.commit[1] for rec in recs],
                [rec.commit[2] for rec in recs],
            )
            np.add.at(extra_shared, np.asarray(owners), made)
            batch.clear()

    for i, run in enumerate(runs):
        failed: AllocationRecord | None = None
        for rec in run.records:
            # the same admission chokepoint as ChunkPool.allocate — the
            # fault-injection hook sees one attempt here exactly when the
            # reference execution would have attempted this allocation
            if not pool.admission_ok(rec.nbytes):
                failed = rec
                break
            rec.chunk.pool_offset = pool.offset.fetch_add(rec.nbytes)
            rec.chunk.nbytes = rec.nbytes
            pool.chunks.append(rec.chunk)
            kind, rows, counts = rec.commit
            if kind == "insert":
                batch.append((i, rec))
            elif kind == "replace":
                link_batch()
                for row, count in zip(rows, counts):
                    tracker.replace_row(row, [rec.chunk], count)
            # "none": pool registration only (final_commit owns the swap)
        if failed is None and run.final_commit is not None:
            link_batch()
            run.final_commit()
        failed_at.append(failed)
    link_batch()

    outcomes: list[RoundOutcome] = []
    for run, failed, extra in zip(runs, failed_at, extra_shared.tolist()):
        if failed is None:
            counters, cycles = run.counters, run.cycles
            high, sort_log = run.scratch_high_water, run.sort_log
        else:
            # truncate the trace extras to the failure point, mirroring
            # what the reference block had done when the allocation raised
            counters, cycles = failed.pre_counters, failed.pre_cycles
            high = failed.pre_scratch_high
            sort_log = run.sort_log[: failed.pre_sort_len]
        counters.atomic_ops += extra
        cycles += extra * constants.atomic_cycles
        if failed is None and run.on_success is not None:
            run.on_success(run.worker, cycles)
        elif failed is not None and run.on_fail is not None:
            run.on_fail(run.worker, failed, cycles)
        outcomes.append(
            RoundOutcome(
                cycles,
                failed is None,
                counters,
                scratch_high_water=high,
                sort_log=tuple(sort_log),
            )
        )
    return outcomes
