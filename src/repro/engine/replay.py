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
the replay adds it to the committing block's cycles and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.chunks import Chunk, ChunkPool, RowChunkTracker
from ..gpu.cost import CostConstants, CostMeter
from ..gpu.counters import TrafficCounters
from .base import RoundOutcome

__all__ = ["AllocationRecord", "OptimisticRun", "replay_and_commit"]


@dataclass
class AllocationRecord:
    """One pool allocation attempted by an optimistically executed block.

    ``pre_cycles`` / ``pre_counters`` snapshot the block's meter just
    before the allocation (what the reference block would report when
    this allocation raises), ``restore`` the worker state to roll back
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
    """One block's optimistic execution: its meter, its allocation
    records in emission order, and how to finalise it."""

    worker: object
    meter: CostMeter
    records: list[AllocationRecord]
    #: applied on success with the final outcome cycles
    on_success: Callable[[object, float], None] | None = None
    #: applied on failure with the failing record and truncated cycles
    on_fail: Callable[[object, AllocationRecord, float], None] | None = None
    #: the block's scratchpad, when the stage uses one (device trace)
    scratchpad: object | None = None
    #: tracker mutation applied once all records committed — the
    #: reference executes it at the same point of the serial order (a
    #: retiring worker's last act, before the next block allocates)
    final_commit: Callable[[], None] | None = None


def snapshot_counters(c: TrafficCounters) -> TrafficCounters:
    """A value copy of a counter set (hot path: avoid dataclasses.replace)."""
    return TrafficCounters(
        c.global_bytes_read,
        c.global_bytes_written,
        c.global_transactions,
        c.scratchpad_accesses,
        c.atomic_ops,
        c.sorted_elements,
        c.sort_passes,
        c.flops,
        c.kernel_launches,
        c.host_round_trips,
        c.hash_probes,
        c.hash_collisions,
    )


def replay_and_commit(
    pool: ChunkPool,
    tracker: RowChunkTracker,
    runs: list[OptimisticRun],
    constants: CostConstants,
) -> list[RoundOutcome]:
    """Serially commit optimistic runs in list (block) order.

    Returns one :class:`RoundOutcome` per run with exactly the cycles
    and counters the reference execution would have produced.
    """
    outcomes: list[RoundOutcome] = []
    for run in runs:
        extra_shared = 0  # deferred second-chunk atomics committed so far
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
                row_lists = tracker.row_lists
                row_counts = tracker.row_counts
                for row, count in zip(rows, counts):
                    lst = row_lists.setdefault(row, [])
                    lst.append(rec.chunk)
                    row_counts[row] += count
                    if len(lst) == 2:
                        tracker.shared_rows.append(row)
                        extra_shared += 1
            elif kind == "replace":
                for row, count in zip(rows, counts):
                    tracker.replace_row(row, [rec.chunk], count)
            # "none": pool registration only (final_commit owns the swap)

        correction = extra_shared * constants.atomic_cycles
        sort_log = run.meter.sort_log
        if failed is None:
            if run.final_commit is not None:
                run.final_commit()
            counters = snapshot_counters(run.meter.counters)
            counters.atomic_ops += extra_shared
            cycles = run.meter.cycles + correction
            if run.on_success is not None:
                run.on_success(run.worker, cycles)
            outcomes.append(
                RoundOutcome(
                    cycles,
                    True,
                    counters,
                    scratch_high_water=(
                        run.scratchpad.high_water if run.scratchpad is not None else 0
                    ),
                    sort_log=tuple(sort_log) if sort_log is not None else (),
                )
            )
        else:
            counters = snapshot_counters(failed.pre_counters)
            counters.atomic_ops += extra_shared
            cycles = failed.pre_cycles + correction
            if run.on_fail is not None:
                run.on_fail(run.worker, failed, cycles)
            # truncate the trace extras to the failure point, mirroring
            # what the reference block had done when the allocation raised
            outcomes.append(
                RoundOutcome(
                    cycles,
                    False,
                    counters,
                    scratch_high_water=failed.pre_scratch_high,
                    sort_log=(
                        tuple(sort_log[: failed.pre_sort_len])
                        if sort_log is not None
                        else ()
                    ),
                )
            )
    return outcomes
