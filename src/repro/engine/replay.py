"""Optimistic execution with serial replay/commit.

The reference engine steps blocks **in block order**, and each block
stops at its *first* failed chunk-pool allocation — so which blocks hit
:class:`~repro.core.chunks.PoolExhausted` in a round depends on the
block-major allocation order.  A batched host cannot preserve that
order while executing, so it must not touch the shared
pool or tracker during execution.  Instead every block runs
*optimistically* against unlimited virtual space, recording its
allocations in order; afterwards :func:`replay` replays all of a
launch's allocations serially in block order against the real pool:

* a record that fits commits for real — the bump offset is fetched, the
  chunk registered, and its rows linked into the tracker;
* the first record that does not fit fails its block exactly as the
  reference would: the block's restart state is rolled back to the
  snapshot taken when the record was created, its cycles/counters are
  truncated to the pre-allocation snapshot, and the block's remaining
  records are discarded.

Shared-row attribution is the other order-dependent effect: the block
that inserts the *second* chunk of a row pays one extra atomic
(:meth:`RowChunkTracker.insert_chunk`).  Which block that is only becomes
known during the serial commit, so optimistic runs skip that charge and
the replay adds it to the committing block's cycles and counters, as
counted per chunk by the tracker's batched :meth:`RowChunkTracker.link_flat`.

ESC and Multi Merge hand the replay an :class:`OptimisticBatch`, their
launch's runs and allocation records as arrays.  ESC rolls a failed
run back itself from the record's ``restore`` entry; a Multi Merge
restart starts from scratch.  Path/Search Merge run the reference
workers, which allocate from the pool directly and need no replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.chunks import Chunk, ChunkPool, RowChunkTracker
from ..gpu.cost import CostConstants
from ..gpu.counters import COUNTER_FIELDS
from ..sparse.ops import ragged_arange
from .base import RoundOutcomes

__all__ = ["OptimisticBatch", "replay"]

_ATOMIC = COUNTER_FIELDS.index("atomic_ops")


@dataclass
class OptimisticBatch:
    """The optimistic runs of one launch, as arrays.

    Run ``i`` executed ``workers[i]``; had all its records committed it
    ends at ``cycles[i]``, counter row ``counters[i]`` (columns in
    ``COUNTER_FIELDS`` order), ``scratch_high[i]`` and ``sort_logs[i]``.
    Records are listed run by run in emission order: record ``j`` of run
    ``owner[j]`` allocates ``nbytes[j]`` pool bytes for ``chunks[j]``,
    and the ``pre_*[j]`` entries are its run's state just before (what
    the reference reports when that allocation fails).  ``restore[j]``,
    if given, is the worker state the kernel rolls back to when record
    ``j`` fails, in a form the kernel defines.

    ``commit`` applies to every admitted record: ``"insert"`` (ESC)
    links its chunk into rows ``link_rows[link_off[j]:link_off[j + 1]]``
    adding the matching ``link_counts``, and ``"replace"`` (Multi Merge)
    swaps those rows over to it.
    """

    workers: list
    cycles: np.ndarray
    counters: np.ndarray
    scratch_high: np.ndarray
    sort_logs: Sequence
    chunks: list[Chunk]
    owner: np.ndarray
    nbytes: np.ndarray
    pre_cycles: np.ndarray
    pre_counters: np.ndarray
    pre_scratch_high: np.ndarray
    pre_sort_len: np.ndarray
    commit: str
    link_off: np.ndarray
    link_rows: np.ndarray
    link_counts: np.ndarray
    restore: Sequence | None = None

    @classmethod
    def concat(cls, batches: list["OptimisticBatch"]) -> "OptimisticBatch":
        """One batch of ``batches``' runs, in order (one commit kind)."""
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        starts = np.cumsum([0] + [len(bt.workers) for bt in batches[:-1]])
        cat = np.concatenate
        ends = np.cumsum([0] + [bt.link_off[-1] for bt in batches[:-1]])
        link_off = cat(
            [bt.link_off[:-1] + e for bt, e in zip(batches, ends)]
            + [[ends[-1] + batches[-1].link_off[-1]]]
        )
        return cls(
            workers=[w for bt in batches for w in bt.workers],
            cycles=cat([bt.cycles for bt in batches]),
            counters=cat([bt.counters for bt in batches]),
            scratch_high=cat([bt.scratch_high for bt in batches]),
            sort_logs=[log for bt in batches for log in bt.sort_logs],
            chunks=[ch for bt in batches for ch in bt.chunks],
            owner=cat([bt.owner + s for bt, s in zip(batches, starts)]),
            nbytes=cat([bt.nbytes for bt in batches]),
            pre_cycles=cat([bt.pre_cycles for bt in batches]),
            pre_counters=cat([bt.pre_counters for bt in batches]),
            pre_scratch_high=cat([bt.pre_scratch_high for bt in batches]),
            pre_sort_len=cat([bt.pre_sort_len for bt in batches]),
            commit=first.commit,
            link_off=link_off,
            link_rows=cat([bt.link_rows for bt in batches]),
            link_counts=cat([bt.link_counts for bt in batches]),
            restore=(
                cat([bt.restore for bt in batches])
                if first.restore is not None
                else None
            ),
        )


def replay(
    pool: ChunkPool,
    tracker: RowChunkTracker,
    batch: OptimisticBatch,
    constants: CostConstants,
) -> tuple[RoundOutcomes, np.ndarray]:
    """Serially commit ``batch``'s runs in run (block) order.

    Returns the round's outcomes, with exactly the cycles and counters
    the reference execution would have produced, and per run the index
    of the record that failed (-1 when all committed).

    Without a fault hook, a launch whose records all fit the pool is
    admitted by one prefix sum (:meth:`ChunkPool.reserve_all`).
    Otherwise the admission scan is scalar, so the hook sees the
    reference's attempts in its order.
    """
    n_runs, n_recs = len(batch.workers), len(batch.chunks)
    failed = np.empty(n_runs, dtype=np.int64)
    failed.fill(-1)
    nbytes = batch.nbytes
    offsets = pool.reserve_all(nbytes)
    if offsets is not None:
        idx = slice(None)  # every record
        chunks = batch.chunks
    else:
        picked: list[int] = []
        offs: list[int] = []
        for j, (i, nb) in enumerate(zip(batch.owner.tolist(), nbytes.tolist())):
            if failed[i] >= 0:
                continue  # the run stopped at its failed allocation
            # the same admission chokepoint as ChunkPool.allocate: the
            # fault hook sees one attempt here exactly when the reference
            # execution would have attempted this allocation
            off = pool.reserve(nb)
            if off is None:
                failed[i] = j
                continue
            offs.append(off)
            picked.append(j)
        idx = np.asarray(picked, dtype=np.int64)
        offsets = np.asarray(offs, dtype=np.int64)
        chunks = [batch.chunks[j] for j in picked]
    for chunk, off, nb in zip(chunks, offsets.tolist(), nbytes[idx].tolist()):
        chunk.pool_offset = off
        chunk.nbytes = nb
    pool.chunks.extend(chunks)

    extra = None  # per run, the shared-row atomics its links owe
    if batch.commit == "insert" and chunks:
        lens = np.diff(batch.link_off)
        rows, counts = batch.link_rows, batch.link_counts
        if len(chunks) < n_recs:
            lens = lens[idx]
            sel = ragged_arange(batch.link_off[idx], lens)
            rows, counts = rows[sel], counts[sel]
        made = tracker.link_flat(chunks, lens, rows, counts)
        extra = np.bincount(batch.owner[idx], weights=made, minlength=n_runs)
        extra = extra.astype(np.int64)
    elif batch.commit == "replace":
        for j, chunk in zip(np.arange(n_recs)[idx].tolist(), chunks):
            lo, hi = batch.link_off[j], batch.link_off[j + 1]
            tracker.replace_rows(
                batch.link_rows[lo:hi], chunk, batch.link_counts[lo:hi]
            )

    cycles = batch.cycles.copy()
    counters = batch.counters.copy()
    high = batch.scratch_high.copy()
    sort_logs = list(batch.sort_logs)
    if len(chunks) < n_recs:
        # truncate each failed run to its failure point, mirroring what
        # the reference block had done when the allocation raised
        lost = np.flatnonzero(failed >= 0)
        at = failed[lost]
        cycles[lost] = batch.pre_cycles[at]
        counters[lost] = batch.pre_counters[at]
        high[lost] = batch.pre_scratch_high[at]
        for i, j in zip(lost.tolist(), at.tolist()):
            sort_logs[i] = sort_logs[i][: batch.pre_sort_len[j]]
    if extra is not None:
        counters[:, _ATOMIC] += extra
        cycles += extra * constants.atomic_cycles
    outcomes = RoundOutcomes(
        cycles=cycles,
        done=failed < 0,
        counters=counters,
        scratch_high_water=high,
        sort_logs=sort_logs,
    )
    return outcomes, failed
