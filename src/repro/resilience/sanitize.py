"""Sanitizer-mode invariant checks (``AcSpgemmOptions.sanitize``).

The pipeline's correctness rests on a handful of structural invariants
that no single stage can check for itself: the chunk pool's bump
bookkeeping, the per-row chunk lists, the global chunk order keys and
row-coverage completeness.  With ``sanitize=True`` the driver evaluates
these at every stage boundary and raises
:class:`~repro.resilience.errors.SanitizerError` on the first violation
— a corruption detector for engine work (replay bookkeeping bugs in
the batched engine), in the spirit of
``compute-sanitizer`` for the original CUDA kernels.

Everything here is duck-typed over the pool/tracker/scratchpad
protocols and imports only numpy plus the error type.

Invariants
----------

* **Scratchpad balance** — after a block retires (or parks for a
  restart) its named allocations must be empty: every ``alloc`` had a
  matching ``free``.
* **Pool bookkeeping** — allocated chunks tile the pool contiguously in
  allocation order (the bump-allocator property); the used-byte counter
  equals the sum of chunk sizes and never exceeds capacity.
* **Chunk key integrity** — global chunk order keys are unique, so the
  deterministic ``order_key`` sort consumers rely on is a total order.
* **List linkage** — every chunk linked into a row's list is registered
  with the pool and actually carries data for that row, at the element
  offset and count the link records.
* **Row coverage** — per row, the tracker's element count equals the
  sum of the row's per-chunk segment lengths (after ESC these are the
  locally compacted counts; after the merge stages the exact output
  counts), so no products were dropped or double-linked.
"""

from __future__ import annotations

import numpy as np

from .errors import SanitizerError

__all__ = [
    "check_scratchpad_clean",
    "check_chunk_pool",
    "check_tracker",
    "check_stage_boundary",
]


def check_scratchpad_clean(scratchpad, *, stage: str, block_id: int | None = None) -> None:
    """Alloc/free balance: no named allocation survives block retirement."""
    if scratchpad.allocations:
        leaked = ", ".join(sorted(scratchpad.allocations))
        raise SanitizerError(
            f"scratchpad allocations leaked after {stage}: {leaked}",
            stage=stage,
            block_id=block_id,
        )


def check_chunk_pool(pool, *, stage: str) -> None:
    """Bump-allocator bookkeeping: contiguous tiling, exact used bytes."""
    used = pool.used_bytes
    if used > pool.capacity_bytes:
        raise SanitizerError(
            f"pool used bytes {used} exceed capacity {pool.capacity_bytes}",
            stage=stage,
        )
    offset = 0
    for chunk in pool.chunks:
        if chunk.nbytes <= 0:
            raise SanitizerError(
                f"chunk {chunk.order_key} registered with {chunk.nbytes} B",
                stage=stage,
                block_id=chunk.order_key[0],
            )
        if chunk.pool_offset != offset:
            raise SanitizerError(
                f"chunk {chunk.order_key} at pool offset {chunk.pool_offset}, "
                f"expected {offset} (bump allocation is contiguous)",
                stage=stage,
                block_id=chunk.order_key[0],
            )
        offset += chunk.nbytes
    if offset != used:
        raise SanitizerError(
            f"sum of chunk sizes {offset} != pool used bytes {used}",
            stage=stage,
        )
    keys = [c.order_key for c in pool.chunks]
    if len(set(keys)) != len(keys):
        seen = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise SanitizerError(
            f"duplicate global chunk order key {dup}",
            stage=stage,
            block_id=dup[0],
        )


def _row_segment(chunk, row: int) -> tuple[int, int]:
    """``(offset, count)`` of ``row``'s elements in ``chunk`` (count 0
    when it does not cover the row)."""
    if chunk.kind == "pointer":
        return 0, chunk.b_length if row == chunk.first_row else 0
    lo = int(np.searchsorted(chunk.rows, row, side="left"))
    hi = int(np.searchsorted(chunk.rows, row, side="right"))
    return lo, hi - lo


def check_tracker(tracker, pool, *, stage: str) -> None:
    """List linkage and row-coverage completeness."""
    registered = {id(c) for c in pool.chunks}
    for row in np.flatnonzero(tracker.n_links).tolist():
        links = tracker.links_of(row)
        keys = [tracker.chunks[link_id].order_key for link_id, _, _ in links]
        if len(set(keys)) != len(keys):
            raise SanitizerError(
                f"row {row} links chunks with duplicate order keys",
                stage=stage,
            )
        total = 0
        for link_id, offset, count in links:
            chunk = tracker.chunks[link_id]
            if id(chunk) not in registered:
                raise SanitizerError(
                    f"row {row} links chunk {chunk.order_key} that is not "
                    f"registered with the pool",
                    stage=stage,
                    block_id=chunk.order_key[0],
                )
            segment = _row_segment(chunk, row)
            if segment[1] == 0:
                raise SanitizerError(
                    f"row {row} links chunk {chunk.order_key} that carries "
                    f"no data for it",
                    stage=stage,
                    block_id=chunk.order_key[0],
                )
            if (offset, count) != segment:
                raise SanitizerError(
                    f"row {row}'s link to chunk {chunk.order_key} records "
                    f"elements {offset}+{count}, the chunk holds them at "
                    f"{segment[0]}+{segment[1]}",
                    stage=stage,
                    block_id=chunk.order_key[0],
                )
            total += count
        recorded = int(tracker.row_counts[row])
        if total != recorded:
            raise SanitizerError(
                f"row {row} coverage mismatch: chunks carry {total} elements "
                f"but the tracker records {recorded}",
                stage=stage,
            )


def check_stage_boundary(pool, tracker, *, stage: str) -> None:
    """All pool/tracker invariants at one stage boundary."""
    check_chunk_pool(pool, stage=stage)
    check_tracker(tracker, pool, stage=stage)
