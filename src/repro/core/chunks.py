"""Chunk storage and tracking (§3.2.4, Figure 4).

A *chunk* is a partial result of C produced by one block: a run of
complete output rows plus possibly partial first/last rows.  Chunks are
bump-allocated from a global pool via an atomic counter; an array of
chunk pointers allows the pool to grow by simply adding memory regions
(the restart mechanism).

Per output row the tracker keeps a linked list of the chunks that carry
data for it.  List insertion uses an atomic exchange, so the *list*
order is scheduler-dependent — therefore every chunk also carries a
global order key (block id, per-block running chunk number) and all
consumers sort by it, which restores determinism (§3.3: "To guarantee a
deterministic merge order, we perform an initial sort of the chunks
based on their global chunk order").

Two chunk kinds exist:

* ``data`` — materialised (column, value) pairs for one or more rows.
* ``pointer`` — a long-row chunk (§3.4) referencing a row of B plus the
  scale factor from A; its data is produced on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.cost import CostMeter
from ..gpu.counters import AtomicCounter
from ..resilience.errors import ReproError
from ..sparse.csr import CSRMatrix

__all__ = [
    "CHUNK_HEADER_BYTES",
    "PoolExhausted",
    "Chunk",
    "ChunkPool",
    "RowChunkTracker",
]

#: starting row, element count, first/last-row counts, sort key, next
#: pointer of the per-row linked list (Figure 4) — 32 bytes of metadata.
CHUNK_HEADER_BYTES = 32


class PoolExhausted(ReproError, MemoryError):
    """The chunk pool cannot satisfy an allocation; the block must store
    restart information and wait for a host round trip (§3.2.4).

    Normally *recoverable*: the driver's restart loop catches the
    block-level effect, grows the pool and relaunches.  It only reaches
    callers when recovery is impossible (restart budget spent) or
    disabled.  Also a :class:`MemoryError` for backwards compatibility.
    """


@dataclass
class Chunk:
    """One partial result of C."""

    order_key: tuple[int, int]  # (block id, per-block running number)
    kind: str  # "data" | "pointer"
    first_row: int
    last_row: int
    # data chunks --------------------------------------------------------
    rows: np.ndarray | None = None  # global output row of every element
    cols: np.ndarray | None = None
    vals: np.ndarray | None = None
    # pointer chunks -------------------------------------------------------
    b_row: int = -1
    factor: float = 0.0
    b_length: int = 0
    # pool bookkeeping ----------------------------------------------------
    pool_offset: int = -1
    nbytes: int = 0
    # rows split over several merge-produced chunks record where each
    # chunk's segment starts within the output row
    segment_offsets: dict[int, int] | None = None

    def segment_offset(self, row: int) -> int:
        """Start offset of this chunk's segment within ``row``."""
        if self.segment_offsets is None:
            return 0
        return self.segment_offsets.get(row, 0)

    @property
    def count(self) -> int:
        """Stored (or referenced) element count."""
        if self.kind == "pointer":
            return self.b_length
        return int(self.cols.shape[0])

    def columns(self, b: CSRMatrix) -> np.ndarray:
        """Column ids of this chunk's elements (sorted ascending within
        each row); pointer chunks read them from B."""
        if self.kind == "pointer":
            lo = b.row_ptr[self.b_row]
            return b.col_idx[lo : lo + self.b_length]
        return self.cols

    def values(self, b: CSRMatrix) -> np.ndarray:
        """Values; pointer chunks materialise ``factor * B[b_row, :]``."""
        if self.kind == "pointer":
            lo = b.row_ptr[self.b_row]
            return self.factor * b.values[lo : lo + self.b_length]
        return self.vals

    def row_segment(self, row: int) -> slice:
        """Index range of ``row``'s elements inside a data chunk (the
        rows array is sorted, so this is a binary search)."""
        if self.kind == "pointer":
            if row != self.first_row:
                raise KeyError(f"pointer chunk does not cover row {row}")
            return slice(0, self.b_length)
        lo = int(np.searchsorted(self.rows, row, side="left"))
        hi = int(np.searchsorted(self.rows, row, side="right"))
        if lo == hi:
            raise KeyError(f"chunk {self.order_key} has no data for row {row}")
        return slice(lo, hi)

    def covered_rows(self) -> np.ndarray:
        """Distinct output rows with data in this chunk."""
        if self.kind == "pointer":
            return np.asarray([self.first_row], dtype=np.int64)
        return np.unique(self.rows)


@dataclass
class ChunkPool:
    """Bump allocator over a (growable) global memory region."""

    capacity_bytes: int
    offset: AtomicCounter = field(default_factory=AtomicCounter)
    chunks: list[Chunk] = field(default_factory=list)
    growths: int = 0
    #: fault-injection gate (``repro.resilience``): called with the
    #: requested byte count on *every* admission attempt; returning True
    #: forces the attempt to fail as if the pool were exhausted.  Both
    #: admission paths — direct allocation here and the optimistic
    #: engines' serial replay — go through :meth:`admission_ok`, so an
    #: installed hook observes the identical block-major attempt
    #: sequence on every engine.
    fault_hook: object | None = field(default=None, repr=False, compare=False)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by allocated chunks."""
        return self.offset.load()

    @property
    def free_bytes(self) -> int:
        """Remaining pool capacity."""
        return self.capacity_bytes - self.used_bytes

    def data_bytes(self, n_elements: int, value_itemsize: int, col_bytes: int = 4) -> int:
        """Pool bytes for a data chunk of ``n_elements`` entries."""
        return CHUNK_HEADER_BYTES + n_elements * (col_bytes + value_itemsize)

    def allocate(self, chunk: Chunk, nbytes: int, meter: CostMeter) -> Chunk:
        """Reserve pool space for ``chunk`` (atomic bump) and register it.

        Raises :class:`PoolExhausted` without mutating the pool when the
        space does not suffice — the caller stores restart info.
        """
        if nbytes <= 0:
            raise ValueError("chunk allocation must be positive")
        if not self.admission_ok(nbytes):
            raise PoolExhausted(
                f"chunk pool exhausted: need {nbytes} B, "
                f"{self.free_bytes} of {self.capacity_bytes} B free",
                block_id=chunk.order_key[0],
            )
        chunk.pool_offset = self.offset.fetch_add(nbytes)
        chunk.nbytes = nbytes
        meter.atomic(1)
        self.chunks.append(chunk)
        return chunk

    def admission_ok(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would be admitted.

        The single admission chokepoint: consults the fault-injection
        hook first (one *attempt* is counted whether or not the bytes
        would fit), then the capacity.  Does not mutate the pool.
        """
        if self.fault_hook is not None and self.fault_hook(nbytes):
            return False
        return self.used_bytes + nbytes <= self.capacity_bytes

    def grow(self, extra_bytes: int) -> None:
        """Add another memory region to the pool (restart path; a full
        pointer per chunk makes regions position-independent, §3.2.4)."""
        if extra_bytes <= 0:
            raise ValueError("growth must be positive")
        self.capacity_bytes += extra_bytes
        self.growths += 1

    def ordered_chunks(self) -> list[Chunk]:
        """All chunks in the deterministic global chunk order."""
        return sorted(self.chunks, key=lambda c: c.order_key)


@dataclass
class RowChunkTracker:
    """Per-row chunk lists plus the shared-rows array (Figure 4).

    ``row_counts`` accumulates, atomically, the number of (locally
    compacted) elements each chunk contributes per row; for shared rows
    this equals the remaining intermediate products to merge (§3.3).
    """

    n_rows: int
    row_lists: dict[int, list[Chunk]] = field(default_factory=dict)
    shared_rows: list[int] = field(default_factory=list)
    row_counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.row_counts = np.zeros(self.n_rows, dtype=np.int64)

    def insert(self, chunk: Chunk, row: int, count: int, meter: CostMeter) -> None:
        """Link ``chunk`` into ``row``'s list and add its element count.

        One atomic exchange on the list head plus one atomic add on the
        row count.  Appending to the shared-rows array costs another
        atomic when the second chunk arrives — that charge is *deferred*
        to the end of the block's run (:class:`~repro.core.esc.EscBlock`
        counts the new shared rows and settles them in one
        ``meter.atomic`` call), because the batched engine only
        learns which block inserted a row's second chunk during the
        serial replay and settle it the same way; charging it inline
        here would give the reference a different float-addition order
        and break per-block cycle bit-identity across engines.
        """
        lst = self.row_lists.setdefault(row, [])
        lst.append(chunk)
        meter.atomic(2)  # list-head exchange + row-count add
        self.row_counts[row] += count
        if len(lst) == 2:
            self.shared_rows.append(row)

    def insert_chunk(self, chunk: Chunk, b: CSRMatrix, meter: CostMeter) -> None:
        """Insert a chunk for every row it covers."""
        if chunk.kind == "pointer":
            self.insert(chunk, chunk.first_row, chunk.b_length, meter)
            return
        rows, counts = np.unique(chunk.rows, return_counts=True)
        for row, count in zip(rows.tolist(), counts.tolist()):
            self.insert(chunk, row, int(count), meter)

    def chunks_for(self, row: int) -> list[Chunk]:
        """Row's chunks in deterministic global chunk order."""
        return sorted(self.row_lists.get(row, []), key=lambda c: c.order_key)

    def is_shared(self, row: int) -> bool:
        """True when more than one chunk carries data for ``row``."""
        return len(self.row_lists.get(row, ())) > 1

    def sorted_shared_rows(self) -> np.ndarray:
        """Shared rows in ascending row order (deterministic merge
        assignment; the insertion order is scheduler-dependent)."""
        return np.asarray(sorted(self.shared_rows), dtype=np.int64)

    def replace_row(self, row: int, new_chunks: list[Chunk], new_count: int) -> None:
        """After merging, ``row`` is covered by ``new_chunks`` (ordered
        by ascending column range) and its count becomes exact."""
        self.row_lists[row] = list(new_chunks)
        self.row_counts[row] = new_count

    def helper_bytes(self) -> int:
        """list heads + shared-row tracker + row counts (Table 3 helper)."""
        return 8 * self.n_rows + 4 * self.n_rows + 4 * len(self.shared_rows)
