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
from itertools import chain

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
        offset = self.reserve(nbytes)
        if offset is None:
            raise PoolExhausted(
                f"chunk pool exhausted: need {nbytes} B, "
                f"{self.free_bytes} of {self.capacity_bytes} B free",
                block_id=chunk.order_key[0],
            )
        chunk.pool_offset = offset
        chunk.nbytes = nbytes
        meter.atomic(1)
        self.chunks.append(chunk)
        return chunk

    def reserve(self, nbytes: int) -> int | None:
        """Bump-allocate ``nbytes`` if :meth:`admission_ok` admits them:
        the allocation's pool offset, or None (pool unchanged)."""
        if not self.admission_ok(nbytes):
            return None
        return self.offset.fetch_add(nbytes)

    def reserve_all(self, nbytes: np.ndarray) -> np.ndarray | None:
        """:meth:`reserve` of every size in ``nbytes``, in order, as one
        prefix sum: the offsets, or None (pool unchanged) when a fault
        hook is installed — it must see every attempt — or they do not
        all fit."""
        total = int(nbytes.sum())
        if self.fault_hook is not None or self.used_bytes + total > self.capacity_bytes:
            return None
        return self.offset.fetch_add_many(nbytes)

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

    The lists are arrays, like the device's list heads: ``chunks``
    holds the chunks as linked (a *link id* is an index there),
    ``n_links`` counts each row's links and ``first`` holds the link id
    of its first chunk (-1 if none).  Only rows with two or more links
    keep their full list, in ``multi``: linking a batch is array work
    plus a loop over its few second and later links (:meth:`link_flat`).

    ``row_counts`` accumulates, atomically, the number of (locally
    compacted) elements each chunk contributes per row; for shared rows
    this equals the remaining intermediate products to merge (§3.3).

    Each link also keeps where the row's elements sit in its chunk:
    ``first_off`` and ``first_cnt`` for the first link (``first_off`` -1
    for a row without links); a ``multi`` list holds ``(link id,
    offset, count)`` per link.  The merges gather shared rows and the
    output copy reads every live row through them.
    """

    n_rows: int
    shared_rows: list[int] = field(default_factory=list)
    chunks: list[Chunk] = field(init=False, default_factory=list)
    n_links: np.ndarray = field(init=False)
    first: np.ndarray = field(init=False)
    multi: dict[int, list[tuple[int, int, int]]] = field(
        init=False, default_factory=dict
    )
    row_counts: np.ndarray = field(init=False)
    first_off: np.ndarray = field(init=False)
    first_cnt: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.n_links = np.zeros(self.n_rows, dtype=np.int64)
        self.first = np.full(self.n_rows, -1, dtype=np.int64)
        self.row_counts = np.zeros(self.n_rows, dtype=np.int64)
        self.first_off = np.full(self.n_rows, -1, dtype=np.int64)
        self.first_cnt = np.zeros(self.n_rows, dtype=np.int64)

    def insert_chunk(self, chunk: Chunk, b: CSRMatrix, meter: CostMeter) -> None:
        """Link ``chunk`` into the list of every row it covers and add
        its element counts.

        Per row, one atomic exchange on the list head plus one atomic
        add on the row count.  Appending to the shared-rows array costs
        another atomic when a row's second chunk arrives — that charge
        is *deferred* to the end of the block's run
        (:class:`~repro.core.esc.EscBlock` counts the new shared rows
        and settles them in one ``meter.atomic`` call), because the
        batched engine only learns which block inserted a row's second
        chunk during the serial replay and settles it the same way;
        charging it inline here would give the reference a different
        float-addition order and break per-block cycle bit-identity
        across engines.
        """
        if chunk.kind == "pointer":
            rows = np.asarray([chunk.first_row], dtype=np.int64)
            counts = np.asarray([chunk.b_length], dtype=np.int64)
        else:
            rows, counts = np.unique(chunk.rows, return_counts=True)
        for _ in range(len(rows)):
            meter.atomic(2)  # per row: list-head exchange + row-count add
        self.link_flat(
            [chunk],
            np.asarray([len(rows)], dtype=np.int64),
            rows.astype(np.int64, copy=False),
            counts.astype(np.int64, copy=False),
        )

    def link_flat(
        self,
        chunks: list[Chunk],
        lens: np.ndarray,
        link_rows: np.ndarray,
        link_counts: np.ndarray,
    ) -> np.ndarray:
        """Link ``chunks[i]`` into the next ``lens[i]`` rows of
        ``link_rows`` (adding the matching ``link_counts``), in commit
        order: chunk by chunk, rows in order.

        Each chunk's rows must be all the rows it covers, ascending, so
        a link's element offset in its chunk is the sum of the chunk's
        earlier counts; rows that do not ascend raise
        :class:`ValueError` (the sanitizer checks every offset against
        the chunk).  A link's ordinal in its row's list is the row's
        prior link count plus its rank among this batch's links to the
        row, from one stable sort by row.  Ordinal 1 makes the row
        shared.  Returns, per chunk, how many rows its links made
        shared (the deferred second-chunk atomics of
        :meth:`insert_chunk`).  Charges nothing.
        """
        made_shared = np.zeros(len(chunks), dtype=np.int64)
        n = link_rows.shape[0]
        if n == 0:
            return made_shared
        chunk_start = np.cumsum(lens) - lens
        ascends = link_rows[1:] > link_rows[:-1]
        inner = chunk_start[(chunk_start > 0) & (chunk_start < n)]
        ascends[inner - 1] = True  # a new chunk may start at any row
        if not ascends.all():
            raise ValueError("a chunk's linked rows must ascend")
        base = len(self.chunks)
        self.chunks.extend(chunks)
        local = np.repeat(np.arange(len(chunks)), lens)  # chunk of each link
        before = np.cumsum(link_counts) - link_counts  # counts before each link
        offsets = before - np.repeat(before[np.minimum(chunk_start, n - 1)], lens)

        # an ESC launch links in row order already: no sort needed
        order = None
        sorted_rows, sorted_counts = link_rows, link_counts
        if not (link_rows[1:] >= link_rows[:-1]).all():
            order = np.argsort(link_rows, kind="stable")
            sorted_rows, sorted_counts = link_rows[order], link_counts[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        sizes = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
        sizes[-1] = n - starts[-1]
        group_rows = sorted_rows[starts]
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        ordinal = self.n_links[sorted_rows] + rank
        if order is not None:  # back to link order
            unsorted = np.empty_like(ordinal)
            unsorted[order] = ordinal
            ordinal = unsorted
        self.n_links[group_rows] += sizes
        self.row_counts[group_rows] += np.add.reduceat(sorted_counts, starts)

        fresh = ordinal == 0  # at most one per row: the row's first link
        fresh_rows = link_rows[fresh]
        self.first[fresh_rows] = local[fresh] + base
        self.first_off[fresh_rows] = offsets[fresh]
        self.first_cnt[fresh_rows] = link_counts[fresh]
        later = np.flatnonzero(~fresh)
        for row, k, o, off, cnt in zip(
            link_rows[later].tolist(),
            local[later].tolist(),
            ordinal[later].tolist(),
            offsets[later].tolist(),
            link_counts[later].tolist(),
        ):
            if o == 1:
                self.multi[row] = [
                    (
                        int(self.first[row]),
                        int(self.first_off[row]),
                        int(self.first_cnt[row]),
                    ),
                    (base + k, off, cnt),
                ]
                self.shared_rows.append(row)
                made_shared[k] += 1
            else:
                self.multi[row].append((base + k, off, cnt))
        return made_shared

    def links_of(self, row: int) -> list[tuple[int, int, int]]:
        """``(link id, offset, count)`` of each of ``row``'s links."""
        links = self.multi.get(row)
        if links is not None:
            return links
        if not self.n_links[row]:
            return []
        return [
            (int(self.first[row]), int(self.first_off[row]), int(self.first_cnt[row]))
        ]

    def row_links(
        self, rows
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(i, link id, offset, count)`` of every link of each row
        ``rows[i]``, in list order: the row's elements are
        ``count`` entries from ``offset`` of the linked chunk."""
        lists = [self.links_of(row) for row in rows]
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(lists)),
            np.int64,
            3 * int(lens.sum()),
        ).reshape(-1, 3)
        pos = np.repeat(np.arange(len(lists)), lens)
        return pos, flat[:, 0], flat[:, 1], flat[:, 2]

    def live_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(link id, row, offset, count)`` of every link the lists
        hold: the row's elements are ``count`` entries from ``offset``
        of the linked chunk."""
        single = np.flatnonzero(self.n_links == 1)
        lens = np.fromiter(map(len, self.multi.values()), np.int64, len(self.multi))
        multi = np.fromiter(
            chain.from_iterable(chain.from_iterable(self.multi.values())),
            np.int64,
            3 * int(lens.sum()),
        ).reshape(-1, 3)
        multi_rows = np.repeat(
            np.fromiter(self.multi, np.int64, len(self.multi)), lens
        )
        return (
            np.concatenate((self.first[single], multi[:, 0])),
            np.concatenate((single, multi_rows)),
            np.concatenate((self.first_off[single], multi[:, 1])),
            np.concatenate((self.first_cnt[single], multi[:, 2])),
        )

    def chunks_for(self, row: int) -> list[Chunk]:
        """Row's chunks in deterministic global chunk order."""
        chunks = (self.chunks[link[0]] for link in self.links_of(row))
        return sorted(chunks, key=lambda c: c.order_key)

    def is_shared(self, row: int) -> bool:
        """True when more than one chunk carries data for ``row``."""
        return bool(self.n_links[row] > 1)

    def sorted_shared_rows(self) -> np.ndarray:
        """Shared rows in ascending row order (deterministic merge
        assignment; the insertion order is scheduler-dependent)."""
        return np.asarray(sorted(self.shared_rows), dtype=np.int64)

    def replace_row(self, row: int, new_chunks: list[Chunk], new_count: int) -> None:
        """After merging, ``row`` is covered by ``new_chunks`` (ordered
        by ascending column range) and its count becomes exact."""
        base = len(self.chunks)
        self.chunks.extend(new_chunks)
        links = [
            (base + k, sl.start, sl.stop - sl.start)
            for k, sl in enumerate(chunk.row_segment(row) for chunk in new_chunks)
        ]
        self.n_links[row] = len(links)
        self.first[row], self.first_off[row], self.first_cnt[row] = (
            links[0] if links else (-1, -1, 0)
        )
        if len(links) > 1:
            self.multi[row] = links
        else:
            self.multi.pop(row, None)
        self.row_counts[row] = new_count

    def replace_rows(self, rows: np.ndarray, chunk: Chunk, counts: np.ndarray) -> None:
        """:meth:`replace_row` of every row in ``rows`` (ascending) onto
        one merged ``chunk``, with ``counts`` its elements per row."""
        link_id = len(self.chunks)
        self.chunks.append(chunk)
        self.n_links[rows] = 1
        self.first[rows] = link_id
        self.first_off[rows] = np.cumsum(counts) - counts  # rows ascend
        self.first_cnt[rows] = counts
        self.row_counts[rows] = counts
        for row in rows.tolist():
            self.multi.pop(row, None)

    def helper_bytes(self) -> int:
        """list heads + shared-row tracker + row counts (Table 3 helper)."""
        return 8 * self.n_rows + 4 * self.n_rows + 4 * len(self.shared_rows)
