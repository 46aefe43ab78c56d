"""Unit tests for chunk storage and tracking (§3.2.4)."""

import numpy as np
import pytest

from repro import CSRMatrix
from repro.core import Chunk, ChunkPool, PoolExhausted, RowChunkTracker
from repro.gpu import CostMeter, TITAN_XP


@pytest.fixture
def meter():
    return CostMeter(config=TITAN_XP)


def data_chunk(order, rows, cols, vals):
    rows = np.asarray(rows, dtype=np.int64)
    return Chunk(
        order_key=order,
        kind="data",
        first_row=int(rows[0]),
        last_row=int(rows[-1]),
        rows=rows,
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
    )


class TestChunk:
    def test_row_segment(self):
        c = data_chunk((0, 0), [1, 1, 3, 3, 3], [0, 2, 1, 4, 5], np.ones(5))
        assert c.row_segment(1) == slice(0, 2)
        assert c.row_segment(3) == slice(2, 5)
        with pytest.raises(KeyError):
            c.row_segment(2)

    def test_covered_rows(self):
        c = data_chunk((0, 0), [1, 1, 3], [0, 1, 2], np.ones(3))
        np.testing.assert_array_equal(c.covered_rows(), [1, 3])

    def test_pointer_chunk_materialises_from_b(self):
        b = CSRMatrix.from_dense(np.array([[0.0, 2.0, 3.0], [1.0, 0.0, 0.0]]))
        c = Chunk(
            order_key=(0, 0),
            kind="pointer",
            first_row=5,
            last_row=5,
            b_row=0,
            factor=2.0,
            b_length=2,
        )
        np.testing.assert_array_equal(c.columns(b), [1, 2])
        np.testing.assert_array_equal(c.values(b), [4.0, 6.0])
        assert c.count == 2
        np.testing.assert_array_equal(c.covered_rows(), [5])

    def test_segment_offset_default_zero(self):
        c = data_chunk((0, 0), [1], [0], [1.0])
        assert c.segment_offset(1) == 0
        c.segment_offsets = {1: 7}
        assert c.segment_offset(1) == 7


class TestChunkPool:
    def test_bump_allocation(self, meter):
        pool = ChunkPool(capacity_bytes=1000)
        c1 = data_chunk((0, 0), [0], [0], [1.0])
        c2 = data_chunk((0, 1), [1], [1], [1.0])
        pool.allocate(c1, 400, meter)
        pool.allocate(c2, 400, meter)
        assert c1.pool_offset == 0 and c2.pool_offset == 400
        assert pool.used_bytes == 800

    def test_exhaustion_raises_without_mutation(self, meter):
        pool = ChunkPool(capacity_bytes=100)
        c = data_chunk((0, 0), [0], [0], [1.0])
        with pytest.raises(PoolExhausted):
            pool.allocate(c, 200, meter)
        assert pool.used_bytes == 0
        assert not pool.chunks

    def test_grow_enables_allocation(self, meter):
        pool = ChunkPool(capacity_bytes=100)
        c = data_chunk((0, 0), [0], [0], [1.0])
        pool.grow(200)
        pool.allocate(c, 200, meter)
        assert pool.growths == 1

    def test_ordered_chunks_by_global_key(self, meter):
        pool = ChunkPool(capacity_bytes=10000)
        cb = data_chunk((2, 0), [0], [0], [1.0])
        ca = data_chunk((1, 5), [1], [0], [1.0])
        pool.allocate(cb, 100, meter)
        pool.allocate(ca, 100, meter)
        assert [c.order_key for c in pool.ordered_chunks()] == [(1, 5), (2, 0)]

    def test_data_bytes_includes_header(self):
        pool = ChunkPool(capacity_bytes=0)
        assert pool.data_bytes(10, 8) == 32 + 10 * 12


class TestRowChunkTracker:
    def test_shared_row_detection(self, meter):
        t = RowChunkTracker(n_rows=10)
        c1 = data_chunk((0, 0), [3], [0], [1.0])
        c2 = data_chunk((1, 0), [3], [1], [1.0])
        t.insert_chunk(c1, None, meter)
        assert not t.is_shared(3)
        t.insert_chunk(c2, None, meter)
        assert t.is_shared(3)
        assert t.shared_rows == [3]
        assert t.row_counts[3] == 2

    def test_chunks_for_sorted_by_order_key(self, meter):
        t = RowChunkTracker(n_rows=5)
        c_late = data_chunk((7, 0), [1], [0], [1.0])
        c_early = data_chunk((2, 1), [1], [1], [1.0])
        t.insert_chunk(c_late, None, meter)
        t.insert_chunk(c_early, None, meter)
        assert [c.order_key for c in t.chunks_for(1)] == [(2, 1), (7, 0)]

    def test_insert_chunk_covers_all_rows(self, meter):
        t = RowChunkTracker(n_rows=5)
        b = CSRMatrix.empty(3, 3)
        c = data_chunk((0, 0), [1, 1, 2, 4], [0, 1, 0, 2], np.ones(4))
        t.insert_chunk(c, b, meter)
        assert t.row_counts[1] == 2
        assert t.row_counts[2] == 1
        assert t.row_counts[4] == 1

    def test_replace_row(self, meter):
        t = RowChunkTracker(n_rows=5)
        c1 = data_chunk((0, 0), [2], [0], [1.0])
        c2 = data_chunk((1, 0), [2], [1], [1.0])
        t.insert_chunk(c1, None, meter)
        t.insert_chunk(c2, None, meter)
        merged = data_chunk((100, 0), [2, 2], [0, 1], [1.0, 1.0])
        t.replace_row(2, [merged], 2)
        assert t.chunks_for(2) == [merged]
        assert t.row_counts[2] == 2

    def test_links_of_a_multi_row_chunk_record_each_rows_segment(self, meter):
        t = RowChunkTracker(n_rows=5)
        c1 = data_chunk((0, 0), [1, 1, 2, 4], [0, 1, 0, 2], np.ones(4))
        c2 = data_chunk((1, 0), [2, 2, 4], [1, 2, 0], np.ones(3))
        t.insert_chunk(c1, None, meter)
        t.insert_chunk(c2, None, meter)
        pos, ids, offs, cnts = t.row_links([1, 2, 4])
        assert pos.tolist() == [0, 1, 1, 2, 2]
        assert ids.tolist() == [0, 0, 1, 0, 1]
        assert offs.tolist() == [0, 2, 0, 3, 2]
        assert cnts.tolist() == [2, 1, 2, 1, 1]
        for i, link_id, off, cnt in zip(pos, ids, offs, cnts):
            row = [1, 2, 4][i]
            assert t.chunks[link_id].row_segment(row) == slice(off, off + cnt)

    def test_link_rows_must_ascend_per_chunk(self):
        t = RowChunkTracker(n_rows=5)
        c1 = data_chunk((0, 0), [1, 3], [0, 0], [1.0, 1.0])
        c2 = data_chunk((1, 0), [0, 4], [0, 0], [1.0, 1.0])
        lens = np.asarray([2, 2])
        # a new chunk may start below the previous chunk's last row
        t.link_flat([c1, c2], lens, np.asarray([1, 3, 0, 4]), np.ones(4, np.int64))
        with pytest.raises(ValueError, match="ascend"):
            t.link_flat([c1], lens[:1], np.asarray([3, 1]), np.ones(2, np.int64))

    def test_sanitizer_catches_a_multi_row_chunk_linked_row_by_row(self, meter):
        """Linking one row of a two-row chunk per call records offset 0
        for the second row too; the sanitizer's segment check names it."""
        from repro.resilience.errors import SanitizerError
        from repro.resilience.sanitize import check_tracker

        pool = ChunkPool(capacity_bytes=1 << 16)
        c = data_chunk((0, 0), [2, 3], [0, 0], [1.0, 1.0])
        pool.allocate(c, 64, meter)
        t = RowChunkTracker(n_rows=5)
        t.link_flat([c], np.asarray([1]), np.asarray([2]), np.asarray([1]))
        check_tracker(t, pool, stage="ESC")
        t.link_flat([c], np.asarray([1]), np.asarray([3]), np.asarray([1]))
        with pytest.raises(SanitizerError, match=r"row 3's link .* records elements 0\+1"):
            check_tracker(t, pool, stage="ESC")

    def test_sorted_shared_rows(self, meter):
        t = RowChunkTracker(n_rows=10)
        for row in (7, 2):
            for blk in range(2):
                t.insert_chunk(data_chunk((blk, 0), [row], [0], [1.0]), None, meter)
        np.testing.assert_array_equal(t.sorted_shared_rows(), [2, 7])

    def test_helper_bytes(self, meter):
        t = RowChunkTracker(n_rows=100)
        assert t.helper_bytes() >= 100 * 12


class TestReplayLinks:
    """The serial replay links a round's committed rows in one batch.

    Checked against the scalar semantics it replaces: per committed
    record, append the chunk to each row's list in order; the run whose
    link makes a row's list two long pays one extra atomic and appends
    the row to the shared rows.
    """

    # (block, seq), rows, counts per record; run 1's middle record fails
    RUNS = [
        [((0, 0), [2, 5], [1, 3])],
        [((1, 0), [2], [4]), ((1, 1), [5], [1]), ((1, 2), [7], [1])],
        [((2, 0), [5, 7], [2, 2]), ((2, 1), [7, 9], [1, 1]), ((2, 2), [9], [5])],
    ]
    FAILING_ATTEMPT = 3  # run 1's second record

    def _chunk(self, key, rows, counts):
        rows_e = np.repeat(np.asarray(rows, dtype=np.int64), counts)
        n = rows_e.shape[0]
        return data_chunk(key, rows_e, np.arange(n), np.ones(n))

    @staticmethod
    def _scalar(prior, runs, failing_attempt):
        """The per-row replay loop, on dict-of-list row lists."""
        lists, shared = {}, []
        counts = np.zeros(10, dtype=np.int64)
        for chunk, row, count in prior:
            lists.setdefault(row, []).append(chunk)
            counts[row] += count
        extras, attempt = [], 0
        for records in runs:
            extra = 0
            for chunk, rows, cnts in records:
                attempt += 1
                if attempt == failing_attempt:
                    break
                for row, count in zip(rows, cnts):
                    lst = lists.setdefault(row, [])
                    lst.append(chunk)
                    counts[row] += count
                    if len(lst) == 2:
                        shared.append(row)
                        extra += 1
            extras.append(extra)
        return lists, shared, counts, extras

    def _batch(self, specs):
        """The runs as the replay's array form: every run ends at 1000
        cycles and 100 atomics, its ``k``-th record snapshots ``10 k``."""
        from repro.engine.replay import OptimisticBatch
        from repro.gpu.counters import COUNTER_FIELDS

        def counters(atomic_ops):
            row = np.zeros(len(COUNTER_FIELDS), dtype=np.int64)
            row[COUNTER_FIELDS.index("atomic_ops")] = atomic_ops
            return row

        records = [rec for run in specs for rec in run]
        ks = [k for run in specs for k in range(len(run))]
        lens = [len(rows) for _, rows, _ in records]
        return OptimisticBatch(
            workers=[None] * len(specs),
            cycles=np.full(len(specs), 1000.0),
            counters=np.stack([counters(100)] * len(specs)),
            scratch_high=np.zeros(len(specs), dtype=np.int64),
            sort_logs=[()] * len(specs),
            chunks=[chunk for chunk, _, _ in records],
            owner=np.repeat(np.arange(len(specs)), [len(run) for run in specs]),
            nbytes=np.full(len(records), 64, dtype=np.int64),
            pre_cycles=np.asarray([10.0 * k for k in ks]),
            pre_counters=np.stack([counters(10 * k) for k in ks]),
            pre_scratch_high=np.zeros(len(records), dtype=np.int64),
            pre_sort_len=np.zeros(len(records), dtype=np.int64),
            commit="insert",
            link_off=np.concatenate(([0], np.cumsum(lens))),
            link_rows=np.concatenate([rows for _, rows, _ in records]),
            link_counts=np.concatenate([cnts for _, _, cnts in records]),
        )

    def _specs(self):
        return [
            [(self._chunk(key, rows, cnts), rows, cnts) for key, rows, cnts in run]
            for run in self.RUNS
        ]

    def test_second_and_third_links_from_different_runs(self, meter):
        from repro.engine.replay import replay
        from repro.gpu.cost import CostConstants

        prior_chunk = data_chunk((0, -1), [5], [9], [1.0])
        tracker = RowChunkTracker(n_rows=10)
        tracker.insert_chunk(prior_chunk, None, meter)  # row 5's first link
        attempts = []

        def fault_hook(nbytes):
            attempts.append(nbytes)
            return len(attempts) == self.FAILING_ATTEMPT

        pool = ChunkPool(capacity_bytes=1 << 20, fault_hook=fault_hook)
        specs = self._specs()
        constants = CostConstants()
        outcomes, failed = replay(pool, tracker, self._batch(specs), constants)

        lists, shared, counts, extras = self._scalar(
            [(prior_chunk, 5, 1)], specs, self.FAILING_ATTEMPT
        )
        assert len(attempts) == 6  # run 1's last record is never attempted
        assert shared == [5, 2, 7, 9]
        assert extras == [1, 1, 2]
        assert tracker.shared_rows == shared
        np.testing.assert_array_equal(tracker.row_counts, counts)
        for row in range(10):
            want = sorted(lists.get(row, []), key=lambda c: c.order_key)
            got = tracker.chunks_for(row)
            assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
        assert [o.done for o in outcomes] == [True, False, True]
        assert failed.tolist() == [-1, 2, -1]  # run 1's second record
        assert [o.counters.atomic_ops for o in outcomes] == [101, 10 + 1, 102]
        assert [o.cycles for o in outcomes] == [
            1000.0 + constants.atomic_cycles,
            10.0 + constants.atomic_cycles,
            1000.0 + 2 * constants.atomic_cycles,
        ]

    def test_prefix_sum_admission_matches_the_scan(self):
        """Without a fault hook a launch that fits is admitted by one
        prefix sum: the pool, tracker and outcomes equal those of the
        record-by-record scan a (never failing) hook forces."""
        from repro.engine.replay import replay
        from repro.gpu.cost import CostConstants

        seen = []
        for hook in (lambda nbytes: False, None):
            tracker = RowChunkTracker(n_rows=10)
            pool = ChunkPool(capacity_bytes=1 << 20, fault_hook=hook)
            specs = self._specs()
            outcomes, failed = replay(
                pool, tracker, self._batch(specs), CostConstants()
            )
            assert (failed == -1).all() and outcomes.done.all()
            seen.append((
                [(c.order_key, c.pool_offset, c.nbytes) for c in pool.chunks],
                pool.used_bytes,
                pool.offset.operations,
                tracker.shared_rows,
                tracker.n_links.tolist(),
                tracker.row_counts.tolist(),
                [[c.order_key for c in tracker.chunks_for(r)] for r in range(10)],
                outcomes.cycles.tolist(),
                outcomes.counters.tolist(),
            ))
        assert seen[0] == seen[1]
