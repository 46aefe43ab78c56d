"""Unit tests for stage 4 (output assembly, §3.5)."""

import numpy as np
import pytest

from repro import AcSpgemmOptions, CSRMatrix
from repro.core import ChunkPool, RowChunkTracker
from repro.core.chunks import Chunk
from repro.core.output import build_row_pointer, copy_chunks
from repro.gpu import CostMeter, SMALL_DEVICE


@pytest.fixture
def options():
    return AcSpgemmOptions(device=SMALL_DEVICE)


@pytest.fixture
def meter(options):
    return CostMeter(config=options.device)


def chunk_of(order, rows, cols, vals, offsets=None):
    rows = np.asarray(rows, dtype=np.int64)
    return Chunk(
        order_key=order,
        kind="data",
        first_row=int(rows[0]),
        last_row=int(rows[-1]),
        rows=rows,
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
        segment_offsets=offsets,
    )


def test_row_pointer_from_counts(meter):
    tracker = RowChunkTracker(n_rows=4)
    tracker.row_counts[:] = [2, 0, 3, 1]
    ptr = build_row_pointer(tracker, meter)
    np.testing.assert_array_equal(ptr, [0, 2, 2, 5, 6])


def test_copy_single_chunk(options, meter):
    tracker = RowChunkTracker(n_rows=3)
    pool = ChunkPool(capacity_bytes=1 << 16)
    c = chunk_of((0, 0), [0, 0, 2], [1, 4, 0], [1.0, 2.0, 3.0])
    pool.allocate(c, 100, meter)
    tracker.insert_chunk(c, None, meter)
    ptr = build_row_pointer(tracker, meter)
    out, cycles = copy_chunks(pool, tracker, ptr, CSRMatrix.empty(3, 5), options, meter)
    np.testing.assert_array_equal(
        out.to_dense(),
        [[0, 1.0, 0, 0, 2.0], [0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]],
    )
    assert len(cycles) == 1


def test_copy_skips_merged_rows(options, meter):
    """Rows owned by merge-produced chunks are not copied from the
    original ESC chunks."""
    tracker = RowChunkTracker(n_rows=2)
    pool = ChunkPool(capacity_bytes=1 << 16)
    c1 = chunk_of((0, 0), [0, 1], [3, 5], [1.0, 10.0])
    c2 = chunk_of((1, 0), [1], [5], [20.0])
    for c in (c1, c2):
        pool.allocate(c, 100, meter)
        tracker.insert_chunk(c, None, meter)
    merged = chunk_of((100, 0), [1], [5], [30.0])
    pool.allocate(merged, 100, meter)
    tracker.replace_row(1, [merged], 1)
    ptr = build_row_pointer(tracker, meter)
    out, _ = copy_chunks(pool, tracker, ptr, CSRMatrix.empty(2, 8), options, meter)
    assert out.to_dense()[1, 5] == 30.0
    assert out.to_dense()[0, 3] == 1.0


def test_copy_respects_segment_offsets(options, meter):
    tracker = RowChunkTracker(n_rows=1)
    pool = ChunkPool(capacity_bytes=1 << 16)
    # one row split across two merge chunks with explicit offsets
    c1 = chunk_of((0, 0), [0, 0], [1, 2], [1.0, 2.0], offsets={0: 0})
    c2 = chunk_of((0, 1), [0, 0], [5, 9], [3.0, 4.0], offsets={0: 2})
    for c in (c1, c2):
        pool.allocate(c, 100, meter)
    tracker.replace_row(0, [c1, c2], 4)
    ptr = build_row_pointer(tracker, meter)
    out, _ = copy_chunks(pool, tracker, ptr, CSRMatrix.empty(1, 10), options, meter)
    np.testing.assert_array_equal(out.col_idx, [1, 2, 5, 9])
    np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0, 4.0])


def test_copy_materialises_pointer_chunks(options, meter):
    b = CSRMatrix.from_dense(np.array([[0.0, 2.0, 0.0, 4.0]]))
    tracker = RowChunkTracker(n_rows=2)
    pool = ChunkPool(capacity_bytes=1 << 16)
    p = Chunk(
        order_key=(0, 0),
        kind="pointer",
        first_row=1,
        last_row=1,
        b_row=0,
        factor=0.5,
        b_length=2,
    )
    pool.allocate(p, 32, meter)
    tracker.insert_chunk(p, b, meter)
    ptr = build_row_pointer(tracker, meter)
    out, _ = copy_chunks(pool, tracker, ptr, b.copy(), options, meter)
    # shape of output: rows=2, cols follow b
    np.testing.assert_array_equal(out.to_dense()[1], [0.0, 1.0, 0.0, 2.0])


def test_copy_detects_count_mismatch(options, meter):
    tracker = RowChunkTracker(n_rows=1)
    pool = ChunkPool(capacity_bytes=1 << 16)
    c = chunk_of((0, 0), [0, 0], [1, 2], [1.0, 2.0])
    pool.allocate(c, 100, meter)
    tracker.replace_row(0, [c], 1)  # wrong count: chunk holds 2 elements
    ptr = build_row_pointer(tracker, meter)
    with pytest.raises(AssertionError, match="overflows row"):
        copy_chunks(pool, tracker, ptr, CSRMatrix.empty(1, 4), options, meter)
