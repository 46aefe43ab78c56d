"""Unit tests for the single-scan compaction (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import (
    compact_sorted,
    initial_state,
    scan_operator,
    sequential_compaction_scan,
)
from repro.core.compaction import ScanItem
from repro.gpu import CostMeter, TITAN_XP


@pytest.fixture
def meter():
    return CostMeter(config=TITAN_XP)


def same_row_factory(col_bits):
    def same_row(ka, kb):
        return (ka >> col_bits) == (kb >> col_bits)

    return same_row


class TestInitialState:
    def test_matches_paper_constants(self):
        # Algorithm 3 comment block
        assert initial_state(True, True) == 0b0000_0000_0000_0011_0000_0000_0000_0011
        assert initial_state(True, False) == 0b0000_0000_0000_0010_0000_0000_0000_0011
        assert initial_state(False, False) == 0

    def test_row_end_requires_combine_end(self):
        with pytest.raises(ValueError):
            initial_state(False, True)


class TestScanOperator:
    def test_value_combination(self):
        same_row = same_row_factory(4)
        a = ScanItem(key=0x10, value=1.5, state=initial_state(True, False))
        b = ScanItem(key=0x10, value=2.0, state=initial_state(True, True))
        n = scan_operator(a, b, same_row)
        assert n.value == 3.5
        assert n.key == 0x10

    def test_value_reset_on_new_key(self):
        same_row = same_row_factory(4)
        a = ScanItem(key=0x10, value=1.5, state=initial_state(True, False))
        b = ScanItem(key=0x11, value=2.0, state=initial_state(True, True))
        assert scan_operator(a, b, same_row).value == 2.0

    def test_row_counter_resets_across_rows(self):
        same_row = same_row_factory(4)
        # a ends a row; combining with b from the next row must drop the
        # row counter but keep the chunk counter
        a = ScanItem(key=0x1F, value=1.0, state=initial_state(True, True))
        b = ScanItem(key=0x20, value=1.0, state=initial_state(True, True))
        n = scan_operator(a, b, same_row)
        chunk_count = (n.state & 0xFFFE) >> 1
        row_count = (n.state >> 17) & 0x7FFF
        assert chunk_count == 2
        assert row_count == 1


class TestSequentialScan:
    def test_counters_positions(self):
        col_bits = 4
        same_row = same_row_factory(col_bits)
        # two rows: row0 cols (1,1,2), row1 cols (0,)
        keys = np.array([0x01, 0x01, 0x02, 0x10], dtype=np.uint64)
        values = np.array([1.0, 2.0, 4.0, 8.0])
        out = sequential_compaction_scan(keys, values, same_row)
        # element 1 ends combine seq for key 0x01 with summed value 3
        assert out[1].value == 3.0
        # chunk positions: bits 1-15 count compacted elements so far
        # (non-end elements start at 0, ends contribute their 1)
        chunk_counts = [(o.state & 0xFFFE) >> 1 for o in out]
        assert chunk_counts == [0, 1, 2, 3]
        row_counts = [(o.state >> 17) & 0x7FFF for o in out]
        assert row_counts == [0, 1, 2, 1]


class TestVectorisedCompaction:
    def test_matches_sequential_oracle(self, meter, rng):
        """The vectorised path agrees with the literal scan: identical
        structure, values equal up to summation-order rounding (the
        vectorised reduce combines pairwise like a hardware tree scan)."""
        col_bits = 5
        n = 300
        rows = np.sort(rng.integers(0, 6, n))
        cols = rng.integers(0, 1 << col_bits, n)
        keys = ((rows.astype(np.uint64) << col_bits) | cols.astype(np.uint64))
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], rng.random(n)
        comp = compact_sorted(meter, keys, values, col_bits)

        same_row = same_row_factory(col_bits)
        seq = sequential_compaction_scan(keys, values, same_row)
        ends = [
            i
            for i in range(n)
            if i == n - 1 or keys[i] != keys[i + 1]
        ]
        np.testing.assert_array_equal(comp.keys, keys[ends])
        np.testing.assert_allclose(
            comp.values, [seq[i].value for i in ends], rtol=1e-12
        )
        # determinism: repeating the call yields bitwise identical values
        comp2 = compact_sorted(meter, keys, values, col_bits)
        np.testing.assert_array_equal(
            comp.values.view(np.uint64), comp2.values.view(np.uint64)
        )
        # row offsets match the packed row counters (count - 1)
        np.testing.assert_array_equal(
            comp.row_offsets,
            [((seq[i].state >> 17) & 0x7FFF) - 1 for i in ends],
        )

    def test_unique_keys_pass_through(self, meter):
        keys = np.array([3, 7, 9], dtype=np.uint64)
        vals = np.array([1.0, 2.0, 3.0])
        comp = compact_sorted(meter, keys, vals, 2)
        np.testing.assert_array_equal(comp.keys, keys)
        np.testing.assert_array_equal(comp.values, vals)

    def test_accumulation_left_to_right(self, meter):
        """Equal keys fold in input order — required for bit stability."""
        keys = np.zeros(3, dtype=np.uint64)
        vals = np.array([1e16, 1.0, -1e16])
        comp = compact_sorted(meter, keys, vals, 1)
        assert comp.values[0] == (1e16 + 1.0) - 1e16

    def test_rows_and_offsets(self, meter):
        col_bits = 4
        # row 0: cols 1, 2; row 2: col 0
        keys = np.array([0x01, 0x02, 0x20], dtype=np.uint64)
        vals = np.ones(3)
        comp = compact_sorted(meter, keys, vals, col_bits)
        np.testing.assert_array_equal(comp.rows, [0, 0, 2])
        np.testing.assert_array_equal(comp.row_offsets, [0, 1, 0])

    def test_empty(self, meter):
        comp = compact_sorted(
            meter, np.zeros(0, dtype=np.uint64), np.zeros(0), 4
        )
        assert comp.n == 0

    def test_length_mismatch(self, meter):
        with pytest.raises(ValueError):
            compact_sorted(meter, np.zeros(2, dtype=np.uint64), np.zeros(3), 4)


class TestSegmentedCompaction:
    """The batched engine's segmented compaction gives the keys, the
    bytes of one ``np.add.reduceat`` over all runs (signed zeros
    included) and the per-segment counts, runs breaking at segment
    boundaries."""

    @staticmethod
    def _reduceat(keys, vals, seg_off):
        ends = np.empty(keys.shape[0], dtype=bool)
        ends[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=ends[:-1])
        ends[seg_off[1:] - 1] = True
        end_idx = np.flatnonzero(ends)
        starts = np.concatenate(([0], end_idx[:-1] + 1))
        counts = np.diff(np.searchsorted(end_idx, seg_off))
        return keys[end_idx], np.add.reduceat(vals, starts), counts

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("keyspace", [4, 10**5, 10**9])
    @pytest.mark.parametrize("size", [30, 9000])
    def test_matches_one_reduceat(self, seed, keyspace, size):
        from repro.engine.batched import _segmented_compact

        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, size, int(rng.integers(1, 6)))
        keys = np.concatenate(
            [np.sort(rng.integers(0, keyspace, n)) for n in sizes]
        ).astype(np.uint64)
        vals = rng.standard_normal(keys.shape[0]).astype(
            np.float32 if seed % 2 else np.float64
        )
        vals[rng.random(keys.shape[0]) < 0.1] = -0.0
        seg_off = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        got = _segmented_compact(keys, vals, seg_off)
        want = self._reduceat(keys, vals, seg_off)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tolist() == want[2].tolist()
