"""Unit tests for block-wide primitives and the radix sort."""

import numpy as np
import pytest

from repro.gpu import (
    CostMeter,
    TITAN_XP,
    bits_required,
    block_reduce_minmax,
    blocked_to_striped,
    exclusive_prefix_sum,
    inclusive_max_scan,
    inclusive_prefix_sum,
    radix_sort_pairs,
    radix_sort_permutation,
    striped_to_blocked,
)


@pytest.fixture
def meter():
    return CostMeter(config=TITAN_XP)


class TestScans:
    def test_inclusive_sum(self, meter, rng):
        v = rng.integers(0, 10, 100)
        np.testing.assert_array_equal(
            inclusive_prefix_sum(meter, v), np.cumsum(v)
        )
        assert meter.cycles > 0

    def test_exclusive_sum(self, meter):
        scan, total = exclusive_prefix_sum(meter, np.array([3, 1, 4]))
        np.testing.assert_array_equal(scan, [0, 3, 4])
        assert total == 8

    def test_exclusive_empty(self, meter):
        scan, total = exclusive_prefix_sum(meter, np.zeros(0, dtype=int))
        assert scan.shape == (0,) and total == 0

    def test_max_scan(self, meter):
        v = np.array([1, 5, 2, 7, 3])
        np.testing.assert_array_equal(
            inclusive_max_scan(meter, v), [1, 5, 5, 7, 7]
        )

    def test_minmax_reduce(self, meter):
        lo, hi = block_reduce_minmax(meter, np.array([5, 2, 9, 2]))
        assert (lo, hi) == (2, 9)

    def test_minmax_empty_rejected(self, meter):
        with pytest.raises(ValueError):
            block_reduce_minmax(meter, np.zeros(0, dtype=int))


class TestLayout:
    def test_blocked_striped_round_trip(self, meter, rng):
        threads, per = 8, 4
        v = rng.integers(0, 100, threads * per)
        s = blocked_to_striped(meter, v, threads, per)
        back = striped_to_blocked(meter, s, threads, per)
        np.testing.assert_array_equal(back, v)

    def test_striped_semantics(self, meter):
        # thread t's blocked items [t*N, t*N+N) land at t + i*T
        threads, per = 2, 3
        v = np.array([0, 1, 2, 10, 11, 12])
        s = blocked_to_striped(meter, v, threads, per)
        np.testing.assert_array_equal(s, [0, 10, 1, 11, 2, 12])

    def test_size_mismatch(self, meter):
        with pytest.raises(ValueError):
            blocked_to_striped(meter, np.arange(5), 2, 3)


class TestBitsRequired:
    @pytest.mark.parametrize(
        "value,bits", [(0, 1), (1, 1), (2, 2), (255, 8), (256, 9), (2**23 - 1, 23)]
    )
    def test_values(self, value, bits):
        assert bits_required(value) == bits

    def test_negative(self):
        with pytest.raises(ValueError):
            bits_required(-1)


class TestRadixSort:
    def test_sorts(self, meter, rng):
        keys = rng.integers(0, 1 << 16, 500).astype(np.uint64)
        perm = radix_sort_permutation(meter, keys, 16)
        assert np.all(np.diff(keys[perm].astype(np.int64)) >= 0)

    def test_stable(self, meter, rng):
        """Equal keys keep input order — the bit-stability foundation."""
        keys = rng.integers(0, 8, 400).astype(np.uint64)
        perm = radix_sort_permutation(meter, keys, 3)
        np.testing.assert_array_equal(perm, np.argsort(keys, kind="stable"))

    def test_only_low_bits_sorted(self, meter):
        # keys differing only above key_bits compare equal (stable order):
        # low 4 bits are [0, 0, 0, 1], so order is preserved except the
        # single low-bits-1 key moving last
        keys = np.array([1 << 10, 0, 1 << 10, 1], dtype=np.uint64)
        perm = radix_sort_permutation(meter, keys, 4)
        np.testing.assert_array_equal(perm, [0, 1, 2, 3])
        keys2 = np.array([1, 1 << 10, 0], dtype=np.uint64)
        perm2 = radix_sort_permutation(meter, keys2, 4)
        np.testing.assert_array_equal(perm2, [1, 2, 0])

    def test_pass_count_charged(self):
        m = CostMeter(config=TITAN_XP)
        radix_sort_permutation(m, np.arange(10, dtype=np.uint64), 24, bits_per_pass=8)
        assert m.counters.sort_passes == 6  # meter charges ceil(24/4)

    def test_pairs(self, meter, rng):
        keys = rng.integers(0, 100, 50).astype(np.uint64)
        vals = rng.random(50)
        ks, vs = radix_sort_pairs(meter, keys, vals, 7)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(ks, keys[order])
        np.testing.assert_array_equal(vs, vals[order])

    def test_empty(self, meter):
        perm = radix_sort_permutation(meter, np.zeros(0, dtype=np.uint64), 8)
        assert perm.shape == (0,)

    def test_bad_bits(self, meter):
        with pytest.raises(ValueError):
            radix_sort_permutation(meter, np.array([1], dtype=np.uint64), 0)


class TestExecutionShortcuts:
    """Execution shortcuts never change permutations or charges."""

    def test_equal_digit_fast_exit_charges_unchanged(self, rng):
        # keys identical in the low byte: the first pass is skipped at
        # execution time, yet the meter still charges all ceil(24/4)
        # passes — the device would run them regardless
        keys = (rng.integers(0, 1 << 16, 300).astype(np.uint64) << np.uint64(8)) | np.uint64(0x5A)
        fast, slow = CostMeter(config=TITAN_XP), CostMeter(config=TITAN_XP)
        perm = radix_sort_permutation(fast, keys, 24)
        assert fast.counters.sort_passes == 6
        assert fast.counters.sorted_elements == 300
        # same keys with a varying low byte: identical charge totals
        varied = keys | rng.integers(0, 256, 300).astype(np.uint64)
        radix_sort_permutation(slow, varied, 24)
        assert slow.counters == fast.counters
        assert slow.cycles == fast.cycles
        np.testing.assert_array_equal(perm, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("key_bits", [3, 8, 13, 16, 20, 24])
    def test_fast_stable_sort_identical(self, rng, key_bits):
        from repro.gpu.radix import fast_stable_sort

        keys = rng.integers(0, 1 << 24, 700).astype(np.uint64)
        plain_meter = CostMeter(config=TITAN_XP)
        plain = radix_sort_permutation(plain_meter, keys, key_bits)
        fast_meter = CostMeter(config=TITAN_XP)
        with fast_stable_sort():
            fast = radix_sort_permutation(fast_meter, keys, key_bits)
        np.testing.assert_array_equal(fast, plain)
        assert fast_meter.counters == plain_meter.counters
        assert fast_meter.cycles == plain_meter.cycles

    def test_fast_stable_sort_restores_flag(self):
        from repro.gpu import radix

        with pytest.raises(RuntimeError):
            with radix.fast_stable_sort():
                assert radix._fast_stable.active
                raise RuntimeError("boom")
        assert not radix._fast_stable.active

    def test_fast_stable_sort_is_per_thread(self):
        """Two threads whose contexts interleave (A enters, B enters, A
        exits, B exits) leave the mode off in both and in this thread."""
        import threading

        from repro.gpu import radix

        step = [threading.Event() for _ in range(4)]
        seen: dict[str, list[bool]] = {"a": [], "b": []}

        def a():
            with radix.fast_stable_sort():
                step[0].set()
                step[1].wait(5)
                seen["a"].append(radix._fast_stable.active)
            step[2].set()
            step[3].wait(5)
            seen["a"].append(radix._fast_stable.active)

        def b():
            step[0].wait(5)
            seen["b"].append(radix._fast_stable.active)
            with radix.fast_stable_sort():
                step[1].set()
                step[2].wait(5)
                seen["b"].append(radix._fast_stable.active)
            step[3].set()
            seen["b"].append(radix._fast_stable.active)

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert all(e.is_set() for e in step)
        assert seen == {"a": [True, False], "b": [False, True, False]}
        assert not radix._fast_stable.active
