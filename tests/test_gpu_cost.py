"""Unit tests for the cycle cost model."""

from dataclasses import fields

import numpy as np
import pytest

from repro.gpu import CostMeter, TITAN_XP, TrafficCounters
from repro.gpu.counters import COUNTER_FIELDS


@pytest.fixture
def meter():
    return CostMeter(config=TITAN_XP)


class TestGlobalMemory:
    def test_coalesced_cheaper_than_uncoalesced(self):
        m1 = CostMeter(config=TITAN_XP)
        m2 = CostMeter(config=TITAN_XP)
        m1.global_read(1000, 4, coalesced=True)
        m2.global_read(1000, 4, coalesced=False)
        assert m2.cycles > 4 * m1.cycles

    def test_transaction_rounding(self, meter):
        meter.global_read(1, 4)  # one 128-byte transaction minimum
        assert meter.counters.global_transactions == 1
        assert meter.cycles == pytest.approx(128 / meter.constants.bytes_per_cycle)

    def test_write_counts_bytes(self, meter):
        meter.global_write(10, 8)
        assert meter.counters.global_bytes_written == 80
        assert meter.counters.global_bytes_read == 0

    def test_zero_elements_free(self, meter):
        meter.global_read(0, 8)
        assert meter.cycles == 0


class TestOnChip:
    def test_scratchpad_cost(self, meter):
        meter.scratchpad(64)
        assert meter.cycles == pytest.approx(64 / 32)
        assert meter.counters.scratchpad_accesses == 64

    def test_flops_counted(self, meter):
        meter.flops(256)
        assert meter.counters.flops == 256
        assert meter.cycles == pytest.approx(256 / 128)

    def test_radix_cost_proportional_to_bits(self):
        """The property AC-SpGEMM's bit reduction exploits (§3.2.3)."""
        costs = []
        for bits in (8, 16, 32):
            m = CostMeter(config=TITAN_XP)
            m.radix_sort(2048, bits)
            costs.append(m.cycles)
        assert costs[1] == pytest.approx(2 * costs[0])
        assert costs[2] == pytest.approx(4 * costs[0])

    def test_radix_counters(self, meter):
        meter.radix_sort(100, 16)
        assert meter.counters.sorted_elements == 100
        assert meter.counters.sort_passes == 4

    def test_radix_rejects_zero_bits(self, meter):
        # via the radix module; the meter itself clamps to >= 1 pass
        meter.radix_sort(10, 1)
        assert meter.counters.sort_passes == 1

    def test_scan_cost_linear(self):
        m1 = CostMeter(config=TITAN_XP)
        m2 = CostMeter(config=TITAN_XP)
        m1.scan(100)
        m2.scan(200)
        assert m2.cycles == pytest.approx(2 * m1.cycles)


class TestHashCosts:
    def test_scratchpad_probe_cheaper_than_global(self):
        m1 = CostMeter(config=TITAN_XP)
        m2 = CostMeter(config=TITAN_XP)
        m1.hash_probe(1000, in_scratchpad=True)
        m2.hash_probe(1000, in_scratchpad=False)
        assert m2.cycles > 3 * m1.cycles
        assert m1.counters.hash_probes == m2.counters.hash_probes == 1000

    def test_collision_cost(self, meter):
        meter.hash_collision(10)
        assert meter.counters.hash_collisions == 10


class TestDeviceEvents:
    def test_kernel_launch(self, meter):
        meter.kernel_launch(2)
        assert meter.counters.kernel_launches == 2
        assert meter.cycles == pytest.approx(
            2 * meter.constants.kernel_launch_cycles
        )

    def test_host_round_trip_dearer_than_launch(self, meter):
        assert (
            meter.constants.host_round_trip_cycles
            > meter.constants.kernel_launch_cycles
        )

    def test_seconds(self, meter):
        meter.cycles = TITAN_XP.clock_ghz * 1e9  # exactly one second
        assert meter.seconds() == pytest.approx(1.0)


class TestCounters:
    def test_merge_accumulates(self):
        a = TrafficCounters(flops=5, atomic_ops=2)
        b = TrafficCounters(flops=3, hash_probes=7)
        a.merge(b)
        assert a.flops == 8 and a.atomic_ops == 2 and a.hash_probes == 7

    def test_field_tuple_matches_a_fields_walk(self):
        """``merge``, ``-`` and ``snapshot`` read the precomputed field
        tuple; on random counters they match a ``fields()`` walk."""
        assert list(COUNTER_FIELDS) == [f.name for f in fields(TrafficCounters)]

        def walk(c):
            return {f.name: getattr(c, f.name) for f in fields(c)}

        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = rng.integers(0, 1000, len(COUNTER_FIELDS))
            hi = lo + rng.integers(1, 1000, len(COUNTER_FIELDS))
            a = TrafficCounters(*hi.tolist())
            b = TrafficCounters(*lo.tolist())
            assert a.snapshot() == walk(a)
            assert walk(a - b) == {k: v - walk(b)[k] for k, v in walk(a).items()}
            merged = TrafficCounters(*hi.tolist())
            merged.merge(b)
            assert walk(merged) == {
                k: v + walk(b)[k] for k, v in walk(a).items()
            }
            with pytest.raises(ValueError, match="negative counter delta"):
                b - a

    def test_snapshot_and_reset(self):
        c = TrafficCounters(flops=5)
        snap = c.snapshot()
        assert snap["flops"] == 5
        c.reset()
        assert c.flops == 0

    def test_meter_merge_keeps_cycles(self):
        a = CostMeter(config=TITAN_XP)
        b = CostMeter(config=TITAN_XP)
        a.cycles = 10
        b.cycles = 20
        b.flops(100)
        a.merge(b)
        assert a.cycles == 10  # counters only
        assert a.counters.flops == 100
