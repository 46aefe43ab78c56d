"""Unit tests for the scratchpad and the atomic counter."""

import pytest

from repro.gpu import (
    AtomicCounter,
    Scratchpad,
    ScratchpadOverflow,
    TITAN_XP,
)


class TestScratchpad:
    def test_capacity_enforced(self):
        s = Scratchpad(capacity_bytes=1024)
        s.alloc("a", 1000)
        with pytest.raises(ScratchpadOverflow, match="overflow"):
            s.alloc("b", 100)

    def test_exact_fit(self):
        s = Scratchpad(capacity_bytes=100)
        s.alloc("a", 100)
        assert s.free_bytes == 0

    def test_free_releases(self):
        s = Scratchpad(capacity_bytes=100)
        s.alloc("a", 80)
        s.free("a")
        s.alloc("b", 100)

    def test_duplicate_name_rejected(self):
        s = Scratchpad(capacity_bytes=100)
        s.alloc("a", 10)
        with pytest.raises(ValueError, match="already exists"):
            s.alloc("a", 10)

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            Scratchpad(capacity_bytes=10).free("nope")

    def test_alloc_array(self):
        s = Scratchpad.for_device(TITAN_XP)
        s.alloc_array("keys", 2048, 4)
        assert s.used_bytes == 8192

    def test_for_device_uses_config(self):
        s = Scratchpad.for_device(TITAN_XP)
        assert s.capacity_bytes == TITAN_XP.scratchpad_bytes

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Scratchpad(capacity_bytes=10).alloc("a", -1)

    def test_reset(self):
        s = Scratchpad(capacity_bytes=10)
        s.alloc("a", 10)
        s.reset()
        assert s.used_bytes == 0


class TestAtomicCounter:
    def test_fetch_add_returns_previous(self):
        c = AtomicCounter()
        assert c.fetch_add(5) == 0
        assert c.fetch_add(3) == 5
        assert c.load() == 8
        assert c.operations == 2

    def test_exchange(self):
        c = AtomicCounter(value=7)
        assert c.exchange(2) == 7
        assert c.load() == 2
