"""Simulated device memory: per-block scratchpad and global allocations.

The scratchpad enforces the hard on-chip capacity that shapes AC-SpGEMM
(§3: "Considering register sizes of current GPUs and reasonably small
thread block sizes, up to 4000 temporary elements can be held").  Global
allocations are not tracked here: Table 3 / Figure 8 (memory consumption)
read the "helper", "chunk pool" and "used" byte counts of each run's
:class:`repro.core.acspgemm.MemoryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..resilience.errors import ReproError
from .config import DeviceConfig

__all__ = [
    "ScratchpadOverflow",
    "Scratchpad",
    "layout_high_water",
]


class ScratchpadOverflow(ReproError, MemoryError):
    """A block requested more scratchpad than the device provides.

    Unlike pool exhaustion this is not recoverable by growing anything —
    the on-chip capacity is a hard device property — so it propagates
    (or triggers the degradation fallback).  Also a :class:`MemoryError`
    for backwards compatibility.
    """


@dataclass
class Scratchpad:
    """Named-allocation scratchpad with a hard byte capacity.

    Algorithms declare their scratchpad layout up front (as a CUDA kernel
    does statically); the simulator rejects layouts that exceed the
    device capacity instead of silently using more memory — this is what
    keeps the Python reproduction honest about on-chip residency.
    """

    capacity_bytes: int
    allocations: dict[str, int] = field(default_factory=dict)
    #: largest concurrent footprint ever observed; survives ``free``/``reset``
    #: so the device trace can report per-block scratchpad residency
    high_water: int = 0

    @classmethod
    def for_device(cls, config: DeviceConfig) -> "Scratchpad":
        """A scratchpad with the device's per-block capacity."""
        return cls(capacity_bytes=config.scratchpad_bytes)

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return sum(self.allocations.values())

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self.used_bytes

    def alloc(self, name: str, n_bytes: int) -> None:
        """Reserve ``n_bytes`` under ``name``; raises on overflow."""
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self.allocations:
            raise ValueError(f"scratchpad allocation {name!r} already exists")
        if self.used_bytes + n_bytes > self.capacity_bytes:
            raise ScratchpadOverflow(
                f"scratchpad overflow: {name!r} needs {n_bytes} B but only "
                f"{self.free_bytes} of {self.capacity_bytes} B remain "
                f"(existing: {self.allocations})"
            )
        self.allocations[name] = n_bytes
        used = self.used_bytes
        if used > self.high_water:
            self.high_water = used

    def alloc_array(self, name: str, n_elements: int, element_bytes: int) -> None:
        """Reserve an ``n_elements`` array of ``element_bytes`` items."""
        self.alloc(name, n_elements * element_bytes)

    def free(self, name: str) -> None:
        """Release a named allocation."""
        try:
            del self.allocations[name]
        except KeyError:
            raise KeyError(f"no scratchpad allocation named {name!r}") from None

    def reset(self) -> None:
        """Drop every allocation (block retirement)."""
        self.allocations.clear()


def layout_high_water(config: DeviceConfig, layout: dict) -> np.ndarray:
    """Per-block high water of a named scratchpad layout, checked at once.

    ``layout`` maps allocation names, in allocation order, to per-block
    byte counts (arrays; scalars broadcast).  Every block allocates the
    whole layout on a fresh scratchpad and frees nothing before it
    retires, so its high water is the layout's total.  Sizes are
    non-negative, so a block overflows at some allocation iff that
    total exceeds the capacity: the first such block replays its
    allocations on one real :class:`Scratchpad`, which raises the
    :class:`ScratchpadOverflow` a per-block scratchpad would raise.
    """
    sizes = [np.asarray(v, dtype=np.int64) for v in layout.values()]
    total = sum(sizes[1:], sizes[0])
    over = np.flatnonzero(total > config.scratchpad_bytes)
    if over.size:
        pad = Scratchpad.for_device(config)
        for name, n_bytes in zip(layout, sizes):
            pad.alloc(name, int(np.broadcast_to(n_bytes, total.shape)[over[0]]))
    return total

