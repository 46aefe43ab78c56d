"""Work and traffic counters for the simulated device.

Every algorithm (AC-SpGEMM and all baselines) charges its work through
these counters; the cost model converts them into cycles.  Keeping the
raw counts separate from the cycle conversion makes the accounting
auditable: a bench can report "bytes moved through global memory" or
"radix passes executed" independently of the calibration constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

__all__ = ["TrafficCounters", "AtomicCounter", "COUNTER_FIELDS", "counter_rows"]


@dataclass
class TrafficCounters:
    """Raw operation counts accumulated during a simulated execution."""

    global_bytes_read: int = 0
    global_bytes_written: int = 0
    global_transactions: int = 0
    scratchpad_accesses: int = 0
    atomic_ops: int = 0
    sorted_elements: int = 0
    sort_passes: int = 0
    flops: int = 0
    kernel_launches: int = 0
    host_round_trips: int = 0
    hash_probes: int = 0
    hash_collisions: int = 0

    def merge(self, other: "TrafficCounters") -> None:
        """Accumulate another counter set into this one, in place."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __sub__(self, other: "TrafficCounters") -> "TrafficCounters":
        """Checked delta: ``self - other``, field by field.

        Counters are monotone within one execution, so a later snapshot
        minus an earlier one can never be negative; a negative field means
        the operands are swapped or come from different runs.  Raising
        here turns that silent underflow into an immediate error.
        """
        if not isinstance(other, TrafficCounters):
            return NotImplemented
        delta = TrafficCounters()
        for name in COUNTER_FIELDS:
            value = getattr(self, name) - getattr(other, name)
            if value < 0:
                raise ValueError(
                    f"negative counter delta for {name!r}: "
                    f"{getattr(self, name)} - {getattr(other, name)} = {value} "
                    "(operands swapped, or snapshots from different runs?)"
                )
            setattr(delta, name, value)
        return delta

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def reset(self) -> None:
        """Zero every counter."""
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)


#: the counter field names in declaration order, computed once: the
#: per-block merges of a launch run too often to walk ``fields()`` each time
COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(TrafficCounters))


_COUNTER_VALUES = attrgetter(*COUNTER_FIELDS)


def counter_rows(counters: Sequence[TrafficCounters]) -> np.ndarray:
    """One int64 row per counter set, columns in ``COUNTER_FIELDS`` order."""
    n, width = len(counters), len(COUNTER_FIELDS)
    flat = chain.from_iterable(map(_COUNTER_VALUES, counters))
    return np.fromiter(flat, np.int64, n * width).reshape(n, width)


@dataclass
class AtomicCounter:
    """A device-global atomic counter (bump allocation, list heads).

    The simulator executes blocks deterministically, so atomics are just
    integers — but routing every increment through this class lets the
    cost model charge atomic-operation latency and lets tests assert on
    contention counts.
    """

    value: int = 0
    operations: int = field(default=0, repr=False)

    def fetch_add(self, amount: int) -> int:
        """Atomically add ``amount``; return the previous value."""
        old = self.value
        self.value += amount
        self.operations += 1
        return old

    def fetch_add_many(self, amounts: np.ndarray) -> np.ndarray:
        """:meth:`fetch_add` of each of ``amounts`` in order; returns the
        previous values (the exclusive prefix sums from the current
        value)."""
        ends = np.cumsum(amounts)
        old = self.value + ends - amounts
        if ends.shape[0]:
            self.value += int(ends[-1])
        self.operations += ends.shape[0]
        return old

    def exchange(self, new: int) -> int:
        """Atomically replace the value; return the previous value."""
        old = self.value
        self.value = new
        self.operations += 1
        return old

    def load(self) -> int:
        """Read the current value."""
        return self.value
