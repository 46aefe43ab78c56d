"""Cycle cost model for the simulated GPU.

The reproduction cannot measure wall time on a Titan Xp, so every
algorithm charges its work to a :class:`CostMeter`, and simulated time is
``cycles / clock``.  GFLOPS reported by the benches are derived from this
simulated time.  Absolute numbers are therefore *model* numbers; the
claims we reproduce are relative (who is faster on which matrix class).

Calibration of the constants (all per-SM, in core cycles):

* **Global memory.**  Titan Xp: ~547 GB/s over 30 SMs at 1.582 GHz gives
  ``547e9 / (30 * 1.582e9) ≈ 11.5`` bytes per SM-cycle.  A coalesced
  access moves ``ceil(n*b / 128)`` 128-byte transactions; an uncoalesced
  access wastes a 32-byte sector per element.
* **Scratchpad.**  32 banks × 4 bytes per cycle → a warp-wide conflict-
  free access costs 1 cycle, i.e. ``n / 32`` cycles for n elements.
* **ALU.**  128 FMA lanes per SM → ``n / 128`` cycles for n scalar ops.
* **Radix sort.**  CUB-style block radix sort processes ``RADIX_BITS``
  bits per pass; each pass ranks and scatters every element through
  scratchpad (several scratchpad round trips + rank arithmetic per
  element).  Crucially the number of passes is ``ceil(bits /
  RADIX_BITS)`` — this is what makes the paper's dynamic bit-length
  reduction (§3.2.3) pay off.
* **Atomics.**  Fire-and-forget adds/exchanges (row counts, list heads,
  bump allocation) pipeline to ~2 cycles amortised; scratchpad atomics
  are cheaper still, global hash CAS round trips dearer.
* **Hash probes.**  A scratchpad hash insert costs a handful of
  scratchpad accesses plus an atomic CAS; collisions re-probe.
* **Kernel launch.**  ~4 µs of host/driver latency per launch, charged to
  the device makespan (not to one SM).  Approaches that launch many
  kernels (binning pipelines) pay proportionally — one of the overheads
  the paper's single-pass design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DeviceConfig
from .counters import COUNTER_FIELDS, TrafficCounters

__all__ = ["BlockArrayMeter", "CostMeter", "CostConstants", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostConstants:
    """Tunable model constants (see module docstring for derivations)."""

    bytes_per_cycle: float = 11.5
    uncoalesced_sector_bytes: int = 32
    scratchpad_lanes: int = 32
    alu_lanes: int = 128
    radix_bits_per_pass: int = 4
    radix_pass_alu_per_element: float = 20.0
    radix_pass_scratch_per_element: float = 6.0
    #: amortised global atomic under pipelining (fire-and-forget adds /
    #: exchanges as used for row counts, list heads, bump allocation)
    atomic_cycles: float = 2.0
    hash_probe_scratch_accesses: float = 3.0
    hash_probe_alu: float = 4.0
    #: scratchpad atomics pipeline well: ~0.2 cycles amortised per op
    scratchpad_atomic_cycles: float = 0.2
    #: global hash probes: one 32-byte sector round trip + an amortised
    #: global atomic (~4 cycles under heavy pipelining)
    global_hash_probe_bytes: int = 64
    global_hash_atomic_cycles: float = 4.0
    kernel_launch_cycles: float = 6500.0  # ~4.1 us at 1.582 GHz
    host_round_trip_cycles: float = 40000.0  # ~25 us: sync + alloc + relaunch


DEFAULT_COSTS = CostConstants()


@dataclass
class CostMeter:
    """Accumulates cycles and raw counters for one execution scope.

    One meter is created per simulated thread block (so the scheduler can
    compute the makespan over SMs) and per sequential kernel section.
    """

    config: DeviceConfig
    constants: CostConstants = field(default=DEFAULT_COSTS)
    cycles: float = 0.0
    counters: TrafficCounters = field(default_factory=TrafficCounters)
    #: when set to a list (device tracing), every radix sort appends
    #: ``(n_elements, key_bits)``; ``None`` keeps the default path free
    sort_log: list | None = field(default=None, repr=False)

    # -- global memory ------------------------------------------------

    def global_read(
        self, n_elements: int, element_bytes: int, *, coalesced: bool = True
    ) -> None:
        """Charge a global-memory read of ``n_elements`` items."""
        if n_elements <= 0:
            return
        self._global_access(n_elements, element_bytes, coalesced, write=False)

    def global_write(
        self, n_elements: int, element_bytes: int, *, coalesced: bool = True
    ) -> None:
        """Charge a global-memory write of ``n_elements`` items."""
        if n_elements <= 0:
            return
        self._global_access(n_elements, element_bytes, coalesced, write=True)

    def global_reads(self, n_elements: np.ndarray, element_bytes: int) -> None:
        """Coalesced reads of ``n_elements[i]`` items each, charged one
        after another: the same cycles, float addition by float
        addition, and counters as one :meth:`global_read` per entry."""
        payload = np.maximum(n_elements, 0) * element_bytes
        tx_bytes = self.config.global_transaction_bytes
        transactions = -(-payload // tx_bytes)
        steps = transactions * tx_bytes / self.constants.bytes_per_cycle
        # add.accumulate adds left to right, as the repeated calls do
        self.cycles = float(np.add.accumulate(np.append(self.cycles, steps))[-1])
        self.counters.global_transactions += int(transactions.sum())
        self.counters.global_bytes_read += int(payload.sum())

    def _global_access(
        self, n: int, b: int, coalesced: bool, write: bool
    ) -> None:
        k = self.constants
        payload = n * b
        if coalesced:
            tx_bytes = self.config.global_transaction_bytes
            transactions = -(-payload // tx_bytes)
            moved = transactions * tx_bytes
        else:
            transactions = n
            moved = n * max(b, k.uncoalesced_sector_bytes)
        self.cycles += moved / k.bytes_per_cycle
        self.counters.global_transactions += transactions
        if write:
            self.counters.global_bytes_written += payload
        else:
            self.counters.global_bytes_read += payload

    # -- on-chip work ---------------------------------------------------

    def scratchpad(self, n_accesses: int) -> None:
        """Charge ``n_accesses`` on-chip scratchpad accesses."""
        if n_accesses <= 0:
            return
        self.cycles += n_accesses / self.constants.scratchpad_lanes
        self.counters.scratchpad_accesses += n_accesses

    def alu(self, n_ops: int) -> None:
        """Charge ``n_ops`` scalar ALU operations."""
        if n_ops <= 0:
            return
        self.cycles += n_ops / self.constants.alu_lanes

    def flops(self, n: int) -> None:
        """Useful arithmetic (multiply-adds of the actual SpGEMM)."""
        if n <= 0:
            return
        self.alu(n)
        self.counters.flops += n

    def radix_sort(self, n_elements: int, key_bits: int) -> None:
        """Block-wide stable radix sort of ``n_elements`` by ``key_bits``."""
        if n_elements <= 0:
            return
        k = self.constants
        passes = max(1, -(-int(key_bits) // k.radix_bits_per_pass))
        self.alu(int(passes * n_elements * k.radix_pass_alu_per_element))
        self.scratchpad(int(passes * n_elements * k.radix_pass_scratch_per_element))
        self.counters.sorted_elements += n_elements
        self.counters.sort_passes += passes
        if self.sort_log is not None:
            self.sort_log.append((int(n_elements), int(key_bits)))

    def scan(self, n_elements: int) -> None:
        """Block-wide prefix scan (any operator)."""
        if n_elements <= 0:
            return
        # Work-efficient scan: ~2 scratchpad sweeps + log-depth ALU work.
        self.scratchpad(2 * n_elements)
        self.alu(2 * n_elements)

    def atomic(self, n: int = 1) -> None:
        """Charge ``n`` pipelined global atomic operations."""
        if n <= 0:
            return
        self.cycles += n * self.constants.atomic_cycles
        self.counters.atomic_ops += n

    def hash_probe(self, n: int, *, in_scratchpad: bool = True) -> None:
        """n hash-table insert/accumulate probes."""
        if n <= 0:
            return
        k = self.constants
        if in_scratchpad:
            self.scratchpad(int(n * k.hash_probe_scratch_accesses))
            self.alu(int(n * k.hash_probe_alu))
            self.cycles += n * k.scratchpad_atomic_cycles
            self.counters.atomic_ops += n
        else:
            self._global_access(n, k.global_hash_probe_bytes, False, write=True)
            self.cycles += n * k.global_hash_atomic_cycles
            self.counters.atomic_ops += n
        self.counters.hash_probes += n

    def hash_collision(self, n: int) -> None:
        """Charge ``n`` extra re-probes caused by hash collisions."""
        if n <= 0:
            return
        self.scratchpad(int(n * self.constants.hash_probe_scratch_accesses))
        self.counters.hash_collisions += n

    # -- device-level events (charged to the makespan, see scheduler) ---

    def kernel_launch(self, n: int = 1) -> None:
        """Charge ``n`` kernel-launch latencies (device makespan)."""
        self.cycles += n * self.constants.kernel_launch_cycles
        self.counters.kernel_launches += n

    def host_round_trip(self, n: int = 1) -> None:
        """Charge ``n`` host synchronisation round trips (restarts)."""
        self.cycles += n * self.constants.host_round_trip_cycles
        self.counters.host_round_trips += n

    # -- helpers --------------------------------------------------------

    def seconds(self) -> float:
        """Simulated seconds for the accumulated cycles."""
        return self.cycles / (self.config.clock_ghz * 1e9)

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's counters (NOT cycles) into this one."""
        self.counters.merge(other.counters)


class BlockArrayMeter:
    """``n`` independent per-block :class:`CostMeter`\\ s held as arrays.

    Prices a whole launch at once: ``cycles`` and every
    :class:`TrafficCounters` field (in ``counters``) are length-``n``
    arrays, one entry per block.  Each method mirrors its
    :class:`CostMeter` namesake and adds, per block, the same terms in
    the same order.  IEEE ``+ - * /`` round identically in numpy and
    Python, so block ``i`` ends bit-identical to a :class:`CostMeter`
    fed the ``i``-th counts.  Counts broadcast (a scalar charges every
    block); a count ``<= 0`` is a no-op for its block, as on a
    :class:`CostMeter`.  Radix sorts are not logged (no ``sort_log``).
    """

    def __init__(
        self, config: DeviceConfig, n: int, constants: CostConstants = DEFAULT_COSTS
    ) -> None:
        self.config = config
        self.constants = constants
        self.n = int(n)
        self.cycles = np.zeros(self.n)
        #: every counter of every block, one row per counter field (in
        #: ``COUNTER_FIELDS`` order); ``counters`` names the rows
        self.matrix = np.zeros((len(COUNTER_FIELDS), self.n), dtype=np.int64)
        self.counters = dict(zip(COUNTER_FIELDS, self.matrix))

    @staticmethod
    def _counts(n) -> np.ndarray:
        """Per-block counts; a non-positive count charges nothing."""
        return np.maximum(np.asarray(n, dtype=np.int64), 0)

    # -- global memory ------------------------------------------------

    def global_read(self, n_elements, element_bytes, *, coalesced=True) -> None:
        n = self._counts(n_elements)
        self._global_access(n, element_bytes, coalesced, write=False)

    def global_write(self, n_elements, element_bytes, *, coalesced=True) -> None:
        n = self._counts(n_elements)
        self._global_access(n, element_bytes, coalesced, write=True)

    def _global_access(self, n: np.ndarray, b, coalesced: bool, write: bool) -> None:
        k = self.constants
        payload = n * b
        if coalesced:
            tx_bytes = self.config.global_transaction_bytes
            transactions = -(-payload // tx_bytes)
            moved = transactions * tx_bytes
        else:
            transactions = n
            moved = n * np.maximum(b, k.uncoalesced_sector_bytes)
        self.cycles += moved / k.bytes_per_cycle
        self.counters["global_transactions"] += transactions
        key = "global_bytes_written" if write else "global_bytes_read"
        self.counters[key] += payload

    # -- on-chip work ---------------------------------------------------

    def scratchpad(self, n_accesses) -> None:
        self._scratchpad(self._counts(n_accesses))

    def _scratchpad(self, n: np.ndarray) -> None:
        # the charge itself, for counts already clamped to >= 0
        self.cycles += n / self.constants.scratchpad_lanes
        self.counters["scratchpad_accesses"] += n

    def alu(self, n_ops) -> None:
        self._alu(self._counts(n_ops))

    def _alu(self, n: np.ndarray) -> None:
        self.cycles += n / self.constants.alu_lanes

    def flops(self, n) -> None:
        n = self._counts(n)
        self._alu(n)
        self.counters["flops"] += n

    def radix_sort(self, n_elements, key_bits) -> None:
        n = self._counts(n_elements)
        k = self.constants
        bits = np.asarray(key_bits).astype(np.int64)
        passes = np.where(
            n > 0, np.maximum(1, -(-bits // k.radix_bits_per_pass)), 0
        )
        work = passes * n
        self._alu((work * k.radix_pass_alu_per_element).astype(np.int64))
        self._scratchpad((work * k.radix_pass_scratch_per_element).astype(np.int64))
        self.counters["sorted_elements"] += n
        self.counters["sort_passes"] += passes

    def scan(self, n_elements) -> None:
        n = 2 * self._counts(n_elements)
        self._scratchpad(n)
        self._alu(n)

    def atomic(self, n=1) -> None:
        n = self._counts(n)
        self.cycles += n * self.constants.atomic_cycles
        self.counters["atomic_ops"] += n

    def hash_probe(self, n, *, in_scratchpad: bool = True) -> None:
        n = self._counts(n)
        k = self.constants
        if in_scratchpad:
            self._scratchpad((n * k.hash_probe_scratch_accesses).astype(np.int64))
            self._alu((n * k.hash_probe_alu).astype(np.int64))
            self.cycles += n * k.scratchpad_atomic_cycles
        else:
            self._global_access(n, k.global_hash_probe_bytes, False, write=True)
            self.cycles += n * k.global_hash_atomic_cycles
        self.counters["atomic_ops"] += n
        self.counters["hash_probes"] += n

    def hash_collision(self, n) -> None:
        n = self._counts(n)
        accesses = n * self.constants.hash_probe_scratch_accesses
        self._scratchpad(accesses.astype(np.int64))
        self.counters["hash_collisions"] += n

    # -- device-level events (no count guard, as on CostMeter) ----------

    def kernel_launch(self, n=1) -> None:
        n = np.asarray(n, dtype=np.int64)
        self.cycles += n * self.constants.kernel_launch_cycles
        self.counters["kernel_launches"] += n

    def host_round_trip(self, n=1) -> None:
        n = np.asarray(n, dtype=np.int64)
        self.cycles += n * self.constants.host_round_trip_cycles
        self.counters["host_round_trips"] += n

    # -- read-out -------------------------------------------------------

    def totals(self) -> TrafficCounters:
        """Every block's counters summed (what merging each block's
        :class:`CostMeter` counters would give)."""
        return TrafficCounters(*self.matrix.sum(axis=1).tolist())

    def snapshots(self) -> list[dict[str, int]]:
        """Per-block counter dicts, as ``TrafficCounters.snapshot()``."""
        return [dict(zip(COUNTER_FIELDS, row)) for row in self.matrix.T.tolist()]
