"""Engine interface shared by all host execution strategies.

An engine executes one *round* (one simulated kernel launch) of a
block-level stage: the ESC restart loop, the three merge kernels and the
final chunk copy.  The driver (:mod:`repro.core.acspgemm`) owns the
restart loop, scheduling and stage accounting; the engine only decides
*how the host steps the blocks* and must report, per block, exactly the
cycles and counters the reference per-block execution would have
charged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chunks import ChunkPool, RowChunkTracker
from ..core.load_balance import GlobalLoadBalance
from ..core.options import AcSpgemmOptions
from ..gpu.counters import TrafficCounters
from ..sparse.csr import CSRMatrix

__all__ = ["EngineContext", "RoundOutcome", "Engine"]


@dataclass
class EngineContext:
    """Shared pipeline state handed to every engine call."""

    a: CSRMatrix
    b: CSRMatrix
    glb: GlobalLoadBalance
    options: AcSpgemmOptions
    pool: ChunkPool
    tracker: RowChunkTracker


@dataclass
class RoundOutcome:
    """Per-block result of one kernel round.

    ``cycles`` feeds the SM scheduler (makespan / mpL); ``counters`` are
    merged device-wide; ``done=False`` re-queues the block for the next
    round after a pool growth.
    """

    cycles: float
    done: bool
    counters: TrafficCounters
    #: device-trace extras (populated only when ``options.device_trace``):
    #: the block's scratchpad high-water mark in bytes and the radix sorts
    #: it executed this round as ``(n_elements, key_bits)`` tuples
    scratch_high_water: int = 0
    sort_log: tuple = ()


class Engine:
    """Host execution strategy for the block-level stages.

    ``host_stats`` is per-instance host-side telemetry (blocks stepped,
    fused launches...).  Unlike every simulated
    statistic it is *engine-specific by design* — the observability layer
    exports it under ``repro_host_ops_total`` and excludes it from the
    cross-engine parity comparisons.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.host_stats: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        """Bump one host-telemetry counter."""
        self.host_stats[key] = self.host_stats.get(key, 0) + n

    def esc_round(self, ectx: EngineContext, pending: list) -> list[RoundOutcome]:
        """Run one ESC kernel launch over the pending blocks."""
        raise NotImplementedError

    def merge_round(
        self, ectx: EngineContext, stage: str, workers: list
    ) -> list[RoundOutcome]:
        """Run one merge kernel launch (stage in {"MM", "PM", "SM"})."""
        raise NotImplementedError

    def copy_output(
        self, ectx: EngineContext, row_ptr: np.ndarray, counter_sink
    ) -> tuple[CSRMatrix, list[float]]:
        """Stage 4 chunk copy; returns the matrix and per-chunk cycles."""
        raise NotImplementedError
