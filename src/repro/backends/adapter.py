"""Adapter presenting registered backends (``ac-spgemm`` included)
through the common ``SpGEMMAlgorithm`` interface, so the bench harness
and the campaign runner treat a backend exactly like a baseline.

The full :class:`~repro.core.acspgemm.AcSpgemmResult` rides along on
the run as ``ac_result``, and the selector's routing outcome as
``dispatched_to``.
"""

from __future__ import annotations

import numpy as np

from ..core.options import AcSpgemmOptions
from ..gpu.config import DeviceConfig, TITAN_XP
from ..gpu.cost import CostConstants, DEFAULT_COSTS
from .registry import get_backend

__all__ = ["BackendAlgorithm"]

from ..baselines.base import SpGEMMAlgorithm, SpGEMMRun


class BackendAlgorithm(SpGEMMAlgorithm):
    """One registered backend wrapped for the bench/campaign line-up."""

    def __init__(
        self,
        backend_name: str,
        device: DeviceConfig = TITAN_XP,
        costs: CostConstants = DEFAULT_COSTS,
        options: AcSpgemmOptions | None = None,
    ) -> None:
        super().__init__(device=device, costs=costs)
        self._backend = get_backend(backend_name)
        self.name = self._backend.name
        self.bit_stable = self._backend.bit_stable
        self._options = options

    def options_for(self, dtype) -> AcSpgemmOptions:
        base = self._options or AcSpgemmOptions(device=self.device, costs=self.costs)
        return base.with_(
            value_dtype=np.dtype(dtype), device=self.device, costs=self.costs
        )

    def multiply(
        self, a, b, *, dtype=np.float64, scheduler_seed: int = 0, plan=None
    ) -> SpGEMMRun:
        """Run the backend; it builds what it needs itself, so a
        baseline's ``plan`` goes unread."""
        result = self._backend.run(
            a, b, self.options_for(dtype), scheduler_seed=scheduler_seed
        )
        run = SpGEMMRun(
            matrix=result.matrix,
            algorithm=self.name,
            cycles=result.total_cycles,
            counters=result.counters,
            clock_ghz=result.clock_ghz,
            bit_stable=self.bit_stable,
            extra_memory_bytes=result.memory.helper_bytes
            + result.memory.chunk_pool_bytes,
            stage_cycles=dict(result.stage_cycles),
        )
        run.ac_result = result
        if result.dispatched_to is not None:
            run.dispatched_to = result.dispatched_to
        return run

    def _execute(self, *args, **kwargs):  # pragma: no cover - not used
        raise NotImplementedError("BackendAlgorithm overrides multiply")
