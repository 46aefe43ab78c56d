"""Configuration of the AC-SpGEMM pipeline.

Defaults follow §4 of the paper: 256 threads per block, 256 non-zeros of
A per block for global load balancing, 8 sort elements per thread, up to
4 kept elements per thread, a chunk-pool estimate multiplied by 1.2 with
a 100 MB lower bound.  Every design choice called out in the paper is an
explicit switch here so the ablation benches can toggle it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from ..gpu.config import DeviceConfig, TITAN_XP
from ..gpu.cost import CostConstants, DEFAULT_COSTS
from ..resilience.faults import FaultPlan

__all__ = ["AcSpgemmOptions", "DEFAULT_OPTIONS"]


@dataclass(frozen=True)
class AcSpgemmOptions:
    """Tunable parameters and ablation switches for AC-SpGEMM.

    Attributes
    ----------
    device:
        Simulated device and kernel geometry.
    value_dtype:
        float32 or float64 (the paper evaluates both).
    enable_bit_reduction:
        Dynamic sort-key bit reduction from min/max tracking (§3.2.3).
        Disabling it sorts full-width keys — the ablation shows the cost.
    enable_keep_last_row:
        Carry the last (incomplete) row between local ESC iterations
        instead of spilling it to a chunk (§3.2.3).  Disabling forces a
        chunk write per iteration, increasing merge work — the behaviour
        of prior local-ESC approaches [7].
    enable_long_row_handling:
        Emit pointer chunks for B rows longer than ``long_row_threshold``
        instead of pushing them through ESC (§3.4).
    long_row_threshold:
        Entries above which a B row is "long".  ``None`` uses the block
        capacity (a row that cannot fit one ESC iteration).
    chunk_pool_bytes:
        Explicit initial chunk pool size; ``None`` uses the paper's
        estimate (§4, reproduced in :mod:`repro.core.memory_estimate`).
    chunk_pool_lower_bound_bytes:
        The paper applies a 100 MB lower bound.  Unit tests shrink this
        to exercise restarts on small inputs.
    chunk_meta_factor:
        Multiplier on the estimate "to account for the chunk meta data
        and divergences from the average row length" (§4).
    pool_growth_factor:
        Pool growth on each restart round trip.
    max_restarts:
        Safety valve against pathological growth loops.
    multi_merge_max_chunks:
        Rows covered by at most this many chunks (and fitting one block)
        are handled by Multi Merge; the paper uses 2.
    path_merge_max_chunks:
        Rows with chunk counts in ``(multi_merge_max_chunks, this]`` use
        Path Merge ("applicable up to a predefined number of chunks");
        beyond it Search Merge ("can handle an arbitrary number").
    """

    device: DeviceConfig = TITAN_XP
    costs: CostConstants = DEFAULT_COSTS
    value_dtype: np.dtype = np.dtype(np.float64)
    enable_bit_reduction: bool = True
    enable_keep_last_row: bool = True
    enable_long_row_handling: bool = True
    long_row_threshold: int | None = None
    chunk_pool_bytes: int | None = None
    chunk_pool_lower_bound_bytes: int = 100 * 1024 * 1024
    #: chunk-pool sizing strategy: ``"uniform"`` is the paper's §4
    #: uniform-collision estimate with the 100 MB lower bound;
    #: ``"sampling"`` is the OCEAN-style sampled symbolic estimate
    #: (``repro.core.estimate_sampling``) with a 4 MB lower bound —
    #: restarts absorb the rare underestimates.  Ignored when
    #: ``chunk_pool_bytes`` pins the pool explicitly.
    estimator: str = "uniform"
    chunk_meta_factor: float = 1.2
    pool_growth_factor: float = 2.0
    max_restarts: int = 256
    multi_merge_max_chunks: int = 2
    path_merge_max_chunks: int = 8
    validate_inputs: bool = True
    col_index_bytes: int = 4  # 32-bit column ids, as in the CUDA artifact
    #: host execution engine for the block-level stages, a name in
    #: ``repro.engine.ENGINES`` (``repro.engine.get_engine`` rejects any
    #: other name when the run starts): ``"batched"`` (the default) fuses
    #: the ready blocks of a launch into flat numpy batches, slab by slab
    #: under a fixed product budget; ``"reference"`` steps one simulated
    #: block at a time and is the oracle the equivalence suites compare
    #: against.  Both produce bit-identical results and identical
    #: simulated cycles/counters; only host wall-clock and memory differ.
    #: The CLI, campaign and SUMMA tile defaults all follow this field.
    engine: str = "batched"
    #: check pipeline invariants (pool bookkeeping, chunk linkage, row
    #: coverage) at every stage boundary; violations raise
    #: ``SanitizerError`` (see ``repro.resilience.sanitize``)
    sanitize: bool = False
    #: ``"raise"`` propagates unrecoverable failures as typed
    #: ``ReproError``s; ``"fallback"`` degrades to the global-ESC
    #: baseline with a fresh conservative allocation and records the
    #: failure on the result (``result.degraded`` / ``result.failure``).
    #: Input-validation errors always raise — a bad input has no
    #: correct product to fall back to.
    on_failure: str = "raise"
    #: deterministic fault-injection plan (``repro.resilience.faults``);
    #: activated once per run, identical effects on every engine
    fault_plan: FaultPlan | None = None
    #: collect the device-level trace (``repro.obs.device``): per-block
    #: events with SM placement, scratchpad high-water and sort shapes,
    #: plus per-record counter attribution.  Byte-identical across both
    #: engines and zero-cost when off; attached to the result as
    #: ``result.device_trace``
    device_trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "value_dtype", np.dtype(self.value_dtype))
        if self.value_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("value_dtype must be float32 or float64")
        if self.multi_merge_max_chunks < 2:
            raise ValueError("multi_merge_max_chunks must be at least 2")
        if self.path_merge_max_chunks < self.multi_merge_max_chunks:
            raise ValueError(
                "path_merge_max_chunks must be >= multi_merge_max_chunks"
            )
        if self.estimator not in ("uniform", "sampling"):
            raise ValueError(
                f"unknown estimator {self.estimator!r}; "
                "expected 'uniform' or 'sampling'"
            )
        if self.chunk_meta_factor < 1.0:
            raise ValueError("chunk_meta_factor must be >= 1.0")
        if self.pool_growth_factor <= 1.0:
            raise ValueError("pool_growth_factor must exceed 1.0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.on_failure not in ("raise", "fallback"):
            raise ValueError(
                f"unknown on_failure policy {self.on_failure!r}; "
                "expected 'raise' or 'fallback'"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError("fault_plan must be a FaultPlan or None")

    @property
    def effective_long_row_threshold(self) -> int:
        """The configured threshold, or the block's ESC capacity."""
        if self.long_row_threshold is not None:
            return self.long_row_threshold
        return self.device.elements_per_block

    @property
    def element_bytes(self) -> int:
        """Bytes of one stored (column id, value) pair."""
        return self.col_index_bytes + self.value_dtype.itemsize

    def with_(self, **kwargs) -> "AcSpgemmOptions":
        """Copy with replaced fields (ablation helper)."""
        return replace(self, **kwargs)

    def cache_fingerprint(self) -> str:
        """Stable short digest of every option that can affect a run.

        Used by the bench result cache so runs with different options
        (engine, ablation switches, device geometry, cost constants)
        can never alias one cached cell.  Dataclass reprs are
        deterministic, so the digest is stable across processes.
        """
        import hashlib

        payload = "|".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in dc_fields(self)
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:12]


DEFAULT_OPTIONS = AcSpgemmOptions()
