"""Resilience layer: typed failures, fault injection, sanitizer, degradation.

See ``docs/ARCHITECTURE.md`` ("Failure handling and fault injection")
for the full design.  Public surface:

* :mod:`~repro.resilience.errors` — the :class:`ReproError` hierarchy
  every engineered failure path raises.
* :mod:`~repro.resilience.faults` — seeded, serialisable
  :class:`FaultPlan` / :class:`FaultInjector` plus adversarial-input
  corruption.
* :mod:`~repro.resilience.sanitize` — stage-boundary invariant checks
  behind ``AcSpgemmOptions(sanitize=True)``.
* :mod:`~repro.resilience.degrade` — the global-ESC fallback behind
  ``AcSpgemmOptions(on_failure="fallback")``.
"""

from .errors import (
    DeadlineExceeded,
    PayloadTooLarge,
    ReproError,
    RestartBudgetExceeded,
    SanitizerError,
    ServerOverloaded,
    WorkerStarved,
)
from .faults import (
    ADVERSARIAL_MODES,
    FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_csr,
)
from .sanitize import (
    check_chunk_pool,
    check_scratchpad_clean,
    check_stage_boundary,
    check_tracker,
)
from .degrade import conservative_pool_bytes, fallback_multiply

__all__ = [
    "DeadlineExceeded",
    "PayloadTooLarge",
    "ReproError",
    "RestartBudgetExceeded",
    "SanitizerError",
    "ServerOverloaded",
    "WorkerStarved",
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "ADVERSARIAL_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "corrupt_csr",
    "check_scratchpad_clean",
    "check_chunk_pool",
    "check_tracker",
    "check_stage_boundary",
    "conservative_pool_bytes",
    "fallback_multiply",
]
