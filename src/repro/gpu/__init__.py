"""Deterministic simulated GPU substrate (systems S3–S4 of DESIGN.md).

Provides the device model, scratchpad capacity enforcement, cycle cost
model, deterministic block scheduler and block-wide primitives that
AC-SpGEMM (:mod:`repro.core`) and the baselines (:mod:`repro.baselines`)
execute on.
"""

from .block import BlockContext
from .config import SMALL_DEVICE, TITAN_XP, DeviceConfig
from .cost import DEFAULT_COSTS, CostConstants, CostMeter
from .counters import AtomicCounter, TrafficCounters
from .memory import Scratchpad, ScratchpadOverflow
from .primitives import (
    block_reduce_minmax,
    blocked_to_striped,
    exclusive_prefix_sum,
    inclusive_max_scan,
    inclusive_prefix_sum,
    striped_to_blocked,
)
from .radix import bits_required, radix_sort_permutation
from .scheduler import KernelTiming, schedule_blocks

__all__ = [
    "AtomicCounter",
    "BlockContext",
    "CostConstants",
    "CostMeter",
    "DEFAULT_COSTS",
    "DeviceConfig",
    "KernelTiming",
    "SMALL_DEVICE",
    "Scratchpad",
    "ScratchpadOverflow",
    "TITAN_XP",
    "TrafficCounters",
    "bits_required",
    "block_reduce_minmax",
    "blocked_to_striped",
    "exclusive_prefix_sum",
    "inclusive_max_scan",
    "inclusive_prefix_sum",
    "radix_sort_permutation",
    "schedule_blocks",
    "striped_to_blocked",
]
