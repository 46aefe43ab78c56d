"""Pluggable host execution engines for the block-level stages.

The simulator's observable outputs — the result matrix, per-stage cycle
counts, traffic counters, restart counts, multiprocessor load and the
Table 3 memory statistics — are fully determined by the pipeline's
semantics, not by how the host happens to step the simulated blocks.
That makes the *host execution strategy* pluggable:

``reference``
    The original path: every simulated thread block is stepped one at a
    time in pure Python (:mod:`repro.engine.reference`).  Simple,
    obviously correct, slow.
``batched``
    All ready blocks of a kernel launch are fused into flat numpy
    batches (:mod:`repro.engine.batched`): expansion via one global
    ``searchsorted``, the per-block stable LSD radix sorts replaced by a
    single composite-key ``np.argsort(kind="stable")`` over
    ``(block_id << key_bits) | key``, segment-boundary flags for
    compaction and ``np.add.reduceat`` for accumulation.  Charges the
    identical per-block :class:`~repro.gpu.cost.CostMeter` numbers.

Both engines produce bit-identical results and identical simulated
statistics; they differ only in host wall-clock time (see
``benchmarks/bench_wallclock.py``).  ``reference`` is the oracle the
equivalence, fault-parity and device-trace suites compare ``batched``
against.
"""

from __future__ import annotations

from .base import Engine, EngineContext, RoundOutcome
from .batched import BatchedEngine
from .reference import ReferenceEngine

__all__ = ["Engine", "EngineContext", "RoundOutcome", "ENGINES", "get_engine"]

#: engine name -> class; the one list of host engine names
ENGINES: dict[str, type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    BatchedEngine.name: BatchedEngine,
}


def get_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``."""
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None
    return cls()
