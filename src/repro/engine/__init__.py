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
``batched`` (the default)
    The ready blocks of a kernel launch are fused into flat numpy
    batches (:mod:`repro.engine.batched`), run as slabs of consecutive
    blocks under a fixed product budget: expansion precomputed at entry
    granularity, the per-block stable LSD radix sorts replaced by one
    ``np.sort`` per lockstep batch over unique 64-bit words
    ``(segment << (kb + pb)) | (key << pb) | position``, segment-boundary
    flags for compaction and ``np.add.reduceat`` for accumulation.
    Block state, keep-last-row decisions and allocation records are
    arrays; each slab is priced on a
    :class:`~repro.gpu.cost.BlockArrayMeter`, one row per block, to the
    reference's per-block numbers bit for bit.  Path/Search Merge run
    the reference workers with each radix sort as one numpy pass
    (:func:`~repro.gpu.radix.fast_stable_sort`).

Both engines produce bit-identical results, identical simulated
statistics and identical device traces; they differ only in host
wall-clock time.  ``benchmarks/bench_wallclock.py`` measures that time
and re-checks the agreement on every run.  ``reference`` is the oracle
the equivalence, fault-parity and device-trace suites compare
``batched`` against.
"""

from __future__ import annotations

from .base import Engine, EngineContext, RoundOutcome, RoundOutcomes
from .batched import BatchedEngine
from .reference import ReferenceEngine

__all__ = [
    "Engine",
    "EngineContext",
    "RoundOutcome",
    "RoundOutcomes",
    "ENGINES",
    "get_engine",
]

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
