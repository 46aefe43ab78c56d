"""Typed failure hierarchy of the reproduction.

Every engineered failure path raises a :class:`ReproError` subclass
carrying structured context — the pipeline stage, the simulated block
and the restart count at the time of failure — so callers (the CLI, the
fault campaign, the degradation policy) can react without parsing
message strings.  The hierarchy:

* :class:`ReproError` — common base.

  * :class:`~repro.core.chunks.PoolExhausted` — a chunk-pool allocation
    did not fit (also a :class:`MemoryError`; normally *recoverable*
    through the restart loop, it only escapes when recovery itself is
    impossible).
  * :class:`RestartBudgetExceeded` — the restart loop gave up after
    ``max_restarts`` host round trips.
  * :class:`~repro.gpu.memory.ScratchpadOverflow` — a block layout
    exceeded the on-chip capacity (also a :class:`MemoryError`).
  * :class:`~repro.sparse.validate.CSRValidationError` — a CSR
    structural invariant does not hold (also a :class:`ValueError`).
  * :class:`~repro.sparse.io.MatrixMarketError` — malformed ``.mtx``
    input (also a :class:`ValueError`).
  * :class:`SanitizerError` — a sanitizer-mode invariant check failed
    at a stage boundary (state corruption detector).
  * :class:`WorkerStarved` — a campaign worker waited on a wedged work
    queue past the starvation window.
  * :class:`ServerOverloaded` — the serve daemon's bounded admission
    queue is full; the request is rejected with backpressure instead
    of buffering without bound.
  * :class:`PayloadTooLarge` — a serve request declares an inline
    matrix larger than the daemon will allocate.
  * :class:`DeadlineExceeded` — a request (or campaign cell) ran past
    its wallclock deadline.

This module is import-light on purpose: it must be importable from
``repro.sparse``, ``repro.gpu`` and ``repro.core`` alike without
creating cycles.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceeded",
    "PayloadTooLarge",
    "ReproError",
    "RestartBudgetExceeded",
    "SanitizerError",
    "ServerOverloaded",
    "WorkerStarved",
]


class ReproError(Exception):
    """Base class of every engineered failure in the reproduction.

    Parameters
    ----------
    message:
        Human-readable description.
    stage:
        Pipeline stage key at failure time (``"GLB"``, ``"ESC"``,
        ``"MCC"``, ``"MM"``, ``"PM"``, ``"SM"``, ``"CC"``) or a
        subsystem label (``"io"``, ``"validate"``), when known.
    block_id:
        Simulated block (or worker index within the stage) the failure
        is attributed to, when known.
    restarts:
        Restart count of the run at failure time, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        block_id: int | None = None,
        restarts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.block_id = block_id
        self.restarts = restarts

    def context(self) -> dict:
        """Structured failure context (stable keys, JSON-friendly)."""
        return {
            "kind": type(self).__name__,
            "stage": self.stage,
            "block_id": self.block_id,
            "restarts": self.restarts,
            "message": str(self),
        }

    def one_line(self) -> str:
        """Single-line diagnostic: ``Kind [stage=.., block=..]: message``."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.block_id is not None:
            parts.append(f"block={self.block_id}")
        if self.restarts is not None:
            parts.append(f"restarts={self.restarts}")
        where = f" [{', '.join(parts)}]" if parts else ""
        return f"{type(self).__name__}{where}: {self}"


class RestartBudgetExceeded(ReproError):
    """The restart loop exhausted ``max_restarts`` host round trips.

    Raised by the driver with the stage whose round could not complete,
    the first still-pending block and the restart count; with
    ``on_failure="fallback"`` the driver degrades to the global-ESC
    baseline instead of raising.
    """


class SanitizerError(ReproError):
    """A sanitizer-mode invariant does not hold at a stage boundary.

    Indicates corrupted pipeline state (pool bookkeeping, chunk linked
    lists, row coverage) rather than a recoverable resource condition;
    the sanitizer exists to catch races and bookkeeping bugs in engine
    work early.
    """


class WorkerStarved(ReproError):
    """A campaign worker's work queue stayed empty past the starvation
    window.

    A wedged queue (dead parent, lost sentinel) used to make workers
    exit silently after a 60 s timeout; now the worker checkpoints this
    typed diagnostic to its shard before exiting so the stall is
    attributable post-mortem.
    """


class ServerOverloaded(ReproError):
    """The serve daemon's bounded admission queue is full.

    Backpressure, not OOM: the request is rejected immediately with a
    typed error (HTTP 429) instead of queueing without bound.  Clients
    are expected to back off and retry.
    """


class PayloadTooLarge(ReproError):
    """A serve request declares an inline matrix above the daemon's
    dimension bound (HTTP 413).

    Raised from the declared row and column counts, before anything
    sized by them is allocated.
    """


class DeadlineExceeded(ReproError):
    """A request or campaign cell ran past its wallclock deadline.

    For serve requests the deadline covers queue wait plus execution;
    an expired request is cancelled if still queued and surfaced as a
    typed rejection (HTTP 504) either way.  For campaign cells the
    timeout counts against the per-cell retry budget.
    """
