"""Deterministic fault injection for the AC-SpGEMM pipeline.

A :class:`FaultPlan` is a seeded, serialisable description of faults to
inject into one ``ac_spgemm`` run.  Activating a plan produces a fresh
:class:`FaultInjector` holding the plan's mutable runtime counters, so
the same plan can drive any number of runs — and the acceptance bar of
the resilience layer is exactly that: **the same plan produces the same
exceptions, the same restart counts and a bit-identical recovered C on
every engine** (reference / batched).

Fault classes
-------------

``pool_exhaust``
    Force :class:`~repro.core.chunks.PoolExhausted` at the ``at``-th
    chunk-pool admission attempt (1-based, counted across the whole
    run).  The hook sits in the single admission chokepoint
    (:meth:`ChunkPool.admission_ok`), which the reference engine hits
    inside ``ChunkPool.allocate`` and the batched engine hits during
    the serial replay — in *provably the same sequence*: both
    walk blocks in block order and stop a block at its first failed
    admission, so the Nth admission attempt names the same allocation
    everywhere.  This exercises the real restart machinery.

``scratchpad_overflow``
    Raise :class:`~repro.gpu.memory.ScratchpadOverflow` when the driver
    enters round ``round`` of stage ``stage`` (``ESC``/``MM``/``PM``/
    ``SM``), attributed to ``block``.  Raised by the driver *before*
    the engine runs the round, so it is trivially engine-identical; it
    exercises the non-recoverable error path and the degradation
    policy.

``block_abort``
    Scheduler-level abort: the block at position ``block`` of round
    ``round`` in stage ``stage`` is pulled from the round before the
    engine sees it and re-queued, consuming one restart (host round
    trip + pool growth) like a real mid-kernel casualty.  Decided in
    the driver from the round's pending list, so engine-identical.

Serve fault class
-----------------

This moves the failure surface up a level — from one multiply to the
long-running serve daemon — and is consumed at a single chokepoint:
the server consults :meth:`FaultInjector.serve_faults` with the
1-based request execution ordinal before executing each request, so a
chaos run is deterministic given the plan.

``request_delay``
    Sleep ``delay_ms`` before executing request ``at`` — the "slow
    request that starves the queue" scenario; pushes the request (and
    queued followers) toward their deadlines.

Adversarial inputs (NaN/Inf values, index-dtype overflow, non-canonical
CSR) are not runtime faults but input corruptions; :func:`corrupt_csr`
produces them deterministically from a seed and input validation is
expected to reject them with a typed
:class:`~repro.sparse.validate.CSRValidationError`.

This module deliberately imports nothing from ``repro.core``/``gpu``/
``sparse`` (the injector reports *what* to fail; the driver owns the
raising) so the error types can be rebased onto
:class:`~repro.resilience.errors.ReproError` without import cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "ADVERSARIAL_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "corrupt_csr",
]

#: per-multiply pipeline faults (engine-identical chokepoints)
PIPELINE_FAULT_KINDS = ("pool_exhaust", "scratchpad_overflow", "block_abort")

#: faults consumed by the serve daemon per request execution ordinal
SERVE_FAULT_KINDS = ("request_delay",)

FAULT_KINDS = PIPELINE_FAULT_KINDS + SERVE_FAULT_KINDS

#: input corruption modes understood by :func:`corrupt_csr`
ADVERSARIAL_MODES = (
    "nan_value",
    "inf_value",
    "index_overflow",
    "negative_index",
    "unsorted_columns",
    "duplicate_columns",
)

_STAGES = ("ESC", "MM", "PM", "SM")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject (see the module docstring for semantics)."""

    kind: str
    stage: str | None = None  # scratchpad_overflow / block_abort
    at: int | None = None  # 1-based ordinal (pool admission / serve request)
    round: int | None = None  # round index within the stage (from 0)
    block: int | None = None  # position within the round's pending list
    delay_ms: float | None = None  # request_delay: injected latency

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "pool_exhaust" or self.kind in SERVE_FAULT_KINDS:
            if self.at is None or self.at < 1:
                raise ValueError(f"{self.kind} needs a 1-based 'at' ordinal")
            if self.kind == "request_delay":
                if self.delay_ms is None or self.delay_ms <= 0:
                    raise ValueError("request_delay needs delay_ms > 0")
        else:
            if self.stage not in _STAGES:
                raise ValueError(
                    f"{self.kind} needs a stage in {_STAGES}, got {self.stage!r}"
                )
            if self.round is None or self.round < 0:
                raise ValueError(f"{self.kind} needs a round index >= 0")
            if self.block is None or self.block < 0:
                raise ValueError(f"{self.kind} needs a block position >= 0")

    def to_dict(self) -> dict:
        return {
            k: v
            for k, v in (
                ("kind", self.kind),
                ("stage", self.stage),
                ("at", self.at),
                ("round", self.round),
                ("block", self.block),
                ("delay_ms", self.delay_ms),
            )
            if v is not None
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable set of faults for one run.

    The ``seed`` documents how the plan was generated (campaigns derive
    fault positions from it) and rides through serialisation so a
    failing campaign case can be replayed exactly from its JSON record.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- construction ---------------------------------------------------

    @classmethod
    def single(cls, kind: str, *, seed: int = 0, **kwargs) -> "FaultPlan":
        """A plan with one fault."""
        return cls(seed=seed, faults=(FaultSpec(kind=kind, **kwargs),))

    @classmethod
    def pool_exhaust_at(cls, *ordinals: int, seed: int = 0) -> "FaultPlan":
        """Force pool exhaustion at each given admission ordinal."""
        return cls(
            seed=seed,
            faults=tuple(FaultSpec(kind="pool_exhaust", at=n) for n in ordinals),
        )

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            seed=int(d.get("seed", 0)),
            faults=tuple(FaultSpec(**f) for f in d.get("faults", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- runtime ---------------------------------------------------------

    def activate(self) -> "FaultInjector":
        """A fresh injector (fresh counters) for one run."""
        return FaultInjector(self)


class FaultInjector:
    """Mutable runtime state of one activated :class:`FaultPlan`.

    One injector drives exactly one ``ac_spgemm`` run; the driver
    consults it at the three deterministic chokepoints described in the
    module docstring.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pool_ordinals = frozenset(
            f.at for f in plan.faults if f.kind == "pool_exhaust"
        )
        self._overflows = {
            (f.stage, f.round): f
            for f in plan.faults
            if f.kind == "scratchpad_overflow"
        }
        self._aborts: dict[tuple[str, int], set[int]] = {}
        for f in plan.faults:
            if f.kind == "block_abort":
                self._aborts.setdefault((f.stage, f.round), set()).add(f.block)
        self._serve: dict[int, list[FaultSpec]] = {}
        for f in plan.faults:
            if f.kind in SERVE_FAULT_KINDS:
                self._serve.setdefault(f.at, []).append(f)
        self.admissions = 0  # pool admission attempts seen so far
        self.fired: list[dict] = []  # injection log (campaign reporting)

    # -- chokepoint 1: chunk-pool admission ------------------------------

    def pool_gate(self, nbytes: int) -> bool:
        """Count one admission attempt; True forces it to fail.

        Installed as ``ChunkPool.fault_hook``; consulted by
        ``ChunkPool.allocate`` (reference path) and by the serial
        replay (batched path) — once per admission attempt in
        the identical block-major sequence.
        """
        self.admissions += 1
        if self.admissions in self._pool_ordinals:
            self.fired.append(
                {"kind": "pool_exhaust", "at": self.admissions, "nbytes": nbytes}
            )
            return True
        return False

    # -- chokepoint 2: stage-round entry ---------------------------------

    def overflow_for(self, stage: str, round_index: int) -> FaultSpec | None:
        """The scratchpad-overflow spec for this stage round, if any.

        The driver raises the typed exception itself (keeps this module
        import-light); the spec is logged as fired when returned.
        """
        spec = self._overflows.get((stage, round_index))
        if spec is not None:
            self.fired.append(spec.to_dict())
        return spec

    def aborts_for(self, stage: str, round_index: int) -> frozenset[int]:
        """Block positions to abort out of this stage round."""
        positions = self._aborts.get((stage, round_index))
        if not positions:
            return frozenset()
        self.fired.append(
            {
                "kind": "block_abort",
                "stage": stage,
                "round": round_index,
                "blocks": sorted(positions),
            }
        )
        return frozenset(positions)

    # -- chokepoint 3: serve request execution ----------------------------

    def serve_faults(self, request_ordinal: int) -> list[FaultSpec]:
        """Serve-level faults to apply before executing request N.

        The serve daemon owns the effect (sleeping) — this module stays
        import-light.
        Returned specs are logged as fired, in plan order.
        """
        specs = self._serve.get(request_ordinal, [])
        for spec in specs:
            self.fired.append(spec.to_dict())
        return list(specs)


# ---------------------------------------------------------------------------
# adversarial input corruption
# ---------------------------------------------------------------------------


def corrupt_csr(m, mode: str, seed: int = 0):
    """Return a deterministically corrupted copy of a CSR matrix.

    ``mode`` is one of :data:`ADVERSARIAL_MODES`; ``seed`` picks the
    corrupted entry.  The result is built through the input's own class
    (duck-typed; only the structural ``rows``/``cols``/``row_ptr``/
    ``col_idx``/``values`` contract is assumed), and is expected to be
    rejected by ``validate_csr`` / strict I/O — never to crash the
    pipeline some other way.
    """
    if mode not in ADVERSARIAL_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    if m.nnz == 0:
        raise ValueError("cannot corrupt an empty matrix")
    rng = np.random.default_rng(seed)
    pos = int(rng.integers(0, m.nnz))
    col_idx = np.array(m.col_idx, dtype=np.int64, copy=True)
    values = np.array(m.values, copy=True)

    if mode == "nan_value":
        values[pos] = np.nan
    elif mode == "inf_value":
        values[pos] = np.inf
    elif mode == "index_overflow":
        # an index far past the int32 range the 4-byte column ids assume
        col_idx[pos] = np.int64(2) ** 31 + 7
    elif mode == "negative_index":
        # what an overflowed 32-bit index looks like after wraparound
        col_idx[pos] = -(int(col_idx[pos]) + 1)
    elif mode == "unsorted_columns":
        row = int(np.searchsorted(m.row_ptr, pos, side="right")) - 1
        lo, hi = int(m.row_ptr[row]), int(m.row_ptr[row + 1])
        if hi - lo < 2:  # need a row with >= 2 entries; take the widest
            lengths = np.diff(m.row_ptr)
            row = int(lengths.argmax())
            lo, hi = int(m.row_ptr[row]), int(m.row_ptr[row + 1])
            if hi - lo < 2:
                raise ValueError("matrix has no row with two entries")
        col_idx[lo], col_idx[hi - 1] = col_idx[hi - 1], col_idx[lo]
    elif mode == "duplicate_columns":
        row = int(np.searchsorted(m.row_ptr, pos, side="right")) - 1
        lo, hi = int(m.row_ptr[row]), int(m.row_ptr[row + 1])
        if hi - lo < 2:
            lengths = np.diff(m.row_ptr)
            row = int(lengths.argmax())
            lo, hi = int(m.row_ptr[row]), int(m.row_ptr[row + 1])
            if hi - lo < 2:
                raise ValueError("matrix has no row with two entries")
        col_idx[lo + 1] = col_idx[lo]

    return m.__class__(
        rows=m.rows,
        cols=m.cols,
        row_ptr=np.array(m.row_ptr, copy=True),
        col_idx=col_idx,
        values=values,
    )
