"""Device-level tracing: per-block events, SM timelines, counter attribution.

The simulator computes — and, until now, threw away — exactly the
device-level signals the paper's evaluation is built on: which SM ran
which block for how many cycles (Fig. 7's stage breakdown, Table 3's
"mpL"), how much scratchpad each block actually touched (§3's hard
on-chip bound), how many ESC iterations and sort bits each block needed
(Fig. 9/10), and which stage generated which share of the global
traffic.  :class:`DeviceTrace` captures all of it as an ordered list of
records on the same simulated clock as ``result.spans``:

* a **launch record** per simulated kernel launch (ESC round, merge
  round, chunk copy, hash-engine phase) holding the scheduler's per-SM
  busy times plus one :class:`BlockEvent` per dispatched block — SM
  id, start/end cycle, A-row range, scratchpad high-water bytes, ESC
  iteration count, radix sort shapes, restart/abort flags and the
  block's own counter deltas (:meth:`DeviceTrace.record_launch`);
* a **device-wide record** per perfectly-parallel pass (GLB, merge case
  assignment, the output row-pointer scan, the selector's probe, the
  degradation fallback) and a **host record** per restart round trip
  (:meth:`DeviceTrace.record`).

Drivers never call these directly: each launch, pass and restart is
reported once to a :class:`~repro.obs.ledger.LaunchLedger`, which
writes this record together with the stage cycles, the counters and
the span leaf.  With ``AcSpgemmOptions.device_trace`` off no trace
exists and the ledger builds no per-block :class:`BlockMeta`.

Exactness contract: within one record, block cycles and counters are the
engine outcomes themselves, and summing records chronologically
reproduces ``result.stage_cycles`` / ``result.counters`` / per-launch
``KernelTiming.sm_busy_cycles`` bit-for-bit (floats are re-accumulated
in the scheduler's dispatch order).  The trace is **byte-identical
across the three engines** — every field derives from engine-invariant
data.  A run that degrades to the fallback keeps its partial records
and carries an explicit truncation marker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..gpu.counters import TrafficCounters

__all__ = [
    "DEVICE_TRACE_SCHEMA",
    "WORKER_ID_STRIDE",
    "BlockMeta",
    "BlockEvent",
    "DeviceRecord",
    "DeviceTrace",
    "merge_device_traces",
]

#: bump when the serialised trace layout changes incompatibly
DEVICE_TRACE_SCHEMA = 1

#: Perfetto process id for the per-SM and counter tracks (pipeline
#: spans use 2 — see ``repro.obs.export``)
DEVICE_SM_PID = 3

#: worker-id namespace stride per device ordinal when traces from a
#: multi-device run are merged into one report: block/worker ids of
#: device ``d`` become ``id + d * WORKER_ID_STRIDE``, so per-device ids
#: can never collide (no single-device launch reaches 2^20 blocks)
WORKER_ID_STRIDE = 1 << 20


def _nonzero_counters(counters: dict | None) -> dict:
    """Drop zero fields; deterministic (sorted) key order."""
    if not counters:
        return {}
    return {k: counters[k] for k in sorted(counters) if counters[k]}


@dataclass(frozen=True)
class BlockMeta:
    """What the driver knows about one worker before placement.

    ``counters`` is the block's own :class:`TrafficCounters` delta for
    this round (snapshot dict); ``sort_log`` the radix sorts it ran as
    ``(n_elements, key_bits)`` tuples.  ``row_lo``/``row_hi`` is the
    block's A-row range (-1/-1 when it covers no rows), which is what
    lets reports attribute traffic and re-sorting to regions of A.
    """

    worker_id: int
    row_lo: int
    row_hi: int
    cycles: float = 0.0
    done: bool = True
    aborted: bool = False
    scratch_high_water: int = 0
    esc_iterations: int = 0
    sort_log: tuple = ()
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BlockEvent:
    """One block's execution inside one launch, placed on an SM."""

    slot: int  # dispatch position within the launch
    worker_id: int
    sm: int  # -1: aborted before dispatch
    start_cycle: float  # absolute (same clock as result.spans)
    end_cycle: float
    cycles: float
    row_lo: int
    row_hi: int
    done: bool
    aborted: bool
    scratch_high_water: int
    esc_iterations: int
    sort_log: tuple
    counters: dict

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "worker_id": self.worker_id,
            "sm": self.sm,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "cycles": self.cycles,
            "row_lo": self.row_lo,
            "row_hi": self.row_hi,
            "done": self.done,
            "aborted": self.aborted,
            "scratch_high_water": self.scratch_high_water,
            "esc_iterations": self.esc_iterations,
            "sort_log": [list(s) for s in self.sort_log],
            "counters": _nonzero_counters(self.counters),
        }


@dataclass(frozen=True)
class DeviceRecord:
    """One chronological entry of the device trace.

    ``kind`` is ``"launch"`` (scheduled blocks), ``"device_wide"`` (a
    perfectly-parallel pass charged as ``cycles / num_sms``) or
    ``"host"`` (a restart round trip).  ``counters`` holds the
    *driver-level* counter deltas of this record (kernel launches, host
    round trips, device-wide meters); block-level deltas live on the
    :class:`BlockEvent` entries.  Cycle bookkeeping: ``cycles`` is
    exactly what the driver added to ``stage_cycles[stage]`` for this
    record, so a chronological sum reproduces the stage totals.
    """

    kind: str
    stage: str
    label: str
    start_cycle: float
    cycles: float
    round_index: int = -1
    launch_overhead: float = 0.0
    sm_busy: tuple = ()
    pool_used_bytes: int = 0
    pool_capacity_bytes: int = 0
    counters: dict = field(default_factory=dict)
    blocks: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "label": self.label,
            "start_cycle": self.start_cycle,
            "cycles": self.cycles,
            "round_index": self.round_index,
            "launch_overhead": self.launch_overhead,
            "sm_busy": list(self.sm_busy),
            "pool_used_bytes": self.pool_used_bytes,
            "pool_capacity_bytes": self.pool_capacity_bytes,
            "counters": _nonzero_counters(self.counters),
            "blocks": [b.to_dict() for b in self.blocks],
        }


class DeviceTrace:
    """Collector and container for one run's device-level trace."""

    def __init__(self, *, clock_ghz: float, num_sms: int) -> None:
        self.clock_ghz = clock_ghz
        self.num_sms = num_sms
        self.records: list[DeviceRecord] = []
        #: ESC block id -> chunks it contributed to the final pool
        self.chunk_counts: dict[int, int] = {}
        self.truncated = False
        self.truncation_reason = ""

    # -- recording (driver-facing) --------------------------------------

    def record(
        self,
        kind: str,
        stage: str,
        label: str,
        *,
        start_cycle: float,
        cycles: float,
        counters: dict | None = None,
        pool=None,
    ) -> None:
        """A record without blocks: a ``"device_wide"`` pass that
        parallelises perfectly over the SMs, or a ``"host"`` round trip
        (a restart)."""
        self.records.append(
            DeviceRecord(
                kind=kind,
                stage=stage,
                label=label,
                start_cycle=start_cycle,
                cycles=cycles,
                pool_used_bytes=pool.used_bytes if pool is not None else 0,
                pool_capacity_bytes=pool.capacity_bytes if pool is not None else 0,
                counters=dict(counters or {}),
            )
        )

    def record_launch(
        self,
        stage: str,
        *,
        round_index: int,
        start_cycle: float,
        timing,
        launch_overhead: float,
        workers: list[BlockMeta],
        aborted: list[BlockMeta] | None = None,
        counters: dict | None = None,
        pool=None,
    ) -> None:
        """One scheduled kernel launch; ``workers`` in dispatch order.

        ``timing`` must come from ``schedule_blocks(...,
        record_placements=True)`` so every worker has a placement.
        Aborted workers (fault injection) never reached an SM and are
        appended after the dispatched blocks with ``sm=-1``.
        """
        placements = timing.placements
        if placements is None:
            raise ValueError("device trace needs schedule_blocks placements")
        if len(placements) != len(workers):
            raise ValueError(
                f"{len(workers)} workers but {len(placements)} placements"
            )
        blocks = []
        for slot, (meta, pl) in enumerate(zip(workers, placements)):
            blocks.append(
                BlockEvent(
                    slot=slot,
                    worker_id=meta.worker_id,
                    sm=pl.sm,
                    start_cycle=start_cycle + pl.start_cycle,
                    end_cycle=start_cycle + pl.end_cycle,
                    cycles=meta.cycles,
                    row_lo=meta.row_lo,
                    row_hi=meta.row_hi,
                    done=meta.done,
                    aborted=False,
                    scratch_high_water=meta.scratch_high_water,
                    esc_iterations=meta.esc_iterations,
                    sort_log=tuple(meta.sort_log),
                    counters=dict(meta.counters),
                )
            )
        for k, meta in enumerate(aborted or []):
            blocks.append(
                BlockEvent(
                    slot=len(workers) + k,
                    worker_id=meta.worker_id,
                    sm=-1,
                    start_cycle=start_cycle,
                    end_cycle=start_cycle,
                    cycles=0.0,
                    row_lo=meta.row_lo,
                    row_hi=meta.row_hi,
                    done=False,
                    aborted=True,
                    scratch_high_water=0,
                    esc_iterations=meta.esc_iterations,
                    sort_log=(),
                    counters={},
                )
            )
        self.records.append(
            DeviceRecord(
                kind="launch",
                stage=stage,
                label=f"{stage.lower()}.round",
                start_cycle=start_cycle,
                cycles=timing.makespan_cycles,
                round_index=round_index,
                launch_overhead=launch_overhead,
                sm_busy=tuple(timing.sm_busy_cycles),
                pool_used_bytes=pool.used_bytes if pool is not None else 0,
                pool_capacity_bytes=pool.capacity_bytes if pool is not None else 0,
                counters=dict(counters or {}),
                blocks=tuple(blocks),
            )
        )

    def finalize_chunks(self, pool, n_esc_blocks: int) -> None:
        """Record how many final-pool chunks each ESC block produced
        (Fig. 9's chunks-per-block distribution).  Merge-produced chunks
        carry a block id past the ESC range and are counted separately
        under the key ``-1``."""
        counts = {i: 0 for i in range(n_esc_blocks)}
        merged = 0
        for chunk in pool.ordered_chunks():
            bid = chunk.order_key[0]
            if bid < n_esc_blocks:
                counts[bid] = counts.get(bid, 0) + 1
            else:
                merged += 1
        if merged:
            counts[-1] = merged
        self.chunk_counts = counts

    def mark_truncated(self, reason: str) -> None:
        """The run degraded; records after this point are fallback-only."""
        self.truncated = True
        self.truncation_reason = reason

    # -- queries ---------------------------------------------------------

    def launches(self) -> list[DeviceRecord]:
        return [r for r in self.records if r.kind == "launch"]

    def block_events(self):
        for rec in self.records:
            for ev in rec.blocks:
                yield rec, ev

    def stage_cycle_totals(self) -> dict[str, float]:
        """Per-stage cycle sums, accumulated in record (chronological)
        order — the same float addition order the driver used, so the
        totals equal ``result.stage_cycles`` exactly."""
        totals: dict[str, float] = {}
        for rec in self.records:
            totals[rec.stage] = totals.get(rec.stage, 0.0) + rec.cycles
        return totals

    def counter_totals(self) -> TrafficCounters:
        """Sum of every record- and block-level counter delta."""
        total = TrafficCounters()
        delta = TrafficCounters()
        for rec in self.records:
            for name, value in rec.counters.items():
                setattr(delta, name, getattr(delta, name) + value)
            for ev in rec.blocks:
                for name, value in ev.counters.items():
                    setattr(delta, name, getattr(delta, name) + value)
        total.merge(delta)
        return total

    def per_sm_busy(self, rec: DeviceRecord) -> list[float]:
        """Recompute one launch's per-SM busy cycles from its block
        events, accumulating in slot (dispatch) order — bit-identical to
        the scheduler's ``sm_busy_cycles``."""
        busy = [0.0] * self.num_sms
        for ev in rec.blocks:
            if ev.sm >= 0:
                busy[ev.sm] += ev.cycles
        return busy

    def per_sm_busy_totals(self) -> dict[str, list[float]]:
        """Per-stage per-SM busy totals over all launches (plus the
        cross-stage total under ``"ALL"``)."""
        totals: dict[str, list[float]] = {"ALL": [0.0] * self.num_sms}
        for rec in self.launches():
            stage_busy = totals.setdefault(rec.stage, [0.0] * self.num_sms)
            busy = self.per_sm_busy(rec)
            for sm in range(self.num_sms):
                stage_busy[sm] += busy[sm]
                totals["ALL"][sm] += busy[sm]
        return totals

    # -- multi-device merging ---------------------------------------------

    def renumbered(self, *, ordinal: int, total_sms: int) -> "DeviceTrace":
        """A copy with SM and worker ids namespaced by device ordinal.

        SM ``s`` of device ``d`` becomes SM ``d * num_sms + s`` of a
        ``total_sms``-wide node, worker/block ids move up by
        ``d * WORKER_ID_STRIDE``, and each launch's ``sm_busy`` vector
        is re-padded so the busy floats land at their namespaced SM
        positions *without being re-accumulated* — ``per_sm_busy`` on
        the merged trace therefore re-derives bit-for-bit.  Cycles are
        left on the device-local clock (so span alignment and stage
        sums stay byte-identical); node-timeline placement is a
        presentation concern handled at Perfetto export.
        """
        sm_offset = ordinal * self.num_sms
        worker_offset = ordinal * WORKER_ID_STRIDE
        if sm_offset + self.num_sms > total_sms:
            raise ValueError(
                f"ordinal {ordinal} does not fit {total_sms} node SMs"
            )
        out = DeviceTrace(clock_ghz=self.clock_ghz, num_sms=total_sms)
        out.truncated = self.truncated
        out.truncation_reason = self.truncation_reason
        out.chunk_counts = {
            (k + worker_offset if k >= 0 else k): v
            for k, v in self.chunk_counts.items()
        }
        for rec in self.records:
            blocks = tuple(
                replace(
                    ev,
                    worker_id=ev.worker_id + worker_offset,
                    sm=ev.sm + sm_offset if ev.sm >= 0 else ev.sm,
                )
                for ev in rec.blocks
            )
            sm_busy = rec.sm_busy
            if sm_busy:
                padded = [0.0] * total_sms
                padded[sm_offset : sm_offset + len(sm_busy)] = list(sm_busy)
                sm_busy = tuple(padded)
            out.records.append(replace(rec, blocks=blocks, sm_busy=sm_busy))
        return out

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": DEVICE_TRACE_SCHEMA,
            "clock_ghz": self.clock_ghz,
            "num_sms": self.num_sms,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "chunk_counts": {str(k): self.chunk_counts[k] for k in sorted(self.chunk_counts)},
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        """Canonical serialisation: byte-identical across engines."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def shifted(self, offset: float) -> "DeviceTrace":
        """Presentation-only copy with every cycle stamp moved by ``offset``.

        Used to place a device-local trace onto a node-wide timeline at
        Perfetto export.  Adding a float offset perturbs re-derived
        durations bitwise, so a shifted trace must **never** be fed to
        ``reconcile`` — the exactness checks run on the unshifted trace.
        """
        out = DeviceTrace(clock_ghz=self.clock_ghz, num_sms=self.num_sms)
        out.chunk_counts = dict(self.chunk_counts)
        out.truncated = self.truncated
        out.truncation_reason = self.truncation_reason
        for rec in self.records:
            out.records.append(
                replace(
                    rec,
                    start_cycle=rec.start_cycle + offset,
                    blocks=tuple(
                        replace(
                            ev,
                            start_cycle=ev.start_cycle + offset,
                            end_cycle=ev.end_cycle + offset,
                        )
                        for ev in rec.blocks
                    ),
                )
            )
        return out

    # -- Perfetto export ---------------------------------------------------

    def to_perfetto_events(
        self,
        pid: int = DEVICE_SM_PID,
        *,
        process_name: str = "simulated device (per-SM)",
    ) -> list[dict]:
        """Per-SM tracks plus counter tracks in Chrome trace format.

        Slices (``ph: "X"``) land on one thread per SM; counter events
        (``ph: "C"``) track the per-SM scratchpad high-water at each
        block start/end, and the chunk-pool occupancy and cumulative
        global traffic at each record's end.  Timestamps are
        microseconds on the simulated clock.
        """
        scale = 1.0 / (self.clock_ghz * 1e3)  # cycles -> us

        def us(cycles: float) -> float:
            return cycles * scale

        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            },
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            },
        ]
        used_sms = sorted(
            {ev.sm for _, ev in self.block_events() if ev.sm >= 0}
        )
        for sm in used_sms:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": sm + 1,
                    "args": {"name": f"SM {sm}"},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": sm + 1,
                    "args": {"sort_index": sm + 1},
                }
            )
        bytes_read = bytes_written = 0
        for rec in self.records:
            bytes_read += rec.counters.get("global_bytes_read", 0)
            bytes_written += rec.counters.get("global_bytes_written", 0)
            for ev in rec.blocks:
                bytes_read += ev.counters.get("global_bytes_read", 0)
                bytes_written += ev.counters.get("global_bytes_written", 0)
            if rec.kind == "launch":
                for ev in rec.blocks:
                    if ev.sm < 0:
                        events.append(
                            {
                                "name": f"{rec.stage} abort w{ev.worker_id}",
                                "ph": "i",
                                "ts": us(ev.start_cycle),
                                "pid": pid,
                                "tid": 0,
                                "s": "p",
                            }
                        )
                        continue
                    events.append(
                        {
                            "name": f"{rec.stage} r{rec.round_index} w{ev.worker_id}",
                            "ph": "X",
                            "ts": us(ev.start_cycle),
                            "dur": us(ev.cycles),
                            "pid": pid,
                            "tid": ev.sm + 1,
                            "args": {
                                "rows": f"[{ev.row_lo}, {ev.row_hi}]",
                                "scratch_high_water": ev.scratch_high_water,
                                "esc_iterations": ev.esc_iterations,
                                "sorts": len(ev.sort_log),
                                "done": ev.done,
                            },
                        }
                    )
                    if ev.scratch_high_water:
                        events.append(
                            {
                                "name": f"scratchpad bytes (SM {ev.sm})",
                                "ph": "C",
                                "ts": us(ev.start_cycle),
                                "pid": pid,
                                "tid": 0,
                                "args": {"bytes": ev.scratch_high_water},
                            }
                        )
                        events.append(
                            {
                                "name": f"scratchpad bytes (SM {ev.sm})",
                                "ph": "C",
                                "ts": us(ev.end_cycle),
                                "pid": pid,
                                "tid": 0,
                                "args": {"bytes": 0},
                            }
                        )
            if rec.pool_capacity_bytes:
                events.append(
                    {
                        "name": "chunk pool occupancy",
                        "ph": "C",
                        "ts": us(rec.start_cycle + rec.cycles),
                        "pid": pid,
                        "tid": 0,
                        "args": {
                            "used_bytes": rec.pool_used_bytes,
                            "free_bytes": rec.pool_capacity_bytes
                            - rec.pool_used_bytes,
                        },
                    }
                )
            if bytes_read or bytes_written:
                events.append(
                    {
                        "name": "global traffic (cumulative)",
                        "ph": "C",
                        "ts": us(rec.start_cycle + rec.cycles),
                        "pid": pid,
                        "tid": 0,
                        "args": {
                            "bytes_read": bytes_read,
                            "bytes_written": bytes_written,
                        },
                    }
                )
        return events


def merge_device_traces(entries, *, clock_ghz: float, total_sms: int) -> DeviceTrace:
    """Merge per-device traces of one node run into a single trace.

    ``entries`` is an iterable of ``(ordinal, DeviceTrace)`` pairs in
    the deterministic merge order (device-major, then round).  Each
    trace is renumbered into the ordinal's SM/worker namespace first,
    so ids from different devices can never collide; records keep their
    device-local cycles and are concatenated in entry order, which is
    the order every exactness check (stage sums, span alignment) uses.
    """
    merged = DeviceTrace(clock_ghz=clock_ghz, num_sms=total_sms)
    reasons = []
    for ordinal, trace in entries:
        part = trace.renumbered(ordinal=ordinal, total_sms=total_sms)
        merged.records.extend(part.records)
        for bid, count in part.chunk_counts.items():
            # namespaced ids are disjoint; only the merge-produced
            # bucket (-1) is shared and accumulates
            merged.chunk_counts[bid] = merged.chunk_counts.get(bid, 0) + count
        if part.truncated:
            merged.truncated = True
            if part.truncation_reason:
                reasons.append(f"device {ordinal}: {part.truncation_reason}")
    merged.truncation_reason = "; ".join(reasons)
    return merged
