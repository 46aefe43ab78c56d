"""One launch ledger: each simulated launch of a run, recorded once.

A run's accounting has four views of the same device events: the
per-stage cycle totals (Fig. 7), the run's traffic counters, the span
tree, and — when ``AcSpgemmOptions.device_trace`` is set — the device
trace.  The drivers (the AC-SpGEMM pipeline and its degradation
fallback, the hash engines, the adaptive selector's routing probe)
report every event to a :class:`LaunchLedger`, which writes all four
views in one place:

* :meth:`~LaunchLedger.device_wide` — a pass that parallelises
  perfectly over the SMs, priced by :func:`device_wide_cycles`;
* :meth:`~LaunchLedger.launch` — a kernel launch scheduled by
  :func:`~repro.gpu.scheduler.schedule_blocks`, which also feeds the
  multiprocessor load and SM utilisation (Table 3);
* :meth:`~LaunchLedger.host` — a host round trip (a restart);
* :meth:`~LaunchLedger.charge` — a pass its caller already priced (the
  fallback), and the primitive the other calls write through.

The device trace is the only optional view.  An untraced run schedules
no block placements and never calls the ``metas`` callable a launch is
given, so it builds no per-block :class:`~repro.obs.device.BlockMeta`;
every other view is the same either way.

Ledgers nest: one built with ``parent=`` shares the parent's span
recorder and device trace but keeps its own stage cycles, counters and
load figures.  That is how an engine runs inside the adaptive
selector's timeline.
"""

from __future__ import annotations

from ..gpu.counters import TrafficCounters
from ..gpu.scheduler import schedule_blocks
from .device import DeviceTrace
from .span import Span, SpanRecorder
from .trace import current_trace_attrs

__all__ = ["LaunchLedger", "device_wide_cycles"]


def device_wide_cycles(
    meter, num_sms: int, launch_cycles: float, launches: int = 1
) -> float:
    """Makespan of a pass that parallelises perfectly over the SMs.

    The metered work divides by ``num_sms``; launch latencies the meter
    charged itself are taken out of that division, and ``launches``
    latencies reach the makespan once.
    """
    own = meter.counters.kernel_launches * launch_cycles
    return (meter.cycles - own) / num_sms + launches * launch_cycles


class LaunchLedger:
    """Stage cycles, counters, spans and device trace of one run."""

    def __init__(self, opts, stage_keys, *, parent: "LaunchLedger | None" = None):
        cfg = opts.device
        self.num_sms = cfg.num_sms
        self.launch_cycles = opts.costs.kernel_launch_cycles
        self.round_trip_cycles = opts.costs.host_round_trip_cycles
        #: False when nested: the parent closes the span tree's root
        self.owns_spans = parent is None
        if parent is None:
            self.spans = SpanRecorder(clock_ghz=cfg.clock_ghz)
            self.dtrace = (
                DeviceTrace(clock_ghz=cfg.clock_ghz, num_sms=cfg.num_sms)
                if opts.device_trace
                else None
            )
        else:
            self.spans = parent.spans
            self.dtrace = parent.dtrace
        self.reset(stage_keys)

    def reset(self, stage_keys) -> None:
        """Start the accounting over: ``stage_keys`` zeroed in order,
        fresh counters and load figures, no chunk pool."""
        self.stage_cycles = dict.fromkeys(stage_keys, 0.0)
        self.counters = TrafficCounters()
        #: the chunk pool whose occupancy each trace record samples
        self.pool = None
        self.multiprocessor_load = 1.0
        self._busy = 0.0
        self._capacity = 0.0

    # -- recording -------------------------------------------------------

    def charge(
        self,
        kind: str,
        stage: str,
        label: str,
        cycles: float,
        counters: dict,
        *,
        name: str | None = None,
        **attrs,
    ) -> None:
        """Record one priced pass: ``cycles`` on ``stage``, the
        ``counters`` delta, a trace record of ``kind`` and a leaf span
        (named ``label`` unless ``name`` is given)."""
        self.stage_cycles[stage] += cycles
        self.counters.merge(TrafficCounters(**counters))
        if self.dtrace is not None:
            self.dtrace.record(
                kind,
                stage,
                label,
                start_cycle=self.spans.now,
                cycles=cycles,
                counters=counters,
                pool=self.pool,
            )
        self.spans.leaf(name or label, cycles, stage=stage, **attrs)

    def device_wide(
        self,
        stage: str,
        label: str,
        meter,
        *,
        launches: int = 1,
        priced_launches: int | None = None,
        **attrs,
    ) -> float:
        """A device-wide pass over ``meter``'s work, counted as
        ``launches`` launches of which ``priced_launches`` (default: all)
        reach the makespan; returns its cycles."""
        if priced_launches is None:
            priced_launches = launches
        cycles = device_wide_cycles(
            meter, self.num_sms, self.launch_cycles, priced_launches
        )
        counters = meter.counters.snapshot()
        counters["kernel_launches"] = launches
        self.charge("device_wide", stage, label, cycles, counters, **attrs)
        return cycles

    def host(self, stage: str, label: str, **attrs) -> None:
        """One host round trip on ``stage`` (leaf ``<stage>.<label>``)."""
        self.charge(
            "host",
            stage,
            label,
            self.round_trip_cycles,
            {"host_round_trips": 1},
            name=f"{stage.lower()}.{label}",
            **attrs,
        )

    def launch(
        self,
        stage: str,
        round_index: int,
        block_cycles,
        *,
        metas,
        aborted=None,
        traffic: TrafficCounters | None = None,
        name: str | None = None,
        **attrs,
    ) -> None:
        """One scheduled kernel launch of ``block_cycles``.

        ``traffic`` is the blocks' counter deltas summed (a launch folds
        into the run's counters in one merge).  ``metas`` (and
        ``aborted``, for workers pulled before dispatch) are called only
        when tracing, returning the :class:`~repro.obs.device.BlockMeta`
        list in dispatch order.  The leaf span is ``<stage>.round``
        unless ``name`` is given.
        """
        timing = schedule_blocks(
            block_cycles,
            self.num_sms,
            launch_overhead=self.launch_cycles,
            record_placements=self.dtrace is not None,
        )
        self.stage_cycles[stage] += timing.makespan_cycles
        if traffic is not None:
            self.counters.merge(traffic)
        self.counters.kernel_launches += 1
        if timing.n_blocks >= self.num_sms:
            self.multiprocessor_load = min(
                self.multiprocessor_load, timing.multiprocessor_load
            )
        if timing.n_blocks:  # empty launches are pure overhead, not idle SMs
            self._busy += timing.total_block_cycles
            self._capacity += len(timing.sm_busy_cycles) * timing.makespan_cycles
        if self.dtrace is not None:
            self.dtrace.record_launch(
                stage,
                round_index=round_index,
                start_cycle=self.spans.now,
                timing=timing,
                launch_overhead=self.launch_cycles,
                workers=metas(),
                aborted=aborted() if aborted else None,
                counters={"kernel_launches": 1},
                pool=self.pool,
            )
        self.spans.leaf(
            name or f"{stage.lower()}.round",
            timing.makespan_cycles,
            stage=stage,
            **attrs,
        )

    def count_chunks(self, n_esc_blocks: int) -> None:
        """Record each ESC block's share of the final chunk pool."""
        if self.dtrace is not None:
            self.dtrace.finalize_chunks(self.pool, n_esc_blocks)

    def truncate(self, reason: str, stage_keys) -> None:
        """The run failed and degrades: close its open spans, mark the
        device trace partial and restart the accounting, which from here
        on covers the fallback only."""
        self.spans.abort(reason=reason, **current_trace_attrs())
        self.spans.event("degraded", detail=reason)
        if self.dtrace is not None:
            # the trace keeps every record collected before the failure
            self.dtrace.mark_truncated(reason)
        self.reset(stage_keys)

    # -- read-out --------------------------------------------------------

    def totals(self) -> dict:
        """The run's accounting, as ``AcSpgemmResult`` fields; SM
        utilisation is the busy share of every non-empty launch's
        SM-cycles."""
        return {
            "stage_cycles": self.stage_cycles,
            "counters": self.counters,
            "multiprocessor_load": self.multiprocessor_load,
            "sm_utilization": self._busy / self._capacity if self._capacity else 1.0,
            "device_trace": self.dtrace,
        }

    def finish(self, anchor: Span, **attrs) -> Span:
        """Close the span tree this ledger owns, or — nested — unwind
        the parent's recorder back to ``anchor`` and close it.  An anchor
        a failure already closed is returned as it is."""
        if self.owns_spans:
            return self.spans.close(**attrs)
        if anchor.end_cycle is None:
            while self.spans.current is not anchor:
                self.spans.finish()
            self.spans.finish(**attrs)
        return anchor
