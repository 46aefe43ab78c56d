"""Tests for the execution timeline (the artifact's Debug mode).

The timeline is the device trace (:class:`repro.obs.device.DeviceTrace`)
plus the pipeline span tree; ``repro analyze --perfetto-out`` renders
both as one Perfetto file.
"""

import json

import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.gpu import SMALL_DEVICE
from repro.gpu.scheduler import schedule_blocks
from repro.matrices import random_uniform
from repro.obs import (
    DeviceTrace,
    analyze_result,
    perfetto_payload,
    write_perfetto,
)
from repro.obs.device import BlockMeta
from tests.conftest import random_csr


def _restart_opts(**kw) -> AcSpgemmOptions:
    """A pool small enough to restart in ESC and in the MM merge."""
    return AcSpgemmOptions(
        device=SMALL_DEVICE,
        chunk_pool_bytes=20000,
        pool_growth_factor=2.0,
        device_trace=True,
        **kw,
    )


def _launch(trace, stage, cycles, *, start):
    trace.record_launch(
        stage,
        round_index=0,
        start_cycle=start,
        timing=schedule_blocks(cycles, trace.num_sms, record_placements=True),
        launch_overhead=0.0,
        workers=[
            BlockMeta(worker_id=i, row_lo=i, row_hi=i, cycles=c)
            for i, c in enumerate(cycles)
        ],
    )


class TestRecorder:
    def test_clock_advances(self):
        t = DeviceTrace(clock_ghz=1.0, num_sms=2)
        _launch(t, "ESC", [10.0, 20.0], start=0.0)
        rec = t.records[0]
        assert rec.cycles == 20.0
        t.record("device_wide", "CC", "scan", start_cycle=rec.cycles, cycles=5.0)
        assert [r.start_cycle for r in t.records] == [0.0, 20.0]
        assert sum(r.cycles for r in t.records) == 25.0

    def test_block_statistics(self):
        t = DeviceTrace(clock_ghz=1.0, num_sms=2)
        _launch(t, "ESC", [1.0, 3.0, 2.0], start=100.0)
        rec = t.records[0]
        assert [ev.cycles for ev in rec.blocks] == [1.0, 3.0, 2.0]
        assert [ev.sm for ev in rec.blocks] == [0, 1, 0]
        assert rec.blocks[2].start_cycle == 101.0
        assert t.per_sm_busy(rec) == list(rec.sm_busy) == [3.0, 3.0]

    def test_stage_totals(self):
        t = DeviceTrace(clock_ghz=1.0, num_sms=2)
        t.record("device_wide", "GLB", "glb", start_cycle=0.0, cycles=5.0)
        t.record("device_wide", "ESC", "a", start_cycle=5.0, cycles=7.0)
        t.record("device_wide", "ESC", "b", start_cycle=12.0, cycles=3.0)
        assert t.stage_cycle_totals() == {"GLB": 5.0, "ESC": 10.0}

    def test_points(self):
        t = DeviceTrace(clock_ghz=1.0, num_sms=2)
        t.record("device_wide", "ESC", "esc", start_cycle=0.0, cycles=4.0)
        t.record(
            "host", "ESC", "restart", start_cycle=4.0, cycles=2.0,
            counters={"host_round_trips": 1},
        )
        host = t.records[-1]
        assert (host.kind, host.label, host.start_cycle) == (
            "host", "restart", 4.0
        )
        assert t.counter_totals().host_round_trips == 1

    def test_summary_mentions_everything(self):
        a = random_uniform(300, 300, 6, seed=1)
        opts = _restart_opts()
        res = ac_spgemm(a, a, opts)
        s = analyze_result(res, opts).text()
        assert "GLB" in s and f"restarts={res.restarts}" in s
        assert "esc.restart" in s


class TestChromeExport:
    def test_valid_json_with_events(self, tmp_path):
        a = random_uniform(300, 300, 6, seed=1)
        res = ac_spgemm(a, a, _restart_opts())
        p = write_perfetto(
            tmp_path / "trace.json",
            perfetto_payload(
                spans=res.spans, device=res.device_trace,
                clock_ghz=res.clock_ghz,
            ),
        )
        data = json.loads(p.read_text())
        names = [e["name"] for e in data["traceEvents"]]
        assert "ESC r0 w0" in names and "restart" in names
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete and all("dur" in e for e in complete)

    def test_thread_and_process_metadata(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        res = ac_spgemm(
            a, a,
            AcSpgemmOptions(device=SMALL_DEVICE,
                            chunk_pool_lower_bound_bytes=1 << 20,
                            device_trace=True),
        )
        events = perfetto_payload(
            spans=res.spans, device=res.device_trace, clock_ghz=res.clock_ghz
        )["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        procs = {
            e["pid"]: e["args"]["name"]
            for e in meta if e["name"] == "process_name"
        }
        assert procs == {2: "pipeline spans", 3: "simulated device (per-SM)"}
        threads = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        assert threads[(2, 1)] == "host pipeline"
        assert threads[(3, 1)] == "SM 0"
        # every slice and instant event lands on a named row
        assert {
            (e["pid"], e["tid"]) for e in events if e["ph"] in ("X", "i")
        } <= set(threads)


class TestPipelineIntegration:
    def test_trace_attached_and_consistent(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        opts = AcSpgemmOptions(
            device=SMALL_DEVICE,
            chunk_pool_lower_bound_bytes=1 << 20,
            device_trace=True,
        )
        res = ac_spgemm(a, a, opts)
        assert res.device_trace is not None
        last = res.device_trace.records[-1]
        assert last.start_cycle + last.cycles == pytest.approx(
            res.total_cycles
        )
        # per-stage totals match the result's stage accounting exactly
        totals = res.device_trace.stage_cycle_totals()
        for stage, cycles in res.stage_cycles.items():
            assert totals.get(stage, 0.0) == cycles, stage

    def test_trace_off_by_default(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        res = ac_spgemm(
            a, a, AcSpgemmOptions(device=SMALL_DEVICE,
                                  chunk_pool_lower_bound_bytes=1 << 20)
        )
        assert res.device_trace is None

    def test_restart_events_recorded(self):
        a = random_uniform(300, 300, 6, seed=1)
        res = ac_spgemm(a, a, _restart_opts())
        assert res.restarts > 0
        restarts = [
            r for r in res.device_trace.records
            if (r.kind, r.label) == ("host", "restart")
        ]
        assert len(restarts) == res.restarts
        # merge restarts are round trips too, not only ESC's
        assert {r.stage for r in restarts} > {"ESC"}
