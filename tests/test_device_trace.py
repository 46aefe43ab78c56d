"""Device-level tracing: byte-determinism, reconciliation, analysis.

The contracts under test (see ``docs/ARCHITECTURE.md`` §6):

* the serialised trace is **byte-identical** across the reference
  and batched engines — including runs with injected faults
  and the degradation fallback;
* the trace reconciles **exactly** (no tolerance) with every other
  accounting surface: per-stage cycle sums equal ``result.stage_cycles``,
  attributed counters sum to ``result.counters``, per-launch SM busy
  times re-derive from block events, and records align with the span
  tree;
* ``options.device_trace=False`` costs nothing and attaches nothing.
"""

import json

import numpy as np
import pytest

from repro import AcSpgemmOptions, CSRMatrix, ac_spgemm
from repro.gpu import SMALL_DEVICE
from repro.gpu.counters import TrafficCounters
from repro.obs import validate_perfetto
from repro.obs.analyze import (
    analyze_result,
    reconcile,
    render_html,
    stage_leaf_spans,
)
from repro.obs.export import perfetto_payload
from repro.resilience.faults import FaultPlan

from .conftest import random_csr
from .test_edge_degenerate import degenerate_cases

ENGINES = ("reference", "batched")


def _opts(**kw) -> AcSpgemmOptions:
    base = dict(
        device=SMALL_DEVICE,
        chunk_pool_lower_bound_bytes=1 << 20,
        device_trace=True,
    )
    base.update(kw)
    return AcSpgemmOptions(**base)


def _pair(rng, rows=70, inner=60, cols=65, density=0.08):
    return (
        random_csr(rng, rows, inner, density),
        random_csr(rng, inner, cols, density),
    )


def _assert_reconciled(res):
    """Exact (bit-level) agreement between the trace and the result."""
    dt = res.device_trace
    totals = dt.stage_cycle_totals()
    for stage, cycles in res.stage_cycles.items():
        assert totals.get(stage, 0.0) == cycles, stage
    assert dt.counter_totals() == res.counters
    for rec in dt.launches():
        assert dt.per_sm_busy(rec) == list(rec.sm_busy), rec.label
    # record-by-record span alignment, using the span clock's own
    # (start + cycles) - start float arithmetic
    leaf_spans = stage_leaf_spans(res.spans)
    assert len(leaf_spans) == len(dt.records)
    for span, rec in zip(leaf_spans, dt.records):
        assert span.attrs["stage"] == rec.stage
        assert span.start_cycle == rec.start_cycle
        assert span.duration == (rec.start_cycle + rec.cycles) - rec.start_cycle
    # the module-level reconciler agrees
    summary = reconcile(res)
    assert summary["checked"] and summary["spans_exact"]


class TestCrossEngineByteDeterminism:
    def test_plain_run(self, rng):
        a, b = _pair(rng)
        traces = {}
        for engine in ENGINES:
            res = ac_spgemm(a, b, _opts(engine=engine))
            _assert_reconciled(res)
            traces[engine] = res.device_trace.to_json()
        assert traces["reference"] == traces["batched"]

    def test_restart_run(self, rng):
        """Pool exhaustion/restarts leave identical traces too."""
        a, b = _pair(rng, density=0.12)
        traces = {}
        for engine in ENGINES:
            res = ac_spgemm(
                a, b,
                _opts(engine=engine, chunk_pool_bytes=1 << 11,
                      chunk_pool_lower_bound_bytes=0),
            )
            assert res.restarts > 0  # the scenario must exercise restarts
            _assert_reconciled(res)
            traces[engine] = res.device_trace.to_json()
        assert traces["reference"] == traces["batched"]
        host = [
            json.loads(traces["reference"])["records"][i]
            for i, r in enumerate(res.device_trace.records)
            if r.kind == "host"
        ]
        assert len(host) == res.restarts

    def test_faulted_run(self, rng):
        """An injected block abort shows up once, identically everywhere."""
        a, b = _pair(rng)
        plan = FaultPlan.single("block_abort", stage="ESC", round=0, block=1)
        traces = {}
        for engine in ENGINES:
            res = ac_spgemm(a, b, _opts(engine=engine, fault_plan=plan))
            _assert_reconciled(res)
            traces[engine] = res.device_trace.to_json()
        assert traces["reference"] == traces["batched"]
        aborted = [
            ev for _, ev in res.device_trace.block_events() if ev.aborted
        ]
        assert len(aborted) == 1
        assert aborted[0].sm == -1 and aborted[0].cycles == 0.0

    def test_degraded_run_truncation_marker(self, rng):
        """The fallback path keeps partial records + explicit marker."""
        a, b = _pair(rng)
        plan = FaultPlan.single(
            "scratchpad_overflow", stage="MM", round=0, block=0
        )
        traces = {}
        for engine in ENGINES:
            res = ac_spgemm(
                a, b, _opts(engine=engine, fault_plan=plan,
                            on_failure="fallback"),
            )
            assert res.degraded
            dt = res.device_trace
            assert dt.truncated and dt.truncation_reason
            # pre-failure records survive, the fallback is appended
            assert dt.records[-1].stage == "FB"
            assert any(r.stage == "ESC" for r in dt.records)
            assert dt.stage_cycle_totals()["FB"] == res.stage_cycles["FB"]
            assert reconcile(res)["checked"] is False
            traces[engine] = dt.to_json()
        assert traces["reference"] == traces["batched"]

    def test_repeat_run_is_byte_stable(self, rng):
        a, b = _pair(rng)
        first = ac_spgemm(a, b, _opts()).device_trace.to_json()
        second = ac_spgemm(a, b, _opts()).device_trace.to_json()
        assert first == second

    def test_shared_row_heavy_run(self):
        """Many shared rows with further charges after the second-chunk
        insert: the shared-row atomic must be settled at block-run exit
        on every engine, or the reference's inline charge perturbs the
        rounding of later global-access divisions and per-block cycles
        drift by one ulp (regression: diverged before the deferral)."""
        from repro.matrices.generators import random_uniform

        a = random_uniform(600, 600, 15.0, seed=7)
        traces = {}
        for engine in ENGINES:
            res = ac_spgemm(a, a, _opts(engine=engine))
            _assert_reconciled(res)
            traces[engine] = res.device_trace.to_json()
        assert traces["reference"] == traces["batched"]


class TestReconciliationSweep:
    @pytest.mark.parametrize(
        "label,a,b", degenerate_cases(), ids=[c[0] for c in degenerate_cases()]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_degenerate_inputs(self, label, a, b, engine):
        res = ac_spgemm(a, b, _opts(engine=engine))
        _assert_reconciled(res)

    def test_merge_heavy_run(self, rng):
        """Shared rows push work through MM/PM/SM; all reconciled."""
        a, b = _pair(rng, rows=50, inner=40, cols=45, density=0.25)
        res = ac_spgemm(a, b, _opts())
        assert res.shared_rows > 0
        stages = {r.stage for r in res.device_trace.records}
        assert "MM" in stages or "PM" in stages or "SM" in stages
        _assert_reconciled(res)

    def test_off_by_default_and_zero_cost(self, rng):
        a, b = _pair(rng)
        res = ac_spgemm(a, b, AcSpgemmOptions(device=SMALL_DEVICE))
        assert res.device_trace is None
        # the scheduler skips placement recording when the trace is off
        assert res.spans is not None


class TestTrafficCountersDelta:
    def test_subtraction(self):
        before = TrafficCounters(global_bytes_read=10, flops=3)
        after = TrafficCounters(global_bytes_read=25, flops=3, atomic_ops=2)
        delta = after - before
        assert delta.global_bytes_read == 15
        assert delta.flops == 0
        assert delta.atomic_ops == 2

    def test_negative_delta_guard(self):
        before = TrafficCounters(global_bytes_read=10)
        after = TrafficCounters(global_bytes_read=25)
        with pytest.raises(ValueError, match="negative counter delta"):
            before - after

    def test_non_counter_operand(self):
        with pytest.raises(TypeError):
            TrafficCounters() - 1


class TestTraceContent:
    def test_block_events_carry_attribution(self, rng):
        a, b = _pair(rng)
        res = ac_spgemm(a, b, _opts())
        dt = res.device_trace
        esc = [ev for r, ev in dt.block_events() if r.stage == "ESC"]
        assert esc
        for ev in esc:
            assert 0 <= ev.sm < dt.num_sms
            assert ev.row_lo <= ev.row_hi
            assert ev.esc_iterations >= 1
            assert ev.end_cycle >= ev.start_cycle
        # some block sorted something, with plausible key widths
        sorts = [s for ev in esc for s in ev.sort_log]
        assert sorts and all(n > 0 and bits >= 2 for n, bits in sorts)
        # scratchpad high-water stays within the device bound
        assert all(
            0 <= ev.scratch_high_water <= SMALL_DEVICE.scratchpad_bytes
            for ev in esc
        )

    def test_chunk_counts_cover_pool(self, rng):
        a, b = _pair(rng)
        res = ac_spgemm(a, b, _opts())
        counts = res.device_trace.chunk_counts
        assert sum(counts.values()) == res.n_chunks
        assert all(k >= -1 for k in counts)

    def test_launch_records_within_makespan(self, rng):
        a, b = _pair(rng)
        res = ac_spgemm(a, b, _opts())
        for rec in res.device_trace.launches():
            for ev in rec.blocks:
                if not ev.aborted:
                    assert ev.end_cycle <= rec.start_cycle + rec.cycles + 1e-9


class TestAnalyze:
    def test_report_is_deterministic_across_engines(self, rng):
        a, b = _pair(rng)
        docs = {}
        for engine in ENGINES:
            opts = _opts(engine=engine)
            res = ac_spgemm(a, b, opts)
            report = analyze_result(res, opts, matrix_name="t")
            doc = report.report_doc()
            # the engine label is the only allowed difference
            doc["engine"] = "X"
            docs[engine] = json.dumps(doc, sort_keys=True)
        assert docs["reference"] == docs["batched"]

    def test_report_figures(self, rng):
        a, b = _pair(rng)
        opts = _opts()
        res = ac_spgemm(a, b, opts)
        report = analyze_result(res, opts, matrix_name="t")
        doc = report.report_doc()
        fig = doc["figures"]
        assert sum(fig["esc_iteration_histogram"].values()) == res.n_blocks
        assert fig["stage_cycles"] == res.stage_cycles
        assert all(v >= 1.0 for v in fig["load_imbalance"].values())
        wl = fig["scratchpad_waterline"]
        assert 0 < wl["max_bytes"] <= wl["capacity_bytes"]
        assert doc["reconciliation"]["counters_exact"]
        # gate metrics are a flat numeric map
        metrics = report.metrics_doc()["metrics"]
        assert metrics and all(
            isinstance(v, float) for v in metrics.values()
        )
        assert any(k.startswith("load_imbalance.") for k in metrics)
        assert any(k.startswith("traffic_bytes.") for k in metrics)

    def test_html_rendering(self, rng, tmp_path):
        a, b = _pair(rng)
        opts = _opts()
        res = ac_spgemm(a, b, opts)
        report = analyze_result(res, opts, matrix_name="t<x>")
        html = render_html(report.report_doc())
        assert html.startswith("<!DOCTYPE html>")
        assert "t&lt;x&gt;" in html  # names are escaped
        assert "EXACT" in html and "Fig. 9" in html
        out = report.write_html(tmp_path / "r.html")
        assert out.read_text() == html

    def test_requires_device_trace(self, rng):
        a, b = _pair(rng)
        opts = AcSpgemmOptions(device=SMALL_DEVICE)
        res = ac_spgemm(a, b, opts)
        with pytest.raises(ValueError, match="device trace"):
            analyze_result(res, opts)

    def test_truncated_report(self, rng):
        a, b = _pair(rng)
        opts = _opts(
            fault_plan=FaultPlan.single(
                "scratchpad_overflow", stage="ESC", round=0, block=0
            ),
            on_failure="fallback",
        )
        res = ac_spgemm(a, b, opts)
        report = analyze_result(res, opts, matrix_name="t")
        doc = report.report_doc()
        assert doc["truncated"] and doc["truncation_reason"]
        assert doc["reconciliation"]["checked"] is False
        assert "TRUNCATED" in render_html(doc)

    def test_degraded_text_report(self, rng):
        """A degraded run's stage table gains the fallback row and the
        report names the failure."""
        a, b = _pair(rng)
        opts = _opts(
            fault_plan=FaultPlan.single(
                "scratchpad_overflow", stage="ESC", round=0, block=0
            ),
            on_failure="fallback",
        )
        res = ac_spgemm(a, b, opts)
        lines = analyze_result(res, opts, matrix_name="t").text().splitlines()
        assert [ln.split()[0] for ln in lines[2:10]] == [
            "GLB", "ESC", "MCC", "MM", "PM", "SM", "CC", "FB",
        ]
        assert f"  DEGRADED: {res.failure['kind']} — " in "\n".join(lines)
        assert any(ln.startswith("  TRUNCATED: ") for ln in lines)
        assert "  reconciliation: skipped (truncated)" in lines

    @staticmethod
    def _pct(line: str) -> float:
        return float(next(t for t in line.split() if t.endswith("%"))[:-1])

    def test_degraded_span_shares_stay_within_the_root(self, rng):
        """Span-tree shares are of the root span, which on a degraded run
        holds the failed attempt as well as the fallback; the stage table
        stays a share of the result's (fallback) cycles."""
        a, b = _pair(rng)
        opts = _opts(
            fault_plan=FaultPlan.single(
                "scratchpad_overflow", stage="ESC", round=0, block=0
            ),
            on_failure="fallback",
        )
        res = ac_spgemm(a, b, opts)
        assert res.degraded and res.spans.duration > res.total_cycles
        lines = analyze_result(res, opts, matrix_name="t").text().splitlines()
        tree = lines[lines.index("  span tree:") + 1 :]
        assert tree and all(self._pct(ln) <= 100.0 for ln in tree)
        assert self._pct(tree[0]) == 100.0
        for ln, (key, cycles) in zip(lines[2:10], res.stage_cycles.items()):
            assert ln.split()[0] == key
            assert self._pct(ln) == round(100.0 * cycles / res.total_cycles, 1)

    def test_clean_span_root_is_the_total(self, rng):
        """On a clean run the root span is the run's total, so its share
        reads 100% as before."""
        a, b = _pair(rng)
        opts = _opts()
        res = ac_spgemm(a, b, opts)
        assert res.spans.duration == res.total_cycles
        lines = analyze_result(res, opts, matrix_name="t").text().splitlines()
        assert lines[lines.index("  span tree:") + 1].endswith("100.0%")


class TestPerfettoExport:
    def test_device_tracks_validate(self, rng):
        a, b = _pair(rng)
        res = ac_spgemm(a, b, _opts())
        payload = perfetto_payload(
            spans=res.spans,
            device=res.device_trace,
            clock_ghz=res.clock_ghz,
        )
        validate_perfetto(payload)
        dev = [e for e in payload["traceEvents"] if e.get("pid") == 3]
        assert any(e["ph"] == "X" for e in dev)
        assert any(e["ph"] == "C" for e in dev)
        sms = {e["tid"] for e in dev if e["ph"] == "X"}
        assert sms and all(tid >= 1 for tid in sms)

    def test_counter_tracks_from_device_trace(self, rng):
        """Pool occupancy and cumulative global traffic ride the device
        trace; the last traffic sample is the run's total."""
        a, b = _pair(rng)
        res = ac_spgemm(a, b, _opts(pool_growth_factor=1.5))
        events = res.device_trace.to_perfetto_events()
        validate_perfetto({"traceEvents": events})
        counters = [e for e in events if e["ph"] == "C"]
        assert "chunk pool occupancy" in {e["name"] for e in counters}
        traffic = [
            e for e in counters if e["name"] == "global traffic (cumulative)"
        ]
        assert traffic == sorted(traffic, key=lambda e: e["ts"])
        assert traffic[-1]["args"] == {
            "bytes_read": res.counters.global_bytes_read,
            "bytes_written": res.counters.global_bytes_written,
        }

    def test_validator_rejects_bad_counter(self):
        bad = {
            "traceEvents": [
                {"name": "c", "ph": "C", "ts": 1.0, "pid": 1, "tid": 0,
                 "args": {"v": "not a number"}},
            ]
        }
        with pytest.raises(ValueError, match="non-numeric"):
            validate_perfetto(bad)
