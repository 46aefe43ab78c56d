"""Distributed request tracing and the selector flight recorder.

Covers the determinism contract (ids derive from content + ordinals,
never wall-clock), the exactly-one-rooted-trace rule across every serve
outcome, span grafting and cycle reconciliation, latency histograms
with exemplars (including concurrent scrapes), and the flight
recorder's rotation / torn-line / drain-flush behaviour.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import AcSpgemmOptions, FaultPlan, ac_spgemm
from repro.campaign.plan import tiny_entries
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    FlightRecorder,
    MetricsRegistry,
    RequestTrace,
    SpanRecorder,
    TraceContext,
    TraceStore,
    current_trace_attrs,
    derive_span_id,
    derive_trace_id,
    parse_prometheus_text,
    payload_fingerprint,
    read_flight_events,
    use_trace,
)
from repro.resilience.errors import RestartBudgetExceeded
from repro.serve import ServeConfig, ServeCore
from repro.sparse import squared_operands


def _core(**overrides) -> ServeCore:
    defaults = dict(
        engine="reference",
        executors=1,
        max_queue=4,
        default_deadline_ms=60_000.0,
    )
    multiply = overrides.pop("multiply", None)
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults), multiply=multiply)


def _operands(name="tiny-uniform"):
    entry = next(e for e in tiny_entries() if e.name == name)
    return squared_operands(entry.build())


class TestDeterministicIds:
    def test_ids_are_pure_functions(self):
        assert derive_trace_id("fp", 1) == derive_trace_id("fp", 1)
        assert derive_trace_id("fp", 1) != derive_trace_id("fp", 2)
        assert derive_trace_id("fp", 1) != derive_trace_id("fq", 1)
        tid = derive_trace_id("fp", 1)
        assert len(tid) == 32
        sid = derive_span_id(tid, "", "request", 0)
        assert len(sid) == 16
        assert sid == derive_span_id(tid, "", "request", 0)
        assert sid != derive_span_id(tid, "", "request", 1)

    def test_payload_fingerprint_is_canonical(self):
        assert payload_fingerprint({"a": 1, "b": 2}) == payload_fingerprint(
            {"b": 2, "a": 1}
        )
        assert payload_fingerprint({"a": 1}) != payload_fingerprint({"a": 2})

    def test_traceparent_round_trip(self):
        ctx = TraceContext.for_request("fp", 7)
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed == ctx

    def test_malformed_traceparent_is_none(self):
        for bad in ("", "junk", "00-zz-aa-01", "00-" + "a" * 32, None):
            assert TraceContext.from_traceparent(bad) is None

    def test_client_traceparent_wins_trace_id(self):
        client = TraceContext.for_request("client-content", 1)
        joined = TraceContext.for_request("fp", 3, client)
        assert joined.trace_id == client.trace_id
        assert joined.span_id == derive_span_id(
            client.trace_id, client.span_id, "request", 3
        )


class TestRequestTrace:
    def test_refcounted_root_closes_on_last_release(self):
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        trace.retain()
        span = trace.start_span("work")
        trace.release(outcome="rejected")
        assert not trace.finalized  # executor still holds a reference
        trace.end_span(span)
        trace.release()
        assert trace.finalized
        assert trace.root.attrs["outcome"] == "rejected"
        assert trace.root.status == "ok"
        v = trace.validate()
        assert v["rooted"] and v["orphans"] == 0 and v["open_spans"] == 0

    def test_finalize_tags_abandoned_spans_unclosed(self):
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        trace.start_span("never-ended")
        trace.release()
        leaked = [s for s in trace.spans if s.status == "unclosed"]
        assert [s.name for s in leaked] == ["never-ended"]

    def test_id_manifest_excludes_wall_clock(self):
        def build():
            t = RequestTrace(TraceContext.for_request("fp", 1))
            s = t.start_span("execute")
            t.start_span("attempt", parent=s)
            time.sleep(0.001)  # different durations, identical manifests
            t.release()
            return t.id_manifest()

        assert build() == build()

    def test_graft_reconciles_clean_run(self):
        a, b = _operands()
        result = ac_spgemm(a, b, AcSpgemmOptions(engine="reference"))
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        parent = trace.start_span("execute")
        summary = trace.graft_result(parent, result)
        assert summary["reconciled"], summary["mismatches"]
        assert summary["spans"] > 0
        assert parent.attrs["reconciled"] is True
        trace.release()
        assert trace.validate()["rooted"]

    def test_graft_reconciles_degraded_run_on_fallback_only(self):
        a, b = _operands()
        opts = AcSpgemmOptions(
            engine="reference",
            on_failure="fallback",
            max_restarts=0,
            fault_plan=FaultPlan.single(
                "scratchpad_overflow", stage="ESC", round=0, block=0
            ),
        )
        result = ac_spgemm(a, b, opts)
        assert result.degraded
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        parent = trace.start_span("execute")
        summary = trace.graft_result(parent, result)
        assert summary["reconciled"], summary["mismatches"]
        trace.release()

    def test_store_is_bounded_lru(self):
        store = TraceStore(capacity=2)
        traces = [
            RequestTrace(TraceContext.for_request("fp", i)) for i in range(3)
        ]
        for t in traces:
            store.add(t)
        assert len(store) == 2
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[2].trace_id) is traces[2]


class TestAmbientContext:
    def test_attrs_flow_and_reset(self):
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        span = trace.start_span("attempt")
        assert current_trace_attrs() == {}
        with use_trace(trace, span, breaker="closed"):
            attrs = current_trace_attrs()
            assert attrs["trace_id"] == trace.trace_id
            assert attrs["span_id"] == span.span_id
            assert attrs["breaker"] == "closed"
        assert current_trace_attrs() == {}
        trace.release()

    def test_span_recorder_abort_attaches_context(self):
        spans = SpanRecorder(clock_ghz=1.0)
        spans.start("pipeline")
        spans.start("esc")
        spans.abort(reason="boom", trace_id="t" * 32, breaker="open")
        root = spans.close()
        esc = root.children[0]
        assert esc.attrs["aborted"] is True
        assert esc.attrs["trace_id"] == "t" * 32
        assert esc.attrs["breaker"] == "open"
        assert root.attrs["trace_id"] == "t" * 32

    def test_degraded_pipeline_spans_carry_trace_ids(self):
        a, b = _operands()
        opts = AcSpgemmOptions(
            engine="reference",
            on_failure="fallback",
            max_restarts=0,
            fault_plan=FaultPlan.single(
                "scratchpad_overflow", stage="ESC", round=0, block=0
            ),
        )
        trace = RequestTrace(TraceContext.for_request("fp", 1))
        span = trace.start_span("attempt")
        with use_trace(trace, span, breaker="closed"):
            result = ac_spgemm(a, b, opts)
        trace.release()
        assert result.degraded
        aborted = [
            s for s in result.spans.walk() if s.attrs.get("aborted")
        ]
        assert aborted
        assert all(
            s.attrs["trace_id"] == trace.trace_id for s in aborted
        )


class TestLatencyHistograms:
    def test_bucket_export_is_cumulative_and_deterministic(self):
        reg = MetricsRegistry()
        for v in (0.5, 3.0, 3.0, 9999.0, 50_000.0):
            reg.observe("req_ms", v, buckets=DEFAULT_LATENCY_BUCKETS_MS)
        snap = reg.histogram("req_ms")
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(60005.5)
        cumulative = snap["buckets"]
        les = list(cumulative)
        assert les[-1] == "+Inf"
        counts = list(cumulative.values())
        assert counts == sorted(counts)  # cumulative is monotone
        assert counts[-1] == 5

    def test_exemplars_round_trip_through_prometheus(self):
        reg = MetricsRegistry()
        reg.observe(
            "req_ms", 4.2, buckets=(1.0, 10.0),
            exemplar={"trace_id": "ab" * 16}, outcome="success",
        )
        text = reg.to_prometheus()
        parsed = parse_prometheus_text(text)
        rows = parsed["exemplars"]["req_ms_bucket"]
        assert len(rows) == 1
        labels, ex_labels, ex_value = rows[0]
        assert labels["le"] == "10.0"
        assert ex_labels == {"trace_id": "ab" * 16}
        assert ex_value == pytest.approx(4.2)

    def test_mismatched_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.observe("req_ms", 1.0, buckets=(1.0, 10.0))
        with pytest.raises(ValueError):
            reg.observe("req_ms", 1.0, buckets=(5.0, 10.0))
        with pytest.raises(ValueError):
            reg.observe("other_ms", 1.0, buckets=(10.0, 1.0))

    def test_concurrent_scrapes_see_consistent_snapshots(self):
        """No torn buckets: every scrape's +Inf equals its _count and
        its buckets are monotone, while writers hammer the registry."""
        reg = MetricsRegistry()
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            i = 0
            while not stop.is_set():
                reg.observe(
                    "req_ms", float(i % 70),
                    buckets=(1.0, 10.0, 100.0),
                    exemplar={"trace_id": f"{i:032x}"},
                )
                i += 1

        def scraper():
            while not stop.is_set():
                parsed = parse_prometheus_text(reg.to_prometheus())
                samples = parsed["samples"]
                buckets = samples.get("req_ms_bucket")
                if not buckets:
                    continue
                by_le = {
                    float(labels["le"].replace("+Inf", "inf")): value
                    for labels, value in buckets
                }
                counts = [v for _, v in sorted(by_le.items())]
                if counts != sorted(counts):
                    errors.append(f"non-monotone buckets {by_le}")
                count = samples["req_ms_count"][0][1]
                if by_le[float("inf")] != count:
                    errors.append(
                        f"+Inf {by_le[float('inf')]} != count {count}"
                    )

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=scraper) for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors[:3]


class TestFlightRecorder:
    def test_ring_and_rolling_error(self):
        rec = FlightRecorder(window=2)
        rec.record({"rel_error": 0.1})
        rec.record({"rel_error": 0.2})
        rec.record({"rel_error": 0.6})
        assert rec.recorded == 3
        assert len(rec.events()) == 2
        assert rec.prediction_error() == pytest.approx(0.4)

    def test_log_is_byte_identical_across_reruns(self, tmp_path):
        def run(path):
            rec = FlightRecorder(path)
            for i in range(5):
                rec.record({"chosen": "hash-spgemm", "rel_error": i / 10})
            rec.close()
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_rotation_keeps_bounded_files(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(path, max_bytes=200, max_files=2)
        for i in range(50):
            rec.record({"chosen": "ac-spgemm", "i": i})
        rec.close()
        files = sorted(p.name for p in tmp_path.iterdir())
        assert path.exists()
        assert f"{path.name}.1" in files
        assert f"{path.name}.{3}" not in files
        for p in tmp_path.iterdir():
            for event in read_flight_events(p):
                assert "seq" in event

    def test_reader_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(path)
        rec.record({"chosen": "a"})
        rec.record({"chosen": "b"})
        rec.close()
        torn = path.read_bytes()[:-7]  # SIGKILL mid-write
        path.write_bytes(torn)
        events = read_flight_events(path)
        assert [e["chosen"] for e in events] == ["a"]
        # a torn line anywhere else is real corruption and raises
        path.write_text('{"ok": 1}\n{bad\n{"ok": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            read_flight_events(path)

    def test_serve_drain_flushes_parseable_log(self, tmp_path):
        log = tmp_path / "flight.jsonl"
        core = _core(backend="adaptive", flight_log=str(log))
        try:
            body = core.handle({"matrix": "tiny-uniform"})
            assert body["outcome"] == "success"
        finally:
            core.close(drain=True)
        events = read_flight_events(log)
        assert len(events) == 1
        ev = events[0]
        assert ev["chosen"] in (
            "ac-spgemm", "hash-spgemm", "hashmap-spgemm"
        )
        assert ev["trace_id"] == body["trace_id"]
        assert set(ev) >= {
            "predicted", "predicted_chosen", "actual_cycles",
            "rel_error", "regret_bound",
        }


class TestSelectorAudit:
    def test_routing_audit_on_result(self):
        a, b = _operands()
        from repro.backends import run_backend

        result = run_backend("adaptive", a, b, AcSpgemmOptions())
        audit = result.routing_audit
        assert audit["chosen"] == result.dispatched_to
        assert set(audit["predicted"]) == {
            "ac-spgemm", "hash-spgemm", "hashmap-spgemm"
        }
        sel = result.stage_cycles["SEL"]
        assert audit["actual_cycles"] == pytest.approx(
            result.total_cycles - sel
        )
        assert audit["regret_bound"] >= 0.0
        assert audit["regret_bound"] == pytest.approx(
            max(
                0.0,
                audit["actual_cycles"] - min(audit["predicted"].values()),
            )
        )


class TestServeTracing:
    def test_every_outcome_carries_trace_identity(self):
        core = _core()
        try:
            ok = core.handle({"matrix": "tiny-uniform"})
            missing = core.handle({"matrix": "no-such"})
            bad = core.handle({"dtype": "int8"})
            closed_keys = ("request_id", "trace_id", "traceparent")
            for body in (ok, missing, bad):
                for key in closed_keys:
                    assert body[key], (key, body)
            assert ok["request_id"] == "req-000001"
            assert missing["status"] == 404
            assert bad["status"] == 400
        finally:
            core.close()

    def test_each_request_yields_one_rooted_finalized_trace(self):
        core = _core()
        try:
            bodies = [
                core.handle({"matrix": "tiny-uniform"}),
                core.handle({"matrix": "tiny-uniform"}),  # cache hit
                core.handle({"matrix": "no-such"}),
            ]
        finally:
            core.close(drain=True)
        assert len({b["trace_id"] for b in bodies}) == 3
        for body in bodies:
            trace = core.traces.get(body["trace_id"])
            assert trace is not None and trace.finalized
            v = trace.validate()
            assert v["rooted"] and v["orphans"] == 0
            assert v["open_spans"] == 0

    def test_success_trace_grafts_and_reconciles(self):
        core = _core()
        try:
            body = core.handle({"matrix": "tiny-uniform"})
        finally:
            core.close(drain=True)
        trace = core.traces.get(body["trace_id"])
        execute = next(s for s in trace.spans if s.name == "execute")
        assert execute.attrs["reconciled"] is True
        assert execute.attrs["grafted_spans"] > 0
        names = [s.name for s in trace.spans]
        for expected in ("resolve", "cache.lookup", "queue.wait",
                         "attempt"):
            assert expected in names

    def test_client_traceparent_joins_trace(self):
        core = _core()
        client = TraceContext.for_request("client-side", 1)
        try:
            body = core.handle(
                {"matrix": "tiny-uniform"},
                traceparent=client.to_traceparent(),
            )
        finally:
            core.close()
        assert body["trace_id"] == client.trace_id
        assert body["traceparent"].startswith(f"00-{client.trace_id}-")

    def test_rejected_429_traces_and_samples_queue_depth(self):
        release = threading.Event()

        def slow(a, b, options):
            release.wait(5.0)
            return ac_spgemm(a, b, options)

        core = _core(multiply=slow, max_queue=1)
        try:
            threads: list[threading.Thread] = []
            bodies: list[dict] = []

            def fire():
                bodies.append(
                    core.handle(
                        {"matrix": "tiny-uniform", "deadline_ms": 8000}
                    )
                )

            for _ in range(3):
                t = threading.Thread(target=fire)
                t.start()
                threads.append(t)
                time.sleep(0.05)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if any(
                    b.get("status") == 429 for b in list(bodies)
                ):
                    break
                time.sleep(0.01)
            release.set()
            for t in threads:
                t.join()
        finally:
            core.close(drain=True)
        rejected = [b for b in bodies if b["status"] == 429]
        assert rejected
        for body in rejected:
            trace = core.traces.get(body["trace_id"])
            assert trace is not None and trace.finalized
            assert trace.validate()["rooted"]
        doc = core.metrics.to_json()
        assert any(
            k.startswith("repro_serve_queue_depth") for k in doc["metrics"]
        )

    def test_deadline_expired_trace_finalizes_after_executor(self):
        def slow(a, b, options):
            time.sleep(0.3)
            return ac_spgemm(a, b, options)

        core = _core(multiply=slow)
        try:
            body = core.handle(
                {"matrix": "tiny-uniform", "deadline_ms": 30}
            )
            assert body["status"] == 504
            trace = core.traces.get(body["trace_id"])
            assert not trace.finalized  # executor still owns a reference
        finally:
            core.close(drain=True)
        assert trace.finalized
        assert trace.root.attrs["outcome"] == "rejected"
        assert trace.root.attrs["executed_outcome"] == "success"
        assert trace.validate()["rooted"]

    def test_degraded_trace_records_failed_attempt_and_fallback(self):
        def always(a, b, options):
            raise RestartBudgetExceeded("chaos", stage="ESC", restarts=1)

        core = _core(multiply=always)
        try:
            body = core.handle({"matrix": "tiny-uniform"})
            assert body["outcome"] == "degraded"
        finally:
            core.close(drain=True)
        trace = core.traces.get(body["trace_id"])
        attempts = [s for s in trace.spans if s.name == "attempt"]
        assert [s.status for s in attempts] == ["error"]
        names = [s.name for s in trace.spans]
        assert "fallback" in names
        fallback = next(s for s in trace.spans if s.name == "fallback")
        assert fallback.attrs["breaker"] in ("closed", "half-open", "open")
        assert trace.validate()["rooted"]

    def test_trace_ids_identical_across_reruns(self):
        def run():
            core = _core()
            try:
                bodies = [
                    core.handle({"matrix": "tiny-uniform"}),
                    core.handle({"matrix": "no-such"}),
                    core.handle({"matrix": "tiny-grid2d"}),
                ]
            finally:
                core.close(drain=True)
            return [
                core.traces.get(b["trace_id"]).id_manifest()
                for b in bodies
            ]

        assert run() == run()


class TestCampaignTracing:
    def test_cell_trace_ids_are_worker_independent(self):
        from repro.campaign.plan import CampaignConfig, cell_key
        from repro.campaign.plan import enumerate_cells, matrix_fingerprint
        from repro.campaign.worker import campaign_trace_meta, execute_cell
        from repro.bench.harness import MatrixCase

        config = CampaignConfig(
            suite="tiny", limit=1, algorithms=("ac-spgemm",)
        )
        meta = campaign_trace_meta(config)
        assert meta == campaign_trace_meta(config)
        cell = enumerate_cells(config)[0]
        entry = next(e for e in tiny_entries() if e.name == cell.matrix)
        case = MatrixCase(entry.name, entry.build(), family=entry.family)
        key = cell_key(cell, matrix_fingerprint(case.matrix), config)

        lines = [
            execute_cell(
                case, cell, config, key=key, worker=w, trace_meta=meta
            )
            for w in (0, 3)
        ]
        assert lines[0]["trace"] == lines[1]["trace"]
        assert lines[0]["trace"]["trace_id"] == meta["trace_id"]

    def test_no_trace_meta_means_no_trace_field(self):
        from repro.campaign.plan import CampaignConfig, cell_key
        from repro.campaign.plan import enumerate_cells, matrix_fingerprint
        from repro.campaign.worker import execute_cell
        from repro.bench.harness import MatrixCase

        config = CampaignConfig(
            suite="tiny", limit=1, algorithms=("ac-spgemm",)
        )
        cell = enumerate_cells(config)[0]
        entry = next(e for e in tiny_entries() if e.name == cell.matrix)
        case = MatrixCase(entry.name, entry.build(), family=entry.family)
        key = cell_key(cell, matrix_fingerprint(case.matrix), config)
        line = execute_cell(case, cell, config, key=key, worker=0)
        assert "trace" not in line
