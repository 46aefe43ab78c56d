"""Unified observability layer: spans, metrics, Perfetto export, CLI.

Covers the acceptance criteria of the observability layer: both
engines produce identical counter totals and the same ordered span tree
for a fixed matrix and seed, ``repro analyze`` emits valid Perfetto
JSON and the gate-metrics document, and a run's registry renders
Prometheus-parseable text.
"""

import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.cli import main as cli_main
from repro.gpu import SMALL_DEVICE
from repro.matrices import random_uniform
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    analyze_result,
    perfetto_payload,
    validate_perfetto,
    validate_perfetto_file,
)
from repro.obs.metrics import sample_key
from repro.obs.span import host_span_profile
from repro.sparse import write_matrix_market
from tests.conftest import random_csr

ENGINES = ("reference", "batched")


def _small_opts(**kw) -> AcSpgemmOptions:
    base = dict(device=SMALL_DEVICE, chunk_pool_lower_bound_bytes=1 << 20)
    base.update(kw)
    return AcSpgemmOptions(**base)


# ---------------------------------------------------------------------------
# SpanRecorder unit behaviour
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_nesting_and_clock(self):
        rec = SpanRecorder()
        rec.start("root")
        rec.leaf("a", 10.0)
        with rec.span("b"):
            rec.leaf("b.child", 5.0)
        root = rec.close()
        assert root.duration == 15.0
        assert [s.name for s in root.walk()] == ["root", "a", "b", "b.child"]
        assert root.find("b").children[0].duration == 5.0
        assert root.cycle_sum("a") == 10.0

    def test_events_attach_to_innermost(self):
        rec = SpanRecorder()
        rec.start("root")
        with rec.span("inner"):
            rec.advance(3.0)
            rec.event("restart", detail="grown")
        root = rec.close()
        ev = root.find("inner").events[0]
        assert (ev.label, ev.cycle, ev.detail) == ("restart", 3.0, "grown")

    def test_abort_tags_open_spans(self):
        rec = SpanRecorder()
        rec.start("root")
        rec.start("stage")
        rec.advance(2.0)
        rec.abort(reason="boom")
        root = rec.close(degraded=True)
        assert root.find("stage").attrs["aborted"] is True
        assert root.events[0].label == "abort"
        assert root.attrs["degraded"] is True

    def test_exception_unwinding_tags_aborted(self):
        rec = SpanRecorder()
        rec.start("root")
        with pytest.raises(RuntimeError):
            with rec.span("stage"):
                raise RuntimeError("boom")
        assert rec.root.find("stage").attrs["aborted"] is True

    def test_guards(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            rec.finish()
        with pytest.raises(RuntimeError):
            rec.close()
        rec.start("root")
        with pytest.raises(ValueError):
            rec.advance(-1.0)
        rec.close()
        with pytest.raises(RuntimeError):
            rec.start("second-root")

    def test_to_dict_sorts_attrs(self):
        rec = SpanRecorder()
        rec.start("root", z=1, a=2)
        d = rec.close().to_dict()
        assert list(d["attrs"]) == ["a", "z"]


# ---------------------------------------------------------------------------
# MetricsRegistry unit behaviour
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 2, stage="ESC")
        reg.inc("x_total", 3, stage="ESC")
        assert reg.value("x_total", stage="ESC") == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("x_total", -1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1)
        with pytest.raises(ValueError):
            reg.set("x_total", 2)

    def test_water_marks(self):
        reg = MetricsRegistry()
        reg.set_max("hi", 5)
        reg.set_max("hi", 3)
        reg.set_min("lo", 5)
        reg.set_min("lo", 3)
        assert reg.value("hi") == 5 and reg.value("lo") == 3

    def test_const_labels_merged(self):
        reg = MetricsRegistry(const_labels={"engine": "reference"})
        reg.inc("x_total", 1, stage="ESC")
        assert 'engine="reference"' in next(iter(reg.to_json()["metrics"]))

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 2, help="Help text.", stage="ESC")
        reg.set("g", 1.5, help="A gauge.")
        text = reg.to_prometheus()
        assert "# HELP x_total Help text.\n# TYPE x_total counter" in text
        assert '# TYPE g gauge' in text
        assert 'x_total{stage="ESC"} 2' in text
        assert "g 1.5" in text

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1, lbl='we"ird\\label\nx')
        line = [l for l in reg.to_prometheus().splitlines()
                if l.startswith("x_total")][0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line

    def test_bool_values_rejected_in_export(self):
        reg = MetricsRegistry()
        reg.set("g", True)
        with pytest.raises(TypeError):
            reg.to_prometheus()


class TestPrometheusSanitization:
    """Satellite: metric/label names derived from matrix names (which
    contain ``-`` and ``.``, e.g. ca-AstroPh, uniform-a1.5-0) must be
    legal in the exposition, with label *values* preserved verbatim."""

    def test_sanitize_metric_name(self):
        from repro.obs import sanitize_metric_name

        assert sanitize_metric_name("repro_ca-AstroPh.gflops") == (
            "repro_ca_AstroPh_gflops"
        )
        assert sanitize_metric_name("x_total") == "x_total"  # untouched
        assert sanitize_metric_name("ns:metric") == "ns:metric"
        assert sanitize_metric_name("1shot") == "_1shot"  # digit prefix
        dirty = "uniform-a1.5-0"
        assert sanitize_metric_name(
            sanitize_metric_name(dirty)
        ) == sanitize_metric_name(dirty)  # idempotent

    def test_sanitize_label_name(self):
        from repro.obs import sanitize_label_name

        assert sanitize_label_name("row-length") == "row_length"
        assert sanitize_label_name("ns:lbl") == "ns_lbl"  # no colons here
        assert sanitize_label_name("matrix") == "matrix"

    def test_registry_sanitizes_on_the_way_in(self):
        reg = MetricsRegistry()
        reg.inc("gflops.ca-AstroPh", 2, **{"split": "sparse"})
        text = reg.to_prometheus()
        assert "gflops_ca_AstroPh" in text
        assert "ca-AstroPh.gflops" not in text
        # lookup works with either spelling
        assert reg.value("gflops_ca_AstroPh", split="sparse") == 2
        assert reg.value("gflops.ca-AstroPh", split="sparse") == 2
        assert_prometheus_parseable(text)

    def test_exposition_round_trip(self):
        from repro.obs import parse_prometheus_text

        reg = MetricsRegistry(const_labels={"suite": "named"})
        for m, v in (("ca-AstroPh", 1.25), ("uniform-a1.5-0", 3.5)):
            reg.set(
                "repro_matrix_gflops", v,
                help="Per-matrix GFLOPS.", matrix=m,
            )
        reg.inc("repro_cells_total", 7, help="Cells.")
        parsed = parse_prometheus_text(reg.to_prometheus())
        assert parsed["types"]["repro_matrix_gflops"] == "gauge"
        assert parsed["help"]["repro_cells_total"] == "Cells."
        samples = parsed["samples"]["repro_matrix_gflops"]
        by_matrix = {lbl["matrix"]: v for lbl, v in samples}
        # dashes and dots survive in label values, untouched
        assert by_matrix == {"ca-AstroPh": 1.25, "uniform-a1.5-0": 3.5}
        assert all(lbl["suite"] == "named" for lbl, _ in samples)
        assert parsed["samples"]["repro_cells_total"] == [
            ({"suite": "named"}, 7.0)
        ]

    def test_round_trip_escaped_label_values(self):
        from repro.obs import parse_prometheus_text

        reg = MetricsRegistry()
        tricky = 'we"ird\\label\nx'
        reg.inc("x_total", 1, lbl=tricky)
        parsed = parse_prometheus_text(reg.to_prometheus())
        (labels, value), = parsed["samples"]["x_total"]
        assert labels["lbl"] == tricky and value == 1.0

    def test_parser_rejects_malformed_lines(self):
        from repro.obs import parse_prometheus_text

        with pytest.raises(ValueError):
            parse_prometheus_text("bad-metric-name 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text('x_total{unclosed="v 1\n')


PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9eE.+-]*)$"
)


def assert_prometheus_parseable(text: str) -> None:
    """Every non-empty line must be a HELP/TYPE comment or a sample."""
    lines = text.splitlines()
    assert lines, "empty exposition"
    for line in lines:
        assert PROM_LINE.match(line), f"unparseable line: {line!r}"


# ---------------------------------------------------------------------------
# driver span integration
# ---------------------------------------------------------------------------


class TestDriverSpans:
    def test_span_tree_structure_and_totals(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        res = ac_spgemm(a, a, _small_opts())
        root = res.spans
        assert root is not None and root.name == "acspgemm"
        top = [s.name for s in root.children]
        assert top == ["setup", "glb", "estimate", "esc", "merge", "output"]
        assert root.duration == pytest.approx(res.total_cycles)
        assert root.cycle_sum("glb") == pytest.approx(res.stage_cycles["GLB"])
        assert root.find("esc").duration == pytest.approx(res.stage_cycles["ESC"])
        merge_cycles = sum(res.stage_cycles[k] for k in ("MCC", "MM", "PM", "SM"))
        assert root.find("merge").duration == pytest.approx(merge_cycles)
        assert root.find("output").duration == pytest.approx(res.stage_cycles["CC"])
        # children tile their parent: no gaps on the span track
        for span in root.walk():
            for child in span.children:
                assert child.start_cycle >= span.start_cycle
                assert child.end_cycle <= span.end_cycle

    def test_spans_always_on(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        res = ac_spgemm(a, a, _small_opts())
        assert res.device_trace is None and res.spans is not None

    def test_restart_events_and_spans(self):
        a = random_uniform(300, 300, 6, seed=1)
        opts = AcSpgemmOptions(chunk_pool_bytes=20000, pool_growth_factor=2.0)
        res = ac_spgemm(a, a, opts)
        assert res.restarts > 0
        esc = res.spans.find("esc")
        restart_events = [e for e in esc.events if e.label == "restart"]
        assert len(restart_events) == res.restarts
        assert sum(
            1 for s in res.spans.walk() if s.name == "esc.round"
        ) == len(restart_events) + 1
        assert res.spans.cycle_sum("esc.restart") > 0

    def test_sm_utilization_bounds(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        res = ac_spgemm(a, a, _small_opts())
        assert 0.0 < res.sm_utilization <= 1.0

    def test_engine_stats_populated(self, rng):
        a = random_csr(rng, 40, 40, 0.1)
        ref = ac_spgemm(a, a, _small_opts(engine="reference"))
        bat = ac_spgemm(a, a, _small_opts(engine="batched"))
        assert ref.engine_stats["esc_rounds"] >= 1
        assert bat.engine_stats["fused_esc_launches"] >= 1

    def test_degraded_run_spans_and_metrics(self):
        a = random_uniform(300, 300, 6, seed=1)
        opts = AcSpgemmOptions(
            chunk_pool_bytes=20000, max_restarts=0, on_failure="fallback"
        )
        res = ac_spgemm(a, a, opts)
        assert res.degraded
        root = res.spans
        assert root.attrs["degraded"] is True
        assert root.find("fallback") is not None
        assert root.find("fallback").duration == pytest.approx(
            res.stage_cycles["FB"]
        )
        assert any(e.label == "degraded" for e in root.events)
        reg = MetricsRegistry.from_result(res)
        assert reg.value("repro_degraded_runs_total") == 1
        assert reg.value(
            "repro_failures_total", kind=res.failure["kind"]
        ) == 1


# ---------------------------------------------------------------------------
# cross-engine parity + determinism (acceptance criteria)
# ---------------------------------------------------------------------------


def _normalized_tree(res) -> dict:
    d = res.spans.to_dict()
    d["attrs"] = {k: v for k, v in d["attrs"].items() if k != "engine"}
    return d


class TestEngineParity:
    @pytest.fixture(scope="class")
    def runs(self):
        a = random_uniform(200, 200, 5, seed=7)
        out = {}
        for eng in ENGINES:
            out[eng] = ac_spgemm(
                a, a, AcSpgemmOptions(engine=eng, device_trace=True)
            )
        return out

    def test_counter_totals_identical(self, runs):
        ref = runs["reference"].counters.snapshot()
        for eng in ENGINES[1:]:
            assert runs[eng].counters.snapshot() == ref, eng

    def test_span_trees_identical(self, runs):
        ref = _normalized_tree(runs["reference"])
        for eng in ENGINES[1:]:
            assert _normalized_tree(runs[eng]) == ref, eng

    def test_trace_events_identical(self, runs):
        """The run's Perfetto payload is byte-identical across engines,
        up to the root span's ``engine`` label."""

        def payload(res):
            doc = perfetto_payload(spans=res.spans, device=res.device_trace)
            for ev in doc["traceEvents"]:
                ev.get("args", {}).pop("engine", None)
            return json.dumps(doc)

        ref = payload(runs["reference"])
        for eng in ENGINES[1:]:
            assert payload(runs[eng]) == ref, eng

    def test_metrics_identical_up_to_labels(self, runs):
        def comparable(res):
            m = MetricsRegistry.from_result(res).to_json()["metrics"]
            return {k: v for k, v in m.items() if "repro_host_ops" not in k}

        ref = comparable(runs["reference"])
        for eng in ENGINES[1:]:
            assert comparable(runs[eng]) == ref, eng


class TestDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_byte_identical_exports(self, engine):
        a = random_uniform(150, 150, 5, seed=3)
        opts = AcSpgemmOptions(engine=engine, device_trace=True)
        blobs = []
        for _ in range(2):
            res = ac_spgemm(a, a, opts)
            rep = analyze_result(res, opts, matrix_name="det")
            blobs.append(
                (
                    json.dumps(rep.metrics_doc(), sort_keys=True),
                    json.dumps(perfetto_payload(
                        spans=res.spans, device=res.device_trace,
                        clock_ghz=res.clock_ghz,
                    )),
                    MetricsRegistry.from_result(
                        res, engine=engine
                    ).to_prometheus(),
                )
            )
        assert blobs[0] == blobs[1]
        assert_prometheus_parseable(blobs[0][2])

    def test_record_result_matches_the_unmemoized_fold(self):
        """One span walk and memoized sample keys export the bytes of a
        registry that rebuilds every key and walks the tree twice per
        span name."""
        results = []
        for seed, engine in ((3, "batched"), (4, "reference"), (3, "batched")):
            a = random_uniform(120, 120, 4, seed=seed)
            results.append(ac_spgemm(a, a, AcSpgemmOptions(engine=engine)))
        results.append(
            ac_spgemm(*[random_csr(np.random.default_rng(5), 60, 60, 0.1)] * 2,
                      _small_opts())
        )
        new = MetricsRegistry(const_labels={"service": "s"})
        old = _UnmemoizedRegistry(const_labels={"service": "s"})
        for res in results:
            for reg in (new, old):
                reg.record_result(res)
                # equal label values whose str() differs stay apart
                for value in (1, 1.0, True, "1"):
                    reg.inc("x_total", 1, code=value)
        assert new.to_prometheus() == old.to_prometheus()
        assert json.dumps(new.to_json()) == json.dumps(old.to_json())
        assert len([k for k in new.to_json()["metrics"] if "x_total" in k]) == 3


class _UnmemoizedRegistry(MetricsRegistry):
    """The registry fold as written before its sample keys were
    memoized and its span tree walked once."""

    def _sample(self, fam, labels):
        merged = {**self.const_labels, **labels}
        key = sample_key(fam.name, merged)
        fam.labels_of.setdefault(key, merged)
        return key

    def _record_result_locked(self, result):
        super()._record_result_locked(dataclasses.replace(result, spans=None))
        for name in sorted({s.name for s in result.spans.walk()}):
            self.inc(
                "repro_span_cycles_total",
                result.spans.cycle_sum(name),
                help="Total simulated cycles per span name.",
                span=name,
            )
            self.inc(
                "repro_spans_total",
                sum(1 for s in result.spans.walk() if s.name == name),
                help="Spans recorded per span name.",
                span=name,
            )


# ---------------------------------------------------------------------------
# Perfetto export + validation
# ---------------------------------------------------------------------------


class TestPerfetto:
    def test_profile_payload_validates(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        res = ac_spgemm(a, a, _small_opts(device_trace=True))
        payload = perfetto_payload(
            spans=res.spans, device=res.device_trace, clock_ghz=res.clock_ghz
        )
        validate_perfetto(payload)  # does not raise
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {2, 3}
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "M"}
        assert names == {
            "process_name",
            "process_sort_index",
            "thread_name",
            "thread_sort_index",
        }

    def test_spans_only_payload(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        res = ac_spgemm(a, a, _small_opts())
        payload = perfetto_payload(spans=res.spans, clock_ghz=res.clock_ghz)
        validate_perfetto(payload)

    def test_rejects_overlapping_slices(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="overlap"):
            validate_perfetto(bad)

    def test_accepts_nested_and_disjoint(self):
        ok = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 2, "dur": 3, "pid": 1, "tid": 1},
                {"name": "c", "ph": "X", "ts": 10, "dur": 5, "pid": 1, "tid": 1},
            ]
        }
        validate_perfetto(ok)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_perfetto({"events": []})
        with pytest.raises(ValueError):
            validate_perfetto({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_perfetto(
                {"traceEvents": [
                    {"name": "bogus_meta", "ph": "M", "pid": 1, "tid": 1,
                     "args": {"name": "x"}},
                ]}
            )
        with pytest.raises(ValueError):
            validate_perfetto(
                {"traceEvents": [
                    {"name": "a", "ph": "X", "ts": -1, "dur": 1,
                     "pid": 1, "tid": 1},
                ]}
            )


# ---------------------------------------------------------------------------
# analyze CLI end-to-end
# ---------------------------------------------------------------------------


class TestAnalyzeCli:
    def test_suite_entry_with_all_outputs(self, tmp_path, capsys):
        perfetto = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = cli_main([
            "analyze", "suite:uniform-a1.5-0",
            "--perfetto-out", str(perfetto),
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analysis of uniform-a1.5-0" in out and "span tree" in out
        assert "restarts=" in out and "memory: pool=" in out
        # the Fig. 7 stage table: one row per stage, time, share and bar
        assert re.search(r"^  ESC +\d+\.\d\d us +\d+\.\d% +#+$", out, re.M)
        validate_perfetto_file(perfetto)
        doc = json.loads(metrics.read_text())
        assert doc["bench"] == "analyze" and doc["schema"] == 1
        assert doc["metrics"]['repro_runs_total{engine="batched"}'] == 1
        assert any(k.startswith("load_imbalance.") for k in doc["metrics"])

    def test_matrix_file_and_engine_flag(self, tmp_path, rng, capsys):
        m = random_csr(rng, 30, 30, 0.15)
        p = tmp_path / "m.mtx"
        write_matrix_market(p, m)
        rc = cli_main(["analyze", str(p), "--engine", "reference", "--float"])
        assert rc == 0
        assert "engine=reference" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "multinode"])
    def test_unknown_suite_entry_fails(self, command):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "suite:no-such-matrix"])
        assert exc.value.code == "unknown suite entry 'no-such-matrix'"


# ---------------------------------------------------------------------------
# CLI degraded column (three-valued) + CSV escaping
# ---------------------------------------------------------------------------


class TestCliCsv:
    def test_degraded_column_three_valued(self, rng):
        from repro.cli import _run_one

        m = random_csr(rng, 25, 25, 0.15)
        no_fb = _run_one("m", m, dtype=np.float64, verify=False)
        fb_clean = _run_one(
            "m", m, dtype=np.float64, verify=False, fallback=True
        )
        assert no_fb["degraded"] == ""
        assert fb_clean["degraded"] == "False"

    def test_comma_matrix_name_roundtrips(self, tmp_path, rng):
        import csv

        from repro.cli import _run_one, _write_rows

        m = random_csr(rng, 20, 20, 0.2)
        row = _run_one('weird, name "x"', m, dtype=np.float64, verify=False)
        out = tmp_path / "r.csv"
        _write_rows(str(out), [row])
        with open(out, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 1
        assert back[0]["matrix"] == 'weird, name "x"'
        assert back[0]["nnz"] == str(row["nnz"])


# ---------------------------------------------------------------------------
# bench_compare regression diff
# ---------------------------------------------------------------------------


def _load_bench_compare():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchCompare:
    def test_flatten_and_exclusions(self):
        bc = _load_bench_compare()
        flat = bc.flatten({"a": {"b": 1}, "c": [2.5, {"d": 3}], "s": "x",
                           "ok": True})
        assert flat == {"a.b": 1.0, "c[0]": 2.5, "c[1].d": 3.0}
        assert bc.excluded("cases[0].seconds.reference")
        assert bc.excluded('repro_host_ops_total{op="esc_rounds"}')
        assert not bc.excluded(
            'repro_traffic_total{counter="host_round_trips"}'
        )

    def test_detects_regression_and_improvement(self):
        bc = _load_bench_compare()
        base = {"metrics": {"cycles": 100.0, "bytes": 50, "wall_seconds": 9.0}}
        cand = {"metrics": {"cycles": 110.0, "bytes": 40, "wall_seconds": 1.0}}
        reg, imp, missing = bc.compare(base, cand, 0.01)
        assert [r["key"] for r in reg] == ["metrics.cycles"]
        assert len(imp) == 1 and "bytes" in imp[0]
        assert missing == []

    def test_host_engine_label_is_neutral(self):
        # a baseline recorded on one host engine gates a run on another;
        # labels other than the payload's own engine stay distinct
        bc = _load_bench_compare()
        base = {"engine": "reference", "metrics": {
            'runs{engine="reference"}': 1,
            'cycles{engine="reference",stage="ESC"}': 100.0,
            'sel{engine="hash-spgemm"}': 2,
        }}
        cand = {"engine": "batched", "metrics": {
            'runs{engine="batched"}': 1,
            'cycles{engine="batched",stage="ESC"}': 120.0,
            'sel{engine="hash-spgemm"}': 2,
        }}
        reg, _, missing = bc.compare(base, cand, 0.001)
        assert [r["key"] for r in reg] == ['metrics.cycles{stage="ESC"}']
        assert missing == []

    def test_main_exit_codes(self, tmp_path):
        bc = _load_bench_compare()
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        b.write_text(json.dumps({"metrics": {"cycles": 100}}))
        c.write_text(json.dumps({"metrics": {"cycles": 100}}))
        assert bc.main([str(b), str(c)]) == 0
        c.write_text(json.dumps({"metrics": {"cycles": 200}}))
        assert bc.main([str(b), str(c)]) == 1
        c.write_text(json.dumps({"metrics": {"other": 1}}))
        assert bc.main([str(b), str(c)]) == 0
        assert bc.main([str(b), str(c), "--fail-on-missing"]) == 1

    def test_seed_artifact_matches_fresh_run(self):
        """The committed seed artifact must stay reproducible."""
        bc = _load_bench_compare()
        seed_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "seed" / "BENCH_analyze_seed.json"
        )
        from repro.matrices import suite_entries
        from repro.sparse import squared_operands

        entry = next(
            e for e in suite_entries() if e.name == "uniform-a1.5-0"
        )
        a, b = squared_operands(entry.build())
        opts = AcSpgemmOptions(device_trace=True)
        rep = analyze_result(
            ac_spgemm(a, b, opts), opts, matrix_name="uniform-a1.5-0"
        )
        reg, _, missing = bc.compare(
            json.loads(seed_path.read_text()), rep.metrics_doc(), 0.001
        )
        assert reg == [] and missing == []


class TestHostSpanProfile:
    def test_credits_calls_and_time_per_span_name(self):
        with host_span_profile() as prof:
            rec = SpanRecorder()
            rec.start("root")
            rec.leaf("work", 10.0)
            rec.leaf("work", 5.0)
            with rec.span("stage"):
                rec.leaf("inner", 1.0)
            rec.close()
        table = prof.table()
        assert table["work"]["calls"] == 2
        assert table["inner"]["calls"] == 1
        assert all(v["host_seconds"] >= 0.0 for v in table.values())

    def test_profile_does_not_perturb_span_tree(self):
        def build():
            rec = SpanRecorder()
            rec.start("root")
            rec.leaf("a", 3.0)
            with rec.span("b"):
                rec.leaf("c", 2.0)
            return rec.close().to_dict()

        bare = build()
        with host_span_profile():
            profiled = build()
        assert bare == profiled

    def test_nested_activation_rejected(self):
        with host_span_profile():
            with pytest.raises(RuntimeError):
                with host_span_profile():
                    pass  # pragma: no cover

    def test_scope_resets_after_exit(self):
        with host_span_profile():
            pass
        with host_span_profile() as prof:  # re-entry after clean exit
            SpanRecorder().start("x")
        assert "x" in prof.table()
