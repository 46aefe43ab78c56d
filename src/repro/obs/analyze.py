"""Paper-figure analysis of a device trace (``repro analyze``).

Turns one :class:`~repro.obs.device.DeviceTrace` into the evaluation
artifacts of the paper:

* **ESC-iteration histogram** — how many local ESC iterations each block
  needed (Fig. 9's driver of chunk counts);
* **chunks-per-block distribution** — final-pool chunks per ESC block
  (Fig. 9);
* **sort-bit-width distribution** — elements sorted at each radix key
  width, showing the win of dynamic bit reduction (Fig. 10 / §3.2.3);
* **per-SM load imbalance** — busy cycles per SM per stage and the
  max/mean imbalance factor (Table 3's "mpL" from the other side);
* **scratchpad-residency waterline** — per-block scratchpad high-water
  bytes against the device's 48 KiB bound (§3's hard constraint);
* **traffic attribution** — which stage moved which share of the global
  memory traffic (Fig. 7's cost story in counter form).

Everything is computed from the trace alone and then **reconciled
exactly** against the run's other accounting surfaces: per-stage cycle
sums must equal ``result.stage_cycles`` bit-for-bit, attributed counters
must sum to ``result.counters``, each launch's per-SM busy times must
re-derive from its block events, and each trace record must align with
its childless span (same start cycle, duration reproduced with the span
clock's own ``(start + cycles) - start`` arithmetic).  A reconciliation
failure on a non-truncated run raises — the trace is wrong, not the
report.  Truncated (degraded) runs skip the exactness gate for the
adaptive stages, because the result totals cover only the fallback.

The report serialises to deterministic JSON (byte-identical across
engines), a flat ``metrics`` map for ``benchmarks/bench_compare.py``
gating (the figures' aggregates plus the run's
:class:`~repro.obs.metrics.MetricsRegistry` samples), a text summary
with the per-stage view of the paper's Fig. 7 and the span tree, and a
self-contained HTML page with inline-CSS bar charts.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path

from ..gpu.counters import TrafficCounters
from .metrics import MetricsRegistry
from .span import stage_leaf_spans

__all__ = ["ANALYZE_SCHEMA", "AnalysisReport", "analyze_result", "render_html"]

#: JSON schema version of :meth:`AnalysisReport.report_doc`
ANALYZE_SCHEMA = 1

#: counter fields summarised per stage in the traffic-attribution table
_TRAFFIC_FIELDS = (
    "global_bytes_read",
    "global_bytes_written",
    "global_transactions",
    "atomic_ops",
    "sorted_elements",
    "kernel_launches",
    "host_round_trips",
)


class ReconciliationError(ValueError):
    """The device trace disagrees with the run's other accounting."""


def _hist(values) -> dict[str, int]:
    """Deterministic value -> count map with string keys."""
    out: dict[int, int] = {}
    for v in values:
        out[int(v)] = out.get(int(v), 0) + 1
    return {str(k): out[k] for k in sorted(out)}


def _imbalance(busy: list[float]) -> float:
    """max/mean over the SMs that a perfectly balanced launch would use
    (all of them); 1.0 for an idle stage."""
    if not busy:
        return 1.0
    mean = sum(busy) / len(busy)
    if mean <= 0.0:
        return 1.0
    return max(busy) / mean


def _counter_sums_by_stage(dtrace) -> dict[str, dict[str, int]]:
    """Record- plus block-level counter deltas, grouped by stage."""
    by_stage: dict[str, dict[str, int]] = {}
    for rec in dtrace.records:
        acc = by_stage.setdefault(rec.stage, {})
        for src in [rec.counters] + [ev.counters for ev in rec.blocks]:
            for name, value in src.items():
                acc[name] = acc.get(name, 0) + value
    return by_stage


def reconcile(result) -> dict:
    """Check the trace against spans, stage cycles, counters and
    per-launch SM busy times.  Returns the reconciliation summary dict;
    raises :class:`ReconciliationError` on any mismatch of a
    non-truncated run."""
    dtrace = result.device_trace
    if dtrace is None:
        raise ValueError("result has no device trace (options.device_trace)")
    summary = {
        "checked": not dtrace.truncated,
        "stage_cycles_exact": False,
        "counters_exact": False,
        "sm_busy_exact": False,
        "spans_exact": False,
    }

    def fail(message: str):
        raise ReconciliationError(message)

    # per-launch SM busy times re-derive from block events even on a
    # truncated trace (each launch record is internally complete)
    for rec in dtrace.launches():
        busy = dtrace.per_sm_busy(rec)
        if busy != list(rec.sm_busy):
            fail(
                f"per-SM busy mismatch in {rec.stage} round "
                f"{rec.round_index}: {busy} != {list(rec.sm_busy)}"
            )
    summary["sm_busy_exact"] = True

    if dtrace.truncated:
        # the result's totals cover only the fallback; the adaptive
        # records are partial by declaration, so only the FB record can
        # be (and is) checked against the stage total
        fb = dtrace.stage_cycle_totals().get("FB", 0.0)
        if fb != result.stage_cycles.get("FB", 0.0):
            fail(f"FB cycles mismatch: {fb} != {result.stage_cycles.get('FB')}")
        return summary

    totals = dtrace.stage_cycle_totals()
    for key, value in result.stage_cycles.items():
        if totals.get(key, 0.0) != value:
            fail(
                f"stage cycle mismatch for {key}: trace "
                f"{totals.get(key, 0.0)!r} != result {value!r}"
            )
    summary["stage_cycles_exact"] = True

    if dtrace.counter_totals() != result.counters:
        # the checked subtraction pinpoints the first bad field
        try:
            delta = result.counters - dtrace.counter_totals()
        except ValueError as exc:
            fail(f"counter mismatch: {exc}")
        fail(f"counter mismatch: unattributed {delta.snapshot()}")
    summary["counters_exact"] = True

    if result.spans is not None:
        leaf_spans = stage_leaf_spans(result.spans)
        if len(leaf_spans) != len(dtrace.records):
            fail(
                f"{len(dtrace.records)} trace records but "
                f"{len(leaf_spans)} stage leaf spans"
            )
        for span, rec in zip(leaf_spans, dtrace.records):
            if span.attrs["stage"] != rec.stage:
                fail(f"span {span.name} is {span.attrs['stage']}, "
                     f"record is {rec.stage}")
            if span.start_cycle != rec.start_cycle:
                fail(f"span {span.name} starts at {span.start_cycle!r}, "
                     f"record at {rec.start_cycle!r}")
            # reproduce the span clock's arithmetic exactly
            if span.duration != (rec.start_cycle + rec.cycles) - rec.start_cycle:
                fail(f"span {span.name} duration {span.duration!r} does not "
                     f"re-derive from record cycles {rec.cycles!r}")
        summary["spans_exact"] = True
    return summary


def analyze_result(
    result, options, *, matrix_name: str = "", engine: str = ""
) -> "AnalysisReport":
    """Build the full analysis report for one traced run.

    ``engine`` overrides the report label when the run came through a
    registered backend rather than ``options.engine`` (a routed
    adaptive run reports the backend, with the dispatch target).
    """
    dtrace = result.device_trace
    if dtrace is None:
        raise ValueError(
            "result has no device trace; run with options.device_trace=True"
        )
    reconciliation = reconcile(result)

    # -- figures ---------------------------------------------------------
    esc_iter_final: dict[int, int] = {}
    scratch_high: list[int] = []
    sort_elements_by_bits: dict[int, int] = {}
    sort_count_by_bits: dict[int, int] = {}
    for rec, ev in dtrace.block_events():
        if rec.stage == "ESC" and not ev.aborted:
            # cumulative across restart rounds: the last round's value is
            # the block's total
            esc_iter_final[ev.worker_id] = max(
                esc_iter_final.get(ev.worker_id, 0), ev.esc_iterations
            )
            scratch_high.append(ev.scratch_high_water)
        for n, bits in ev.sort_log:
            sort_elements_by_bits[bits] = sort_elements_by_bits.get(bits, 0) + n
            sort_count_by_bits[bits] = sort_count_by_bits.get(bits, 0) + 1

    per_sm = dtrace.per_sm_busy_totals()
    imbalance = {stage: _imbalance(busy) for stage, busy in per_sm.items()}

    chunk_counts = [
        count for bid, count in dtrace.chunk_counts.items() if bid >= 0
    ]
    scratch_cap = options.device.scratchpad_bytes
    waterline = {
        "capacity_bytes": scratch_cap,
        "max_bytes": max(scratch_high, default=0),
        "mean_bytes": (
            sum(scratch_high) / len(scratch_high) if scratch_high else 0.0
        ),
        "max_fraction": (
            max(scratch_high, default=0) / scratch_cap if scratch_cap else 0.0
        ),
        "blocks_sampled": len(scratch_high),
    }

    traffic = _counter_sums_by_stage(dtrace)

    figures = {
        "esc_iteration_histogram": _hist(esc_iter_final.values()),
        "chunks_per_block_histogram": _hist(chunk_counts),
        "sort_bit_width_elements": {
            str(k): sort_elements_by_bits[k]
            for k in sorted(sort_elements_by_bits)
        },
        "sort_bit_width_counts": {
            str(k): sort_count_by_bits[k] for k in sorted(sort_count_by_bits)
        },
        "per_sm_busy_cycles": {k: list(v) for k, v in sorted(per_sm.items())},
        "load_imbalance": {k: imbalance[k] for k in sorted(imbalance)},
        "scratchpad_waterline": waterline,
        "stage_cycles": dict(result.stage_cycles),
        "traffic_by_stage": {
            stage: {
                f: traffic[stage].get(f, 0)
                for f in _TRAFFIC_FIELDS
                if traffic[stage].get(f, 0)
            }
            for stage in sorted(traffic)
        },
    }

    # routed adaptive runs carry the selector's dispatch event; it is an
    # optional figure (and HTML section) only — metrics_doc stays fixed
    # so bench_compare seed gates keep their key set
    audit = getattr(result, "routing_audit", None)
    if audit is not None:
        figures["routing_audit"] = {
            k: audit[k] for k in sorted(audit) if k != "seq"
        }

    summary = {
        "records": len(dtrace.records),
        "launches": len(dtrace.launches()),
        "block_events": sum(1 for _ in dtrace.block_events()),
        "num_sms": dtrace.num_sms,
        "esc_blocks": len(esc_iter_final),
        "restarts": result.restarts,
        "n_chunks": result.n_chunks,
        "total_cycles": result.total_cycles,
        "degraded": result.degraded,
        "sm_utilization": result.sm_utilization,
    }

    return AnalysisReport(
        matrix_name=matrix_name,
        engine=engine or options.engine,
        dtype=options.value_dtype.name,
        truncated=dtrace.truncated,
        truncation_reason=dtrace.truncation_reason,
        summary=summary,
        figures=figures,
        reconciliation=reconciliation,
        result=result,
    )


class AnalysisReport:
    """One analysed run: JSON, flat gate metrics, text and HTML
    renderings."""

    def __init__(
        self,
        *,
        result,
        matrix_name: str,
        engine: str,
        dtype: str,
        truncated: bool,
        truncation_reason: str,
        summary: dict,
        figures: dict,
        reconciliation: dict,
    ) -> None:
        self.result = result
        self.matrix_name = matrix_name
        self.engine = engine
        self.dtype = dtype
        self.truncated = truncated
        self.truncation_reason = truncation_reason
        self.summary = summary
        self.figures = figures
        self.reconciliation = reconciliation

    # -- JSON artifacts --------------------------------------------------

    def report_doc(self) -> dict:
        """The full deterministic report document."""
        return {
            "analyze": "device-trace",
            "schema": ANALYZE_SCHEMA,
            "matrix": self.matrix_name,
            "engine": self.engine,
            "dtype": self.dtype,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "summary": self.summary,
            "figures": self.figures,
            "reconciliation": self.reconciliation,
        }

    def metrics_doc(self) -> dict:
        """Flat numeric map for ``bench_compare`` gating.

        Only stable aggregates gate: load-imbalance factors (>= 1.0,
        larger is worse), per-stage traffic bytes, the scratchpad
        waterline and the ESC-iteration tail, plus the run's
        :class:`MetricsRegistry` samples (traffic totals, stage and
        span cycles, span counts, restarts, pool high-water marks).
        Histogram buckets stay out — a legitimate distribution shift
        would churn the key set.  All quantities are simulated, so the
        document is machine-independent and byte-deterministic.
        """
        metrics: dict[str, float] = {}
        for stage, factor in self.figures["load_imbalance"].items():
            metrics[f"load_imbalance.{stage}"] = factor
        for stage, fields in self.figures["traffic_by_stage"].items():
            read = fields.get("global_bytes_read", 0)
            written = fields.get("global_bytes_written", 0)
            metrics[f"traffic_bytes.{stage}"] = float(read + written)
        wl = self.figures["scratchpad_waterline"]
        metrics["scratchpad_high_water_max"] = float(wl["max_bytes"])
        esc_hist = self.figures["esc_iteration_histogram"]
        metrics["esc_iterations_max"] = float(
            max((int(k) for k in esc_hist), default=0)
        )
        reg = MetricsRegistry.from_result(self.result, engine=self.engine).to_json()
        for key, value in reg["metrics"].items():
            metrics[key] = float(value)
        return {
            "bench": "analyze",
            "schema": ANALYZE_SCHEMA,
            "matrix": self.matrix_name,
            "engine": self.engine,
            "dtype": self.dtype,
            "metrics": {k: metrics[k] for k in sorted(metrics)},
            "meta": reg["meta"],
        }

    def to_json(self) -> str:
        return json.dumps(self.report_doc(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json())
        return out

    def write_metrics(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.metrics_doc(), indent=2, sort_keys=True))
        return out

    def write_html(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_html(self.report_doc()))
        return out

    # -- text summary ----------------------------------------------------

    def text(self) -> str:
        """Per-stage profile in the style of the paper's Figure 7, the
        device-trace figures and the span tree."""
        r = self.result
        s = self.summary
        us = 1e6 / (r.clock_ghz * 1e9)
        total = r.total_cycles
        lines = [
            f"device-trace analysis of {self.matrix_name or 'run'} "
            f"(engine={self.engine}, dtype={self.dtype})",
            f"  output: {r.matrix.nnz} nnz, {r.memory.output_bytes} B; "
            f"total {total * us:.2f} us simulated",
        ]
        for key, cycles in self.figures["stage_cycles"].items():
            pct = 100.0 * cycles / total if total else 0.0
            bar = "#" * int(round(pct / 2))
            lines.append(
                f"  {key:4s} {cycles * us:12.2f} us  {pct:5.1f}%  {bar}"
            )
        lines.append(
            f"  restarts={r.restarts}  chunks={r.n_chunks}  "
            f"blocks={r.n_blocks}  shared_rows={r.shared_rows}  "
            f"mpL={r.multiprocessor_load:.3f}  "
            f"sm_util={r.sm_utilization:.3f}"
        )
        mem = r.memory
        lines.append(
            f"  memory: pool={mem.chunk_pool_bytes} B "
            f"(used {mem.chunk_used_bytes} B, "
            f"{100.0 * mem.used_fraction:.1f}%), "
            f"helpers={mem.helper_bytes} B"
        )
        if r.degraded:
            failure = r.failure or {}
            lines.append(
                f"  DEGRADED: {failure.get('kind', 'unknown')} — "
                f"{failure.get('message', '')}"
            )
        lines.append(
            f"  records={s['records']}  launches={s['launches']}  "
            f"block events={s['block_events']}  SMs={s['num_sms']}  "
            f"ESC blocks={s['esc_blocks']}"
        )
        imb = self.figures["load_imbalance"]
        lines.append(
            "  load imbalance (max/mean busy): "
            + "  ".join(f"{k}={imb[k]:.3f}" for k in sorted(imb))
        )
        wl = self.figures["scratchpad_waterline"]
        lines.append(
            f"  scratchpad waterline: max {wl['max_bytes']} B of "
            f"{wl['capacity_bytes']} B ({100.0 * wl['max_fraction']:.1f}%)"
        )
        if self.truncated:
            lines.append(f"  TRUNCATED: {self.truncation_reason}")
        ok = all(
            v for k, v in self.reconciliation.items() if k != "checked"
        ) if self.reconciliation.get("checked") else None
        lines.append(
            "  reconciliation: "
            + ("exact" if ok else "skipped (truncated)" if ok is None else "FAILED")
        )
        if r.spans is not None:
            # shares of the root span: on a degraded run the tree also
            # holds the failed attempt, which ``total`` (the fallback's
            # cycles) does not cover
            lines.append("  span tree:")
            lines.extend(_span_lines(r.spans, us, r.spans.duration, depth=2))
        return "\n".join(lines)


def _span_lines(span, us, total, depth) -> list[str]:
    pct = 100.0 * span.duration / total if total else 0.0
    out = [
        f"{'  ' * depth}{span.name:<{max(1, 30 - 2 * depth)}s} "
        f"{span.duration * us:12.2f} us  {pct:5.1f}%"
    ]
    for child in span.children:
        out.extend(_span_lines(child, us, total, depth + 1))
    return out


# -- HTML rendering -------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0; }
td, th { padding: .25rem .75rem; border: 1px solid #e0e0e8;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f4f4fa; text-align: left; }
.bar-row { display: flex; align-items: center; margin: 2px 0; }
.bar-label { width: 9rem; font-size: .85rem; text-align: right;
             padding-right: .6rem; font-variant-numeric: tabular-nums; }
.bar-track { flex: 1; background: #f0f0f6; }
.bar { height: 14px; background: #4a6fa5; }
.bar.warn { background: #c0392b; }
.bar-value { font-size: .8rem; padding-left: .5rem;
             font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: .15rem .6rem; border-radius: 3px;
         font-size: .85rem; color: white; }
.ok { background: #2d7d46; } .bad { background: #c0392b; }
.warn-badge { background: #b07d2b; }
"""


def _bars(items: list[tuple[str, float]], *, fmt="{:,.0f}", warn=None) -> str:
    """A horizontal bar chart as nested divs; deterministic output."""
    peak = max((v for _, v in items), default=0.0)
    rows = []
    for label, value in items:
        width = 100.0 * value / peak if peak else 0.0
        cls = "bar warn" if warn is not None and warn(label, value) else "bar"
        rows.append(
            '<div class="bar-row">'
            f'<span class="bar-label">{_html.escape(label)}</span>'
            f'<span class="bar-track"><span class="{cls}" '
            f'style="width:{width:.2f}%"></span></span>'
            f'<span class="bar-value">{fmt.format(value)}</span></div>'
        )
    return "\n".join(rows) or "<p>(empty)</p>"


def render_html(doc: dict) -> str:
    """Self-contained HTML page for one report document."""
    fig = doc["figures"]
    s = doc["summary"]
    title = f"device-trace analysis — {doc['matrix'] or 'run'}"

    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p>engine <b>{_html.escape(doc['engine'])}</b>, "
        f"dtype <b>{_html.escape(doc['dtype'])}</b> — "
        f"{s['records']} records, {s['launches']} launches, "
        f"{s['block_events']} block events on {s['num_sms']} SMs; "
        f"{s['restarts']} restarts, {s['n_chunks']} chunks.</p>",
    ]
    if doc["truncated"]:
        parts.append(
            '<p><span class="badge warn-badge">TRUNCATED</span> '
            f"{_html.escape(doc['truncation_reason'])} — adaptive-stage "
            "records are partial; totals cover only the fallback.</p>"
        )
    rec = doc["reconciliation"]
    if rec.get("checked"):
        ok = all(v for k, v in rec.items() if k != "checked")
        parts.append(
            f'<p>reconciliation <span class="badge {"ok" if ok else "bad"}">'
            f'{"EXACT" if ok else "FAILED"}</span> — stage cycles, counters, '
            "per-SM busy times and spans re-derive from the trace.</p>"
        )

    parts.append("<h2>Stage cycles (Fig. 7)</h2>")
    parts.append(
        _bars([(k, v) for k, v in fig["stage_cycles"].items() if v > 0.0])
    )

    parts.append("<h2>Per-SM busy cycles / load imbalance</h2>")
    imb = fig["load_imbalance"]
    parts.append(
        "<table><tr><th>stage</th><th>imbalance (max/mean)</th></tr>"
        + "".join(
            f"<tr><th>{_html.escape(k)}</th><td>{imb[k]:.4f}</td></tr>"
            for k in sorted(imb)
        )
        + "</table>"
    )
    all_busy = fig["per_sm_busy_cycles"].get("ALL", [])
    parts.append(
        _bars([(f"SM {i}", v) for i, v in enumerate(all_busy)])
    )

    parts.append("<h2>ESC iterations per block (Fig. 9)</h2>")
    parts.append(
        _bars(
            [
                (f"{k} iters", float(v))
                for k, v in fig["esc_iteration_histogram"].items()
            ]
        )
    )

    parts.append("<h2>Chunks per ESC block (Fig. 9)</h2>")
    parts.append(
        _bars(
            [
                (f"{k} chunks", float(v))
                for k, v in fig["chunks_per_block_histogram"].items()
            ]
        )
    )

    parts.append("<h2>Sort key widths (Fig. 10)</h2>")
    parts.append(
        _bars(
            [
                (f"{k} bits", float(v))
                for k, v in fig["sort_bit_width_elements"].items()
            ]
        )
    )

    wl = fig["scratchpad_waterline"]
    parts.append("<h2>Scratchpad residency waterline</h2>")
    parts.append(
        f"<p>max {wl['max_bytes']:,} B / mean {wl['mean_bytes']:,.0f} B of "
        f"{wl['capacity_bytes']:,} B capacity "
        f"({100.0 * wl['max_fraction']:.1f}% peak) over "
        f"{wl['blocks_sampled']} block executions.</p>"
    )
    parts.append(
        _bars(
            [
                ("max", float(wl["max_bytes"])),
                ("mean", float(wl["mean_bytes"])),
                ("capacity", float(wl["capacity_bytes"])),
            ],
            warn=lambda label, v: label == "max"
            and wl["capacity_bytes"]
            and v > 0.9 * wl["capacity_bytes"],
        )
    )

    audit = fig.get("routing_audit")
    if audit:
        parts.append("<h2>Routing audit</h2>")
        chosen = audit.get("chosen", "")
        parts.append(
            f"<p>adaptive dispatch chose <b>{_html.escape(str(chosen))}</b>: "
            f"predicted {audit.get('predicted_chosen', 0.0):,.0f} cycles, "
            f"actual {audit.get('actual_cycles', 0.0):,.0f} "
            f"(relative error {100.0 * audit.get('rel_error', 0.0):.1f}%, "
            f"regret bound {audit.get('regret_bound', 0.0):,.0f} cycles)."
            "</p>"
        )
        predicted = audit.get("predicted", {})
        parts.append(
            "<table><tr><th>candidate</th><th>predicted cycles</th></tr>"
            + "".join(
                f"<tr><th>{_html.escape(k)}"
                f"{' *' if k == chosen else ''}</th>"
                f"<td>{predicted[k]:,.0f}</td></tr>"
                for k in sorted(predicted)
            )
            + "</table>"
        )
        rows = [(k, float(predicted[k])) for k in sorted(predicted)]
        if "actual_cycles" in audit:
            rows.append(
                (f"actual ({chosen})", float(audit["actual_cycles"]))
            )
        parts.append(
            _bars(
                rows,
                warn=lambda label, v: label.startswith("actual")
                and v > audit.get("predicted_chosen", v),
            )
        )

    parts.append("<h2>Traffic attribution by stage</h2>")
    traffic = fig["traffic_by_stage"]
    fields = sorted({f for row in traffic.values() for f in row})
    parts.append(
        "<table><tr><th>stage</th>"
        + "".join(f"<th>{_html.escape(f)}</th>" for f in fields)
        + "</tr>"
        + "".join(
            f"<tr><th>{_html.escape(stage)}</th>"
            + "".join(f"<td>{traffic[stage].get(f, 0):,}</td>" for f in fields)
            + "</tr>"
            for stage in sorted(traffic)
        )
        + "</table>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)
