"""The ``repro profile`` workload: one instrumented run, three exports.

:func:`profile_run` executes AC-SpGEMM with tracing forced on and wraps
the result in a :class:`ProfileReport`, which renders

* a human-readable per-stage report (:meth:`ProfileReport.text`),
* a merged Perfetto timeline of the device trace and the pipeline span
  tree (:meth:`ProfileReport.write_trace`),
* the :class:`~repro.obs.metrics.MetricsRegistry` as a JSON document or
  Prometheus text file (:meth:`ProfileReport.write_metrics_json` /
  :meth:`ProfileReport.write_prometheus`).

The JSON document doubles as the artifact format consumed by
``benchmarks/bench_compare.py``: everything under ``"metrics"`` is a
flat ``sample key -> number`` map, so two profile artifacts diff
directly.  All quantities are simulated (cycle-based), which makes the
artifacts machine-independent and byte-deterministic for a fixed
matrix, engine and option set.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..core.acspgemm import STAGE_KEYS, AcSpgemmResult, ac_spgemm
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from .export import perfetto_payload, write_perfetto
from .metrics import MetricsRegistry

__all__ = ["ProfileReport", "profile_run"]

#: JSON artifact schema version of :meth:`ProfileReport.metrics_doc`
PROFILE_SCHEMA = 1


def profile_run(
    a,
    b,
    options: AcSpgemmOptions | None = None,
    *,
    matrix_name: str = "",
) -> "ProfileReport":
    """Run ``A @ B`` with full instrumentation and wrap the result."""
    opts = options or DEFAULT_OPTIONS
    if not opts.device_trace:
        opts = dataclasses.replace(opts, device_trace=True)
    result = ac_spgemm(a, b, opts)
    return ProfileReport(result=result, options=opts, matrix_name=matrix_name)


@dataclass
class ProfileReport:
    """One instrumented run plus its export surfaces."""

    result: AcSpgemmResult
    options: AcSpgemmOptions
    matrix_name: str = ""

    def registry(self) -> MetricsRegistry:
        """Metrics of this run, labelled with the producing engine."""
        return MetricsRegistry.from_result(self.result, engine=self.options.engine)

    # -- human-readable report ----------------------------------------

    def text(self) -> str:
        """Per-stage profile in the style of the paper's Figure 7."""
        r = self.result
        us = 1e6 / (r.clock_ghz * 1e9)
        total = r.total_cycles
        lines = []
        title = self.matrix_name or f"{r.matrix.rows}x{r.matrix.cols}"
        lines.append(
            f"profile of {title} (engine={self.options.engine}, "
            f"dtype={self.options.value_dtype.name})"
        )
        lines.append(
            f"  output: {r.matrix.nnz} nnz, {r.memory.output_bytes} B; "
            f"total {total * us:.2f} us simulated"
        )
        keys = list(STAGE_KEYS) + (["FB"] if "FB" in r.stage_cycles else [])
        for key in keys:
            cycles = r.stage_cycles.get(key, 0.0)
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
        if r.spans is not None:
            lines.append("  span tree:")
            lines.extend(self._span_lines(r.spans, us, total, depth=2))
        return "\n".join(lines)

    def _span_lines(self, span, us, total, depth) -> list[str]:
        pct = 100.0 * span.duration / total if total else 0.0
        line = (
            f"{'  ' * depth}{span.name:<{max(1, 30 - 2 * depth)}s} "
            f"{span.duration * us:12.2f} us  {pct:5.1f}%"
        )
        out = [line]
        for child in span.children:
            out.extend(self._span_lines(child, us, total, depth + 1))
        return out

    # -- file exports -------------------------------------------------

    def trace_payload(self) -> dict:
        """Merged Perfetto JSON object: the device trace's per-SM and
        counter tracks (pid 3) plus the pipeline span tree (pid 2) —
        the same payload as ``repro analyze --perfetto-out``."""
        return perfetto_payload(
            spans=self.result.spans,
            device=self.result.device_trace,
            clock_ghz=self.result.clock_ghz,
        )

    def write_trace(self, path: str | Path) -> Path:
        """Write the validated Perfetto timeline JSON."""
        return write_perfetto(path, self.trace_payload())

    def metrics_doc(self) -> dict:
        """The profile artifact: registry export plus run identity."""
        reg = self.registry().to_json()
        return {
            "bench": "profile",
            "schema": PROFILE_SCHEMA,
            "matrix": self.matrix_name,
            "engine": self.options.engine,
            "dtype": self.options.value_dtype.name,
            "metrics": reg["metrics"],
            "meta": reg["meta"],
        }

    def write_metrics_json(self, path: str | Path) -> Path:
        """Write the JSON metrics artifact (byte-deterministic)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.metrics_doc(), indent=2, sort_keys=True))
        return out

    def write_prometheus(self, path: str | Path) -> Path:
        """Write the Prometheus text exposition of the metrics."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.registry().to_prometheus())
        return out
