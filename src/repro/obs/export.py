"""Exposition-format exports of the unified observability data:
Perfetto / chrome://tracing JSON plus Prometheus text-format helpers.

Every Perfetto payload is built from the same two sources, the span
tree and the device trace:

* **pid 2 — pipeline spans**: the driver's nested span tree
  (:mod:`repro.obs.span`) as ``X`` events on a single track — Perfetto
  nests contained slices automatically — plus span events (restarts,
  aborts, degradation) as instant events;
* **pid 3 — simulated device**: :class:`~repro.obs.device.DeviceTrace`
  as one thread row per SM plus counter tracks (scratchpad bytes,
  chunk-pool occupancy, cumulative global traffic).

The routing audit adds pid 5.  The multi-device SUMMA view puts each
device's spans and SMs on process rows of their own, through the same
span walker (:func:`_span_tree_events`) and the same device export.

:func:`validate_perfetto` is the schema check used by the tests and CI:
it verifies the JSON object model and that ``X`` slices on one
``(pid, tid)`` row are either disjoint or properly nested.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .span import Span

__all__ = [
    "perfetto_payload",
    "summa_perfetto_payload",
    "write_perfetto",
    "validate_perfetto",
    "validate_perfetto_file",
    "sanitize_metric_name",
    "sanitize_label_name",
    "parse_prometheus_text",
]

# ------------------------------------------------- Prometheus text format
#
# Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* and label names
# [a-zA-Z_][a-zA-Z0-9_]* (exposition format 0.0.4).  Names derived from
# matrix identifiers ("ca-AstroPh", "webbase-1M", "uniform-a1.5-0")
# contain '-' and '.' and would produce an unscrapable export, so every
# name is sanitized at registration time; label *values* may carry any
# character and are escaped instead.

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*?)\})?"
    r" (?P<value>\S+)"
    # OpenMetrics-style exemplar suffix on histogram bucket lines:
    # ` # {trace_id="..."} 4.2 [timestamp]`
    r"(?: # \{(?P<exemplar>[^}]*)\} (?P<exemplar_value>\S+)"
    r"(?: (?P<exemplar_ts>\S+))?)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"'
)


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name.

    Every illegal character becomes ``_``; a leading digit gains a ``_``
    prefix.  Legal names pass through unchanged, so the function is
    idempotent.
    """
    name = str(name)
    if _METRIC_NAME_RE.match(name):
        return name
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus label name (idempotent)."""
    name = str(name)
    if _LABEL_NAME_RE.match(name):
        return name
    name = re.sub(r"[^a-zA-Z0-9_]", "_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(text: str) -> dict:
    """Parse exposition format 0.0.4 back into a structured document.

    Returns ``{"samples": {name: [(labels_dict, value), ...]},
    "types": {name: kind}, "help": {name: help},
    "exemplars": {name: [(labels, exemplar_labels, value), ...]}}``.
    Used by the round-trip tests to prove our exports are scrapable;
    raises ``ValueError`` on any line a Prometheus scraper would
    reject.  OpenMetrics-style exemplar suffixes on histogram bucket
    lines are parsed (and validated) rather than rejected.
    """
    samples: dict[str, list] = {}
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    exemplars: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, doc = rest.partition(" ")
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad HELP name {name!r}")
            helps[name] = doc
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad TYPE name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad TYPE kind {kind!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                pair = _LABEL_PAIR_RE.match(raw, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels {raw!r} "
                        f"(at offset {pos})"
                    )
                labels[pair.group("name")] = _unescape_label(
                    pair.group("value")
                )
                pos = pair.end()
                if pos < len(raw):
                    if raw[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: expected ',' in labels {raw!r}"
                        )
                    pos += 1
        if m.group("exemplar") is not None:
            ex_labels: dict[str, str] = {}
            raw_ex = m.group("exemplar")
            pos = 0
            while pos < len(raw_ex):
                pair = _LABEL_PAIR_RE.match(raw_ex, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed exemplar {raw_ex!r}"
                    )
                ex_labels[pair.group("name")] = _unescape_label(
                    pair.group("value")
                )
                pos = pair.end()
                if pos < len(raw_ex):
                    if raw_ex[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: expected ',' in exemplar "
                            f"{raw_ex!r}"
                        )
                    pos += 1
            float(m.group("exemplar_value"))  # must be numeric to scrape
            exemplars.setdefault(m.group("name"), []).append(
                (labels, ex_labels, float(m.group("exemplar_value")))
            )
        samples.setdefault(m.group("name"), []).append(
            (labels, float(m.group("value")))
        )
    return {
        "samples": samples,
        "types": types,
        "help": helps,
        "exemplars": exemplars,
    }

SPAN_PID = 2
ROUTING_PID = 5
#: multi-device SUMMA exports: device ``d``'s span subtree lands on pid
#: ``SUMMA_SPAN_PID_BASE + d`` and its per-SM tracks on
#: ``SUMMA_SM_PID_BASE + d`` — distinct process rows per device, as the
#: node timeline would otherwise interleave P devices on one track
SUMMA_SPAN_PID_BASE = 10
SUMMA_SM_PID_BASE = 40
_EPS = 1e-9

_META_NAMES = {
    "process_name",
    "process_sort_index",
    "thread_name",
    "thread_sort_index",
}


def _span_tree_events(
    root: Span,
    clock_ghz: float,
    pid: int,
    tid: int,
    *,
    offset: float = 0.0,
    stop=None,
    mirror: bool = False,
) -> tuple[list[dict], list[Span]]:
    """``X`` slices and ``i`` span events for one span tree, one row.

    ``offset`` shifts every stamp in presentation floats only — the
    tree stays on its own clock so the bitwise reconcile checks keep
    holding on the original data.  A span for which ``stop(span)`` is
    true is neither emitted nor descended into; it is returned in the
    second list for the caller to place on its own rows.  Children are
    visited first to last, or last to first with ``mirror`` (the SUMMA
    node narrative's order, kept so its exports stay byte-stable).
    """
    us = 1e6 / (clock_ghz * 1e9)
    events: list[dict] = []
    stopped: list[Span] = []
    pending = [root]
    while pending:
        span = pending.pop()
        if stop is not None and stop(span):
            stopped.append(span)
            continue
        end = span.end_cycle if span.end_cycle is not None else span.start_cycle
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.start_cycle + offset) * us,
                "dur": (end - span.start_cycle) * us,
                "pid": pid,
                "tid": tid,
                "args": {k: span.attrs[k] for k in sorted(span.attrs)},
            }
        )
        for ev in span.events:
            events.append(
                {
                    "name": ev.label,
                    "cat": "span-event",
                    "ph": "i",
                    "ts": (ev.cycle + offset) * us,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": {"detail": ev.detail},
                }
            )
        pending.extend(span.children if mirror else reversed(span.children))
    return events, stopped


def _process_row(pid: int, tid: int, process: str, thread: str) -> list[dict]:
    """``M`` records naming one process and one of its thread rows."""
    return [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread},
        },
    ]


def routing_events(
    audit: dict, clock_ghz: float, *, pid: int = ROUTING_PID
) -> list[dict]:
    """The routing-audit track: predicted vs. actual cycles per engine.

    One thread row per candidate engine holding a slice of its
    *predicted* makespan; the chosen engine's row additionally holds
    the *actual* slice (both start at 0, so they nest).  ``audit`` is
    the dispatch event recorded by the adaptive selector
    (``result.routing_audit``).
    """
    us = 1e6 / (clock_ghz * 1e9)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "routing audit"},
        }
    ]
    chosen = audit.get("chosen")
    for tid, (engine, predicted) in enumerate(
        sorted(audit.get("predicted", {}).items()), start=1
    ):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{engine}{' *' if engine == chosen else ''}"},
            }
        )
        events.append(
            {
                "name": f"predicted {engine}",
                "cat": "routing",
                "ph": "X",
                "ts": 0.0,
                "dur": float(predicted) * us,
                "pid": pid,
                "tid": tid,
                "args": {"predicted_cycles": float(predicted)},
            }
        )
        if engine == chosen and "actual_cycles" in audit:
            events.append(
                {
                    "name": f"actual {engine}",
                    "cat": "routing",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": float(audit["actual_cycles"]) * us,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "actual_cycles": float(audit["actual_cycles"]),
                        "regret_bound": float(audit.get("regret_bound", 0.0)),
                    },
                }
            )
    return events


def perfetto_payload(
    *,
    spans: Span | None = None,
    device=None,
    routing: dict | None = None,
    clock_ghz: float | None = None,
) -> dict:
    """Combined Perfetto JSON object for a span tree and a device trace.

    ``device`` is a :class:`~repro.obs.device.DeviceTrace` (pid 3: one
    thread per SM plus counter tracks), ``spans`` the pipeline span
    tree (pid 2) and ``routing`` a selector dispatch event
    (``result.routing_audit``, pid 5).
    """
    if spans is None and device is None and routing is None:
        raise ValueError("need at least one of spans, device or routing")
    events: list[dict] = []
    if device is not None:
        events.extend(device.to_perfetto_events())
        if clock_ghz is None:
            clock_ghz = device.clock_ghz
    if spans is not None:
        if clock_ghz is None:
            raise ValueError("clock_ghz is required to export spans alone")
        events.extend(
            _process_row(SPAN_PID, 1, "pipeline spans", "host pipeline")
        )
        events.extend(_span_tree_events(spans, clock_ghz, SPAN_PID, 1)[0])
    if routing is not None:
        if clock_ghz is None:
            raise ValueError("clock_ghz is required to export routing audits")
        events.extend(routing_events(routing, clock_ghz))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summa_perfetto_payload(result) -> dict:
    """Perfetto JSON for one multi-device SUMMA run.

    ``result`` is a :class:`repro.multi.SummaResult`.  The payload holds
    one node-narrative process (pid ``SPAN_PID``: partition, rounds with
    exposed broadcast windows, merge, assemble) plus **two process rows
    per device**: the device's grafted pipeline-span subtrees (pid
    ``SUMMA_SPAN_PID_BASE + ordinal``, one thread row per SUMMA round)
    and — when the tiles were run with ``device_trace=True`` — its
    per-SM tracks (pid ``SUMMA_SM_PID_BASE + ordinal``).  Device-local
    cycles are translated onto the node clock here, at export, using the
    ``start_cycle_on_node`` placement attr recorded by ``summa_spgemm``.
    """
    clock_ghz = result.clock_ghz
    g = result.grid
    events = _process_row(SPAN_PID, 1, "SUMMA node", "node timeline")
    # node narrative: grafted device subtrees (they carry a
    # start_cycle_on_node placement attr) go on their own process rows
    narrative, grafted = _span_tree_events(
        result.spans,
        clock_ghz,
        SPAN_PID,
        1,
        stop=lambda span: "start_cycle_on_node" in span.attrs,
        mirror=True,
    )
    events.extend(narrative)

    named_pids: set[int] = set()
    for sub in sorted(
        grafted, key=lambda s: (s.attrs["device"], s.attrs["round"])
    ):
        ordinal = sub.attrs["device"]
        k = sub.attrs["round"]
        pid = SUMMA_SPAN_PID_BASE + ordinal
        if pid not in named_pids:
            named_pids.add(pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": f"device {sub.attrs['device_grid']} pipeline"
                    },
                }
            )
            events.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": k + 1,
                "args": {"name": f"round {k}"},
            }
        )
        offset = sub.attrs["start_cycle_on_node"] - sub.start_cycle
        events.extend(
            _span_tree_events(sub, clock_ghz, pid, k + 1, offset=offset)[0]
        )

    # per-device SM tracks, when every tile carried a device trace
    traces = [run.result.device_trace for run in result.tile_runs.values()]
    if traces and all(t is not None for t in traces):
        for i in range(g):
            for j in range(g):
                ordinal = i * g + j
                runs = [result.tile_runs[(i, j, k)] for k in range(g)]
                merged = None
                for run in runs:
                    part = run.result.device_trace.shifted(run.start_cycle)
                    if merged is None:
                        merged = part
                    else:
                        merged.records.extend(part.records)
                events.extend(
                    merged.to_perfetto_events(
                        pid=SUMMA_SM_PID_BASE + ordinal,
                        process_name=f"device ({i},{j}) SMs",
                    )
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(path: str | Path, payload: dict) -> Path:
    """Validate and write a payload; refuses to write a malformed file."""
    validate_perfetto(payload)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload))
    return out


def _check_row(row_key, slices: list[tuple[float, float, str]]) -> None:
    """Slices on one track must be disjoint or strictly nested."""
    stack: list[tuple[float, float, str]] = []
    for ts, end, name in sorted(slices, key=lambda s: (s[0], -(s[1] - s[0]))):
        while stack and stack[-1][1] <= ts + _EPS:
            stack.pop()
        if stack and end > stack[-1][1] + _EPS:
            raise ValueError(
                f"overlapping slices on row {row_key}: {name!r} "
                f"[{ts}, {end}] crosses {stack[-1][2]!r} end {stack[-1][1]}"
            )
        stack.append((ts, end, name))


def validate_perfetto(payload) -> None:
    """Schema-check a Perfetto JSON object; raises ``ValueError``.

    Checks the object model (``traceEvents`` list, required fields per
    phase) and per-row slice consistency (no partial overlaps).
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("payload must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    rows: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for req in ("name", "ph", "pid", "tid"):
            if req not in ev:
                raise ValueError(f"event {i} is missing {req!r}")
        ph = ev["ph"]
        if ph == "M":
            if ev["name"] not in _META_NAMES:
                raise ValueError(f"unknown metadata record {ev['name']!r}")
            if "name" not in ev.get("args", {}) and "sort_index" not in ev.get(
                "args", {}
            ):
                raise ValueError(f"metadata event {i} carries no payload")
            continue
        if ph not in ("X", "i", "I", "B", "E", "C"):
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} has invalid ts {ts!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"counter event {i} has no args")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"counter event {i} has non-numeric series "
                        f"{key!r}: {value!r}"
                    )
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i} has invalid dur {dur!r}")
            rows.setdefault((ev["pid"], ev["tid"]), []).append(
                (float(ts), float(ts) + float(dur), str(ev["name"]))
            )
    for row_key, slices in rows.items():
        _check_row(row_key, slices)


def validate_perfetto_file(path: str | Path) -> None:
    """Load a JSON file and :func:`validate_perfetto` it."""
    validate_perfetto(json.loads(Path(path).read_text()))
