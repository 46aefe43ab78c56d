"""Trace-completeness, id-determinism and overhead gates for tracing.

Drives an in-process :class:`repro.serve.ServeCore` through every
``POST /multiply`` outcome class — success, cache hit, 404, 400,
degraded fallback, deadline-exceeded (504) and queue-rejected (429), with a ``request_delay`` chaos fault armed — and
asserts the distributed-tracing contract:

* **completeness** — every handled request resolves to exactly one
  rooted, finalized trace: zero orphan spans, zero spans left open,
  and every executed success reconciles its grafted cycle sums against
  the result's stage counters;
* **determinism** — the full scenario suite run twice produces
  byte-identical trace/span id manifests (ids derive from content
  fingerprints and admission ordinals, never wall-clock or RNG);
* **overhead** — the host cost of tracing (trace + ambient context +
  graft + release around the pipeline) stays within 10% of the bare
  pipeline;
* **selector audit** — every adaptive dispatch leaves one flight-
  recorder event carrying predictions for all candidates, the chosen
  engine, the realised cycles and the per-decision regret bound.

Writes ``BENCH_trace.json``; ``--ids-out`` additionally writes the id
manifests alone so CI can ``cmp`` two independent runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py [--smoke] \
        [--out BENCH_trace.json] [--ids-out trace_ids.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign.plan import tiny_entries  # noqa: E402
from repro.core import AcSpgemmOptions, ac_spgemm  # noqa: E402
from repro.obs import (  # noqa: E402
    RequestTrace,
    TraceContext,
    read_flight_events,
    use_trace,
)
from repro.resilience.errors import RestartBudgetExceeded  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.serve import ServeConfig, ServeCore  # noqa: E402
from repro.sparse import squared_operands  # noqa: E402

#: generous poll ceiling for the staged 429 scenario
SETTLE_TIMEOUT_S = 30.0


def _core(multiply=None, **overrides) -> ServeCore:
    defaults = dict(
        engine="reference",
        backend="adaptive",
        executors=1,
        max_queue=4,
        default_deadline_ms=60_000.0,
    )
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults), multiply=multiply)


def _wait(predicate, what: str) -> None:
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"timed out waiting for {what}")
        time.sleep(0.005)


def _harvest(core: ServeCore, scenario: str, bodies: list[dict]) -> list[dict]:
    """Per-request trace records, taken after the core drained."""
    records = []
    for body in bodies:
        trace = core.traces.get(body.get("trace_id", ""))
        record = {
            "scenario": scenario,
            "outcome": body.get("outcome", ""),
            "status": body.get("status", 200),
            "has_identity": bool(
                body.get("request_id")
                and body.get("trace_id")
                and body.get("traceparent")
            ),
            "trace_found": trace is not None,
        }
        if trace is not None:
            v = trace.validate()
            execute = next(
                (s for s in trace.spans if s.name == "execute"), None
            )
            record.update(
                finalized=trace.finalized,
                rooted=v["rooted"],
                orphans=v["orphans"],
                open_spans=v["open_spans"],
                spans=len(trace.spans),
                reconciled=(
                    execute.attrs.get("reconciled")
                    if execute is not None
                    else None
                ),
                manifest=trace.id_manifest(),
            )
        records.append(record)
    return records


def run_scenarios(flight_log: Path) -> tuple[list[dict], dict]:
    """One pass over every outcome class; returns (records, routing)."""
    records: list[dict] = []

    # -- sequential mixed traffic with a chaos delay fault -------------
    plan = FaultPlan(
        faults=(FaultSpec(kind="request_delay", at=1, delay_ms=5.0),)
    )
    core = _core(fault_plan=plan, flight_log=str(flight_log))
    try:
        client = TraceContext.for_request("bench-trace-client", 1)
        bodies = [
            core.handle(
                {"matrix": "tiny-uniform"},
                traceparent=client.to_traceparent(),
            ),
            core.handle({"matrix": "tiny-uniform"}),  # content cache hit
            core.handle({"matrix": "tiny-grid2d"}),
            core.handle({"matrix": "no-such-matrix"}),  # 404
            core.handle({"matrix": "tiny-uniform", "dtype": "int8"}),  # 400
        ]
        routing = core.stats()["routing"]
        faults_fired = core.stats()["faults_fired"]
    finally:
        core.close(drain=True)
    records += _harvest(core, "sequential", bodies)
    routing = dict(routing, faults_fired=faults_fired)

    # -- a failing pipeline: degraded fallback -------------------------
    def always(a, b, options):
        raise RestartBudgetExceeded("bench chaos", stage="ESC", restarts=1)

    core = _core(multiply=always)
    try:
        bodies = [core.handle({"matrix": "tiny-uniform"})]
    finally:
        core.close(drain=True)
    records += _harvest(core, "degraded", bodies)

    # -- requester deadline expires while the executor finishes --------
    def slow(a, b, options):
        time.sleep(0.3)
        return ac_spgemm(a, b, options)

    core = _core(multiply=slow)
    try:
        bodies = [core.handle({"matrix": "tiny-uniform", "deadline_ms": 25})]
    finally:
        core.close(drain=True)  # executor still finishes + finalizes
    records += _harvest(core, "deadline", bodies)

    # -- bounded queue sheds: staged admissions make the 429 ordinal
    #    deterministic (1 executing, 2 queued, 3 rejected) -------------
    gate = threading.Event()
    started = threading.Event()

    def gated(a, b, options):
        started.set()  # the executor definitely holds request 1 now
        gate.wait(SETTLE_TIMEOUT_S)
        return ac_spgemm(a, b, options)

    core = _core(multiply=gated, max_queue=1)
    try:
        bodies = [None, None, None]

        def fire(i):
            bodies[i] = core.handle(
                {"matrix": "tiny-uniform", "deadline_ms": 30_000}
            )

        t1 = threading.Thread(target=fire, args=(0,))
        t1.start()
        # the admission ordinal is taken before the enqueue, so stats
        # alone cannot prove request 1 left the queue — the multiply
        # hook can
        _wait(started.is_set, "first request to reach the executor")
        t2 = threading.Thread(target=fire, args=(1,))
        t2.start()
        _wait(
            lambda: core.stats()["queue_depth"] == 1,
            "second request to fill the queue",
        )
        fire(2)  # queue full: synchronous 429
        gate.set()
        t1.join()
        t2.join()
    finally:
        gate.set()
        core.close(drain=True)
    records += _harvest(core, "rejected", bodies)
    return records, routing


def completeness(records: list[dict]) -> dict:
    """The per-request contract, aggregated."""
    total = len(records)
    complete = sum(
        1
        for r in records
        if r["has_identity"]
        and r["trace_found"]
        and r.get("finalized")
        and r.get("rooted")
        and r.get("orphans") == 0
        and r.get("open_spans") == 0
    )
    orphans = sum(r.get("orphans", 0) for r in records)
    unreconciled = [
        f"{r['scenario']}/{r['outcome']}"
        for r in records
        if r["outcome"] == "success"
        and r.get("spans", 0) > 3  # executed, not a cache hit
        and r.get("reconciled") is not True
    ]
    outcomes: dict[str, int] = {}
    for r in records:
        key = f"{r['scenario']}:{r['outcome'] or r['status']}"
        outcomes[key] = outcomes.get(key, 0) + 1
    return {
        "requests": total,
        "complete_traces": complete,
        "completeness_pct": round(100.0 * complete / total, 2) if total else 0.0,
        "orphan_spans": orphans,
        "unreconciled_successes": unreconciled,
        "outcomes": dict(sorted(outcomes.items())),
    }


def measure_overhead(reps: int) -> dict:
    """Host cost of tracing around the pipeline (min-of-3 sums)."""
    entry = next(e for e in tiny_entries() if e.name == "tiny-uniform")
    a, b = squared_operands(entry.build())
    opts = AcSpgemmOptions(engine="reference")
    ac_spgemm(a, b, opts)  # warm every lazy import/cache first

    def plain_once():
        ac_spgemm(a, b, opts)

    def traced_once():
        trace = RequestTrace(TraceContext.for_request("bench-overhead", 1))
        execute = trace.start_span("execute")
        attempt = trace.start_span("attempt", parent=execute, attempt=1)
        with use_trace(trace, attempt, breaker="closed"):
            result = ac_spgemm(a, b, opts)
        trace.end_span(attempt)
        trace.graft_result(execute, result)
        trace.release(outcome="success")

    def sample(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return time.perf_counter() - t0

    # interleave the two variants so drift (frequency scaling, page
    # cache, background load) hits both alike; keep the best of each
    plain, traced = float("inf"), float("inf")
    for _ in range(5):
        plain = min(plain, sample(plain_once))
        traced = min(traced, sample(traced_once))
    overhead_pct = 100.0 * (traced - plain) / plain if plain else 0.0
    return {
        "reps": reps,
        "plain_s": round(plain, 4),
        "traced_s": round(traced, 4),
        "overhead_pct": round(overhead_pct, 2),
    }


def audit_table(flight_log: Path) -> list[dict]:
    events = []
    for path in sorted(flight_log.parent.glob(flight_log.name + "*")):
        events += read_flight_events(path)
    events.sort(key=lambda e: e["seq"])
    return [
        {
            "seq": e["seq"],
            "chosen": e["chosen"],
            "predicted": e["predicted"],
            "predicted_chosen": e["predicted_chosen"],
            "actual_cycles": e["actual_cycles"],
            "rel_error": e["rel_error"],
            "regret_bound": e["regret_bound"],
            "trace_id": e.get("trace_id", ""),
        }
        for e in events
    ]


def run_bench(*, reps: int) -> tuple[dict, list]:
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        flight_a = Path(tmp) / "flight_a.jsonl"
        flight_b = Path(tmp) / "flight_b.jsonl"
        records_a, routing = run_scenarios(flight_a)
        records_b, _ = run_scenarios(flight_b)
        table = audit_table(flight_a)
        table_b = audit_table(flight_b)

    manifests_a = [r.get("manifest") for r in records_a]
    manifests_b = [r.get("manifest") for r in records_b]
    ids_a = json.dumps(manifests_a, sort_keys=True)
    ids_b = json.dumps(manifests_b, sort_keys=True)

    comp = completeness(records_a)
    overhead = measure_overhead(reps)
    audited = all(
        set(e["predicted"]) and e["rel_error"] is not None for e in table
    )
    payload = {
        "bench": "trace",
        "completeness": comp,
        "determinism": {
            "runs": 2,
            "ids_identical": ids_a == ids_b,
            "flight_identical": json.dumps(table) == json.dumps(table_b),
        },
        "overhead": overhead,
        "selector_audit": {
            "dispatches": routing["dispatches"],
            "recorded_events": len(table),
            "prediction_error": routing["prediction_error"],
            "table": table,
        },
        "chaos": {"faults_fired": routing["faults_fired"]},
        "gates": {},
    }
    payload["gates"] = {
        "trace_completeness_100pct": comp["completeness_pct"] == 100.0,
        "zero_orphans": comp["orphan_spans"] == 0,
        "grafts_reconcile": not comp["unreconciled_successes"],
        "ids_deterministic": payload["determinism"]["ids_identical"]
        and payload["determinism"]["flight_identical"],
        "overhead_within_10pct": overhead["overhead_pct"] <= 10.0,
        "every_dispatch_audited": (
            routing["dispatches"] == len(table) and len(table) > 0 and audited
        ),
        "chaos_fault_fired": len(routing["faults_fired"]) == 1,
    }
    payload["ok"] = all(payload["gates"].values())
    return payload, manifests_a


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scope: fewer overhead reps")
    parser.add_argument("--reps", type=int, default=20,
                        help="pipeline executions per overhead sample")
    parser.add_argument("--out", default="BENCH_trace.json")
    parser.add_argument("--ids-out", default=None,
                        help="also write the id manifests alone (CI cmp)")
    args = parser.parse_args()
    reps = 5 if args.smoke else args.reps

    payload, manifests = run_bench(reps=reps)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.ids_out:
        Path(args.ids_out).write_text(
            json.dumps(manifests, indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps(payload["gates"], indent=2))
    comp = payload["completeness"]
    print(
        f"trace bench: {comp['complete_traces']}/{comp['requests']} complete "
        f"traces ({comp['completeness_pct']}%), "
        f"overhead {payload['overhead']['overhead_pct']}%, "
        f"{payload['selector_audit']['recorded_events']} dispatches audited; "
        f"wrote {args.out}"
    )
    if not payload["ok"]:
        print("GATES FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
