"""Closed-loop load generator and chaos harness for ``repro serve``.

Starts the daemon as a real subprocess, drives it with a seeded,
closed-loop client fleet (each client issues its next request only
after the previous one resolved — the huggingbench shape: bounded
concurrency, no coordinated-omission open loop), injects chaos (a
``request_delay``, a pipeline fault that fails the primary multiply of
the larger matrices only, so the circuit breaker trips while the
smaller ones still succeed, and a deliberately undersized admission
queue), and asserts the daemon's contract:

* **zero hangs** — every request returns within the client timeout;
* **zero drops** — every request resolves to a typed outcome
  (``success`` / ``degraded`` / ``rejected``), never a connection
  error or a missing response;
* **correctness** — every ``success`` digest equals the reference
  engine's digest for the same matrix and every ``degraded`` digest
  equals the offline global-ESC fallback's (the service is
  bit-identical to offline execution);
* **determinism** — the serve faults fired are exactly the plan's
  serve faults, in plan order (scraped from ``/stats``);
* **degradation** — the failing pipeline trips the breaker, and the
  run has both ``success`` and ``degraded`` outcomes, so both digest
  comparisons above always run.

Writes ``BENCH_serve.json`` with p50/p99 latency, throughput and
per-outcome counters.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke] \
        [--clients 4] [--requests 40] [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign.plan import matrix_fingerprint, tiny_entries  # noqa: E402
from repro.core import AcSpgemmOptions, ac_spgemm  # noqa: E402
from repro.engine import ENGINES  # noqa: E402
from repro.resilience.degrade import fallback_multiply  # noqa: E402
from repro.resilience.faults import (  # noqa: E402
    SERVE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.sparse import squared_operands  # noqa: E402

#: client-side request timeout — a response slower than this counts as
#: a hang and fails the run (generous: it covers a cold pipeline build)
CLIENT_TIMEOUT_S = 300.0

MATRICES = [e.name for e in tiny_entries()]


def reference_digests(names) -> dict[str, dict[str, str]]:
    """Offline digests the service must reproduce, per outcome: the
    reference engine's for ``success``, the global-ESC fallback's for
    ``degraded``."""
    digests = {"success": {}, "degraded": {}}
    opts = AcSpgemmOptions(engine="reference")
    for entry in tiny_entries():
        if entry.name not in names:
            continue
        a, b = squared_operands(entry.build())
        digests["success"][entry.name] = matrix_fingerprint(
            ac_spgemm(a, b, opts).matrix
        )
        digests["degraded"][entry.name] = matrix_fingerprint(
            fallback_multiply(a, b, opts).matrix
        )
    return digests


def start_daemon(*, queue: int, executors: int, deadline_ms: float,
                 fault_plan: FaultPlan | None, engine: str,
                 breaker_threshold: int, breaker_cooldown_s: float):
    """Spawn ``repro serve`` and wait for its listening banner."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--engine", engine,
        "--executors", str(executors),
        "--queue", str(queue),
        "--deadline-ms", str(deadline_ms),
        "--breaker-threshold", str(breaker_threshold),
        "--breaker-cooldown", str(breaker_cooldown_s),
    ]
    if fault_plan is not None:
        argv += ["--fault-plan", fault_plan.to_json()]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=repo,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {banner!r}")
    return proc, f"http://127.0.0.1:{match.group(1)}"


def post_multiply(base: str, payload: dict) -> dict:
    req = urllib.request.Request(
        base + "/multiply",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=CLIENT_TIMEOUT_S) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read())


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return json.loads(resp.read())


def get_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.read().decode()


def closed_loop(base: str, schedule: list[dict], clients: int):
    """Drive the schedule with a closed-loop client fleet.

    Returns ``(responses, latencies_ms, transport_errors)``; responses
    keeps schedule order so outcomes are attributable per request.
    """
    results: list[dict | None] = [None] * len(schedule)
    latencies: list[float] = []
    errors: list[str] = []
    cursor = [0]
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = cursor[0]
                if i >= len(schedule):
                    return
                cursor[0] += 1
            t0 = time.perf_counter()
            try:
                body = post_multiply(base, schedule[i])
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                with lock:
                    errors.append(f"request {i}: {exc!r}")
                continue
            dt = (time.perf_counter() - t0) * 1e3
            with lock:
                results[i] = body
                latencies.append(dt)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, latencies, errors


def percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(len(sorted_vals) * q))
    return sorted_vals[idx]


def run_bench(*, clients: int, requests: int, seed: int,
              engine: str) -> dict:
    names = MATRICES[: max(2, min(len(MATRICES), requests))]
    digests = reference_digests(set(names))
    rng = random.Random(seed)
    schedule = [{"matrix": rng.choice(names)} for _ in range(requests)]

    # chaos: delay the 2nd executed request; exhaust the chunk pool at
    # the 5th admission, which only the larger tiny matrices reach, and
    # overflow the scratchpad in the restart round that follows, so
    # exactly those primaries fail (tiny-uniform and tiny-powerlaw stay
    # below 5 admissions and succeed) — all must still resolve
    plan = FaultPlan(
        seed=seed,
        faults=(
            FaultSpec(kind="request_delay", at=2, delay_ms=50.0),
            FaultSpec(kind="pool_exhaust", at=5),
            FaultSpec(kind="scratchpad_overflow", stage="ESC", round=1,
                      block=0),
        ),
    )
    # overload pressure: more clients than executor+queue slots, so the
    # bounded queue must shed (typed 429), never buffer without bound
    queue_size = max(1, clients - 1)
    proc, base = start_daemon(
        queue=queue_size, executors=1, deadline_ms=CLIENT_TIMEOUT_S * 1000,
        fault_plan=plan, engine=engine,
        # the first failed primary trips the breaker, and with no
        # cooldown the next request probes the primary again: with one
        # executor every request of a succeeding matrix succeeds, so
        # the outcome mix depends on the schedule, not on timing
        breaker_threshold=1, breaker_cooldown_s=0.0,
    )
    counters = {"success": 0, "degraded": 0, "rejected": 0, "error": 0}
    digest_mismatches: list[str] = []
    try:
        t0 = time.perf_counter()
        responses, latencies, errors = closed_loop(base, schedule, clients)
        wall = time.perf_counter() - t0

        unresolved = [i for i, r in enumerate(responses) if r is None]
        for i, body in enumerate(responses):
            if body is None:
                continue
            outcome = body.get("outcome", "missing")
            counters[outcome] = counters.get(outcome, 0) + 1
            if outcome in ("success", "degraded") and body.get("result"):
                want = digests[outcome][schedule[i]["matrix"]]
                got = body["result"].get("digest")
                if got != want:
                    digest_mismatches.append(
                        f"request {i} ({schedule[i]['matrix']}): "
                        f"{got} != {want}"
                    )
        stats = get_json(base, "/stats")
        metrics_text = get_text(base, "/metrics")
    finally:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    lat = sorted(latencies)
    fired = [
        {k: v for k, v in f.items()}
        for f in stats.get("faults_fired", [])
    ]
    planned = [
        f.to_dict() for f in plan.faults if f.kind in SERVE_FAULT_KINDS
    ]
    payload = {
        "bench": "serve",
        "engine": engine,
        "clients": clients,
        "requests": requests,
        "queue": queue_size,
        "seed": seed,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(lat) / wall, 3) if wall else 0.0,
        "latency_ms": {
            "p50": round(percentile(lat, 0.50), 3),
            "p99": round(percentile(lat, 0.99), 3),
            "max": round(lat[-1], 3) if lat else 0.0,
        },
        "outcomes": counters,
        "transport_errors": errors,
        "unresolved_requests": unresolved,
        "digest_mismatches": digest_mismatches,
        "faults_planned": planned,
        "faults_fired": fired,
        "breaker_opens": stats.get("breaker_opens", 0),
        "daemon_exit_code": proc.returncode,
        "daemon_drained": "drained and stopped" in out,
        "metrics_scraped": "repro_serve_requests_total" in metrics_text,
        "gates": {},
    }
    resolved = sum(counters.values())
    payload["gates"] = {
        "zero_hangs": not errors,
        "zero_drops": not unresolved and resolved == requests,
        "byte_identical": not digest_mismatches,
        "chaos_deterministic": fired == planned,
        "breaker_tripped": payload["breaker_opens"] >= 1,
        "both_outcomes": counters["success"] >= 1 and counters["degraded"] >= 1,
        "clean_shutdown": proc.returncode == 0 and payload["daemon_drained"],
    }
    payload["ok"] = all(payload["gates"].values())
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scope: few clients, few requests")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--engine", default="batched", choices=tuple(ENGINES))
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args()
    clients = 3 if args.smoke else args.clients
    requests = 12 if args.smoke else args.requests

    payload = run_bench(clients=clients, requests=requests,
                        seed=args.seed, engine=args.engine)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["gates"], indent=2))
    print(
        f"serve bench: {payload['outcomes']} over {requests} requests, "
        f"p50={payload['latency_ms']['p50']}ms "
        f"p99={payload['latency_ms']['p99']}ms "
        f"({payload['throughput_rps']} rps); wrote {args.out}"
    )
    if not payload["ok"]:
        print("GATES FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
