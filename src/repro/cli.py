"""Command-line runner mirroring the paper's artifact workflow.

The artifact (Appendix A.4) operates in two modes:

* **Single matrix** — run the framework for one matrix, optionally
  confirming the result against a host (CPU) implementation;
* **Complete testrun** — a ``runall`` script that calls the framework
  for every matrix in a folder, producing a ``.csv`` with matrix
  statistics and timing measurements.

Usage::

    python -m repro.cli single path/to/matrix.mtx [--verify] [--float]
    python -m repro.cli runall path/to/folder --out results.csv
    python -m repro.cli suite --out results.csv [--limit N]
    python -m repro.cli compare path/to/matrix.mtx
    python -m repro.cli serve --port 8080

``suite`` runs the built-in synthetic collection instead of a folder of
``.mtx`` files (useful offline); ``compare`` runs the full algorithm
line-up on one matrix.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .backends import available_backends
from .baselines import GPU_ALGORITHMS, ProductPlan, make_algorithm
from .core import DEFAULT_OPTIONS, AcSpgemmOptions
from .engine import ENGINES
from .resilience import ReproError
from .sparse import (
    count_intermediate_products,
    load_matrix,
    matrix_stats,
    spgemm_reference,
    squared_operands,
)

CSV_HEADERS = [
    "matrix",
    "rows",
    "cols",
    "nnz",
    "avg_row_len",
    "max_row_len",
    "temp_products",
    "nnz_c",
    "sim_ms",
    "gflops",
    "chunks",
    "shared_rows",
    "restarts",
    "degraded",
    "engine",
    "dispatched_to",
    "verified",
]

#: host execution engines of the AC-SpGEMM pipeline (identical results)
HOST_ENGINES = tuple(ENGINES)

#: every ``--engine`` default, and the host engine under a backend
DEFAULT_ENGINE = DEFAULT_OPTIONS.engine

#: the backend a host-engine name selects: ``--engine reference``
#: runs AC-SpGEMM stepped by the reference engine
HOST_BACKEND = "ac-spgemm"


def _backend_and_host(engine: str) -> tuple[str, str]:
    """The registered backend an ``--engine`` name runs, and the host
    engine stepping its pipeline."""
    if engine in HOST_ENGINES:
        return HOST_BACKEND, engine
    return engine, DEFAULT_ENGINE


def _workers_arg(value: str):
    """``--workers`` accepts an integer or ``auto`` (one per core)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _run_one(
    name: str,
    matrix,
    *,
    dtype,
    verify: bool,
    engine: str = DEFAULT_ENGINE,
    sanitize: bool = False,
    fallback: bool = False,
    estimator: str = "uniform",
) -> dict:
    from .backends import run_backend

    a, b = squared_operands(matrix)
    backend, host = _backend_and_host(engine)
    opts = AcSpgemmOptions(
        value_dtype=dtype,
        engine=host,
        estimator=estimator,
        sanitize=sanitize,
        on_failure="fallback" if fallback else "raise",
    )
    result = run_backend(backend, a, b, opts)
    temp = count_intermediate_products(a, b)
    verified = ""
    if verify:
        ref = spgemm_reference(a.astype(dtype), b.astype(dtype))
        verified = str(result.matrix.allclose(
            ref, rtol=1e-4 if dtype == np.float32 else 1e-10
        ))
    st = matrix_stats(matrix)
    return {
        "matrix": name,
        "rows": st.rows,
        "cols": st.cols,
        "nnz": st.nnz,
        "avg_row_len": round(st.mean_row_length, 2),
        "max_row_len": st.max_row_length,
        "temp_products": temp,
        "nnz_c": result.matrix.nnz,
        "sim_ms": round(result.seconds * 1e3, 4),
        "gflops": round(2.0 * temp / result.seconds / 1e9, 3)
        if result.seconds
        else 0.0,
        "chunks": result.n_chunks,
        "shared_rows": result.shared_rows,
        "restarts": result.restarts,
        # three-valued: "" = fallback not enabled, "False" = fallback
        # armed but the run stayed clean, "True" = degraded run
        "degraded": str(result.degraded) if fallback else "",
        "engine": engine,
        "dispatched_to": result.dispatched_to or "",
        "verified": verified,
    }


def _print_row(row: dict) -> None:
    for k, v in row.items():
        print(f"  {k:14s} {v}")


def cmd_single(args) -> int:
    """Run AC-SpGEMM on one matrix file, optionally CPU-verified."""
    matrix = load_matrix(args.matrix)
    dtype = np.float32 if args.float else np.float64
    row = _run_one(
        Path(args.matrix).stem, matrix,
        dtype=dtype, verify=args.verify, engine=args.engine,
        sanitize=args.sanitize, fallback=args.fallback,
        estimator=args.estimator,
    )
    label = "AC-SpGEMM" if args.engine in HOST_ENGINES else args.engine
    print(f"{label} on {args.matrix} "
          f"({'single' if args.float else 'double'} precision):")
    _print_row(row)
    if args.verify and row["verified"] != "True":
        print("VERIFICATION FAILED", file=sys.stderr)
        return 1
    return 0


def _write_rows(out: str | None, rows: list[dict]) -> None:
    if not out:
        return
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADERS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")


def cmd_runall(args) -> int:
    """Run every .mtx/.npz matrix in a folder; failures are isolated."""
    folder = Path(args.folder)
    files = sorted(folder.glob("*.mtx")) + sorted(folder.glob("*.npz"))
    if not files:
        print(f"no .mtx/.npz matrices under {folder}", file=sys.stderr)
        return 1
    dtype = np.float32 if args.float else np.float64
    rows = []
    for f in files:
        # each matrix is isolated: a failure must not impede the rest
        # (the artifact runs each test as a separate process for this)
        try:
            rows.append(
                _run_one(f.stem, load_matrix(f), dtype=dtype,
                         verify=args.verify, engine=args.engine,
                         sanitize=args.sanitize, fallback=args.fallback,
                         estimator=args.estimator)
            )
            print(f"{f.stem}: {rows[-1]['gflops']} GFLOPS")
        except Exception as exc:  # noqa: BLE001 - isolation by design
            print(f"{f.stem}: FAILED ({exc})", file=sys.stderr)
    _write_rows(args.out, rows)
    return 0


def cmd_suite(args) -> int:
    """Run the built-in synthetic suite (no matrix files needed)."""
    from .matrices import suite_entries

    dtype = np.float32 if args.float else np.float64
    rows = []
    for e in suite_entries()[: args.limit]:
        rows.append(_run_one(e.name, e.build(), dtype=dtype,
                             verify=args.verify, engine=args.engine,
                             sanitize=args.sanitize, fallback=args.fallback,
                             estimator=args.estimator))
        print(f"{e.name}: {rows[-1]['gflops']} GFLOPS")
    _write_rows(args.out, rows)
    return 0


def _load_matrix_spec(spec: str):
    """Resolve a matrix file path or a ``suite:NAME`` suite entry."""
    if spec.startswith("suite:"):
        from .matrices import suite_entries

        name = spec[len("suite:"):]
        for e in suite_entries():
            if e.name == name:
                return name, e.build()
        raise SystemExit(f"unknown suite entry {name!r}")
    return Path(spec).stem, load_matrix(spec)


def cmd_analyze(args) -> int:
    """Instrumented single run: stage report, paper-figure reports,
    Perfetto timeline and gate metrics from one traced run."""
    from .backends import run_backend
    from .obs.analyze import analyze_result
    from .obs.export import perfetto_payload, write_perfetto

    name, matrix = _load_matrix_spec(args.matrix)
    a, b = squared_operands(matrix)
    backend, host = _backend_and_host(args.engine)
    opts = AcSpgemmOptions(
        value_dtype=np.float32 if args.float else np.float64,
        engine=host,
        estimator=args.estimator,
        sanitize=args.sanitize,
        on_failure="fallback" if args.fallback else "raise",
        device_trace=True,
    )
    result = run_backend(backend, a, b, opts)
    label = "" if args.engine in HOST_ENGINES else args.engine
    if result.dispatched_to:
        label = f"{args.engine}->{result.dispatched_to}"
    report = analyze_result(result, opts, matrix_name=name, engine=label)
    print(report.text())
    if args.json_out:
        out = report.write_json(args.json_out)
        print(f"wrote analysis JSON to {out}")
    if args.metrics_out:
        out = report.write_metrics(args.metrics_out)
        print(f"wrote gate metrics to {out}")
    if args.html_out:
        out = report.write_html(args.html_out)
        print(f"wrote HTML report to {out}")
    if args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(result.device_trace.to_json())
        print(f"wrote device trace to {out}")
    if args.perfetto_out:
        out = write_perfetto(
            args.perfetto_out,
            perfetto_payload(
                spans=result.spans,
                device=result.device_trace,
                routing=getattr(result, "routing_audit", None),
                clock_ghz=result.clock_ghz,
            ),
        )
        print(f"wrote Perfetto timeline to {out}")
    return 0


def cmd_multinode(args) -> int:
    """Multi-device SUMMA run: pipelined rounds, link counters, verify."""
    import json as _json

    from .backends import run_backend
    from .multi import NodeConfig, summa_spgemm
    from .obs.export import summa_perfetto_payload, write_perfetto

    name, matrix = _load_matrix_spec(args.matrix)
    a, b = squared_operands(matrix)
    node = NodeConfig(devices=args.devices)
    opts = AcSpgemmOptions(
        value_dtype=np.float32 if args.float else np.float64,
        engine=args.engine,
        on_failure="fallback" if args.fallback else "raise",
        device_trace=bool(args.perfetto_out),
    )
    res = summa_spgemm(
        a, b, node, opts,
        backend=args.backend,
        pipelined=not args.blocking,
    )
    recon = res.reconcile()
    print(f"matrix         {name}")
    print(f"devices        {res.devices} ({res.grid}x{res.grid} grid, "
          f"backend={args.backend}, "
          f"{'blocking' if args.blocking else 'pipelined'})")
    print(f"C              {res.matrix.rows}x{res.matrix.cols}, "
          f"nnz={res.matrix.nnz}")
    print(f"makespan       {res.makespan_cycles:.0f} cycles "
          f"({res.seconds * 1e3:.4f} ms)")
    print(f"  pipelined    {res.makespan_pipelined:.0f}")
    print(f"  blocking     {res.makespan_blocking:.0f}")
    print(f"  overlap hid  {res.overlap_saved_cycles:.0f}")
    for rec in res.round_records:
        print(f"round {rec['round']}  color={rec['color']}  "
              f"[{rec['start']:.0f}, {rec['end']:.0f}]  "
              f"exposed bcast {rec['exposed_broadcast_cycles']:.0f}")
    for key in sorted(res.link_counters):
        snap = res.link_counters[key].snapshot()
        print(f"link {key:12s} broadcasts={snap['broadcasts']} "
              f"bytes={snap['bytes_sent']} busy={snap['busy_cycles']:.0f}")
    print(f"reconcile      exact ({', '.join(k for k in sorted(recon) if recon[k] is True)})")
    if res.degraded_tiles:
        print(f"degraded tiles {res.degraded_tiles}")
    verified = None
    if args.verify:
        single = run_backend(args.backend, a, b, opts)
        exact = res.matrix.exactly_equal(single.matrix)
        pattern = (
            res.matrix.row_ptr.tobytes() == single.matrix.row_ptr.tobytes()
            and res.matrix.col_idx.tobytes() == single.matrix.col_idx.tobytes()
        )
        close = res.matrix.allclose(single.matrix, rtol=1e-10)
        verified = {"exact": exact, "pattern": pattern, "allclose": close}
        print(f"verify         vs single device: exact={exact} "
              f"pattern={pattern} allclose={close}")
        if not (pattern and close):
            return 1
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"matrix": name, **res.summary(), "reconcile": recon}
        if verified is not None:
            payload["verified"] = verified
        out.write_text(_json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote summary JSON to {out}")
    if args.perfetto_out:
        out = write_perfetto(args.perfetto_out, summa_perfetto_payload(res))
        print(f"wrote Perfetto timeline to {out}")
    return 0


def cmd_campaign(args) -> int:
    """Sharded, resumable sweep campaign over a matrix collection."""
    from .campaign import CampaignConfig, CampaignRunner

    config = CampaignConfig(
        suite=args.suite,
        limit=args.limit,
        algorithms=tuple(args.algorithms.split(","))
        if args.algorithms
        else CampaignConfig().algorithms,
        dtypes=("float32", "float64")
        if args.dtypes == "both"
        else (args.dtypes,),
        engine=args.engine,
        estimator=args.estimator,
        sanitize=args.sanitize,
        fallback=args.fallback,
        verify=args.verify,
        retries=args.retries,
    )

    def progress(done: int, total: int) -> None:
        print(f"\rcampaign: {done}/{total} cells", end="", flush=True)

    runner = CampaignRunner(
        args.dir,
        config,
        workers=args.workers,
        progress=progress if not args.quiet else None,
        throttle=args.throttle,
    )
    result = runner.run()
    if not args.quiet:
        print()
    s = result.stats
    print(
        f"campaign complete: {s['cells']} cells "
        f"({s['resumed']} resumed, {s['executed']} executed) in {s['wall_seconds']:.2f}s "
        f"with {s['workers']} worker(s)"
    )
    print(f"merged artifact: {result.artifact_path}")
    if args.metrics_out:
        import json

        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result.metrics.to_json(), indent=2))
        print(f"wrote campaign metrics JSON to {out}")
    if args.prom_out:
        out = Path(args.prom_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(result.metrics.to_prometheus())
        print(f"wrote campaign Prometheus metrics to {out}")
    failed = result.failed_cells
    if failed:
        print(
            f"{len(failed)} cells failed after retries "
            f"(first: {failed[0]})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve(args) -> int:
    """Run the SpGEMM-as-a-service daemon until SIGTERM/SIGINT."""
    from .resilience.faults import FaultPlan
    from .serve import ServeConfig, make_server, run_server

    fault_plan = None
    if args.fault_plan:
        text = args.fault_plan
        if text.startswith("@"):
            text = Path(text[1:]).read_text(encoding="utf-8")
        fault_plan = FaultPlan.from_json(text)
    config = ServeConfig(
        engine=args.engine,
        backend=args.backend,
        executors=args.executors,
        max_queue=args.queue,
        default_deadline_ms=args.deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache_size=args.cache,
        fault_plan=fault_plan,
        flight_log=args.flight_log,
        trace_store=args.trace_store,
    )
    server = make_server(config, host=args.host, port=args.port,
                         verbose=args.verbose)
    return run_server(server, quiet=args.quiet)


def cmd_compare(args) -> int:
    """Run the full GPU algorithm line-up on one matrix."""
    matrix = load_matrix(args.matrix)
    a, b = squared_operands(matrix)
    temp = count_intermediate_products(a, b)
    dtype = np.float32 if args.float else np.float64
    print(f"{args.matrix}: nnz={matrix.nnz}, temp={temp}")
    results = {}
    lineup = GPU_ALGORITHMS + tuple(
        n for n in available_backends() if n not in GPU_ALGORITHMS
    )
    plan = ProductPlan(a, b)  # the baselines' shared products
    for name in lineup:
        run = make_algorithm(name).multiply(a, b, dtype=dtype, plan=plan)
        results[name] = run
        stable = "bit-stable" if run.bit_stable else "not bit-stable"
        routed = getattr(run, "dispatched_to", None)
        suffix = f"  -> {routed}" if routed else ""
        print(f"  {name:16s} {run.gflops(temp):8.3f} GFLOPS  "
              f"({stable}){suffix}")
    best = max(results, key=lambda k: results[k].gflops(temp))
    print(f"fastest: {best}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AC-SpGEMM reproduction runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --engine: a host engine, or any other registered backend
    engine_choices = HOST_ENGINES + tuple(
        n for n in available_backends() if n != HOST_BACKEND
    )

    p = sub.add_parser("single", help="run AC-SpGEMM on one matrix file")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true",
                   help="confirm against the CPU reference (artifact A.6)")
    p.add_argument("--float", action="store_true", help="single precision")
    p.add_argument("--engine", default=DEFAULT_ENGINE,
                   choices=engine_choices,
                   help="host execution engine, or a registered backend "
                        "('adaptive' routes each multiply per its structure)")
    p.add_argument("--estimator", default="uniform",
                   choices=("uniform", "sampling"),
                   help="chunk-pool size estimator (sampling = OCEAN-style "
                        "sampled symbolic pass)")
    p.add_argument("--sanitize", action="store_true",
                   help="check pipeline invariants at stage boundaries")
    p.add_argument("--fallback", action="store_true",
                   help="degrade to the global-ESC baseline on failure")
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("runall", help="run every matrix in a folder")
    p.add_argument("folder")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--float", action="store_true")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=engine_choices)
    p.add_argument("--estimator", default="uniform",
                   choices=("uniform", "sampling"))
    p.add_argument("--sanitize", action="store_true")
    p.add_argument("--fallback", action="store_true")
    p.set_defaults(func=cmd_runall)

    p = sub.add_parser("suite", help="run the built-in synthetic suite")
    p.add_argument("--out", default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--float", action="store_true")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=engine_choices)
    p.add_argument("--estimator", default="uniform",
                   choices=("uniform", "sampling"))
    p.add_argument("--sanitize", action="store_true")
    p.add_argument("--fallback", action="store_true")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "analyze",
        help="instrumented single run: stage report, paper-figure "
             "reports, Perfetto timeline, gate metrics",
    )
    p.add_argument("matrix",
                   help="matrix file path, or suite:NAME for a suite entry")
    p.add_argument("--float", action="store_true", help="single precision")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=engine_choices)
    p.add_argument("--estimator", default="uniform",
                   choices=("uniform", "sampling"))
    p.add_argument("--sanitize", action="store_true")
    p.add_argument("--fallback", action="store_true",
                   help="degrade on failure (trace gets a truncation marker)")
    p.add_argument("--json-out", default=None,
                   help="write the full analysis report JSON")
    p.add_argument("--metrics-out", default=None,
                   help="write the flat gate metrics (bench_compare input)")
    p.add_argument("--html-out", default=None,
                   help="write the self-contained HTML report")
    p.add_argument("--trace-out", default=None,
                   help="write the raw device trace JSON (byte-identical "
                        "across engines)")
    p.add_argument("--perfetto-out", default=None,
                   help="write a Perfetto timeline: pipeline spans plus "
                        "per-SM tracks")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "multinode",
        help="multi-device SUMMA run with 4-colour pipelined broadcasts",
    )
    p.add_argument("matrix",
                   help="matrix file path, or suite:NAME for a suite entry")
    p.add_argument("--devices", type=int, default=4,
                   help="simulated devices P (perfect square; 1, 4, 9, ...)")
    p.add_argument("--backend", default="adaptive",
                   choices=available_backends(),
                   help="registered backend executing each local tile "
                        "multiply ('adaptive' routes per tile)")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=HOST_ENGINES,
                   help="host execution engine for the tile pipelines")
    p.add_argument("--blocking", action="store_true",
                   help="single-buffer blocking broadcasts instead of the "
                        "4-colour pipeline (for overlap A/B comparisons)")
    p.add_argument("--float", action="store_true", help="single precision")
    p.add_argument("--fallback", action="store_true",
                   help="degrade failing tiles instead of raising")
    p.add_argument("--verify", action="store_true",
                   help="compare the merged C against a single-device run "
                        "(pattern must match bytewise; exit 1 otherwise)")
    p.add_argument("--json-out", default=None,
                   help="write the summary + reconcile JSON")
    p.add_argument("--perfetto-out", default=None,
                   help="write a per-device Perfetto timeline (distinct "
                        "process rows per device)")
    p.set_defaults(func=cmd_multinode)

    p = sub.add_parser(
        "campaign",
        help="sharded, resumable sweep campaign over a matrix collection",
    )
    p.add_argument("--suite", default="suite",
                   choices=("tiny", "suite", "named", "full"),
                   help="matrix collection (full = suite + named, the "
                        "figure 9-12 population)")
    p.add_argument("--limit", type=int, default=None,
                   help="only the first N matrices of the collection")
    p.add_argument("--workers", type=_workers_arg, default=1,
                   help="worker processes (1 = inline execution, "
                        "'auto' = one per CPU core)")
    p.add_argument("--dir", default="results/campaign",
                   help="campaign directory (plan, shards, artifact)")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated algorithm subset")
    p.add_argument("--dtypes", default="float64",
                   choices=("float32", "float64", "both"))
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=HOST_ENGINES)
    p.add_argument("--estimator", default="uniform",
                   choices=("uniform", "sampling"),
                   help="chunk-pool size estimator for registered-backend "
                        "cells (ac-spgemm, adaptive, hash engines)")
    p.add_argument("--sanitize", action="store_true")
    p.add_argument("--fallback", action="store_true",
                   help="degrade failing cells to global ESC instead of "
                        "recording a failure")
    p.add_argument("--verify", action="store_true",
                   help="CPU-verify every cell (slow)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failing cell before it is "
                        "recorded as failed")
    p.add_argument("--throttle", type=float, default=0.0,
                   help=argparse.SUPPRESS)  # kill/resume test hook
    p.add_argument("--metrics-out", default=None,
                   help="write campaign metrics JSON")
    p.add_argument("--prom-out", default=None,
                   help="write campaign Prometheus text metrics")
    p.add_argument("--quiet", action="store_true",
                   help="suppress live progress output")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="SpGEMM-as-a-service daemon (in-process batched pipeline)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; the chosen port is "
                        "printed in the listening line)")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=HOST_ENGINES,
                   help="primary execution engine (identical results)")
    p.add_argument("--backend", default="ac-spgemm",
                   choices=available_backends(),
                   help="registered backend serving primary multiplies "
                        "('adaptive' routes each request per its structure)")
    p.add_argument("--executors", type=int, default=2,
                   help="executor threads draining the admission queue")
    p.add_argument("--queue", type=int, default=8,
                   help="bounded admission queue capacity (full = HTTP 429)")
    p.add_argument("--deadline-ms", type=float, default=30000.0,
                   help="default per-request deadline (expired = HTTP 504)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive failures that trip the circuit breaker")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds the tripped breaker stays open")
    p.add_argument("--cache", type=int, default=128,
                   help="content-addressed result cache entries")
    p.add_argument("--shm-prefix", default="repro-serve-",
                   help="accepted and ignored: the daemon creates no "
                        "shared memory")
    p.add_argument("--fault-plan", default=None,
                   help="chaos FaultPlan as JSON, or @path to a JSON file")
    p.add_argument("--flight-log", default=None,
                   help="rotating JSONL path for selector dispatch events")
    p.add_argument("--trace-store", type=int, default=256,
                   help="request traces kept for /traces inspection (LRU)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the listening/drained lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("compare", help="full algorithm line-up on one matrix")
    p.add_argument("matrix")
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # typed failures get a one-line diagnostic, never a traceback
        print(f"repro: {exc.one_line()}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
