"""Campaign worker: executes cells pulled from a shared queue.

One loop, :func:`worker_main`, serves every worker count: the
coordinator runs it as worker 0 over the matrices it built, each
spawned worker over the coordinator's shared-memory operands.  It runs
one cell at a time through the bench harness and checkpoints every
outcome — success or exhausted retry budget — to its own JSONL shard.
Failed cells are *recorded*, never dropped: the merged artifact
carries their error context so a campaign over an adversarial
collection still yields one complete, deterministic document.

Liveness is observable and termination is graceful:

* An empty queue no longer makes a worker vanish silently after 60 s.
  The worker polls, appends ``heartbeat`` diagnostic lines to its shard
  while idle, and — once the starvation window elapses — checkpoints a
  typed :class:`~repro.resilience.errors.WorkerStarved` diagnostic
  before exiting, so a wedged queue (dead parent, lost sentinel) is
  attributable post-mortem.  Diagnostic lines carry no ``id``/``key``
  and are therefore invisible to the resume/merge machinery.
* ``SIGTERM`` drains: the in-flight cell finishes and is fsynced to the
  shard, shared-memory mappings are closed, a ``sigterm-drain``
  diagnostic is recorded, and the loop returns ``True`` (a spawned
  worker exits 0; the coordinator stops the campaign).  (``SIGKILL``
  safety — torn final line, shard resume — is covered separately.)
* An optional per-cell wallclock timeout raises typed
  :class:`~repro.resilience.errors.DeadlineExceeded` inside the attempt
  loop, counting against the existing retry budget like any other
  failure.
"""

from __future__ import annotations

import hashlib
import json
import queue as queue_mod
import signal
import threading
import time
import traceback
from contextlib import nullcontext

from ..baselines.registry import make_algorithm
from ..bench.harness import MatrixCase, run_case
from ..obs.trace import (
    RequestTrace,
    TraceContext,
    derive_span_id,
    derive_trace_id,
    use_trace,
)
from ..resilience.errors import DeadlineExceeded, ReproError, WorkerStarved
from .plan import (
    CampaignConfig,
    CellSpec,
    cell_key,
    cell_options,
    config_entries,
    enumerate_cells,
    matrix_fingerprint,
)
from .store import ShardWriter

__all__ = ["campaign_trace_meta", "execute_cell", "worker_main"]


def campaign_trace_meta(config: CampaignConfig) -> dict:
    """The campaign's trace hand-off pair, derived from the plan alone.

    Every worker (the coordinator included) derives the same
    ``{"trace_id", "parent_id"}`` from the canonical config JSON, so a
    cell's trace ids are identical no matter which worker executes it —
    the same worker-independence rule as the checkpoint ``key``.
    """
    text = json.dumps(
        config.to_json(), sort_keys=True, default=str, separators=(",", ":")
    )
    content = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    trace_id = derive_trace_id(content, 0)
    return {
        "trace_id": trace_id,
        "parent_id": derive_span_id(trace_id, "", "campaign", 0),
    }

#: queue poll interval: bounds both SIGTERM-drain latency and the
#: resolution of the starvation clock
_POLL_SECONDS = 0.5

#: idle seconds between heartbeat diagnostic lines
_HEARTBEAT_SECONDS = 15.0

#: idle seconds after which a worker records WorkerStarved and exits
DEFAULT_STARVE_TIMEOUT = 60.0


def _algorithm_for(cell: CellSpec, options):
    """The cell's algorithm: a registered backend built with the
    campaign's pipeline options, anything else by its plain name."""
    opts = cell_options(cell.algorithm, options)
    if opts is None:
        return cell.algorithm
    return make_algorithm(cell.algorithm, options=opts)


def _raise_cell_deadline(signum, frame):
    raise DeadlineExceeded("cell wallclock timeout", stage="cell")


def execute_cell(
    case: MatrixCase,
    cell: CellSpec,
    config: CampaignConfig,
    *,
    key: str,
    worker: int,
    runner=None,
    cell_timeout: float | None = None,
    trace_meta: dict | None = None,
) -> dict:
    """Run one cell under the per-cell retry budget.

    Returns the checkpoint line.  ``runner`` is injectable for tests;
    it defaults to :func:`repro.bench.harness.run_case`.  A cell that
    keeps failing after ``config.retries`` extra attempts is recorded
    with ``status: "failed"`` and the typed error context instead of
    being dropped.

    ``cell_timeout`` (seconds, runtime knob — never part of the plan)
    bounds each attempt's wallclock via ``SIGALRM``; an expired attempt
    raises typed :class:`DeadlineExceeded` and consumes one retry like
    any other failure.  The alarm is only armed on the main thread of a
    process (always true for spawned campaign workers); elsewhere the
    timeout is a no-op rather than a wrong answer.

    ``trace_meta`` (see :func:`campaign_trace_meta`) opts the cell into
    request tracing: the attempts run under an ambient per-cell trace
    (cell span ids derive from ``cell.index``, so they are identical
    whichever worker ran it) and the checkpoint line gains a ``trace``
    field — outside :data:`repro.campaign.store._ARTIFACT_FIELDS`, so
    the merged artifact stays byte-identical.
    """
    import numpy as np

    run = runner if runner is not None else run_case
    dtype = np.dtype(cell.dtype)  # validated by CampaignConfig
    options = config.options()
    trace = None
    if trace_meta is not None:
        ctx = TraceContext(
            trace_id=trace_meta["trace_id"],
            span_id=derive_span_id(
                trace_meta["trace_id"], trace_meta["parent_id"],
                "cell", cell.index,
            ),
        )
        trace = RequestTrace(
            ctx, name="cell", cell=cell.id, key=key, worker=worker
        )
    use_alarm = (
        cell_timeout is not None
        and cell_timeout > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    attempts = 0
    error: dict | None = None
    record = None
    status = "failed"
    t0 = time.monotonic()
    while attempts <= config.retries:
        attempts += 1
        prev_handler = None
        att_span = (
            trace.start_span("attempt", attempt=attempts)
            if trace is not None
            else None
        )
        try:
            if use_alarm:
                prev_handler = signal.signal(signal.SIGALRM, _raise_cell_deadline)
                signal.setitimer(signal.ITIMER_REAL, cell_timeout)
            with (
                use_trace(trace, att_span)
                if trace is not None
                else nullcontext()
            ):
                rec = run(
                    case,
                    _algorithm_for(cell, options),
                    dtype.type,
                    verify=config.verify,
                )
            if trace is not None:
                trace.end_span(att_span)
            record = rec.to_json()
            status = "ok" if attempts == 1 else "retried"
            error = None
            break
        except ReproError as exc:
            error = exc.context()
            if trace is not None:
                trace.end_span(
                    att_span, status="error", error=exc.one_line()
                )
        except Exception as exc:  # noqa: BLE001 - isolation by design
            error = {
                "kind": type(exc).__name__,
                "message": str(exc),
                "trace": traceback.format_exc(limit=3),
            }
            if trace is not None:
                trace.end_span(
                    att_span, status="error", error=type(exc).__name__
                )
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                if prev_handler is not None:
                    signal.signal(signal.SIGALRM, prev_handler)
    line = {
        "id": cell.id,
        "key": key,
        "status": status,
        "attempts": attempts,
        "record": record,
        "error": error,
        "worker": worker,
        "t_host": round(time.monotonic() - t0, 6),
    }
    if trace is not None:
        trace.release(status=status, attempts=attempts)
        line["trace"] = {
            "trace_id": trace.trace_id,
            "span_id": trace.root.span_id,
        }
    return line


def worker_main(
    directory: str,
    worker: int,
    config_json: dict,
    work_queue,
    throttle: float = 0.0,
    operands: dict | None = None,
    cell_timeout: float | None = None,
    starve_timeout: float = DEFAULT_STARVE_TIMEOUT,
    trace_meta: dict | None = None,
    built: dict | None = None,
    on_cell=None,
) -> bool:
    """The campaign's cell loop; returns whether ``SIGTERM`` drained it.

    Pulls cell indices from ``work_queue`` until it sees ``None``.
    ``built`` maps matrix names to ``(matrix, fingerprint)`` pairs the
    caller already holds (the coordinator's own matrices); ``operands``
    maps them to shared-memory attachment descriptors plus the
    coordinator-computed fingerprint, which a spawned worker maps
    zero-copy.  Matrices in neither are rebuilt from the deterministic
    seeded generators, on demand and memoised per worker.  ``on_cell``
    is called after each checkpoint.  ``throttle`` is a runtime test
    hook (a sleep after each cell so kill/resume tests can interrupt a
    campaign deterministically); it never enters the plan or artifact.

    The ``SIGTERM`` drain handler is installed only while the loop runs.
    See the module docstring for starvation, SIGTERM-drain and
    per-cell-timeout semantics.
    """
    config = CampaignConfig.from_json(config_json)
    cells = enumerate_cells(config)
    entries = {e.name: e for e in config_entries(config)}
    built = built or {}
    cases: dict[str, tuple[MatrixCase, str]] = {}  # with the fingerprint
    mappings = []  # SharedCSR handles kept alive while their views are
    writer = ShardWriter(directory, worker)
    draining = threading.Event()
    prev_term = None
    if threading.current_thread() is threading.main_thread():
        prev_term = signal.signal(signal.SIGTERM, lambda s, f: draining.set())
    idle_since: float | None = None
    last_beat = 0.0
    try:
        while not draining.is_set():
            try:
                index = work_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                    last_beat = now
                waited = now - idle_since
                if waited >= starve_timeout:
                    err = WorkerStarved(
                        f"work queue empty for {waited:.1f}s "
                        f"(starvation window {starve_timeout:.1f}s); "
                        "worker exiting so the stall is attributable",
                        stage="campaign",
                        block_id=worker,
                    )
                    writer.append({
                        "kind": "diagnostic", "event": "starved",
                        "worker": worker, "waited_s": round(waited, 3),
                        "error": err.context(),
                    })
                    break
                if now - last_beat >= _HEARTBEAT_SECONDS:
                    last_beat = now
                    writer.append({
                        "kind": "heartbeat", "worker": worker,
                        "waited_s": round(waited, 3),
                    })
                continue
            idle_since = None
            if index is None:
                break
            cell = cells[index]
            if cell.matrix not in cases:
                entry = entries[cell.matrix]
                placed = (operands or {}).get(cell.matrix)
                if cell.matrix in built:
                    matrix, fp = built[cell.matrix]
                elif placed is not None:
                    from ..engine.shm import SharedCSR

                    mappings.append(SharedCSR.attach(placed["shm"]))
                    matrix, fp = mappings[-1].matrix(), placed["fingerprint"]
                else:
                    matrix = entry.build()
                    fp = matrix_fingerprint(matrix)
                case = MatrixCase(cell.matrix, matrix, family=entry.family)
                cases[cell.matrix] = (case, fp)
            case, fp = cases[cell.matrix]
            line = execute_cell(
                case, cell, config, key=cell_key(cell, fp, config),
                worker=worker, cell_timeout=cell_timeout, trace_meta=trace_meta,
            )
            writer.append(line)
            if on_cell is not None:
                on_cell()
            if throttle:
                time.sleep(throttle)
    finally:
        if prev_term is not None:
            signal.signal(signal.SIGTERM, prev_term)
        if draining.is_set():
            # the in-flight cell above completed and was fsynced before
            # this marker: SIGTERM drains, it never tears a checkpoint
            writer.append(
                {"kind": "diagnostic", "event": "sigterm-drain", "worker": worker}
            )
        writer.close()
        cases.clear()  # drop the views before their mappings close
        case = matrix = None
        for handle in mappings:
            handle.close()
    return draining.is_set()
