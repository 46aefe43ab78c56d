"""The serve daemon's engine-facing core: admission, execution, caching.

:class:`ServeCore` is the HTTP-free heart of ``repro serve``.  It owns
the request lifecycle end to end and guarantees the daemon's contract:
**every admitted request resolves to exactly one typed outcome** —

``success``
    The adaptive pipeline produced the result (possibly served from the
    content-addressed cache without executing anything).
``degraded``
    The pipeline failed (or the circuit breaker is open) and the
    global-ESC fallback computed the result instead — degraded, never
    dropped, and still correct (see :mod:`repro.resilience.degrade`).
``rejected``
    The request was shed with a typed error: the bounded admission
    queue was full (:class:`~repro.resilience.errors.ServerOverloaded`,
    HTTP 429) or the deadline expired before a result was ready
    (:class:`~repro.resilience.errors.DeadlineExceeded`, HTTP 504).
``error``
    The request itself was invalid (unparseable matrix, unknown name,
    an inline matrix declaring more than :data:`MAX_INLINE_DIM` rows or
    columns); deterministic (HTTP 400/404/413).

Hardening layers, outermost first:

* **Bounded admission** — ``queue.Queue(maxsize=max_queue)``; a full
  queue rejects immediately instead of buffering without bound.
* **Deadlines** — each request waits at most ``deadline_ms`` for its
  job to finish; an expired wait is surfaced as a typed rejection.  The
  executor still finishes (and caches) the abandoned job, so the work
  is not wasted.
* **Circuit breaker** — ``breaker_threshold`` consecutive primary
  failures trip the breaker: requests route straight to the global-ESC
  fallback (degraded-not-dropped) until a cooldown elapses, then one
  half-open probe decides whether to close it again.

Execution happens in this process, on the executor threads, with the
``batched`` engine by default.  Chaos is first-class: the configured
:class:`~repro.resilience.faults.FaultPlan` rides on every primary
multiply's options, so its pipeline faults hit the pipeline's own
chokepoints (and can trip the breaker), and its serve-level
``request_delay`` faults are consulted at one deterministic chokepoint
— the 1-based *execution ordinal* assigned when an executor picks a
request up — so a chaos run is reproducible given the plan.
"""

from __future__ import annotations

import hashlib
import io
import queue
import tempfile
import threading
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bench.harness import CACHE_VERSION
from ..core import AcSpgemmOptions, ac_spgemm
from ..obs.flight import get_flight_recorder, install_flight_recorder
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from ..obs.trace import (
    RequestTrace,
    TraceContext,
    TraceStore,
    payload_fingerprint,
    use_trace,
)
from ..resilience.degrade import fallback_multiply
from ..resilience.errors import (
    DeadlineExceeded,
    PayloadTooLarge,
    ReproError,
    ServerOverloaded,
)
from ..resilience.faults import FaultPlan
from ..sparse import COOMatrix, read_matrix_market, squared_operands
from ..sparse.io import read_matrix_market_header

__all__ = ["ServeConfig", "ServeCore"]

_DTYPES = {"float32": np.float32, "float64": np.float64}

#: largest row or column count an inline (COO or MTX) matrix may
#: declare; ``row_ptr`` is sized from the declared rows before a single
#: entry is read, so the bound is checked before anything is built
MAX_INLINE_DIM = 1 << 22

_BREAKER_CLOSED = 0
_BREAKER_HALF_OPEN = 1
_BREAKER_OPEN = 2


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serve daemon (all runtime knobs, never cached)."""

    engine: str = "batched"  # pipeline engine for primary execution
    backend: str = "ac-spgemm"  # registered backend for primary execution
    executors: int = 2  # executor threads draining the queue
    max_queue: int = 8  # bounded admission queue capacity
    default_deadline_ms: float = 30_000.0  # per-request wait budget
    breaker_threshold: int = 3  # consecutive failures to trip open
    breaker_cooldown_s: float = 5.0  # open -> half-open delay
    cache_size: int = 128  # content-addressed result cache entries
    fault_plan: FaultPlan | None = None  # pipeline + serve chaos, or None
    flight_log: str | None = None  # selector flight-recorder JSONL path
    trace_store: int = 256  # finalized request traces kept (LRU)

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "backend": self.backend,
            "executors": self.executors,
            "max_queue": self.max_queue,
            "default_deadline_ms": self.default_deadline_ms,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "cache_size": self.cache_size,
            "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
            "flight_log": self.flight_log,
            "trace_store": self.trace_store,
        }


def _check_inline_dims(rows: int, cols: int) -> None:
    if rows > MAX_INLINE_DIM or cols > MAX_INLINE_DIM:
        raise PayloadTooLarge(
            f"inline matrix declares {rows}x{cols}; rows and cols may not "
            f"exceed {MAX_INLINE_DIM}",
            stage="serve",
        )


@dataclass
class _Job:
    """One admitted multiply travelling from handler to executor."""

    a: object
    b: object
    dtype: np.dtype
    cache_key: str
    matrix_fp: str
    done: threading.Event = field(default_factory=threading.Event)
    response: dict | None = None
    abandoned: bool = False  # requester gave up (deadline); finish anyway
    trace: RequestTrace | None = None  # retained for the executor thread
    request_id: str = ""
    t_enqueue: float = 0.0  # admission timestamp (queue-wait span)


class _Breaker:
    """Consecutive-failure circuit breaker (closed / open / half-open).

    Not thread-safe on its own — the core serialises calls under its
    lock.  ``clock`` is injectable so tests control the cooldown.
    """

    def __init__(self, threshold: int, cooldown_s: float, clock=time.monotonic):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0
        self.opened_at: float | None = None
        self.probing = False
        self.opens = 0  # lifetime trips, for metrics

    @property
    def state(self) -> int:
        if self.opened_at is None:
            return _BREAKER_CLOSED
        if self.clock() - self.opened_at >= self.cooldown_s:
            return _BREAKER_HALF_OPEN
        return _BREAKER_OPEN

    def route_primary(self) -> bool:
        """Should the next request try the primary pipeline?

        Closed: yes.  Open: no.  Half-open: yes for exactly one probe
        at a time; concurrent requests keep falling back until the
        probe's verdict is in.
        """
        st = self.state
        if st == _BREAKER_CLOSED:
            return True
        if st == _BREAKER_HALF_OPEN and not self.probing:
            self.probing = True
            return True
        return False

    def succeeded(self) -> None:
        self.failures = 0
        self.opened_at = None
        self.probing = False

    def failed(self) -> None:
        self.failures += 1
        self.probing = False
        if self.opened_at is not None:
            # a failed half-open probe re-opens with a fresh cooldown
            self.opened_at = self.clock()
        elif self.failures >= self.threshold:
            self.opened_at = self.clock()
            self.opens += 1

    def state_name(self) -> str:
        return ("closed", "half-open", "open")[self.state]


class ServeCore:
    """Request lifecycle owner of the serve daemon (HTTP-free).

    ``multiply`` is injectable for tests (defaults to
    :func:`repro.core.ac_spgemm`); it must accept ``(a, b, options)``
    and return an ``AcSpgemmResult``.  ``clock`` feeds the breaker.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 multiply=None, clock=time.monotonic):
        self.config = config or ServeConfig()
        if multiply is not None:
            self._multiply = multiply
        elif self.config.backend != "ac-spgemm":
            from ..backends import run_backend

            backend_name = self.config.backend

            def _backend_multiply(a, b, options):
                return run_backend(backend_name, a, b, options)

            self._multiply = _backend_multiply
        else:
            self._multiply = ac_spgemm
        self._selections: dict[str, int] = {}
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry(const_labels={"service": "repro-serve"})
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.max_queue)
        self._breaker = _Breaker(
            self.config.breaker_threshold,
            self.config.breaker_cooldown_s,
            clock,
        )
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._latencies: deque[float] = deque(maxlen=512)
        self._injector = (
            self.config.fault_plan.activate() if self.config.fault_plan else None
        )
        self.traces = TraceStore(self.config.trace_store)
        self.flight = (
            install_flight_recorder(self.config.flight_log)
            if self.config.flight_log
            else get_flight_recorder()
        )
        self._routing_errors: deque[float] = deque(maxlen=128)
        self._admitted = 0  # admission ordinals handed out (trace ids)
        self._executed = 0  # execution ordinals handed out (chaos chokepoint)
        self._accepting = True
        self._stop = threading.Event()
        # matrix registries: name -> built CSR, fingerprint -> name
        self._matrices: dict[str, object] = {}
        self._by_fingerprint: dict[str, str] = {}
        self._entries = None  # lazy name -> SuiteEntry map

        self._executors = [
            threading.Thread(
                target=self._executor_loop, name=f"serve-exec-{i}", daemon=True
            )
            for i in range(max(1, self.config.executors))
        ]
        for t in self._executors:
            t.start()

    # -- request resolution -------------------------------------------

    def _entry_map(self):
        if self._entries is None:
            from ..campaign.plan import tiny_entries
            from ..matrices.collection import NAMED_COLLECTION
            from ..matrices.suite import suite_entries

            self._entries = {}
            for e in list(tiny_entries()) + list(suite_entries()) + list(
                NAMED_COLLECTION
            ):
                self._entries.setdefault(e.name, e)
        return self._entries

    def _register_matrix(self, name: str, matrix) -> str:
        from ..campaign.plan import matrix_fingerprint

        fp = matrix_fingerprint(matrix)
        with self._lock:
            self._matrices[name] = matrix
            self._by_fingerprint[fp] = name
        return fp

    def _resolve_matrix(self, payload: dict):
        """The operand matrix of one request: ``(name, matrix, fp)``.

        Raises ``LookupError`` for unknown identifiers (HTTP 404),
        ``ValueError`` / typed I-O errors for malformed inline matrices
        (HTTP 400) and :class:`PayloadTooLarge` for inline matrices
        declaring more than :data:`MAX_INLINE_DIM` rows or columns
        (HTTP 413).
        """
        from ..campaign.plan import matrix_fingerprint

        if "matrix" in payload:
            name = str(payload["matrix"])
            with self._lock:
                m = self._matrices.get(name)
            if m is None:
                entry = self._entry_map().get(name)
                if entry is None:
                    raise LookupError(f"unknown matrix {name!r}")
                m = entry.build()
                return name, m, self._register_matrix(name, m)
            return name, m, matrix_fingerprint(m)
        if "matrix_hash" in payload:
            fp = str(payload["matrix_hash"])
            with self._lock:
                name = self._by_fingerprint.get(fp)
                m = self._matrices.get(name) if name else None
            if m is None:
                raise LookupError(
                    f"unknown matrix hash {fp!r} (matrices are registered "
                    "the first time they are served by name or inline)"
                )
            return name, m, fp
        if "coo" in payload:
            d = payload["coo"]
            try:
                rows, cols = int(d["rows"]), int(d["cols"])
                _check_inline_dims(rows, cols)
                m = COOMatrix(
                    rows=rows,
                    cols=cols,
                    row_idx=np.asarray(d["row_idx"], dtype=np.int64),
                    col_idx=np.asarray(d["col_idx"], dtype=np.int64),
                    values=np.asarray(d["values"], dtype=np.float64),
                ).to_csr()
            except KeyError as exc:  # a 400, not the 404 LookupError means
                raise ValueError(f"coo payload missing field {exc}") from None
            fp = self._register_matrix(f"inline-{matrix_fingerprint(m)}", m)
            return f"inline-{fp}", m, fp
        if "mtx" in payload:
            text = str(payload["mtx"])
            # newline=None splits lines exactly as the file reader does
            _, _, _, dims = read_matrix_market_header(
                io.StringIO(text, newline=None), name="inline mtx"
            )
            _check_inline_dims(*dims[:2])
            with tempfile.NamedTemporaryFile(
                "w", suffix=".mtx", delete=False
            ) as fh:
                fh.write(text)
                path = fh.name
            try:
                m = read_matrix_market(path, strict=True)
            finally:
                Path(path).unlink(missing_ok=True)
            fp = self._register_matrix(f"inline-{matrix_fingerprint(m)}", m)
            return f"inline-{fp}", m, fp
        raise ValueError(
            "request needs one of: matrix, matrix_hash, coo, mtx"
        )

    def _options(self, dtype) -> AcSpgemmOptions:
        return AcSpgemmOptions(
            value_dtype=np.dtype(dtype),
            engine=self.config.engine,
            on_failure="raise",  # the core owns degradation, not the driver
            fault_plan=self.config.fault_plan,
        )

    def _cache_key(self, matrix_fp: str, options: AcSpgemmOptions) -> str:
        """Campaign-style content address of one multiply's result."""
        payload = "|".join(
            (
                matrix_fp,
                options.cache_fingerprint(),
                str(CACHE_VERSION),
                self.config.backend,  # routed engines never share cells
                "squared",  # the request semantics: C = A' @ A''
            )
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    # -- admission -----------------------------------------------------

    def _start_trace(
        self, content: str, ordinal: int, client, request_id: str,
        t0: float, **attrs,
    ) -> RequestTrace:
        """One request's trace, registered in the store immediately so
        in-flight requests are inspectable via ``/trace/<id>``."""
        ctx = TraceContext.for_request(content, ordinal, client)
        trace = RequestTrace(
            ctx, request_id=request_id, ordinal=ordinal, **attrs
        )
        trace.root.t_start = t0
        self.traces.add(trace)
        return trace

    def handle(self, payload: dict, *, traceparent: str | None = None) -> dict:
        """Resolve one request to a typed outcome (never raises).

        Returns the response body; ``status`` carries the HTTP code for
        the transport layer.  ``traceparent`` is the client's W3C-style
        header: a valid one joins the caller's trace, and every response
        body carries ``request_id`` / ``trace_id`` / ``traceparent`` so
        even rejected work is correlatable with server-side telemetry.
        """
        t0 = time.monotonic()
        with self._lock:
            self._admitted += 1
            ordinal = self._admitted
        request_id = f"req-{ordinal:06d}"
        client = TraceContext.from_traceparent(traceparent)
        try:
            deadline_ms = float(
                payload.get("deadline_ms", self.config.default_deadline_ms)
            )
            dtype_name = str(payload.get("dtype", "float64"))
            if dtype_name not in _DTYPES:
                raise ValueError(f"unknown dtype {dtype_name!r}")
            name, matrix, fp = self._resolve_matrix(payload)
        except LookupError as exc:
            trace = self._start_trace(
                payload_fingerprint(payload), ordinal, client, request_id, t0
            )
            return self._reply(
                "error", 404, t0, trace=trace, reason=str(exc)
            )
        except PayloadTooLarge as exc:
            trace = self._start_trace(
                payload_fingerprint(payload), ordinal, client, request_id, t0
            )
            return self._reply(
                "error", 413, t0, trace=trace, reason=exc.one_line()
            )
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            trace = self._start_trace(
                payload_fingerprint(payload), ordinal, client, request_id, t0
            )
            return self._reply(
                "error", 400, t0, trace=trace, reason=str(exc)
            )

        trace = self._start_trace(
            fp, ordinal, client, request_id, t0, matrix=name
        )
        trace.add_span("resolve", t_start=t0, matrix=name)

        options = self._options(_DTYPES[dtype_name])
        cache_key = self._cache_key(fp, options)
        t_cache = time.monotonic()
        with self._lock:
            hit = self._cache.get(cache_key)
            if hit is not None:
                self._cache.move_to_end(cache_key)
        trace.add_span("cache.lookup", t_start=t_cache, hit=hit is not None)
        if hit is not None:
            self.metrics.inc(
                "repro_serve_cache_hits_total",
                help="Requests answered from the result cache.",
            )
            return self._reply(
                "success", 200, t0, trace=trace,
                matrix=name, cached=True, result=dict(hit),
            )

        a, b = squared_operands(matrix)
        job = _Job(a=a, b=b, dtype=np.dtype(_DTYPES[dtype_name]),
                   cache_key=cache_key, matrix_fp=fp,
                   trace=trace, request_id=request_id,
                   t_enqueue=time.monotonic())
        if not self._accepting:
            err = ServerOverloaded("server is shutting down", stage="serve")
            return self._reply(
                "rejected", 503, t0, trace=trace,
                matrix=name, reason=err.one_line(),
            )
        trace.retain()  # the executor thread's reference
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            trace.release()  # no executor will ever pick the job up
            err = ServerOverloaded(
                f"admission queue full ({self.config.max_queue} pending)",
                stage="serve",
            )
            self.metrics.inc(
                "repro_serve_rejected_total", reason="overload",
                help="Requests shed with a typed rejection.",
            )
            return self._reply(
                "rejected", 429, t0, trace=trace,
                matrix=name, reason=err.one_line(),
            )
        self.metrics.set_max(
            "repro_serve_queue_high_water", self._set_queue_depth(),
            help="Deepest admission queue observed.",
        )

        if not job.done.wait(timeout=deadline_ms / 1000.0):
            job.abandoned = True  # executor will still finish + cache it
            err = DeadlineExceeded(
                f"no result within {deadline_ms:.0f} ms "
                "(queue wait + execution)",
                stage="serve",
            )
            self.metrics.inc(
                "repro_serve_rejected_total", reason="deadline",
                help="Requests shed with a typed rejection.",
            )
            trace.event(trace.root, "deadline", err.one_line())
            return self._reply(
                "rejected", 504, t0, trace=trace,
                matrix=name, reason=err.one_line(),
            )
        resp = dict(job.response or {})
        outcome = resp.pop("outcome", "degraded")
        reason = resp.pop("reason", None)
        return self._reply(
            outcome, 200, t0, trace=trace, matrix=name, cached=False,
            reason=reason, result=resp or None,
        )

    def _reply(self, outcome: str, status: int, t0: float, *,
               trace: RequestTrace | None = None, **extra) -> dict:
        latency_ms = (time.monotonic() - t0) * 1e3
        with self._lock:
            self._latencies.append(latency_ms)
            lats = sorted(self._latencies)
            p50 = lats[len(lats) // 2]
            p99 = lats[min(len(lats) - 1, int(len(lats) * 0.99))]
        self.metrics.inc(
            "repro_serve_requests_total", outcome=outcome,
            help="Requests resolved, by typed outcome.",
        )
        self.metrics.set("repro_serve_latency_ms", p50, quantile="p50",
                         help="Recent request latency quantiles.")
        self.metrics.set("repro_serve_latency_ms", p99, quantile="p99",
                         help="Recent request latency quantiles.")
        body = {"outcome": outcome, "status": status,
                "latency_ms": round(latency_ms, 3)}
        if trace is not None:
            body["request_id"] = trace.root.attrs.get("request_id", "")
            body["trace_id"] = trace.trace_id
            body["traceparent"] = TraceContext(
                trace.trace_id, trace.root.span_id
            ).to_traceparent()
            self.metrics.observe(
                "repro_serve_request_ms", latency_ms, outcome=outcome,
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
                exemplar={"trace_id": trace.trace_id},
                help="End-to-end request latency, by typed outcome.",
            )
            trace.release(outcome=outcome, status=status)
        for k, v in extra.items():
            if v is not None:
                body[k] = v
        return body

    # -- execution -----------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                break
            self._set_queue_depth()
            try:
                job.response = self._execute(job)
            except Exception as exc:  # noqa: BLE001 - never hang a waiter
                job.response = {
                    "outcome": "degraded",
                    "reason": f"unexpected executor error: {exc!r}",
                }
            finally:
                if job.trace is not None:
                    # the executor's reference from admission; on an
                    # abandoned (deadline-expired) job this is the last
                    # one, so the trace still finalizes exactly once
                    job.trace.release(
                        executed_outcome=(job.response or {}).get(
                            "outcome", "unknown"
                        )
                    )
                job.done.set()
                self._queue.task_done()

    def _set_queue_depth(self) -> int:
        depth = self._queue.qsize()
        self.metrics.set(
            "repro_serve_queue_depth", depth,
            help="Admission queue depth after the last admission or pick-up.",
        )
        return depth

    def _set_breaker_state(self) -> str:
        """Publish the breaker gauge; the caller holds the lock."""
        self.metrics.set(
            "repro_serve_breaker_state", self._breaker.state,
            help="Circuit breaker: 0 closed, 1 half-open, 2 open.",
        )
        return self._breaker.state_name()

    def _apply_chaos(self, ordinal: int) -> None:
        """Fire this execution ordinal's serve-level faults, if any."""
        if self._injector is None:
            return
        for spec in self._injector.serve_faults(ordinal):
            time.sleep(spec.delay_ms / 1000.0)  # request_delay

    def _execute(self, job: _Job) -> dict:
        trace = job.trace
        with self._lock:
            self._executed += 1
            ordinal = self._executed
            try_primary = self._breaker.route_primary()
            breaker = self._set_breaker_state()
        if trace is not None:
            trace.add_span(
                "queue.wait", t_start=job.t_enqueue, ordinal=ordinal
            )
            self.metrics.observe(
                "repro_serve_queue_wait_ms",
                (time.monotonic() - job.t_enqueue) * 1e3,
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
                exemplar={"trace_id": trace.trace_id},
                help="Admission-queue wait before an executor picked up.",
            )
        self._apply_chaos(ordinal)
        options = self._options(job.dtype)
        t_exec = time.monotonic()
        exec_span = (
            trace.start_span("execute", ordinal=ordinal, breaker=breaker)
            if trace is not None
            else None
        )

        def _observe_execute(outcome: str) -> None:
            if trace is None:
                return
            self.metrics.observe(
                "repro_serve_execute_ms",
                (time.monotonic() - t_exec) * 1e3,
                outcome=outcome,
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
                exemplar={"trace_id": trace.trace_id},
                help="Executor time per job, by outcome.",
            )

        failure = None
        if try_primary:
            att_span = (
                trace.start_span("attempt", parent=exec_span, breaker=breaker)
                if trace is not None
                else None
            )
            scope = (
                use_trace(trace, att_span, breaker=breaker)
                if trace is not None
                else nullcontext()
            )
            try:
                with scope:
                    result = self._multiply(job.a, job.b, options)
            except ReproError as exc:
                failure = exc  # degrade below
                if trace is not None:
                    trace.end_span(
                        att_span, status="error", error=exc.one_line()
                    )
                with self._lock:
                    self._breaker.failed()
                    self._set_breaker_state()
            else:
                if trace is not None:
                    trace.end_span(att_span)
                    trace.graft_result(exec_span, result)
                with self._lock:
                    self._breaker.succeeded()
                    self._set_breaker_state()
                _observe_execute("success")
                return self._finish_primary(job, result, ordinal)
        self.metrics.inc(
            "repro_serve_degraded_total",
            reason="breaker-open" if not try_primary else "pipeline-failure",
            help="Requests served by the global-ESC fallback.",
        )
        reason = (
            failure.one_line()
            if failure is not None
            else f"circuit breaker {self._breaker.state_name()}"
        )
        fb_span = (
            trace.start_span(
                "fallback", parent=exec_span,
                breaker=self._breaker.state_name(), reason=reason,
            )
            if trace is not None
            else None
        )
        fb_scope = (
            use_trace(trace, fb_span, breaker=self._breaker.state_name())
            if trace is not None
            else nullcontext()
        )
        with fb_scope:
            run = fallback_multiply(job.a, job.b, options)
        if trace is not None:
            trace.end_span(fb_span)
            trace.end_span(exec_span, outcome="degraded")
        _observe_execute("degraded")
        from ..campaign.plan import matrix_fingerprint

        return {
            "outcome": "degraded",
            "reason": reason,
            "ordinal": ordinal,
            "digest": matrix_fingerprint(run.matrix),
            "nnz": run.matrix.nnz,
            "rows": run.matrix.rows,
            "cols": run.matrix.cols,
        }

    def _finish_primary(self, job: _Job, result, ordinal: int) -> dict:
        from ..campaign.plan import matrix_fingerprint

        summary = {
            "digest": matrix_fingerprint(result.matrix),
            "nnz": result.matrix.nnz,
            "rows": result.matrix.rows,
            "cols": result.matrix.cols,
            "sim_ms": round(result.seconds * 1e3, 4),
            "chunks": result.n_chunks,
            "restarts": result.restarts,
            "engine": self.config.engine,
            "backend": self.config.backend,
        }
        routed = getattr(result, "dispatched_to", None)
        if routed:
            summary["dispatched_to"] = routed
        audit = getattr(result, "routing_audit", None)
        if audit:
            with self._lock:
                self._routing_errors.append(float(audit.get("rel_error", 0.0)))
                mean_err = (
                    sum(self._routing_errors) / len(self._routing_errors)
                )
            self.metrics.set(
                "repro_serve_routing_prediction_error", mean_err,
                help="Rolling mean relative selector prediction error.",
            )
            self.metrics.inc(
                "repro_serve_routing_dispatch_total",
                engine=str(audit.get("chosen", "")),
                help="Adaptive dispatches, by chosen engine.",
            )
            summary["routing"] = {
                k: audit[k]
                for k in (
                    "chosen", "predicted_chosen", "actual_cycles",
                    "rel_error", "regret_bound",
                )
                if k in audit
            }
        selected = routed or (
            self.config.backend if self.config.backend != "ac-spgemm" else None
        )
        if selected:
            self.metrics.inc(
                "repro_serve_selected_total", engine=selected,
                help="Primary multiplies by the engine that executed them.",
            )
        with self._lock:
            if selected:
                self._selections[selected] = (
                    self._selections.get(selected, 0) + 1
                )
            if not result.degraded:  # only clean primaries are cacheable
                self._cache[job.cache_key] = summary
                self._cache.move_to_end(job.cache_key)
                while len(self._cache) > self.config.cache_size:
                    self._cache.popitem(last=False)
            self.metrics.set(
                "repro_serve_cache_entries", len(self._cache),
                help="Result-cache population.",
            )
        self.metrics.record_result(result)
        return {"outcome": "success", "ordinal": ordinal, **summary}

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Deterministically ordered live counters for ``/stats``."""
        with self._lock:
            return {
                "accepting": self._accepting,
                "breaker": self._breaker.state_name(),
                "breaker_opens": self._breaker.opens,
                "cache_entries": len(self._cache),
                "config": self.config.to_json(),
                "executed": self._executed,
                "faults_fired": list(self._injector.fired)
                if self._injector
                else [],
                "queue_depth": self._queue.qsize(),
                "requests_admitted": self._admitted,
                "routing": {
                    "dispatches": self.flight.recorded,
                    "prediction_error": self.flight.prediction_error(),
                },
                "selections": dict(sorted(self._selections.items())),
                "traces_stored": len(self.traces),
            }

    def healthy(self) -> bool:
        return self._accepting and not self._stop.is_set()

    # -- teardown ------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, stop threads.

        ``drain=True`` (the SIGTERM path) lets queued jobs finish so
        every admitted request still resolves; ``drain=False`` abandons
        the queue.
        """
        self._accepting = False
        if drain:
            self._queue.join()
        self._stop.set()
        for _ in self._executors:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                pass
        for t in self._executors:
            t.join(timeout=5)
        self.flight.flush()  # the drained event log must parse whole
