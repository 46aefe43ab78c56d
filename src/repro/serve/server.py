"""The serve daemon's HTTP transport (stdlib ``http.server`` only).

A thin, boring layer over :class:`~repro.serve.core.ServeCore`: parse
the request, call the core, map the core's typed outcome to an HTTP
status.  All resilience policy lives in the core — this module adds
nothing but sockets and signal handling.

Endpoints::

    GET  /healthz      liveness: 200 {"status": "ok"} while serving
    GET  /metrics      Prometheus text exposition (0.0.4)
    GET  /stats        live counters, breaker state, fired chaos faults
    GET  /traces       trace ids held by the core's bounded trace store
    GET  /trace/<id>   one request trace as JSON (rooted span tree)
    POST /multiply     execute one multiply; JSON body, JSON reply

``POST /multiply`` accepts a W3C-style ``traceparent`` request header
(the server joins the caller's trace) and every response carries the
request's ``traceparent`` back as a header and in the JSON body.

``SIGTERM`` drains: the listener stops accepting, queued jobs finish,
in-flight responses are written, the flight-recorder event log is
flushed to a parseable state and the daemon exits 0.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .core import ServeConfig, ServeCore

__all__ = ["ReproServer", "make_server", "run_server"]

#: request body size cap (an inline .mtx of the suite's largest matrix
#: is far below this; anything bigger is a client error, not a DoS)
_MAX_BODY = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    @property
    def core(self) -> ServeCore:
        return self.server.core  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc: dict) -> None:
        self._send(
            status,
            (json.dumps(doc, sort_keys=True) + "\n").encode(),
            "application/json",
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            ok = self.core.healthy()
            self._send_json(
                200 if ok else 503, {"status": "ok" if ok else "draining"}
            )
        elif self.path == "/metrics":
            self._send(
                200, self.core.metrics.to_prometheus().encode(),
                "text/plain; version=0.0.4",
            )
        elif self.path == "/stats":
            self._send_json(200, self.core.stats())
        elif self.path == "/traces":
            self._send_json(200, {"traces": self.core.traces.ids()})
        elif self.path.startswith("/trace/"):
            trace = self.core.traces.get(self.path[len("/trace/"):])
            if trace is None:
                self._send_json(404, {"outcome": "error",
                                      "reason": "unknown trace id"})
            else:
                self._send_json(200, trace.to_dict())
        else:
            self._send_json(404, {"outcome": "error",
                                  "reason": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/multiply":
            self._send_json(404, {"outcome": "error",
                                  "reason": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if not 0 < length <= _MAX_BODY:
                raise ValueError(f"body length {length} out of range")
            payload = json.loads(self.rfile.read(length))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"outcome": "error", "reason": str(exc)})
            return
        body = self.core.handle(
            payload, traceparent=self.headers.get("traceparent")
        )
        # echo the trace identity as a header too, so W3C-style clients
        # correlate without parsing the body
        self.send_response(int(body.get("status", 200)))
        doc = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(doc)))
        self.send_header("traceparent", body["traceparent"])
        self.end_headers()
        self.wfile.write(doc)


class ReproServer(ThreadingHTTPServer):
    """One listening daemon: a core plus a threading HTTP server."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], core: ServeCore,
                 *, verbose: bool = False):
        super().__init__(address, _Handler)
        self.core = core
        self.verbose = verbose


def make_server(
    config: ServeConfig | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ReproServer:
    """Bind a daemon (``port=0`` picks an ephemeral port)."""
    return ReproServer((host, port), ServeCore(config), verbose=verbose)


def run_server(server: ReproServer, *, quiet: bool = False) -> int:
    """Serve until SIGTERM/SIGINT, then drain and exit cleanly.

    ``BaseServer.shutdown`` must be called from another thread than the
    one inside ``serve_forever`` — the signal handler hands it off.
    """
    stop_reason: list[str] = []

    def _stop(signum, frame):
        stop_reason.append(signal.Signals(signum).name)
        threading.Thread(target=server.shutdown, daemon=True).start()

    prev = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        prev[sig] = signal.signal(sig, _stop)
    host, port = server.server_address[:2]
    if not quiet:
        print(f"repro serve listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, handler in prev.items():
            signal.signal(sig, handler)
        server.server_close()
        # drain: every admitted request resolves before the exit
        server.core.close(drain=True)
    if not quiet:
        why = stop_reason[0] if stop_reason else "shutdown"
        print(f"repro serve drained and stopped ({why})", flush=True)
    return 0
