"""The serve daemon: admission, deadlines, breaker, transport.

Core policy is tested HTTP-free through :class:`repro.serve.ServeCore`
with an injectable ``multiply`` (so overload, deadline and breaker
paths are deterministic and fast); the transport layer gets an
in-thread :class:`ReproServer`; and the SIGTERM-drain contract runs the
real ``repro serve`` subprocess — kill -TERM must drain in-flight work
and exit 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.campaign.plan import matrix_fingerprint, tiny_entries
from repro.resilience.errors import RestartBudgetExceeded
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import ReproServer, ServeConfig, ServeCore
from repro.sparse import squared_operands, write_matrix_market

_REPO = Path(__file__).resolve().parent.parent


def _core(**overrides) -> ServeCore:
    """A fast test core: reference engine, single executor, tiny waits."""
    defaults = dict(
        engine="reference",
        executors=1,
        max_queue=4,
        default_deadline_ms=60_000.0,
        breaker_cooldown_s=30.0,
    )
    multiply = overrides.pop("multiply", None)
    clock = overrides.pop("clock", time.monotonic)
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults), multiply=multiply, clock=clock)


def _reference_digest(name: str) -> str:
    entry = next(e for e in tiny_entries() if e.name == name)
    a, b = squared_operands(entry.build())
    return matrix_fingerprint(
        ac_spgemm(a, b, AcSpgemmOptions(engine="reference")).matrix
    )


class TestServeCoreOutcomes:
    def test_success_digest_matches_reference_engine(self):
        core = _core()
        try:
            body = core.handle({"matrix": "tiny-uniform"})
            assert body["outcome"] == "success"
            assert body["status"] == 200
            assert body["cached"] is False
            assert body["result"]["digest"] == _reference_digest("tiny-uniform")
        finally:
            core.close()

    def test_second_request_is_a_cache_hit(self):
        core = _core()
        try:
            first = core.handle({"matrix": "tiny-uniform"})
            second = core.handle({"matrix": "tiny-uniform"})
            assert second["cached"] is True
            assert second["result"]["digest"] == first["result"]["digest"]
            assert core.metrics.value("repro_serve_cache_hits_total") == 1
        finally:
            core.close()

    def test_unknown_matrix_is_404(self):
        core = _core()
        try:
            body = core.handle({"matrix": "no-such-matrix"})
            assert (body["outcome"], body["status"]) == ("error", 404)
        finally:
            core.close()

    def test_malformed_requests_are_400(self):
        core = _core()
        try:
            assert core.handle({})["status"] == 400
            assert core.handle({"coo": {"rows": 2}})["status"] == 400
            assert core.handle(
                {"matrix": "tiny-uniform", "dtype": "float16"}
            )["status"] == 400
        finally:
            core.close()

    def test_inline_coo_and_mtx_round_trip(self, tmp_path):
        core = _core()
        try:
            coo_body = core.handle(
                {
                    "coo": {
                        "rows": 3,
                        "cols": 3,
                        "row_idx": [0, 1, 2],
                        "col_idx": [0, 1, 2],
                        "values": [1.0, 2.0, 3.0],
                    }
                }
            )
            assert coo_body["outcome"] == "success"
            assert coo_body["result"]["nnz"] == 3  # (diag)^2 keeps 3 nnz

            entry = next(e for e in tiny_entries() if e.name == "tiny-uniform")
            path = tmp_path / "m.mtx"
            write_matrix_market(path, entry.build())
            mtx_body = core.handle({"mtx": path.read_text()})
            assert mtx_body["outcome"] == "success"
            assert mtx_body["result"]["digest"] == _reference_digest(
                "tiny-uniform"
            )
            # the inline matrix is now registered by its content hash
            fp = matrix_fingerprint(entry.build())
            by_hash = core.handle({"matrix_hash": fp})
            assert by_hash["outcome"] == "success"
        finally:
            core.close()

    def test_inline_mtx_is_parsed_in_memory(self, tmp_path, monkeypatch):
        """Inline MTX never reaches the temp directory, valid or not,
        and each malformed body keeps the file reader's typed reason."""
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        opened = []
        os_open = os.open

        def spy(path, *args, **kwargs):  # tempfile opens through os.open
            opened.append(os.fspath(path))
            return os_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        head = "%%MatrixMarket matrix coordinate real general\n"
        cases = {
            head + "3 3 2\n1 1 1.0\n3 2 2.0\n": (200, None),
            (head + "3 3 2\n1 1 1.0\n3 2 2.0\n").replace("\n", "\r"): (
                200, None,
            ),
            head: (400, "truncated file: missing size line"),
            head + "3 3 2\n1 1 1.0\n": (400, "expected 2 entries, found 1"),
            head + "3 3 1\n4 1 1.0\n": (
                400,
                "index out of range for 3x3 matrix "
                "(1-based indices must lie in [1, rows] x [1, cols])",
            ),
            head + "3 3 1\n1 1 nan\n": (
                400,
                "non-finite value at entry 1 "
                "(pass strict=False to accept NaN/inf)",
            ),
            head + "% café\n3 3 1\n1 1 1.0\n": (
                400, "inline mtx is not ASCII text",
            ),
        }
        core = _core()
        try:
            for mtx, (status, reason) in cases.items():
                body = core.handle({"mtx": mtx})
                assert (body["status"], body.get("reason")) == (status, reason)
        finally:
            core.close()
        assert not [p for p in opened if p.startswith(str(scratch))]
        assert os.listdir(scratch) == []

    def test_inline_miss_fingerprints_its_matrix_once(self, monkeypatch):
        """An inline miss hashes its operand once and its result once."""
        import repro.serve.core as serve_core

        hashed = []

        def counting(m):
            hashed.append(m.nnz)
            return matrix_fingerprint(m)

        monkeypatch.setattr(serve_core, "matrix_fingerprint", counting)
        core = _core()
        try:
            body = core.handle({"coo": {
                "rows": 3, "cols": 3, "row_idx": [0, 1, 2],
                "col_idx": [0, 1, 2], "values": [1.0, 2.0, 3.0],
            }})
        finally:
            core.close()
        assert body["outcome"] == "success"
        assert len(hashed) == 2

    def test_registered_matrix_is_not_rehashed(self, monkeypatch):
        """A named matrix keeps the fingerprint it was registered with:
        a repeat request (a cache hit) hashes nothing of its operand,
        and registered matrices still resolve by hash and inline name."""
        import repro.serve.core as serve_core

        hashed = []

        def counting(m):
            hashed.append((m, matrix_fingerprint(m)))
            return hashed[-1][1]

        monkeypatch.setattr(serve_core, "matrix_fingerprint", counting)
        core = _core()
        try:
            first = core.handle({"matrix": "tiny-uniform"})
            operand, fp = hashed[0]  # a miss hashes the operand first
            del hashed[:]
            second = core.handle({"matrix": "tiny-uniform"})
            assert second["cached"] is True
            assert not [m for m, _ in hashed if m is operand]
            inline = core.handle({"coo": {
                "rows": 3, "cols": 3, "row_idx": [0, 1, 2],
                "col_idx": [0, 1, 2], "values": [1.0, 2.0, 3.0],
            }})
            inline_fp = hashed[-2][1]  # operand, then result digest
            by_name = core.handle({"matrix": f"inline-{inline_fp}"})
            by_hash = core.handle({"matrix_hash": fp})
        finally:
            core.close()
        assert first["outcome"] == second["outcome"] == "success"
        assert inline["outcome"] == by_name["outcome"] == "success"
        assert by_name["result"]["digest"] == inline["result"]["digest"]
        assert by_hash["result"]["digest"] == first["result"]["digest"]

    def test_unknown_matrix_hash_is_404(self):
        core = _core()
        try:
            body = core.handle({"matrix_hash": "deadbeefdeadbeef"})
            assert (body["outcome"], body["status"]) == ("error", 404)
        finally:
            core.close()

    @pytest.mark.parametrize("form", ["coo", "mtx", "mtx-cr"])
    def test_oversized_inline_dims_are_413(self, form):
        """A zero-entry matrix declaring 10**12 rows is rejected from its
        declared size; nothing sized by the row count is allocated.
        ``mtx-cr`` ends its lines in a bare carriage return, which the
        Matrix Market reader also treats as a line break."""
        rows = 10**12
        mtx = ("%%MatrixMarket matrix coordinate real general\n"
               f"{rows} 3 0\n")
        payload = {
            "coo": {"coo": {"rows": rows, "cols": 3, "row_idx": [],
                            "col_idx": [], "values": []}},
            "mtx": {"mtx": mtx},
            "mtx-cr": {"mtx": mtx.replace("\n", "\r")},
        }[form]
        core = _core()
        try:
            body = core.handle(payload)
            assert (body["outcome"], body["status"]) == ("error", 413)
            assert body["reason"].startswith("PayloadTooLarge")
        finally:
            core.close()

    def test_inline_product_blowup_is_413(self):
        """One dense row plus one dense column is a few KiB of COO but
        ~k^2 intermediate products; it is rejected before anything is
        queued, cached or registered."""
        from repro.serve.core import MAX_INLINE_PRODUCTS

        k = 2100
        assert k * k > MAX_INLINE_PRODUCTS
        idx = np.arange(k)
        zeros = np.zeros(k, dtype=np.int64)
        coo = {
            "rows": k, "cols": k,
            "row_idx": np.concatenate([zeros, idx[1:]]).tolist(),
            "col_idx": np.concatenate([idx, zeros[1:]]).tolist(),
            "values": [1.0] * (2 * k - 1),
        }
        assert len(json.dumps(coo)) < 64 * 1024
        calls = []
        core = _core(multiply=lambda a, b, options: calls.append(a))
        try:
            body = core.handle({"coo": coo})
            assert (body["outcome"], body["status"]) == ("error", 413)
            assert body["reason"].startswith("PayloadTooLarge")
            stats = core.stats()
            assert stats["queue_depth"] == 0 and stats["executed"] == 0
            assert stats["cache_entries"] == 0
            assert not core._matrices
        finally:
            core.close()
        assert calls == []

    def test_default_core_runs_batched_in_process(self):
        """The shipped defaults execute on ``batched`` in this process:
        no child process and no shared-memory segment."""

        def children() -> set[int]:
            pids = set()
            for task in Path("/proc/self/task").iterdir():
                try:
                    pids.update(map(int, (task / "children").read_text().split()))
                except OSError:
                    pass
            return pids

        shm = Path("/dev/shm")
        segments = set(os.listdir(shm)) if shm.is_dir() else set()
        before = children()
        core = ServeCore()
        try:
            body = core.handle({"matrix": "tiny-uniform"})
        finally:
            core.close()
        assert body["outcome"] == "success"
        assert body["result"]["engine"] == "batched"
        assert body["result"]["digest"] == _reference_digest("tiny-uniform")
        assert children() <= before
        if shm.is_dir():
            assert set(os.listdir(shm)) <= segments


class TestServeCoreHardening:
    def test_full_queue_rejects_typed_429(self):
        gate = threading.Event()
        entered = threading.Event()

        def blocking_multiply(a, b, options):
            entered.set()
            gate.wait(timeout=30)
            return ac_spgemm(a, b, options)

        core = _core(multiply=blocking_multiply, max_queue=1, executors=1)
        try:
            # occupy the executor, fill the queue, then overflow it
            waiters = [
                threading.Thread(
                    target=core.handle, args=({"matrix": n},), daemon=True
                )
                for n in ("tiny-uniform", "tiny-grid2d")
            ]
            # sequence the admissions: if both waiters raced, the second
            # could hit the still-occupied queue and absorb the 429 itself
            waiters[0].start()
            assert entered.wait(timeout=10)  # executor busy, queue empty
            waiters[1].start()
            deadline = time.monotonic() + 10
            while core._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert core._queue.qsize() == 1
            body = core.handle({"matrix": "tiny-powerlaw"})
            assert (body["outcome"], body["status"]) == ("rejected", 429)
            assert "ServerOverloaded" in body["reason"]
            gate.set()
            for t in waiters:
                t.join(timeout=30)
            assert core.metrics.value(
                "repro_serve_rejected_total", reason="overload"
            ) == 1
        finally:
            gate.set()
            core.close()

    def test_deadline_expiry_rejects_typed_504_and_still_caches(self):
        release = threading.Event()

        def slow_multiply(a, b, options):
            release.wait(timeout=30)
            return ac_spgemm(a, b, options)

        core = _core(multiply=slow_multiply)
        try:
            body = core.handle({"matrix": "tiny-uniform", "deadline_ms": 50})
            assert (body["outcome"], body["status"]) == ("rejected", 504)
            assert "DeadlineExceeded" in body["reason"]
            release.set()
            # the executor finishes the abandoned job and caches it
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                late = core.handle({"matrix": "tiny-uniform"})
                if late.get("cached"):
                    break
                time.sleep(0.05)
            assert late["cached"] is True
            assert late["result"]["digest"] == _reference_digest("tiny-uniform")
        finally:
            release.set()
            core.close()

    def test_spent_restart_budget_degrades_not_drops(self):
        calls = []

        def always_failing(a, b, options):
            calls.append(1)
            raise RestartBudgetExceeded("gave up", stage="ESC", restarts=3)

        core = _core(multiply=always_failing)
        try:
            body = core.handle({"matrix": "tiny-uniform"})
            assert body["outcome"] == "degraded"
            assert "RestartBudgetExceeded" in body["reason"]
            assert len(calls) == 1  # a pipeline failure is never retried
            # degraded results are still correct (global ESC is exact
            # on this matrix's digest-relevant structure)
            assert body["result"]["nnz"] > 0
        finally:
            core.close()

    def test_breaker_opens_after_threshold_and_recovers_via_probe(self):
        now = [0.0]
        fail = [True]
        calls = []

        def controlled_multiply(a, b, options):
            calls.append(1)
            if fail[0]:
                raise RestartBudgetExceeded("boom", stage="ESC", restarts=1)
            return ac_spgemm(a, b, options)

        core = _core(
            multiply=controlled_multiply,
            breaker_threshold=2,
            breaker_cooldown_s=10.0,
            clock=lambda: now[0],
        )
        try:
            for n in ("tiny-uniform", "tiny-grid2d"):
                assert core.handle({"matrix": n})["outcome"] == "degraded"
            assert core.stats()["breaker"] == "open"
            primary_calls = len(calls)
            # open: requests degrade without touching the primary at all
            body = core.handle({"matrix": "tiny-powerlaw"})
            assert body["outcome"] == "degraded"
            assert "breaker" in body["reason"]
            assert len(calls) == primary_calls
            # cooldown elapses, the primary heals: one probe closes it
            now[0] += 11.0
            fail[0] = False
            assert core.stats()["breaker"] == "half-open"
            body = core.handle({"matrix": "tiny-road"})
            assert body["outcome"] == "success"
            assert len(calls) == primary_calls + 1
            assert core.stats()["breaker"] == "closed"
            assert core.stats()["breaker_opens"] == 1
        finally:
            core.close()

    def test_pipeline_fault_in_plan_fails_primary_and_trips_breaker(self):
        """The daemon's plan reaches every primary multiply: a pipeline
        fault fails it, the request degrades and the breaker trips."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="scratchpad_overflow", stage="ESC",
                              round=0, block=0),),
        )
        core = _core(fault_plan=plan, breaker_threshold=2)
        try:
            for n in ("tiny-uniform", "tiny-grid2d"):
                body = core.handle({"matrix": n})
                assert body["outcome"] == "degraded"
                assert "ScratchpadOverflow" in body["reason"]
            assert core.stats()["breaker_opens"] == 1
        finally:
            core.close()

    def test_request_delay_chaos_fires_deterministically(self):
        plan = FaultPlan(
            seed=3,
            faults=(FaultSpec(kind="request_delay", at=1, delay_ms=5.0),),
        )
        fired_logs = []
        for _ in range(2):
            core = _core(fault_plan=plan)
            try:
                assert core.handle({"matrix": "tiny-uniform"})[
                    "outcome"
                ] == "success"
                fired_logs.append(core.stats()["faults_fired"])
            finally:
                core.close()
        assert fired_logs[0] == fired_logs[1]
        assert fired_logs[0] == [{"kind": "request_delay", "at": 1,
                                  "delay_ms": 5.0}]

    def test_metrics_exposition_has_serve_families(self):
        core = _core()
        try:
            core.handle({"matrix": "tiny-uniform"})
            text = core.metrics.to_prometheus()
            assert 'repro_serve_requests_total{outcome="success",' in text
            assert "# TYPE repro_serve_requests_total counter" in text
            assert "repro_serve_latency_ms" in text
            doc = core.metrics.to_json()
            assert doc["meta"]["repro_serve_requests_total"]["type"] == "counter"
        finally:
            core.close()

    def test_close_drains_queued_work(self):
        started = threading.Event()

        def slow_multiply(a, b, options):
            started.set()
            time.sleep(0.1)
            return ac_spgemm(a, b, options)

        core = _core(multiply=slow_multiply)
        outcomes = []
        t = threading.Thread(
            target=lambda: outcomes.append(core.handle({"matrix": "tiny-uniform"})),
            daemon=True,
        )
        t.start()
        assert started.wait(timeout=30)
        core.close(drain=True)
        t.join(timeout=30)
        assert outcomes and outcomes[0]["outcome"] == "success"
        # after close the daemon sheds instead of accepting
        body = core.handle({"matrix": "tiny-grid2d"})
        assert (body["outcome"], body["status"]) == ("rejected", 503)


class TestServeHTTP:
    @pytest.fixture()
    def server(self):
        core = ServeCore(
            ServeConfig(engine="reference", executors=1)
        )
        srv = ReproServer(("127.0.0.1", 0), core)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        thread.join(timeout=10)
        srv.server_close()
        core.close()

    def _base(self, server) -> str:
        return f"http://127.0.0.1:{server.server_address[1]}"

    def _post(self, server, doc):
        req = urllib.request.Request(
            self._base(server) + "/multiply",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_healthz_metrics_stats_multiply(self, server):
        base = self._base(server)
        with urllib.request.urlopen(base + "/healthz", timeout=30) as r:
            assert r.status == 200
            assert json.loads(r.read())["status"] == "ok"
        status, body = self._post(server, {"matrix": "tiny-uniform"})
        assert status == 200 and body["outcome"] == "success"
        with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
            text = r.read().decode()
            assert r.headers["Content-Type"].startswith("text/plain")
            assert "repro_serve_requests_total" in text
        with urllib.request.urlopen(base + "/stats", timeout=30) as r:
            stats = json.loads(r.read())
            assert stats["executed"] == 1
            assert stats["breaker"] == "closed"

    def test_http_status_mirrors_typed_outcomes(self, server):
        status, body = self._post(server, {"matrix": "missing"})
        assert status == 404 and body["outcome"] == "error"
        status, body = self._post(server, {"dtype": "float64"})
        assert status == 400 and body["outcome"] == "error"
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(
                self._base(server) + "/nowhere", timeout=30
            )
        assert exc_info.value.code == 404


class TestServeDaemonSigterm:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--engine", "reference",
                "--executors", "1",
                "--shm-prefix", f"repro-test-sigterm-{os.getpid()}-",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=_REPO,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, f"no listening banner: {banner!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            req = urllib.request.Request(
                base + "/multiply",
                data=json.dumps({"matrix": "tiny-uniform"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=120) as resp:
                assert json.loads(resp.read())["outcome"] == "success"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained and stopped (SIGTERM)" in out
