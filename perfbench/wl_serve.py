"""``serve`` workload: a ``repro serve`` daemon under a closed loop.

The daemon runs as ``python -m repro.cli serve --port 0`` at its
shipped defaults, with only a private ``--shm-prefix``.  One client
per CPU drives it in a closed loop -- each waits for its product before
sending the next, like a solver chain.  Requests come in blocks of
four: three cache misses, each a distinct seeded matrix sent inline
(alternately COO JSON and Matrix Market text, from the ``offline``
families at serve size), and one repeat of a suite name that the
result cache answers.  The window runs in segments that stop only at a
block boundary, so the hit share is exactly one quarter on every run;
between segments the daemon is idle while the host is calibrated.
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

import numpy as np

import benchlib as bl
from benchlib import Outcome, RunSpec

#: suite names the hit quarter of the traffic repeats
HIT_NAMES = ("tiny-uniform", "tiny-grid2d")

#: the first misses are recomputed in-process after the window (their
#: build, parse and pipeline times are the per-layer figures), plus
#: every ``SPOT_CHECK``-th miss after them
PROFILED_MISSES = 200
PROFILED_MISSES_SMALL = 20
SPOT_CHECK = 10

#: the daemon's peak RSS is read when this many requests have completed:
#: its inline-matrix registry grows with every miss, so a reading after a
#: fixed amount of work keeps a faster daemon from looking bigger
RSS_AT_REQUESTS = 1000

#: the closed loop runs in segments this long, with a host calibration
#: before each; ``throughput_per_s`` is the median segment's rate
SEGMENT_S = 3.0

CLIENT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{[^}]*\})?\s+(\S+)")


def miss_matrix(seed: int, index: int, small: bool):
    """The ``index``-th miss: ``(matrix, dtype name)``, seeded."""
    from repro.matrices.generators import (
        banded,
        long_row_matrix,
        power_law,
        random_uniform,
    )

    k = 2 if small else 1
    s = seed * 1_000_003 + index
    family = index % 6
    if family == 0:
        return random_uniform(260 // k, 260 // k, 4.0, seed=s), "float64"
    if family == 1:
        return random_uniform(160 // k, 160 // k, 10.0, seed=s), "float64"
    if family == 2:
        return banded(400 // k, 2, seed=s, fill=0.97), "float64"
    if family == 3:
        return power_law(300 // k, avg_row_len=4.0, seed=s), "float64"
    if family == 4:
        return long_row_matrix(
            300 // k, 2.5, n_long_rows=1, long_row_len=120 // k, seed=s
        ), "float64"
    return random_uniform(220 // k, 220 // k, 5.0, seed=s), "float32"


def coo_payload(m) -> dict:
    from repro.sparse import COOMatrix

    coo = COOMatrix.from_csr(m)
    return {
        "rows": m.rows,
        "cols": m.cols,
        "row_idx": coo.row_idx.tolist(),
        "col_idx": coo.col_idx.tolist(),
        "values": coo.values.tolist(),
    }


def mtx_text(m) -> str:
    """General real coordinate Matrix Market; ``%.17g`` round-trips."""
    from repro.sparse import COOMatrix

    coo = COOMatrix.from_csr(m)
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{m.rows} {m.cols} {m.nnz}",
    ]
    lines += [
        f"{r + 1} {c + 1} {v:.17g}"
        for r, c, v in zip(coo.row_idx.tolist(), coo.col_idx.tolist(),
                           coo.values.tolist())
    ]
    return "\n".join(lines) + "\n"


def miss_payload(seed: int, index: int, small: bool) -> dict:
    """Every family goes out as COO on one cycle of six, MTX on the next."""
    m, dtype = miss_matrix(seed, index, small)
    if (index // 6) % 2 == 0:
        return {"coo": coo_payload(m), "dtype": dtype}
    return {"mtx": mtx_text(m), "dtype": dtype}


def product(m, dtype: str):
    """What the daemon computes for ``m``: ``(fingerprint, result)``."""
    from repro.campaign.plan import matrix_fingerprint
    from repro.core import AcSpgemmOptions, ac_spgemm
    from repro.sparse import squared_operands

    a, b = squared_operands(m)
    result = ac_spgemm(a, b, AcSpgemmOptions(value_dtype=np.dtype(dtype)))
    return matrix_fingerprint(result.matrix), result


# -- daemon lifecycle ----------------------------------------------------


class Daemon:
    def __init__(self, spec: RunSpec, prefix: str, ordinal: int):
        self.log = spec.scratch / f"serve-{ordinal}.log"
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--shm-prefix", prefix],
                cwd=spec.root, env=bl.child_env(spec.root),
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {banner!r} {self.tail()}")
        self.base = f"http://127.0.0.1:{match.group(1)}"

    def tail(self) -> str:
        return self.log.read_text(errors="replace")[-400:]

    def post(self, payload: dict) -> dict:
        req = urllib.request.Request(
            self.base + "/multiply",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=CLIENT_TIMEOUT_S) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return json.loads(exc.read())

    def peak_rss_mb(self) -> float:
        """The daemon's resident high-water mark (``VmHWM``) so far."""
        status = open(f"/proc/{self.proc.pid}/status").read()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def get(self, path: str) -> str:
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return resp.read().decode()

    def stop(self) -> str | None:
        """SIGTERM, drain, wait; returns a problem description or None."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return "daemon did not drain within the stop timeout"
        if self.proc.returncode != 0 or "drained" not in rest:
            return (f"daemon exited {self.proc.returncode} without draining: "
                    f"{rest!r} {self.tail()}")
        return None


def scrape(daemon: Daemon) -> dict[str, float]:
    """``/metrics`` samples summed over label sets, by sample name."""
    totals: dict[str, float] = {}
    for line in daemon.get("/metrics").splitlines():
        match = _SAMPLE.match(line)
        if match:
            name = match.group(1)
            totals[name] = totals.get(name, 0.0) + float(match.group(2))
    return totals


def _hist_mean(after: dict, before: dict, name: str) -> float:
    n = after.get(f"{name}_count", 0.0) - before.get(f"{name}_count", 0.0)
    s = after.get(f"{name}_sum", 0.0) - before.get(f"{name}_sum", 0.0)
    return s / n if n else 0.0


# -- the closed loop -----------------------------------------------------


def closed_loop(daemon: Daemon, spec: RunSpec, clients: int, calibrate):
    """Run blocks of 3 misses + 1 hit until the window ends, in segments
    of ``SEGMENT_S``; before each the clients stop at a block boundary
    and the host is calibrated while the daemon is idle.

    Returns ``(records, segments, daemon_rss_mb)``; a record is ``(kind,
    key, latency_ms, body or None, error or None, segment)`` in request
    order, a segment is ``(requests, wall_s)``.
    """
    lock = threading.Lock()
    cursor = [0]
    records: dict[int, tuple] = {}
    rss = []
    segments: list[tuple[int, float]] = []
    deadline = [0.0]

    def next_index():
        with lock:
            i = cursor[0]
            if i % 4 == 0 and time.perf_counter() >= deadline[0]:
                return None
            cursor[0] += 1
            return i

    def client():
        segment = len(segments)
        while (i := next_index()) is not None:
            block, pos = divmod(i, 4)
            body = error = None
            ms = 0.0
            try:
                if pos == 3:
                    kind, key = "hit", HIT_NAMES[block % len(HIT_NAMES)]
                    payload = {"matrix": key}
                else:
                    kind, key = "miss", block * 3 + pos
                    payload = miss_payload(spec.seed, key, spec.small)
                t0 = time.perf_counter()
                body = daemon.post(payload)
                ms = (time.perf_counter() - t0) * 1e3
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = repr(exc)
            with lock:
                records[i] = (kind, key, ms, body, error, segment)
                if len(records) == RSS_AT_REQUESTS:
                    rss.append(daemon.peak_rss_mb())

    t_start = time.perf_counter()
    while not segments or time.perf_counter() - t_start < spec.seconds:
        calibrate(5)
        first = cursor[0]
        t0 = time.perf_counter()
        deadline[0] = t0 + SEGMENT_S
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        segments.append((cursor[0] - first, time.perf_counter() - t0))
    if not rss:  # a window too short for RSS_AT_REQUESTS
        rss.append(daemon.peak_rss_mb())
    return [records[i] for i in sorted(records)], segments, rss[0]


def verify(records, spec: RunSpec, hit_digests: dict, out: Outcome) -> dict:
    """Check every response; recompute the profiled and spot-checked
    misses in-process and compare digests.

    Returns the per-layer figures of the profiled misses: generator
    seconds, simulated chunk and restart counts and, when tracing, the
    ``core`` spans of their recomputation and the parser timings.
    """
    from repro.obs.span import host_span_profile

    served: dict[int, str] = {}
    for kind, key, _, body, error, _ in records:
        out.attempted += 1
        if error is not None:
            out.fail(f"{kind} {key}: transport error {error}")
            continue
        outcome = body.get("outcome")
        if outcome not in ("success", "degraded"):
            out.fail(f"{kind} {key}: outcome {outcome} ({body.get('reason')})")
            continue
        if outcome == "degraded":
            continue
        digest = body.get("result", {}).get("digest")
        if kind == "hit":
            if not body.get("cached"):
                out.fail(f"hit {key}: not answered from the cache")
            if digest != hit_digests[key]:
                out.fail(f"hit {key}: digest {digest} != {hit_digests[key]}")
        else:
            served[key] = digest

    fixed = PROFILED_MISSES_SMALL if spec.small else PROFILED_MISSES
    profiled = {k for k in served if k < fixed}
    checked = sorted(profiled | {k for k in served if k % SPOT_CHECK == 0})
    figures = {"build_s": 0.0, "coo_ms": [], "mtx_ms": [], "chunks": 0,
               "restarts": 0, "verified": len(checked), "profiled": len(profiled)}
    core = bl.core_seconds()
    for index in checked:
        t0 = time.perf_counter()
        m, dtype = miss_matrix(spec.seed, index, spec.small)
        build_s = time.perf_counter() - t0
        if spec.trace and index in profiled:
            with host_span_profile() as prof:
                digest, result = product(m, dtype)
            bl.credit_core(core, prof)
            time_parsers(spec, index, figures)
        else:
            digest, result = product(m, dtype)
        if index in profiled:
            figures["build_s"] += build_s
            figures["chunks"] += result.n_chunks
            figures["restarts"] += result.restarts
        if served[index] != digest:
            out.fail(f"miss {index}: served digest {served[index]} != {digest}")
    figures["core"] = core
    return figures


def time_parsers(spec: RunSpec, index: int, figures: dict) -> None:
    """Time the public parser the daemon uses on this miss's payload."""
    from repro.sparse import COOMatrix, read_matrix_market

    payload = miss_payload(spec.seed, index, spec.small)
    if "coo" in payload:
        d = payload["coo"]
        t0 = time.perf_counter()
        COOMatrix(
            rows=int(d["rows"]), cols=int(d["cols"]),
            row_idx=np.asarray(d["row_idx"], dtype=np.int64),
            col_idx=np.asarray(d["col_idx"], dtype=np.int64),
            values=np.asarray(d["values"], dtype=np.float64),
        ).to_csr()
        figures["coo_ms"].append((time.perf_counter() - t0) * 1e3)
    else:
        path = spec.scratch / "payload.mtx"
        path.write_text(payload["mtx"], encoding="ascii")
        t0 = time.perf_counter()
        read_matrix_market(path, strict=True)
        figures["mtx_ms"].append((time.perf_counter() - t0) * 1e3)


def run(spec: RunSpec) -> Outcome:
    from repro.campaign.plan import tiny_entries

    out = Outcome()
    prefix = f"perfbench-serve-{os.getpid()}-"
    entries = {e.name: e for e in tiny_entries()}
    hit_digests = {
        name: product(entries[name].build(), "float64")[0]
        for name in HIT_NAMES
    }
    if spec.tamper:
        hit_digests[HIT_NAMES[0]] = "0" * 16

    setups = []
    daemon = None
    # the clients, the daemon and its warm workers keep every CPU busy
    clients = os.cpu_count() or 1
    with bl.Calibrator(clients, out.cals) as calibrate:
        try:
            # set-up: daemon spawn to the first success, pool spawn
            # included; every daemon but the last is drained right away
            for ordinal in range(bl.SETUP_REPEATS):
                if daemon is not None:
                    problem, daemon = daemon.stop(), None
                    if problem:
                        out.problems.append(problem)
                calibrate(3)
                t0 = time.perf_counter()
                daemon = Daemon(spec, prefix, ordinal)
                first = daemon.post({"matrix": HIT_NAMES[0]})
                setups.append(time.perf_counter() - t0)
                if first.get("outcome") != "success":
                    out.problems.append(
                        f"first request did not succeed: {first}"
                    )
            for name in HIT_NAMES[1:]:
                daemon.post({"matrix": name})  # the hit quarter never misses
            before = scrape(daemon)
            records, segments, daemon_rss = closed_loop(
                daemon, spec, clients, calibrate
            )
            after = scrape(daemon)
            stats = json.loads(daemon.get("/stats"))
        finally:
            if daemon is not None:
                problem = daemon.stop()
                if problem:
                    out.problems.append(problem)
    leaked = bl.shm_names(prefix)
    if leaked:
        out.problems.append(f"leaked shared-memory segments: {sorted(leaked)}")

    figures = verify(records, spec, hit_digests, out)
    lat = [r[2] for r in records]
    rates = [n / seg_wall for n, seg_wall in segments]
    wall = sum(seg_wall for _, seg_wall in segments)
    rate = len(records) / wall
    miss_lat = [r[2] for r in records if r[0] == "miss"]
    hit_lat = [r[2] for r in records if r[0] == "hit"]
    bodies = [r[3] for r in records if r[3] is not None]
    out.end_to_end = {
        "setup_s": bl.median(setups),
        "peak_rss_mb": max(bl.own_peak_rss_mb(), daemon_rss),
        "p50_ms": bl.median(lat),
        "throughput_per_s": bl.median(rates),
    }
    server_ms = _hist_mean(after, before, "repro_serve_request_ms")
    out.per_layer = {
        f"core.{stage}_s": s for stage, s in figures["core"].items()
    }
    out.per_layer.update(
        {
            # the daemon's pipeline runs out of process: the counts come
            # from the in-process recomputation of the profiled misses
            "core.chunks": figures["chunks"],
            "core.restarts": figures["restarts"],
            "matrices.build_s": figures["build_s"],
            "sparse.coo_parse_ms": bl.median(figures["coo_ms"]),
            "sparse.mtx_parse_ms": bl.median(figures["mtx_ms"]),
            "serve.p50_ms": bl.median(lat),
            "serve.p99_ms": bl.percentile(lat, 0.99),
            "serve.rps": rate,
            "serve.miss_p50_ms": bl.median(miss_lat),
            "serve.hit_p50_ms": bl.median(hit_lat),
            "serve.queue_wait_ms": _hist_mean(
                after, before, "repro_serve_queue_wait_ms"
            ),
            "serve.execute_ms": _hist_mean(after, before, "repro_serve_execute_ms"),
            "serve.server_ms": server_ms,
            "serve.transport_ms": sum(lat) / len(lat) - server_ms,
            "serve.cache_hit_share": sum(bool(b.get("cached")) for b in bodies)
            / len(lat),
            "serve.retries": after.get("repro_serve_retries_total", 0.0)
            - before.get("repro_serve_retries_total", 0.0),
            "serve.worker_deaths": stats.get("pool_worker_deaths", 0),
            "serve.degraded_share": sum(
                b.get("outcome") == "degraded" for b in bodies
            ) / len(lat),
            "serve.queue_high_water": after.get("repro_serve_queue_high_water", 0),
        }
    )
    out.info.update(
        {
            "p90_ms": bl.percentile(lat, 0.90),
            "engines": {
                "serve": {
                    "engine": stats["config"]["engine"],
                    "backend": stats["config"]["backend"],
                    "executors": stats["config"]["executors"],
                },
            },
            "clients": clients,
            "requests": len(lat),
            "window_s": wall,
            "segments": len(segments),
            "verified_misses": figures["verified"],
            "profiled_misses": figures["profiled"],
            "setup_s_each": setups,
            "spread": {
                "rate": bl.spread(rates),
                "latency_ms": bl.spread(lat),
                "miss_ms": bl.spread(miss_lat),
                "hit_ms": bl.spread(hit_lat),
            },
        }
    )
    return out
