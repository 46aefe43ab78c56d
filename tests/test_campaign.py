"""Tests for the sharded, resumable campaign runner."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines.registry import BASELINES
from repro.bench import run_case
from repro.bench.harness import MatrixCase
from repro.core import AcSpgemmOptions
from repro.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignRunner,
    ShardWriter,
    campaign_records,
    cell_key,
    config_entries,
    enumerate_cells,
    execute_cell,
    load_completed,
    matrix_fingerprint,
    read_shard_lines,
    tiny_entries,
)
from repro.campaign.plan import CACHE_VERSION

TINY2 = CampaignConfig(suite="tiny", limit=2)  # 2 matrices x 6 algs = 12 cells
SEED_TINY = Path(__file__).resolve().parent.parent / "benchmarks/seed/campaign_tiny.json"


def _repro_segments() -> set[str]:
    """The ``repro_*`` entries in ``/dev/shm`` (none where it is absent)."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {n for n in os.listdir(shm) if n.startswith("repro_")}


# ------------------------------------------------------------------- plan


class TestPlan:
    def test_suite_and_cell_enumeration(self):
        cells = enumerate_cells(TINY2)
        entries = config_entries(TINY2)
        assert len(entries) == 2
        assert len(cells) == 12
        # canonical sweep nesting: matrices outer, then dtypes, then algs
        assert [c.index for c in cells] == list(range(12))
        assert cells[0].matrix == entries[0].name
        assert cells[6].matrix == entries[1].name
        assert len({c.id for c in cells}) == 12

    def test_config_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(suite="nope")
        with pytest.raises(CampaignError):
            CampaignConfig(algorithms=("warp9",))
        with pytest.raises(CampaignError):
            CampaignConfig(dtypes=("float16",))
        with pytest.raises(CampaignError):
            CampaignConfig(retries=-1)

    def test_config_roundtrip(self):
        cfg = CampaignConfig(
            suite="tiny", limit=3, dtypes=("float32", "float64"),
            engine="batched", retries=2,
        )
        assert CampaignConfig.from_json(cfg.to_json()) == cfg

    def test_matrix_fingerprint_content_sensitivity(self):
        entries = tiny_entries()
        m = entries[0].build()
        assert matrix_fingerprint(m) == matrix_fingerprint(entries[0].build())
        assert matrix_fingerprint(m) != matrix_fingerprint(entries[1].build())

    def test_cell_key_binds_content_and_options(self):
        cells = enumerate_cells(TINY2)
        k = cell_key(cells[0], "fp0", TINY2)
        assert k == cell_key(cells[0], "fp0", TINY2)
        assert k != cell_key(cells[0], "fp1", TINY2)  # matrix changed
        assert k != cell_key(cells[1], "fp0", TINY2)  # algorithm changed
        assert k != cell_key(cells[0], "fp0", TINY2.with_(verify=True))
        # the oracle engine is the non-default one
        assert k != cell_key(cells[0], "fp0", TINY2.with_(engine="reference"))

    def test_default_engine_shares_default_fingerprint(self):
        # a campaign at the pipeline's default engine keys its cells like
        # every other default run; any other engine gets its own key
        assert CampaignConfig().engine == AcSpgemmOptions().engine
        assert CampaignConfig().options() is None
        assert CampaignConfig().options_fingerprint() == "default"
        oracle = CampaignConfig(engine="reference")
        assert oracle.options().engine == "reference"
        assert oracle.options_fingerprint() not in (
            "default", CampaignConfig().options_fingerprint()
        )

    def test_plan_pin_rejects_different_config(self, tmp_path):
        CampaignRunner(tmp_path, TINY2).run()
        other = TINY2.with_(limit=1)
        with pytest.raises(CampaignError, match="different plan"):
            CampaignRunner(tmp_path, other).run()


# ------------------------------------------------------------------ store


class TestStore:
    def test_torn_final_line_is_skipped(self, tmp_path):
        w = ShardWriter(tmp_path, 0)
        w.append({"id": "a", "key": "k1", "status": "ok"})
        w.close()
        with open(w.path, "a") as fh:
            fh.write('{"id": "b", "key": "k2", "st')  # killed mid-write
        lines = read_shard_lines(w.path)
        assert [ln["id"] for ln in lines] == ["a"]

    def test_torn_middle_line_raises(self, tmp_path):
        p = tmp_path / "shard-00.jsonl"
        p.write_text('{"id": "a", "key"\n{"id": "b", "key": "k2"}\n')
        with pytest.raises(CampaignError, match="corrupt checkpoint"):
            read_shard_lines(p)

    def test_load_completed_ignores_stale_keys(self, tmp_path):
        w = ShardWriter(tmp_path, 0)
        w.append({"id": "a", "key": "old", "status": "ok"})
        w.append({"id": "b", "key": "kb", "status": "ok"})
        w.close()
        got = load_completed(tmp_path, {"a": "new", "b": "kb"})
        assert list(got) == ["b"]

    def test_conflicting_duplicate_outcomes_raise(self, tmp_path):
        w0 = ShardWriter(tmp_path, 0)
        w0.append({"id": "a", "key": "ka", "status": "ok"})
        w0.close()
        w1 = ShardWriter(tmp_path, 1)
        w1.append({"id": "a", "key": "ka", "status": "failed"})
        w1.close()
        with pytest.raises(CampaignError, match="conflicting"):
            load_completed(tmp_path, {"a": "ka"})

    def test_concurrent_runners_share_one_directory(self, tmp_path):
        """Two campaigns started together on one fresh directory append
        to the same shards; both finish, and the merged artifact is the
        committed one."""
        camp = tmp_path / "shared"
        # throttled so that the two sweeps overlap
        procs = [_campaign_process(camp, "--throttle", "0.05") for _ in range(2)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        lines = sum(
            len(read_shard_lines(p)) for p in (camp / "shards").glob("*.jsonl")
        )
        assert lines > 36  # both campaigns checkpointed cells
        assert (camp / "campaign.json").read_bytes() == SEED_TINY.read_bytes()


# ------------------------------------------------------------- execution


class TestExecution:
    def test_inline_run_merges_records_in_plan_order(self, tmp_path):
        result = CampaignRunner(tmp_path, TINY2).run()
        assert result.stats["cells"] == 12
        assert result.stats["executed"] == 12
        assert not result.failed_cells
        recs = result.records()
        cells = enumerate_cells(TINY2)
        assert [(r.matrix, r.algorithm, r.dtype) for r in recs] == [
            (c.matrix, c.algorithm, c.dtype) for c in cells
        ]
        art = json.loads((tmp_path / "campaign.json").read_text())
        assert art["cache_version"] == CACHE_VERSION
        assert art["n_cells"] == 12
        # execution details never leak into the artifact
        assert "worker" not in art["cells"][0]
        assert "t_host" not in art["cells"][0]

    def test_every_baseline_sweeps(self, tmp_path):
        # every fixed-function baseline make_algorithm builds is a valid
        # campaign algorithm, not only the paper's line-up
        config = CampaignConfig(suite="tiny", limit=2, algorithms=tuple(BASELINES))
        result = CampaignRunner(tmp_path, config).run()
        assert result.stats["executed"] == 2 * len(BASELINES)
        assert not result.failed_cells
        assert {r.algorithm for r in result.records()} == set(BASELINES)
        with pytest.raises(CampaignError, match="unknown algorithms"):
            CampaignConfig(algorithms=(*BASELINES, "warp9"))

    def test_rerun_resumes_everything(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        CampaignRunner(tmp_path, TINY2).run()
        before = (tmp_path / "campaign.json").read_bytes()

        def refuse(matrix):
            raise AssertionError("a resumed cell built its operands")

        # resumed cells are answered from the checkpoints alone
        monkeypatch.setattr(harness, "squared_operands", refuse)
        again = CampaignRunner(tmp_path, TINY2).run()
        assert again.stats["resumed"] == 12
        assert again.stats["executed"] == 0
        assert (tmp_path / "campaign.json").read_bytes() == before

    def test_two_workers_byte_identical_to_inline(self, tmp_path):
        a = CampaignRunner(tmp_path / "w1", TINY2, workers=1).run()
        b = CampaignRunner(tmp_path / "w2", TINY2, workers=2).run()
        assert b.stats["workers"] == 2
        assert (
            a.artifact_path.read_bytes() == b.artifact_path.read_bytes()
        )

    def test_coordinator_is_worker_zero(self, tmp_path, monkeypatch):
        """workers=2 forks one worker; the coordinator checkpoints
        cells in shard-00, the forked one in shard-01, and the run
        leaves no shared-memory segment behind."""
        from multiprocessing.context import ForkProcess

        started = []
        start = ForkProcess.start

        def counted(proc):
            started.append(proc)
            start(proc)

        monkeypatch.setattr(ForkProcess, "start", counted)
        segments = _repro_segments()
        config = CampaignConfig(suite="tiny")
        runner = CampaignRunner(tmp_path, config, workers=2, throttle=0.1)
        result = runner.run()
        assert result.stats["workers"] == 2
        assert len(started) == 1
        shards = tmp_path / "shards"
        assert read_shard_lines(shards / "shard-00.jsonl")
        assert read_shard_lines(shards / "shard-01.jsonl")
        assert not (shards / "shard-02.jsonl").exists()
        assert _repro_segments() <= segments

    def test_workers_start_before_the_first_put(self, tmp_path, monkeypatch):
        """Every worker is forked before the queue's feeder thread
        exists: no start may follow the first put."""
        from multiprocessing.context import ForkProcess
        from multiprocessing.queues import Queue

        events = []
        start, put = ForkProcess.start, Queue.put

        def started(proc):
            events.append("start")
            start(proc)

        def queued(q, *args, **kwargs):
            events.append("put")
            put(q, *args, **kwargs)

        monkeypatch.setattr(ForkProcess, "start", started)
        monkeypatch.setattr(Queue, "put", queued)
        result = CampaignRunner(tmp_path, TINY2, workers=2).run()
        assert result.stats["executed"] == 12
        assert events.count("start") == 1
        assert events.count("put") == 12 + 2  # cells, then a sentinel each
        assert events.index("put") > events.index("start")

    def test_forked_worker_builds_no_matrix(self, tmp_path, monkeypatch):
        """The forked worker runs on the coordinator's matrices: every
        build happens in the coordinator, once per plan matrix."""
        from repro.matrices.suite import SuiteEntry

        log = tmp_path / "builds.log"
        build = SuiteEntry.build

        def logged(entry):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {entry.name}\n")
            return build(entry)

        monkeypatch.setattr(SuiteEntry, "build", logged)
        config = CampaignConfig(suite="tiny")
        result = CampaignRunner(
            tmp_path / "camp", config, workers=2, throttle=0.05
        ).run()
        shard = tmp_path / "camp" / "shards" / "shard-01.jsonl"
        assert read_shard_lines(shard), "the forked worker took no cell"
        assert result.stats["executed"] == 36
        builds = [line.split() for line in log.read_text().splitlines()]
        assert {pid for pid, _ in builds} == {str(os.getpid())}
        assert sorted(name for _, name in builds) == sorted(
            e.name for e in config_entries(config)
        )

    def test_one_worker_spawns_and_exports_nothing(self, tmp_path, monkeypatch):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("a one-worker campaign must stay in-process")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        handler = signal.getsignal(signal.SIGTERM)
        result = CampaignRunner(tmp_path, TINY2, workers=1).run()
        assert result.stats["executed"] == 12
        # the drain handler is installed only while the cell loop runs
        assert signal.getsignal(signal.SIGTERM) is handler
        assert sorted(p.name for p in (tmp_path / "shards").iterdir()) == [
            "shard-00.jsonl"
        ]

    def test_many_workers_without_fork_raise_typed(self, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(CampaignError, match="fork start method"):
            CampaignRunner(tmp_path, TINY2, workers=2)
        # one worker never forks, so it runs wherever fork is missing
        assert CampaignRunner(tmp_path, TINY2, workers=1).workers == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_counts_cell_checkpoints(self, tmp_path, workers):
        """Progress is resumed + checkpointed cells, whatever
        the worker count: never decreasing, never past the total."""
        calls = []
        CampaignRunner(
            tmp_path, CampaignConfig(suite="tiny"), workers=workers,
            progress=lambda done, total: calls.append((done, total)),
        ).run()
        done = [d for d, _ in calls]
        assert done == sorted(done)
        assert all(0 < d <= t == 36 for d, t in calls)
        assert calls[-1] == (36, 36)

    def test_campaign_records_helper(self, tmp_path):
        recs = campaign_records(tmp_path, TINY2)
        assert len(recs) == 12
        assert recs[0].gflops > 0


# --------------------------------------------------- retries / failures


class TestRetries:
    @staticmethod
    def _cell_and_case():
        entries = tiny_entries()
        case = MatrixCase(entries[0].name, entries[0].build())
        cell = enumerate_cells(CampaignConfig(suite="tiny", limit=1))[0]
        return case, cell

    def test_flaky_cell_is_retried(self):
        case, cell = self._cell_and_case()
        config = CampaignConfig(suite="tiny", limit=1, retries=2)
        calls = {"n": 0}

        def flaky(case, alg, dtype, *, verify):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return run_case(case, alg, dtype, verify=verify)

        line = execute_cell(
            case, cell, config, key="k", worker=0, runner=flaky
        )
        assert line["status"] == "retried"
        assert line["attempts"] == 3
        assert line["record"] is not None
        assert line["error"] is None

    def test_exhausted_budget_records_failure(self):
        case, cell = self._cell_and_case()
        config = CampaignConfig(suite="tiny", limit=1, retries=1)

        def broken(case, alg, dtype, *, verify):
            raise RuntimeError("deterministic crash")

        line = execute_cell(
            case, cell, config, key="k", worker=0, runner=broken
        )
        assert line["status"] == "failed"
        assert line["attempts"] == 2
        assert line["record"] is None
        assert line["error"]["kind"] == "RuntimeError"
        assert "deterministic crash" in line["error"]["message"]

    def test_records_refuses_failed_cells_by_default(self, tmp_path):
        result = CampaignRunner(tmp_path, TINY2).run()
        bad = dict(result.completed[result.cells[0].id])
        bad["status"] = "failed"
        bad["record"] = None
        result.completed[result.cells[0].id] = bad
        with pytest.raises(CampaignError, match="failed"):
            result.records()
        assert len(result.records(allow_failed=True)) == 11


# ------------------------------------------------------------- metrics


class TestMetrics:
    def test_campaign_metrics_roundtrip(self, tmp_path):
        from repro.obs import parse_prometheus_text

        result = CampaignRunner(tmp_path, TINY2).run()
        text = result.metrics.to_prometheus()
        parsed = parse_prometheus_text(text)
        totals = parsed["samples"]["repro_campaign_cells_total"]
        assert sum(v for _, v in totals) == 12
        # matrix names (with dashes) survive as label *values*
        per_matrix = parsed["samples"]["repro_campaign_matrix_seconds_total"]
        assert {lbl["matrix"] for lbl, _ in per_matrix} == {
            e.name for e in config_entries(TINY2)
        }
        hit = parsed["samples"]["repro_campaign_cache_hit_ratio"]
        assert hit[0][1] == 0.0


# ---------------------------------------------------------- kill/resume


def _campaign_process(camp: Path, *extra: str) -> subprocess.Popen:
    """``repro campaign --suite tiny --workers 2`` in its own session."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign", "--suite", "tiny",
        "--workers", "2", "--dir", str(camp), "--quiet", *extra,
    ]
    return subprocess.Popen(
        cmd, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class TestKillResume:
    def test_sigkill_mid_sweep_then_resume_byte_identical(self, tmp_path):
        """Satellite 5: SIGKILL a 2-worker campaign mid-sweep, rerun,
        and the merged artifact is byte-identical to an uninterrupted
        run, with every pre-kill cell served from the checkpoints."""
        camp = tmp_path / "interrupted"
        proc = _campaign_process(camp, "--throttle", "0.25")
        try:
            deadline = time.monotonic() + 60
            n_prekill = 0
            while time.monotonic() < deadline:
                shards = list((camp / "shards").glob("*.jsonl"))
                n_prekill = sum(
                    len(read_shard_lines(p)) for p in shards
                )
                if n_prekill >= 6:
                    break
                time.sleep(0.1)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert 0 < n_prekill < 36, "kill must land mid-sweep"
        assert not (camp / "campaign.json").exists()

        config = CampaignConfig(suite="tiny")
        resumed = CampaignRunner(camp, config, workers=2).run()
        # >= 90% of the checkpointed cells come back from the shards
        assert resumed.stats["resumed"] >= 0.9 * n_prekill
        assert (
            resumed.stats["resumed"] + resumed.stats["executed"] == 36
        )
        clean = CampaignRunner(tmp_path / "clean", config).run()
        assert (
            resumed.artifact_path.read_bytes()
            == clean.artifact_path.read_bytes()
        )

    def test_sigterm_drains_coordinator_then_resume(self, tmp_path):
        """SIGTERM to the coordinator alone: it finishes its cell, stops
        its forked worker and exits non-zero, leaving no shared-memory
        segment; a rerun resumes to the clean artifact."""
        from repro.campaign.store import read_shard_diagnostics

        camp = tmp_path / "drained"
        config = CampaignConfig(suite="tiny")
        segments = _repro_segments()
        proc = _campaign_process(camp, "--throttle", "0.25")
        try:
            deadline = time.monotonic() + 60
            n_preterm = 0
            while time.monotonic() < deadline and n_preterm < 3:
                time.sleep(0.05)
                shards = (camp / "shards").glob("shard-*.jsonl")
                n_preterm = sum(len(read_shard_lines(p)) for p in shards)
            os.kill(proc.pid, signal.SIGTERM)
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
        assert 3 <= n_preterm < 36, "SIGTERM must land mid-sweep"
        assert code != 0
        assert not (camp / "campaign.json").exists()
        assert _repro_segments() <= segments
        diags = read_shard_diagnostics(camp / "shards" / "shard-00.jsonl")
        assert any(d.get("event") == "sigterm-drain" for d in diags)

        resumed = CampaignRunner(camp, config, workers=2).run()
        assert resumed.stats["resumed"] >= 3
        clean = CampaignRunner(tmp_path / "clean", config).run()
        assert (
            resumed.artifact_path.read_bytes()
            == clean.artifact_path.read_bytes()
        )


# ------------------------------------------------- liveness and drain


class TestWorkerLiveness:
    def test_cell_timeout_raises_typed_and_counts_against_retries(self):
        entries = tiny_entries()
        case = MatrixCase(entries[0].name, entries[0].build())
        cell = enumerate_cells(CampaignConfig(suite="tiny", limit=1))[0]
        config = CampaignConfig(suite="tiny", limit=1, retries=1)

        def hang(case, alg, dtype, *, verify):
            time.sleep(30)  # interrupted by SIGALRM long before 30 s
            raise AssertionError("unreachable")  # pragma: no cover

        t0 = time.monotonic()
        line = execute_cell(
            case, cell, config, key="k", worker=0,
            runner=hang, cell_timeout=0.2,
        )
        assert time.monotonic() - t0 < 10
        assert line["status"] == "failed"
        assert line["attempts"] == 2  # the timeout consumed the budget
        assert line["error"]["kind"] == "DeadlineExceeded"
        assert line["error"]["stage"] == "cell"

    def test_cell_timeout_disarmed_after_fast_cell(self):
        """The itimer must not fire after a cell finishes in time."""
        entries = tiny_entries()
        case = MatrixCase(entries[0].name, entries[0].build())
        cell = enumerate_cells(CampaignConfig(suite="tiny", limit=1))[0]
        config = CampaignConfig(suite="tiny", limit=1)
        line = execute_cell(
            case, cell, config, key="k", worker=0, cell_timeout=30.0,
        )
        assert line["status"] == "ok"
        time.sleep(0.05)  # a leaked alarm would fire here and kill us

    def test_starved_worker_checkpoints_typed_diagnostic(self, tmp_path):
        """An empty queue past the starvation window is attributable:
        the worker records a WorkerStarved diagnostic and exits instead
        of vanishing silently."""
        import queue as queue_mod

        from repro.campaign.store import read_shard_diagnostics
        from repro.campaign.worker import worker_main

        config = CampaignConfig(suite="tiny", limit=1)
        worker_main(
            str(tmp_path), 0, config.to_json(), queue_mod.Queue(),
            starve_timeout=0.6,
        )
        diags = read_shard_diagnostics(tmp_path / "shards" / "shard-00.jsonl")
        starved = [d for d in diags if d.get("event") == "starved"]
        assert len(starved) == 1
        assert starved[0]["error"]["kind"] == "WorkerStarved"
        assert starved[0]["waited_s"] >= 0.6
        # diagnostics are invisible to resume/merge
        assert read_shard_lines(
            tmp_path / "shards" / "shard-00.jsonl"
        ) == []

    def test_sigterm_drains_in_flight_cell_and_exits_zero(self, tmp_path):
        """SIGTERM mid-campaign: the worker finishes its current cell,
        fsyncs it, records a drain marker and exits 0."""
        import multiprocessing as mp

        from repro.campaign.store import read_shard_diagnostics
        from repro.campaign.worker import worker_main

        config = CampaignConfig(
            suite="tiny", limit=1, algorithms=("ac-spgemm",)
        )
        ctx = mp.get_context("spawn")
        work_queue = ctx.Queue()
        work_queue.put(0)  # one cell, then the queue idles (no sentinel)
        proc = ctx.Process(
            target=worker_main,
            args=(str(tmp_path), 0, config.to_json(), work_queue),
        )
        proc.start()
        try:
            shard = tmp_path / "shards" / "shard-00.jsonl"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if read_shard_lines(shard):
                    break
                time.sleep(0.1)
            assert read_shard_lines(shard), "cell never checkpointed"
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=60)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=30)
        assert proc.exitcode == 0
        lines = read_shard_lines(shard)
        assert len(lines) == 1 and lines[0]["status"] == "ok"
        diags = read_shard_diagnostics(shard)
        assert any(d.get("event") == "sigterm-drain" for d in diags)
