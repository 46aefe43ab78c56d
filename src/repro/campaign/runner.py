"""Campaign orchestration: sharded execution, resume, merge, metrics.

The runner owns a campaign *directory*: ``plan.json`` (the pinned
configuration), ``shards/*.jsonl`` (per-worker checkpoints) and
``campaign.json`` (the merged artifact, written only once every cell
is accounted for).  Running the same plan again — after a crash, a
``SIGKILL``, or with a different worker count — resumes from the
checkpoints and converges on a byte-identical artifact.

Execution modes:

* ``workers == 1`` — inline, in-process (no spawn overhead; this is
  also the mode the determinism tests compare everything against);
* ``workers >= 2`` — N worker processes (``spawn`` start method, so
  every worker re-derives its matrices from seeds in a fresh
  interpreter) pulling cells from a shared queue.

A shared :class:`~repro.bench.harness.ResultCache` can seed the
campaign (cells already swept by the figure benches are imported as
cache hits) and receives every fresh record back on completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..bench.harness import MatrixCase, ResultCache, RunRecord
from ..obs.metrics import MetricsRegistry
from .plan import (
    CampaignConfig,
    CampaignError,
    CellSpec,
    cell_key,
    cell_options,
    config_entries,
    enumerate_cells,
    matrix_fingerprint,
    plan_document,
)
from .store import (
    ShardWriter,
    load_completed,
    merged_artifact_bytes,
    write_atomic,
)
from .worker import campaign_trace_meta, execute_cell, worker_main

__all__ = ["CampaignResult", "CampaignRunner", "campaign_records"]

_POLL_SECONDS = 0.25


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    config: CampaignConfig
    cells: list[CellSpec]
    completed: dict[str, dict]
    artifact_path: Path
    stats: dict = field(default_factory=dict)
    metrics: MetricsRegistry | None = None

    @property
    def failed_cells(self) -> list[str]:
        """Cell ids whose retry budget was exhausted."""
        return [
            c.id
            for c in self.cells
            if self.completed[c.id]["status"] == "failed"
        ]

    def records(self, *, allow_failed: bool = False) -> list[RunRecord]:
        """The merged sweep as :class:`RunRecord`s in plan order.

        Failed cells have no record; by default their presence raises
        so a figure bench can never silently plot a partial sweep.
        """
        failed = self.failed_cells
        if failed and not allow_failed:
            raise CampaignError(
                f"{len(failed)} cells failed (first: {failed[0]!r}); "
                "pass allow_failed=True to skip them"
            )
        out = []
        for c in self.cells:
            rec = self.completed[c.id].get("record")
            if rec is not None:
                out.append(RunRecord.from_json(rec))
        return out


class CampaignRunner:
    """Sharded, resumable executor for one campaign directory."""

    def __init__(
        self,
        directory: str | Path,
        config: CampaignConfig,
        *,
        workers: int | str = 1,
        cache_path: str | Path | None = None,
        progress=None,
        throttle: float = 0.0,
        cell_timeout: float | None = None,
    ) -> None:
        import os

        self.workers_requested = workers
        if workers == "auto":
            # resolved at invocation time, per machine — the frozen plan
            # carries no runtime knobs, so "auto" never perturbs resume
            # or the merged artifact
            workers = os.cpu_count() or 1
        if not isinstance(workers, int) or workers < 1:
            raise CampaignError("workers must be >= 1 or 'auto'")
        self.directory = Path(directory)
        self.config = config
        self.workers = workers
        self.cache_path = Path(cache_path) if cache_path else None
        self.progress = progress
        # runtime test hook (kill/resume tests); not part of the plan
        self.throttle = throttle
        # runtime knob: per-cell wallclock bound (seconds), counted
        # against the retry budget; like workers it never enters the
        # plan — but unlike workers a fired timeout *is* visible in the
        # artifact (a failed/retried cell), so it defaults off
        self.cell_timeout = cell_timeout
        self.cells = enumerate_cells(config)
        if not self.cells:
            raise CampaignError("campaign plan has no cells")

    # -- plan pinning -------------------------------------------------

    def _pin_plan(self) -> None:
        """Write ``plan.json``, or verify it matches on resume."""
        doc = plan_document(self.config)
        path = self.directory / "plan.json"
        if path.exists():
            if path.read_text().strip() != doc.strip():
                raise CampaignError(
                    f"campaign directory {self.directory} holds a "
                    "different plan; use a fresh directory or delete it"
                )
            return
        write_atomic(path, (doc + "\n").encode())

    # -- content addressing -------------------------------------------

    def _fingerprints(self) -> dict[str, str]:
        """Matrix fingerprints for every entry in the plan.

        Builds each matrix once (construction only — operands and
        product statistics stay lazy, so a fully resumed campaign
        never pays for them).  The built matrices are retained on the
        runner: sharded execution places them in shared memory so the
        worker processes map them instead of rebuilding per worker.
        """
        fps = {}
        self._built: dict[str, object] = {}
        for entry in config_entries(self.config):
            m = entry.build()
            self._built[entry.name] = m
            fps[entry.name] = matrix_fingerprint(m)
        return fps

    def _export_operands(self, remaining: list[CellSpec]):
        """Place the matrices the remaining cells touch in shared memory.

        Returns ``(metas, handles)``: the picklable per-matrix
        attachment descriptors (with the already-computed fingerprint,
        so workers skip both the rebuild and the re-hash) and the owner
        handles to release once the workers are done.
        """
        from ..engine.shm import SharedCSR

        order = self._segment_names()
        metas: dict[str, dict] = {}
        handles = []
        for name in sorted({c.matrix for c in remaining}):
            matrix = self._built.get(name)
            fp = self._last_fps.get(name)
            if matrix is None or fp is None:
                continue
            h = SharedCSR.export(matrix, name=order[name])
            handles.append(h)
            metas[name] = {"shm": h.meta(), "fingerprint": fp}
        return metas, handles

    def _segment_names(self) -> dict[str, str]:
        """Deterministic shared-memory segment name per plan matrix.

        Derived from the campaign directory and the pinned plan: a
        SIGKILLed invocation takes its resource tracker down with it and
        leaks its segments, so the *next* invocation of the same
        campaign must be able to enumerate — and reclaim — every name
        the killed one could have created.
        """
        import hashlib

        base = hashlib.blake2b(
            (str(self.directory.resolve()) + plan_document(self.config)).encode(),
            digest_size=6,
        ).hexdigest()
        names = sorted(e.name for e in config_entries(self.config))
        return {name: f"repro_{base}_{i}" for i, name in enumerate(names)}

    def _sweep_segments(self) -> int:
        """Unlink every segment this campaign could have left behind."""
        from ..engine.shm import sweep_segments

        return sweep_segments(self._segment_names().values())

    # -- cache seeding ------------------------------------------------

    def _seed_from_cache(
        self,
        expected_keys: dict[str, str],
        completed: dict[str, dict],
    ) -> int:
        """Import sweep-cache hits for cells without a checkpoint."""
        if self.cache_path is None or not self.cache_path.exists():
            return 0
        cache = ResultCache(self.cache_path)
        options = self.config.options()
        writer = None
        seeded = 0
        try:
            for cell in self.cells:
                if cell.id in completed:
                    continue
                k = ResultCache.key(
                    cell.matrix, cell.algorithm, cell.dtype,
                    cell_options(cell.algorithm, options),
                )
                rec = cache._data.get(k)
                if rec is None:
                    continue
                # indistinguishable from a fresh first-attempt success:
                # a deterministic cell that once succeeded always would,
                # so seeding must not perturb the merged artifact
                line = {
                    "id": cell.id,
                    "key": expected_keys[cell.id],
                    "status": "ok",
                    "attempts": 1,
                    "record": rec,
                    "error": None,
                    "worker": "cache",
                    "t_host": 0.0,
                }
                if writer is None:
                    writer = ShardWriter(self.directory, "seed")
                writer.append(line)
                completed[cell.id] = line
                seeded += 1
        finally:
            if writer is not None:
                writer.close()
        return seeded

    # -- execution ----------------------------------------------------

    def _run_inline(self, remaining: list[CellSpec]) -> None:
        entries = {e.name: e for e in config_entries(self.config)}
        cases: dict[str, MatrixCase] = {}
        fps: dict[str, str] = {}
        writer = ShardWriter(self.directory, 0)
        try:
            for i, cell in enumerate(remaining):
                case = cases.get(cell.matrix)
                if case is None:
                    entry = entries[cell.matrix]
                    case = MatrixCase(
                        entry.name, entry.build(), family=entry.family
                    )
                    cases[cell.matrix] = case
                    fps[cell.matrix] = matrix_fingerprint(case.matrix)
                line = execute_cell(
                    case,
                    cell,
                    self.config,
                    key=cell_key(cell, fps[cell.matrix], self.config),
                    worker=0,
                    cell_timeout=self.cell_timeout,
                    trace_meta=campaign_trace_meta(self.config),
                )
                writer.append(line)
                if self.throttle:
                    time.sleep(self.throttle)
                if self.progress is not None:
                    self.progress(i + 1, len(remaining))
        finally:
            writer.close()

    def _run_processes(self, remaining: list[CellSpec]) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        n = min(self.workers, len(remaining))
        work = ctx.Queue()
        for cell in remaining:
            work.put(cell.index)
        for _ in range(n):
            work.put(None)
        operand_metas, operand_handles = self._export_operands(remaining)
        procs = [
            ctx.Process(
                target=worker_main,
                args=(
                    str(self.directory),
                    w,
                    self.config.to_json(),
                    work,
                    self.throttle,
                    operand_metas,
                    self.cell_timeout,
                ),
                kwargs={"trace_meta": campaign_trace_meta(self.config)},
            )
            for w in range(n)
        ]
        for p in procs:
            p.start()
        try:
            while any(p.is_alive() for p in procs):
                time.sleep(_POLL_SECONDS)
                if self.progress is not None:
                    done = sum(
                        path.read_text(encoding="utf-8").count("\n")
                        for path in (self.directory / "shards").glob(
                            "*.jsonl"
                        )
                    )
                    self.progress(done, len(self.cells))
            for p in procs:
                p.join()
        except BaseException:
            # SIGTERM asks workers to drain: the in-flight cell is
            # finished and fsynced, so give them a bounded grace period
            # before propagating
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=10)
            raise
        finally:
            # the owner unlinks unconditionally, and the sweep also
            # reclaims segments a previous SIGKILLed invocation leaked
            # for matrices this one never re-exported
            for h in operand_handles:
                h.close()
            self._sweep_segments()
        bad = [p.exitcode for p in procs if p.exitcode != 0]
        if bad:
            raise CampaignError(
                f"{len(bad)} campaign workers exited abnormally "
                f"(exit codes {bad}); rerun to resume from checkpoints"
            )

    # -- the whole dance ----------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign and merge the artifact."""
        t_start = time.monotonic()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pin_plan()
        fps = self._fingerprints()
        self._last_fps = fps
        expected_keys = {
            c.id: cell_key(c, fps[c.matrix], self.config) for c in self.cells
        }
        completed = load_completed(self.directory, expected_keys)
        resumed = len(completed)
        seeded = self._seed_from_cache(expected_keys, completed)
        remaining = [c for c in self.cells if c.id not in completed]
        if remaining:
            if self.workers == 1:
                self._run_inline(remaining)
            else:
                self._run_processes(remaining)
            completed = load_completed(self.directory, expected_keys)
        executed = len(completed) - resumed - seeded
        wall = time.monotonic() - t_start
        artifact = merged_artifact_bytes(self.config, self.cells, completed)
        artifact_path = write_atomic(self.directory / "campaign.json", artifact)
        self._fold_into_cache(completed)
        stats = {
            "cells": len(self.cells),
            "resumed": resumed,
            "seeded": seeded,
            "executed": executed,
            "wall_seconds": wall,
            "workers": self.workers,
            "workers_requested": self.workers_requested,
        }
        metrics = self._build_metrics(completed, stats)
        return CampaignResult(
            config=self.config,
            cells=self.cells,
            completed=completed,
            artifact_path=artifact_path,
            stats=stats,
            metrics=metrics,
        )

    def _fold_into_cache(self, completed: dict[str, dict]) -> None:
        """Write every successful record back into the shared cache."""
        if self.cache_path is None:
            return
        cache = ResultCache(self.cache_path)
        options = self.config.options()
        dirty = False
        for cell in self.cells:
            line = completed[cell.id]
            if line.get("record") is None:
                continue
            k = ResultCache.key(
                cell.matrix, cell.algorithm, cell.dtype,
                cell_options(cell.algorithm, options),
            )
            if cache._data.get(k) != line["record"]:
                cache._data[k] = line["record"]
                dirty = True
        if dirty:
            cache.save()

    def _build_metrics(
        self, completed: dict[str, dict], stats: dict
    ) -> MetricsRegistry:
        """Campaign throughput/caching/utilization metrics."""
        reg = MetricsRegistry(
            const_labels={"suite": self.config.suite}
        )
        for line in completed.values():
            reg.inc(
                "repro_campaign_cells_total",
                1,
                help="Merged campaign cells by outcome.",
                status=line["status"],
            )
        reg.inc(
            "repro_campaign_resumed_cells_total",
            stats["resumed"],
            help="Cells served from shard checkpoints on resume.",
        )
        reg.inc(
            "repro_campaign_seeded_cells_total",
            stats["seeded"],
            help="Cells imported from the shared sweep cache.",
        )
        reg.inc(
            "repro_campaign_executed_cells_total",
            stats["executed"],
            help="Cells actually executed by this invocation.",
        )
        total = stats["cells"]
        hits = stats["resumed"] + stats["seeded"]
        reg.set(
            "repro_campaign_cache_hit_ratio",
            round(hits / total, 6) if total else 0.0,
            help="Fraction of cells answered without execution.",
        )
        wall = stats["wall_seconds"]
        reg.set(
            "repro_campaign_wall_seconds",
            round(wall, 6),
            help="Wallclock of this campaign invocation.",
        )
        reg.set(
            "repro_campaign_cells_per_second",
            round(stats["executed"] / wall, 6) if wall > 0 else 0.0,
            help="Executed-cell throughput of this invocation.",
        )
        reg.set(
            "repro_campaign_workers",
            stats["workers"],
            help="Resolved worker processes of this invocation "
            "(the count 'auto' expanded to, not the request).",
        )
        busy: dict[str, float] = {}
        per_matrix: dict[str, float] = {}
        for line in completed.values():
            w = str(line.get("worker", "?"))
            busy[w] = busy.get(w, 0.0) + float(line.get("t_host", 0.0))
            m = line["id"].split("|", 1)[0]
            per_matrix[m] = per_matrix.get(m, 0.0) + float(
                line.get("t_host", 0.0)
            )
        for w in sorted(busy):
            if w == "cache":
                continue
            reg.set(
                "repro_campaign_worker_busy_seconds",
                round(busy[w], 6),
                help="Summed per-cell host seconds per worker.",
                worker=w,
            )
            if wall > 0:
                reg.set(
                    "repro_campaign_worker_utilization",
                    round(min(busy[w] / wall, 1.0), 6),
                    help="Busy fraction of this invocation's wallclock.",
                    worker=w,
                )
        for m in sorted(per_matrix):
            reg.inc(
                "repro_campaign_matrix_seconds_total",
                round(per_matrix[m], 6),
                help="Summed host seconds per matrix (all cells).",
                matrix=m,
            )
        return reg


def campaign_records(
    directory: str | Path,
    config: CampaignConfig,
    *,
    workers: int = 1,
    cache_path: str | Path | None = None,
    allow_failed: bool = False,
) -> list[RunRecord]:
    """Run (or resume) a campaign and return its records in plan order.

    This is the bench entry point: the figure benches hand it the
    shared sweep cache so a warm sweep is a pure cache import and a
    cold one is sharded across workers.
    """
    result = CampaignRunner(
        directory, config, workers=workers, cache_path=cache_path
    ).run()
    return result.records(allow_failed=allow_failed)
