"""Campaign orchestration: sharded execution, resume, merge, metrics.

The runner owns a campaign *directory*: ``plan.json`` (the pinned
configuration), ``shards/*.jsonl`` (per-worker checkpoints) and
``campaign.json`` (the merged artifact, written only once every cell
is accounted for).  Running the same plan again — after a crash, a
``SIGKILL``, or with a different worker count — resumes from the
checkpoints and converges on a byte-identical artifact.

Execution: the coordinator (the process calling :meth:`run`) is
worker 0 and runs the cell loop itself.  ``workers == N`` forks N−1
more worker processes (``fork`` start method, so Linux) on the same
queue; they inherit the coordinator's built matrices and fingerprints
as copy-on-write memory and take cells at once, with no interpreter to
boot and nothing to rebuild.  ``workers == 1`` starts no process: the
same loop runs over an in-process queue.

The campaign directory is the project's only on-disk result store: the
figure benches read their records from ``results/campaign_full`` and
``results/campaign_named``, and a rerun answers every checkpointed
cell without executing it.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..bench.harness import RunRecord
from ..obs.metrics import MetricsRegistry
from .plan import (
    CampaignConfig,
    CampaignError,
    CellSpec,
    cell_key,
    config_entries,
    enumerate_cells,
    matrix_fingerprint,
    plan_document,
)
from .store import (
    load_completed,
    merged_artifact_bytes,
    shard_dir,
    write_atomic,
)
from .worker import campaign_trace_meta, worker_main

__all__ = ["CampaignResult", "CampaignRunner", "campaign_records"]

#: longest wait for a worker exit between two progress reports
_PROGRESS_SECONDS = 0.25


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
        if workers > 1:
            import multiprocessing as mp

            if "fork" not in mp.get_all_start_methods():
                raise CampaignError(
                    "more than one worker needs the fork start method (Linux)"
                )
        self.directory = Path(directory)
        self.config = config
        self.workers = workers
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
        runner with their fingerprints: the coordinator's cell loop runs
        on them and the forked workers inherit them.
        """
        self._built: dict[str, tuple] = {}
        for entry in config_entries(self.config):
            m = entry.build()
            self._built[entry.name] = (m, matrix_fingerprint(m))
        return {name: fp for name, (_, fp) in self._built.items()}

    # -- execution ----------------------------------------------------

    def _run_cells(self, remaining: list[CellSpec], progress) -> None:
        """Run ``remaining`` with the coordinator as worker 0.

        Forks ``min(workers, len(remaining)) - 1`` workers, then runs
        :func:`worker_main` here until it reads its sentinel, then waits
        for the forked workers, waking when one exits.  ``SIGTERM``
        during the loop drains: the in-flight cell finishes, the forked
        workers are terminated (they drain too) and joined, and the
        campaign stops with a resumable :class:`CampaignError`.
        """
        n = min(self.workers, len(remaining))
        procs = []
        if n > 1:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
        work = ctx.Queue() if n > 1 else queue.Queue()
        trace_meta = campaign_trace_meta(self.config)
        try:
            # fork before the first put: the queue's feeder thread does
            # not exist yet, so no lock can be copied held into a child
            for w in range(1, n):
                p = ctx.Process(
                    target=worker_main,
                    args=(
                        str(self.directory), w, self.config.to_json(), work,
                        self.throttle,
                    ),
                    kwargs={
                        "cell_timeout": self.cell_timeout,
                        "trace_meta": trace_meta,
                        "built": self._built,
                    },
                )
                p.start()
                procs.append(p)
            for index in [c.index for c in remaining] + [None] * n:
                work.put(index)
            drained = worker_main(
                str(self.directory), 0, self.config.to_json(), work,
                self.throttle, cell_timeout=self.cell_timeout,
                trace_meta=trace_meta, built=self._built, on_cell=progress,
            )
            if drained:
                for p in procs:
                    p.terminate()
            if procs:
                self._await(procs, progress)
        except BaseException:
            # the forked workers drain on SIGTERM: the in-flight cell is
            # finished and fsynced, so give them a bounded grace period
            # before propagating
            for p in procs:
                p.terminate()
            for p in procs:
                p.join(timeout=10)
            raise
        bad = [p.exitcode for p in procs if p.exitcode != 0]
        if drained or bad:
            why = "campaign drained on SIGTERM" if drained else (
                f"{len(bad)} campaign workers exited abnormally "
                f"(exit codes {bad})"
            )
            raise CampaignError(f"{why}; rerun to resume from checkpoints")

    @staticmethod
    def _await(procs, progress) -> None:
        """Join the forked workers, waking as soon as one exits."""
        from multiprocessing.connection import wait

        alive = procs
        while alive:
            wait([p.sentinel for p in alive], timeout=_PROGRESS_SECONDS)
            alive = [p for p in alive if p.exitcode is None]
            if progress is not None:
                progress()
        for p in procs:
            p.join()

    def _progress(self, done: int):
        """Report ``done`` (the resumed cells) plus each cell
        line appended to a shard from now on; ``None`` if unobserved."""
        if self.progress is None:
            return None
        shards = shard_dir(self.directory)
        offsets = {p: p.stat().st_size for p in shards.glob("*.jsonl")}

        def report() -> None:
            nonlocal done
            for path in sorted(shards.glob("*.jsonl")):
                with open(path, "rb") as fh:
                    fh.seek(offsets.get(path, 0))
                    tail = fh.read()
                whole = tail[: tail.rfind(b"\n") + 1]  # a line may be mid-write
                offsets[path] = offsets.get(path, 0) + len(whole)
                # a cell line has one top-level "id" key, a diagnostic none
                done += whole.count(b'"id": ')
            self.progress(done, len(self.cells))

        return report

    # -- the whole dance ----------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign and merge the artifact."""
        t_start = time.monotonic()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pin_plan()
        fps = self._fingerprints()
        expected_keys = {
            c.id: cell_key(c, fps[c.matrix], self.config) for c in self.cells
        }
        completed = load_completed(self.directory, expected_keys)
        resumed = len(completed)
        remaining = [c for c in self.cells if c.id not in completed]
        if remaining:
            self._run_cells(remaining, self._progress(len(completed)))
            completed = load_completed(self.directory, expected_keys)
        executed = len(completed) - resumed
        wall = time.monotonic() - t_start
        artifact = merged_artifact_bytes(self.config, self.cells, completed)
        artifact_path = write_atomic(self.directory / "campaign.json", artifact)
        stats = {
            "cells": len(self.cells),
            "resumed": resumed,
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
            "repro_campaign_executed_cells_total",
            stats["executed"],
            help="Cells actually executed by this invocation.",
        )
        total = stats["cells"]
        reg.set(
            "repro_campaign_cache_hit_ratio",
            round(stats["resumed"] / total, 6) if total else 0.0,
            help="Fraction of cells resumed from checkpoints, "
            "not executed.",
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
    allow_failed: bool = False,
) -> list[RunRecord]:
    """Run (or resume) a campaign and return its records in plan order.

    This is the bench entry point: a warm directory answers every cell
    from its checkpoints, and a cold one is sharded across workers.
    """
    result = CampaignRunner(directory, config, workers=workers).run()
    return result.records(allow_failed=allow_failed)
