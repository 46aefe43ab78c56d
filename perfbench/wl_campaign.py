"""``campaign`` workload: back-to-back ``CampaignRunner.run()`` sweeps.

Each sweep is ``CampaignRunner(<fresh dir>, CampaignConfig(suite="suite",
limit=12), workers="auto")`` -- ``repro campaign --limit 12 --workers
auto``: the first 12 suite matrices times the six-algorithm line-up in
float64, spawned workers, shared-memory operands, fsynced checkpoints
and the merge, with no cache.  The full 85-matrix suite takes ~100 s per
sweep on 2 CPUs, more than one run may take.  The suite is fixed, so
the seed changes nothing here and ``campaign.json`` must hash the same
on every sweep of every run; each run makes at least two sweeps to
compare.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import benchlib as bl
from benchlib import Outcome, RunSpec

LIMIT = 12
LIMIT_SMALL = 2

#: the campaign's deterministic operand segments are ``repro_<hash>_<i>``
SHM_PREFIX = "repro_"


def _sweep_figures(result, wall: float) -> dict:
    """Per-sweep layer figures from the cells' ``t_host`` and ``stats``."""
    by_alg: dict[str, float] = {}
    busy: dict[str, float] = {}
    for line in result.completed.values():
        alg = line["id"].split("|")[1]
        t = float(line.get("t_host", 0.0))
        by_alg[alg] = by_alg.get(alg, 0.0) + t
        worker = str(line.get("worker", "?"))
        busy[worker] = busy.get(worker, 0.0) + t
    workers = result.stats["workers"]
    return {
        "wall": wall,
        "by_alg": by_alg,
        "utilization": sum(busy.values()) / (workers * wall) if wall else 0.0,
        "overhead": wall - max(busy.values(), default=0.0),
        "failed": len(result.failed_cells),
        "cells_ms": [
            float(line.get("t_host", 0.0)) * 1e3
            for line in result.completed.values()
        ],
    }


def replay_core(config, spec: RunSpec) -> dict:
    """The sweep's AC-SpGEMM cells re-run in-process under host-span
    profiling (the workers' own spans are out of reach)."""
    from repro.campaign.plan import config_entries
    from repro.core import ac_spgemm
    from repro.obs.span import host_span_profile
    from repro.sparse import squared_operands

    core = bl.core_seconds()
    build_s = 0.0
    chunks = restarts = 0
    for entry in config_entries(config):
        t0 = time.perf_counter()
        m = entry.build()
        build_s += time.perf_counter() - t0
        a, b = squared_operands(m)
        with host_span_profile() as prof:
            result = ac_spgemm(a, b)
        bl.credit_core(core, prof)
        chunks += result.n_chunks
        restarts += result.restarts
    layers = {f"core.{stage}_s": s for stage, s in core.items()}
    layers.update(
        {"core.chunks": chunks, "core.restarts": restarts,
         "matrices.build_s": build_s}
    )
    return layers


def run(spec: RunSpec) -> Outcome:
    out = Outcome()
    # "auto" runs one worker per CPU: calibrate on every CPU
    with bl.Calibrator(os.cpu_count() or 1, out.cals) as calibrate:
        measure(spec, out, calibrate)
    return out


def measure(spec: RunSpec, out: Outcome, calibrate) -> None:
    from repro.campaign import CampaignConfig, CampaignRunner

    config = CampaignConfig(
        suite="suite", limit=LIMIT_SMALL if spec.small else LIMIT
    )
    t_import, construct = [], []
    for i in range(bl.SETUP_REPEATS):
        calibrate(3)
        t_import.append(bl.import_seconds(spec.root, ("repro.campaign",)))
        t0 = time.perf_counter()
        CampaignRunner(spec.scratch / f"setup-{i}", config, workers="auto")
        construct.append(time.perf_counter() - t0)

    shm_before = bl.shm_names(SHM_PREFIX)
    sweeps, digests = [], []
    workers = None
    t_start = time.perf_counter()
    while len(sweeps) < 2 or time.perf_counter() - t_start < spec.seconds:
        directory = spec.scratch / f"sweep-{len(sweeps)}"
        runner = CampaignRunner(directory, config, workers="auto")
        calibrate(10)  # between sweeps: no workers
        t0 = time.perf_counter()
        try:
            result = runner.run()
        except Exception as exc:  # noqa: BLE001 - CampaignError et al.
            out.attempted += len(runner.cells)
            out.fail(f"sweep {len(sweeps)} raised {exc!r}")
            break
        wall = time.perf_counter() - t0
        workers = result.stats["workers"]
        digests.append(hashlib.sha256(result.artifact_path.read_bytes()).hexdigest())
        if result.stats["executed"] != len(result.cells):
            out.problems.append(
                f"sweep {len(sweeps)} executed {result.stats['executed']} of "
                f"{len(result.cells)} cells in a fresh directory"
            )
        figures = _sweep_figures(result, wall)
        out.attempted += len(result.cells)
        for cell in result.failed_cells:
            out.fail(f"sweep {len(sweeps)}: cell {cell} failed")
        sweeps.append(figures)
        shutil.rmtree(directory, ignore_errors=True)
        leaked = bl.shm_names(SHM_PREFIX) - shm_before
        if leaked:
            out.problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
            break
    if spec.tamper and digests:
        digests[0] = "0" * 64
    if len(set(digests)) > 1:
        out.problems.append(f"campaign.json differs between sweeps: {digests}")

    cells_ms = [ms for s in sweeps for ms in s["cells_ms"]]
    walls = [s["wall"] for s in sweeps]
    out.end_to_end = {
        "setup_s": bl.median(t_import) + bl.median(construct),
        "peak_rss_mb": bl.peak_rss_mb(),
        "p50_ms": bl.median(cells_ms),
        "throughput_per_s": len(cells_ms) / len(walls) / bl.median(walls)
        if walls
        else 0.0,
    }

    def per_sweep(fn) -> float:
        return bl.median([fn(s) for s in sweeps])

    out.info.update(
        {
            "p90_ms": bl.percentile(cells_ms, 0.90),
            "engines": {
                "campaign": {
                    "engine": config.engine,
                    "algorithms": list(config.algorithms),
                    "workers": workers,
                    "workers_requested": "auto",
                },
            },
            "sweeps": len(sweeps),
            "cells": len(cells_ms),
            "campaign_sha256": digests[0] if digests else None,
            "spread": {"sweep_s": bl.spread(walls), "cell_ms": bl.spread(cells_ms)},
        }
    )
    if spec.trace:
        out.per_layer = replay_core(config, spec)
        out.per_layer.update(
            {
                "campaign.sweep_s": per_sweep(lambda s: s["wall"]),
                "campaign.acspgemm_cells_s": per_sweep(
                    lambda s: s["by_alg"].get("ac-spgemm", 0.0)
                ),
                "campaign.worker_utilization": per_sweep(lambda s: s["utilization"]),
                "campaign.overhead_s": per_sweep(lambda s: s["overhead"]),
                "campaign.failed_cells": max(
                    (s["failed"] for s in sweeps), default=0
                ),
            }
        )
        for alg in ("cusparse", "bhsparse", "rmerge", "nsparse", "kokkos"):
            out.per_layer[f"baselines.{alg}_s"] = per_sweep(
                lambda s, alg=alg: s["by_alg"].get(alg, 0.0)
            )
