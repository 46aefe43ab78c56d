"""Campaign sharding speedup: serial vs multi-worker sweep wallclock.

Runs the same cold campaign inline (``--workers 1``) and sharded across
N worker processes, each in a fresh directory, checks the merged
artifacts are byte-identical, and records both wallclocks.  ``--smoke``
times five such serial/sharded pairs, alternating which side runs
first, and gates on the median speedup: one pair on a tiny suite
swings too much between runs on a shared host to gate on.  The full
set takes one pair.  Process start-up stays inside every sample.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--smoke] \
        [--workers 4] [--out BENCH_pr5.json]

The default scope is the fig09-12 population (``--suite full``: the
synthetic suite plus the named analogues, double precision).  The >= 2x
speedup gate only applies on multi-core hosts: sharding cannot beat the
serial run on a single hardware thread, so the payload records
``cpu_count`` and enforces the target only when at least ``workers``
cores are available.

Like ``bench_wallclock.py`` this is a plain script (no
pytest-benchmark): the quantity of interest is host seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import CampaignConfig, CampaignRunner  # noqa: E402

SPEEDUP_TARGET = 2.0
#: serial/sharded pairs timed by ``--smoke``; the full set times one
SMOKE_PAIRS = 5


def _run_cold(directory: Path, config: CampaignConfig, workers: int) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    result = CampaignRunner(directory, config, workers=workers).run()
    wall = time.perf_counter() - t0
    if result.failed_cells:
        raise SystemExit(f"campaign cells failed: {result.failed_cells[:3]}")
    return wall, result.artifact_path.read_bytes()


def run_campaign_bench(
    *, suite: str, workers: int, limit=None, pairs: int = 1
) -> dict:
    """Time ``pairs`` cold serial/sharded pairs; odd pairs run the
    sharded side first, so a drift of the host's speed hits both."""
    config = CampaignConfig(suite=suite, limit=limit, dtypes=("float64",))
    samples = []
    artifacts = set()
    with tempfile.TemporaryDirectory(prefix="repro-campaign-bench-") as tmp:
        for i in range(pairs):
            sides = [("serial", 1), ("sharded", workers)]
            t = {}
            for side, n in sides[::-1] if i % 2 else sides:
                t[side], art = _run_cold(Path(tmp) / f"{side}-{i}", config, n)
                artifacts.add(art)
            samples.append({
                "seconds_serial": t["serial"],
                "seconds_sharded": t["sharded"],
                "speedup": t["serial"] / t["sharded"],
                "first": "sharded" if i % 2 else "serial",
            })
    speedups = [s["speedup"] for s in samples]
    q1, speedup, q3 = (float(q) for q in np.percentile(speedups, [25, 50, 75]))
    cpu_count = os.cpu_count() or 1
    enforced = cpu_count >= workers
    return {
        "bench": "campaign-speedup",
        "suite": suite,
        "limit": limit,
        "cells": len(config.algorithms) * len(config.dtypes) * _n_entries(config),
        "workers": workers,
        "cpu_count": cpu_count,
        "pairs": pairs,
        "samples": samples,
        "seconds_serial": float(np.median([s["seconds_serial"] for s in samples])),
        "seconds_sharded": float(np.median([s["seconds_sharded"] for s in samples])),
        "speedup": speedup,
        "speedup_q1": q1,
        "speedup_q3": q3,
        "artifacts_identical": len(artifacts) == 1,
        "speedup_target": SPEEDUP_TARGET,
        "target_enforced": enforced,
        "within_target": (speedup >= SPEEDUP_TARGET) if enforced else None,
    }


def _n_entries(config: CampaignConfig) -> int:
    from repro.campaign import config_entries

    return len(config_entries(config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny suite (CI)")
    parser.add_argument("--suite", default=None,
                        help="matrix collection (default: full, or tiny "
                             "with --smoke)")
    parser.add_argument("--limit", type=int, default=None,
                        help="only the first N matrices of the collection")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the sharded run")
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    suite = args.suite or ("tiny" if args.smoke else "full")
    payload = run_campaign_bench(
        suite=suite, workers=args.workers, limit=args.limit,
        pairs=SMOKE_PAIRS if args.smoke else 1,
    )
    path = Path(args.out or "BENCH_pr5.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"campaign speedup bench ({suite}, {payload['cells']} cells, "
        f"{payload['cpu_count']} cpus, median of {payload['pairs']} pairs):"
    )
    print(f"  serial  (1 worker) : {payload['seconds_serial']:8.2f} s")
    print(
        f"  sharded ({args.workers} workers): "
        f"{payload['seconds_sharded']:8.2f} s "
        f"({payload['speedup']:.2f}x, quartiles "
        f"{payload['speedup_q1']:.2f}x-{payload['speedup_q3']:.2f}x)"
    )
    print(f"wrote {path}")

    if not payload["artifacts_identical"]:
        print("ERROR: serial and sharded artifacts differ", file=sys.stderr)
        return 1
    if payload["within_target"] is False:
        print(
            f"ERROR: median speedup {payload['speedup']:.2f}x below the "
            f"{SPEEDUP_TARGET:.0f}x target on a "
            f"{payload['cpu_count']}-core host",
            file=sys.stderr,
        )
        return 1
    if not payload["target_enforced"]:
        print(
            f"note: {payload['cpu_count']} cpu(s) < {args.workers} workers; "
            "speedup target not enforced on this host"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
