#!/usr/bin/env python3
"""The repository benchmark: host wall-clock of the public entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``offline``  -- ``ac_spgemm``, ``run_backend("adaptive")`` and
  ``summa_spgemm`` in one process (``wl_offline.py``);
* ``serve``    -- a ``repro serve`` daemon driven by a closed-loop
  client (``wl_serve.py``);
* ``campaign`` -- ``CampaignRunner.run()`` sweeps (``wl_campaign.py``).

Every workload reports the same end-to-end metrics: ``setup_s``,
``peak_rss_mb``, and the median latency and the rate of *products* --
one ``C = A.B`` handed back to the caller that waits for it (an
entry-point call, a served request, a campaign cell).  The three
timings are reported at reference host speed: scaled by the run's
median time of a fixed pure-Python calibration loop, run on as many
CPUs as the workload keeps busy, before each set-up and between calls,
serve segments and sweeps, because a shared host's speed drifts more
than any change worth measuring (see ``benchlib.CAL_REF_S``).  The context line gives them as measured too
(``as_measured``), with the calibration's median.  Tail latency is
reported per layer (``serve.p99_ms``) and, for every workload, as
``p90_ms`` in the context line: over a mix of structures it marks one
input's cost, which moves with the host's speed more than a median.
``--trace 1`` also runs the workload's traced pass and prints the
per-layer metrics instead.  A layer a workload bypasses reports 0.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
host, versions, resolved engines and the spread of each timing.  Any
wrong output, failed operation or leaked shared-memory segment makes
``correct`` false and the exit code 1.  Without the repository's
``src/repro`` next to this directory the benchmark exits 2.

Before it prints its result the benchmark waits for every process it
started to end, on every path out: it stops its own multiprocessing
resource tracker and, as a Linux child subreaper, also waits for
helpers its children leave behind (the daemon's resource tracker);
whatever still runs 20 s later is signalled, and counted in the
context line as ``children_signalled``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORKLOADS = ("offline", "serve", "campaign")

#: per workload, the metric prefixes it measures; every other per-layer
#: metric belongs to a layer the workload bypasses and reads 0
MEASURED = {
    "offline": (
        "core", "backends", "multi", "matrices", "multiply", "adaptive",
        "summa", "trace_overhead", "error_share",
    ),
    "serve": ("core", "sparse", "serve", "matrices", "error_share"),
    "campaign": ("core", "baselines", "campaign", "matrices", "error_share"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run the traced pass, print per-layer metrics")
    p.add_argument("--small", action="store_true",
                   help="test scale: shrink every input (same code paths)")
    p.add_argument("--tamper", action="store_true",
                   help="corrupt one expected digest; the run must fail")
    return p.parse_args(argv)


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def declared_metrics(root: Path) -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def select_metrics(workload: str, values: dict, declared: dict,
                   fill_bypassed: bool) -> dict:
    """The declared metrics with their units, in declaration order."""
    out = {}
    for name, unit in declared.items():
        if name in values:
            value = values[name]
        elif fill_bypassed and name.split(".")[0] not in MEASURED[workload]:
            value = 0
        else:
            raise KeyError(f"{workload} did not measure {name!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy

    import benchlib as bl

    e2e_units, layer_units = declared_metrics(root)
    spec = bl.RunSpec(
        root=root, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), small=args.small, tamper=args.tamper,
    )
    if args.workload == "offline":
        import wl_offline as workload
    elif args.workload == "serve":
        import wl_serve as workload
    else:
        import wl_campaign as workload
    scratch = spec.scratch
    bl.become_subreaper()
    try:
        out = workload.run(spec)
    finally:
        signalled = bl.reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass

    out.per_layer["error_share"] = (
        out.failed / out.attempted if out.attempted else 1.0
    )
    cal_s = bl.median(out.cals)
    as_measured = dict(out.end_to_end)
    out.end_to_end = {
        name: bl.at_ref_speed(value, e2e_units.get(name, ""), cal_s)
        for name, value in as_measured.items()
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "children_signalled": len(signalled),
        "calibration_ms": cal_s * 1e3,
        "calibrations": len(out.cals),
        "calibration_spread": bl.spread(out.cals),
        "as_measured": as_measured,
        **out.info,
    }
    print("context " + json.dumps(context, sort_keys=True, default=str))
    for problem in out.problems:
        print(f"FAILED: {problem}")
    if args.trace:
        metrics = select_metrics(args.workload, out.per_layer, layer_units,
                                 fill_bypassed=True)
    else:
        metrics = select_metrics(args.workload, out.end_to_end, e2e_units,
                                 fill_bypassed=False)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    correct = not out.problems and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
