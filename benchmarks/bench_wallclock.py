"""Host wall-clock of the execution engines, checked for agreement.

Every other bench here reports simulated device time; this one measures
how long the host takes to run the simulator.  For each case, repeat,
engine (``reference``, ``batched``) and device-trace setting (off, on)
it runs ``ac_spgemm`` once, interleaved so that slow phases of a shared
host hit every variant alike.  That one set of runs feeds every check:

* engine identity: the untraced result signature (bytes, stage cycles,
  counters, restarts, multiprocessor load, chunks, memory) is identical
  across engines, since a speedup over a different result means
  nothing;
* the trace does not perturb: each engine's traced signature equals
  its untraced one;
* trace identity: the device-trace JSON is identical across engines;
* speedup: median ± IQR of the untraced seconds per engine, and the
  geometric mean over cases of the ``batched`` speedup of the medians,
  held to :data:`SPEEDUP_TARGET` only off ``--smoke`` (the smoke
  matrices are small enough that fixed overheads dominate);
* trace overhead: best-of seconds per engine and case, traced summed
  over untraced summed, held to :data:`TRACE_OVERHEAD_BUDGET` in both
  modes.  Single cells of tens of ms swing ±10% on a shared host even
  best-of-5; the sum weights the larger, steadier cases.

A failed check prints ``ERROR:`` and exits 1.  Host seconds per
pipeline stage are perfbench's per-layer ``core.*_s``
(``perfbench/run.py --trace 1``); the batched working set is gated by
``tests/test_working_set.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--smoke] [--repeats N] [--out BENCH_pr1.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.acspgemm import ac_spgemm  # noqa: E402
from repro.core.options import AcSpgemmOptions  # noqa: E402
from repro.matrices import generators as g  # noqa: E402
from repro.sparse.stats import squared_operands  # noqa: E402

ENGINES = ("reference", "batched")

#: geometric-mean host-speedup floor of ``batched`` over ``reference``,
#: enforced on the full case set
SPEEDUP_TARGET = 3.5

#: host-overhead budget of the opt-in device trace (fraction of the
#: untraced run).  The trace is record-keeping only, no extra passes, so
#: anything past this points at an accidental hot-path allocation.  With
#: the trace off no ``DeviceTrace`` is built, so the untraced run *is*
#: the disabled cost.
TRACE_OVERHEAD_BUDGET = 0.10


def cases(smoke: bool) -> list[tuple[str, str, object]]:
    """``(name, dtype, matrix)``: a cross-section of the suite families."""
    if smoke:
        return [
            ("uniform-800-avg10", "float64", g.random_uniform(800, 800, 10.0, seed=1)),
            ("banded-1200-bw8", "float64", g.banded(1200, 8, seed=2)),
            ("powerlaw-800", "float32", g.power_law(800, avg_row_len=8.0, seed=3)),
            # the campaign's shape: tens of one-iteration blocks, about
            # one shared row each
            ("uniform-8000-avg1.5", "float64", g.random_uniform(8000, 8000, 1.5, seed=4)),
            # rows past a block's ESC capacity: pointer chunks (§3.4)
            (
                "longrow-2500", "float64",
                g.long_row_matrix(2500, 2.0, n_long_rows=2, long_row_len=2200, seed=5),
            ),
        ]
    return [
        ("uniform-3000-avg20", "float64", g.random_uniform(3000, 3000, 20.0, seed=1)),
        ("uniform-2000-avg40", "float64", g.random_uniform(2000, 2000, 40.0, seed=2)),
        ("banded-6000-bw16", "float64", g.banded(6000, 16, seed=3)),
        ("powerlaw-2500", "float64", g.power_law(2500, avg_row_len=12.0, seed=4)),
        (
            "longrow-3000", "float64",
            g.long_row_matrix(3000, 4.0, n_long_rows=4, long_row_len=2000, seed=5),
        ),
        (
            "uniform-2000-avg25-f32", "float32",
            g.random_uniform(2000, 2000, 25.0, seed=6),
        ),
    ]


def signature(result) -> dict:
    """Everything an engine or the device trace must leave unchanged."""
    return {
        "row_ptr": result.matrix.row_ptr.tobytes(),
        "col_idx": result.matrix.col_idx.tobytes(),
        "values": result.matrix.values.tobytes(),
        "stage_cycles": dict(result.stage_cycles),
        "counters": result.counters,
        "restarts": result.restarts,
        "mp_load": result.multiprocessor_load,
        "n_chunks": result.n_chunks,
        "memory": result.memory,
    }


def median_iqr(xs: list[float]) -> tuple[float, float]:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return float(med), float(q3 - q1)


def run(smoke: bool = False, repeats: int | None = None) -> dict:
    """Time and check every case; return the JSON-serialisable payload."""
    # best-of needs warm runs even in smoke mode: one repeat times the
    # cold first pass, and tens-of-ms smoke cases need a deeper best-of
    if repeats is None:
        repeats = 5 if smoke else 3
    variants = [(e, traced) for e in ENGINES for traced in (False, True)]
    rows = []
    for name, dtype, matrix in cases(smoke):
        a, b = squared_operands(matrix)
        opts = {
            (e, traced): AcSpgemmOptions(
                value_dtype=np.dtype(dtype), engine=e, device_trace=traced
            )
            for e, traced in variants
        }
        seconds: dict[tuple, list[float]] = {v: [] for v in variants}
        sigs: dict[tuple, dict] = {}
        traces: dict[str, str] = {}
        for _ in range(repeats):
            for v in variants:
                t0 = time.perf_counter()
                result = ac_spgemm(a, b, opts[v])
                seconds[v].append(time.perf_counter() - t0)
                sigs[v] = signature(result)
                if v[1]:
                    traces[v[0]] = result.device_trace.to_json()
        spread = {e: median_iqr(seconds[e, False]) for e in ENGINES}
        best_off = {e: min(seconds[e, False]) for e in ENGINES}
        best_on = {e: min(seconds[e, True]) for e in ENGINES}
        rows.append({
            "case": name,
            "dtype": dtype,
            "nnz_a": int(a.nnz),
            "seconds": {e: med for e, (med, _) in spread.items()},
            "iqr_seconds": {e: iqr for e, (_, iqr) in spread.items()},
            "speedup": spread["reference"][0] / spread["batched"][0],
            "best_seconds_off": best_off,
            "best_seconds_on": best_on,
            "overhead": {e: best_on[e] / best_off[e] - 1.0 for e in ENGINES},
            "trace_bytes": len(traces["reference"]),
            "engines_identical": all(
                sigs[e, False] == sigs["reference", False] for e in ENGINES
            ),
            "trace_unperturbed": all(
                sigs[e, True] == sigs[e, False] for e in ENGINES
            ),
            "traces_identical": len(set(traces.values())) == 1,
        })
    speedups = [r["speedup"] for r in rows]
    sum_off = sum(s for r in rows for s in r["best_seconds_off"].values())
    sum_on = sum(s for r in rows for s in r["best_seconds_on"].values())
    return {
        "bench": "engine-wallclock",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "engines": list(ENGINES),
        "cases": rows,
        "geomean_speedup": math.exp(
            sum(math.log(x) for x in speedups) / len(speedups)
        ),
        "speedup_target": SPEEDUP_TARGET,
        "speedup_enforced": not smoke,
        "trace_overhead": sum_on / sum_off - 1.0,
        "trace_overhead_budget": TRACE_OVERHEAD_BUDGET,
    }


def failures(payload: dict) -> list[str]:
    """Every failed check of ``payload``, one line each."""
    out = []
    for row in payload["cases"]:
        for check, what in (
            ("engines_identical", "engines disagree with the reference"),
            ("trace_unperturbed", "the device trace changed the result"),
            ("traces_identical", "device traces differ across engines"),
        ):
            if not row[check]:
                out.append(f"{row['case']}: {what}")
    if payload["trace_overhead"] > payload["trace_overhead_budget"]:
        out.append(
            f"device-trace overhead {100 * payload['trace_overhead']:+.1f}% "
            f"over the {100 * payload['trace_overhead_budget']:.0f}% budget"
        )
    if (
        payload["speedup_enforced"]
        and payload["geomean_speedup"] < payload["speedup_target"]
    ):
        out.append(
            f"geomean batched speedup {payload['geomean_speedup']:.2f}x "
            f"below the {payload['speedup_target']:.1f}x target"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true", help="small matrices (CI)")
    parser.add_argument("--out", default="BENCH_pr1.json", help="JSON output path")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="interleaved repeats per engine and trace setting; "
        "default 3, 5 for smoke",
    )
    args = parser.parse_args(argv)

    payload = run(smoke=args.smoke, repeats=args.repeats)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"engine wall-clock bench ({payload['mode']}, {payload['cpu_count']} cpu):")
    print(
        f"  untraced median ms ± IQR over {payload['repeats']} interleaved "
        "repeats; trace overhead best-of per engine"
    )
    for row in payload["cases"]:
        s, iqr, ovh = row["seconds"], row["iqr_seconds"], row["overhead"]
        print(
            f"  {row['case']:24s}"
            + "".join(
                f" | {e} {s[e] * 1e3:8.1f} ± {iqr[e] * 1e3:5.1f} ms"
                f" (trace {100 * ovh[e]:+5.1f}%)"
                for e in ENGINES
            )
            + f" | {row['speedup']:.2f}x"
        )
    print(
        f"geomean speedup batched: {payload['geomean_speedup']:.2f}x "
        f"(target {SPEEDUP_TARGET:.1f}x"
        f"{', enforced' if payload['speedup_enforced'] else ''})"
    )
    print(
        f"device-trace overhead: {100 * payload['trace_overhead']:+.1f}% "
        f"(budget {100 * TRACE_OVERHEAD_BUDGET:.0f}%)"
    )
    print(f"wrote {args.out}")
    errors = failures(payload)
    for line in errors:
        print(f"ERROR: {line}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
