"""Host wall-clock comparison of the execution engines.

Runs ``reference`` and ``batched`` on a cross-section of the suite,
verifies that both engines produce
bit-identical results and identical simulated statistics, and reports
the host-side speedup and each engine's peak traced heap (from a
separate, untimed pass).  The payload also carries a span-attributed
host hotspot table (top span names by host seconds, joined with their
simulated cycles) so a regression in host time points at the span that
grew, and in full mode gates the geometric-mean speedup against the
batched floor in :data:`repro.bench.wallclock.SPEEDUP_TARGETS`.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--smoke] [--out BENCH_pr6.json]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --trace-overhead [--out BENCH_pr4.json]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --hotspots [--engine batched]

``--trace-overhead`` switches the quantity of interest from engine
speedup to the host cost of the opt-in device trace: every engine runs
each case with ``device_trace`` off and on, and the payload gates the
on/off ratio at the 10% budget (plus byte-identity of the trace across
engines).  ``--hotspots`` prints only the hotspot table for one engine.

Unlike the figure benches this is a plain script (no pytest-benchmark):
the quantity of interest is host seconds, measured directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.wallclock import (  # noqa: E402
    run_hotspots,
    run_trace_overhead,
    run_wallclock,
    write_payload,
)


def _print_hotspots(hot: dict) -> None:
    print(
        f"host hotspots ({hot['mode']}, engine={hot['engine']}, "
        f"{hot['total_host_seconds'] * 1e3:.1f} "
        f"± {hot['total_iqr_seconds'] * 1e3:.1f} ms total, "
        f"median ± IQR over {hot['repeats']} passes, "
        f"peak heap {hot['peak_heap_mib']:.1f} MiB):"
    )
    print(
        f"  {'span':20s} {'calls':>7s} {'host ms':>9s} {'± IQR':>7s}"
        f" {'sim cycles':>14s}"
    )
    for row in hot["top_spans"]:
        print(
            f"  {row['span']:20s} {row['calls']:7d}"
            f" {row['host_seconds'] * 1e3:9.1f}"
            f" {row['iqr_seconds'] * 1e3:7.1f}"
            f" {row['sim_cycles']:14.0f}"
        )
    if hot["other_host_seconds"]:
        print(f"  (other spans: {hot['other_host_seconds'] * 1e3:.1f} ms)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small matrices (CI)",
    )
    parser.add_argument(
        "--out", default=None, help="JSON output path"
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per engine (median and IQR); default 3, "
        "5 for smoke",
    )
    parser.add_argument(
        "--trace-overhead", action="store_true",
        help="measure device-trace host overhead instead of engine speedup",
    )
    parser.add_argument(
        "--hotspots", action="store_true",
        help="print only the span-attributed host hotspot table",
    )
    parser.add_argument(
        "--engine", default="batched",
        help="engine for the --hotspots table (default: batched)",
    )
    args = parser.parse_args(argv)

    if args.hotspots:
        hot = run_hotspots(
            smoke=args.smoke, engine=args.engine, repeats=args.repeats
        )
        _print_hotspots(hot)
        if args.out:
            print(f"wrote {write_payload(hot, args.out)}")
        return 0

    if args.trace_overhead:
        payload = run_trace_overhead(smoke=args.smoke, repeats=args.repeats)
        path = write_payload(payload, args.out or "BENCH_pr4.json")
        print(f"device-trace overhead bench ({payload['mode']}):")
        for row in payload["cases"]:
            line = f"  {row['case']:24s}"
            for eng in payload["engines"]:
                line += (
                    f" | {eng} {row['seconds_off'][eng] * 1e3:7.1f}"
                    f"->{row['seconds_on'][eng] * 1e3:7.1f} ms"
                    f" ({100.0 * row['overhead'][eng]:+5.1f}%)"
                )
            if not row["trace_identical_across_engines"]:
                line += "  TRACE MISMATCH!"
            print(line)
        print(
            f"total overhead {100.0 * payload['total_overhead']:+.1f}% "
            f"(worst cell {100.0 * payload['max_overhead']:+.1f}%, "
            f"budget {100.0 * payload['overhead_budget']:.0f}%)"
        )
        print(f"wrote {path}")
        if not payload["all_traces_identical"]:
            print("ERROR: device traces differ across engines", file=sys.stderr)
            return 1
        if not payload["within_budget"]:
            print("ERROR: device-trace overhead over budget", file=sys.stderr)
            return 1
        return 0

    payload = run_wallclock(smoke=args.smoke, repeats=args.repeats)
    payload["hotspots"] = run_hotspots(
        smoke=args.smoke, engine=args.engine, repeats=args.repeats
    )
    path = write_payload(payload, args.out or "BENCH_pr1.json")

    print(
        f"engine wall-clock bench ({payload['mode']}, "
        f"{payload['cpu_count']} cpu):"
    )
    print(f"  median ms ± IQR over {payload['repeats']} interleaved repeats")
    for row in payload["cases"]:
        iqr = row["iqr_seconds"]
        ref = row["seconds"]["reference"]
        line = (
            f"  {row['case']:24s} ref {ref * 1e3:8.1f} "
            f"± {iqr['reference'] * 1e3:5.1f} ms"
        )
        for eng, s in row["seconds"].items():
            if eng == "reference":
                continue
            mark = "" if row["identical"][eng] else "  MISMATCH!"
            line += (
                f" | {eng} {s * 1e3:8.1f} ± {iqr[eng] * 1e3:5.1f} ms "
                f"({row['speedup'][eng]:.2f}x){mark}"
            )
        line += " | heap " + " ".join(
            f"{eng} {mib:.1f}" for eng, mib in row["peak_heap_mib"].items()
        ) + " MiB"
        print(line)
    for eng, g in payload["geomean_speedup"].items():
        target = payload["speedup_targets"].get(eng)
        gate = (
            f" (target {target:.1f}x"
            f"{', enforced' if eng in payload['targets_enforced'] else ''})"
            if target
            else ""
        )
        print(f"geomean speedup {eng}: {g:.2f}x{gate}")
    _print_hotspots(payload["hotspots"])
    print(f"wrote {path}")

    if not payload["all_identical"]:
        print("ERROR: engines disagree with the reference", file=sys.stderr)
        return 1
    if not payload["within_targets"]:
        print(
            "ERROR: geomean speedup below target for: "
            + ", ".join(
                e
                for e in payload["targets_enforced"]
                if payload["geomean_speedup"][e]
                < payload["speedup_targets"][e]
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
