"""Host wall-clock benchmark of the execution engines.

Unlike every other bench in this repo — which reports *simulated* device
time — this one measures how long the **host** takes to run the
simulator, comparing the execution engines (see :mod:`repro.engine`).
Correctness is checked in the same pass: every engine must produce
bit-identical values and identical simulated statistics, otherwise the
speedup would be meaningless.

The JSON payload (``BENCH_pr1.json``) records, per case, the seconds per
engine, the speedup over the reference engine and the equivalence
verdict, plus the geometric-mean speedups across cases.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.acspgemm import ac_spgemm
from ..core.options import AcSpgemmOptions
from ..engine import ENGINES
from ..matrices.generators import (
    banded,
    long_row_matrix,
    power_law,
    random_uniform,
)
from ..obs.span import host_span_profile
from ..sparse.stats import squared_operands

__all__ = [
    "WallclockCase",
    "wallclock_cases",
    "run_wallclock",
    "run_hotspots",
    "run_trace_overhead",
]

DEFAULT_ENGINES = tuple(ENGINES)

#: geometric-mean host-speedup floor over the reference engine, gated
#: on the full case set
SPEEDUP_TARGETS = {"batched": 3.5}


def tune_allocator() -> bool:
    """Stop glibc from bouncing large buffers between heap and OS.

    The batched engine allocates multi-MB arrays every round; with the
    default ``M_MMAP_THRESHOLD``/``M_TRIM_THRESHOLD`` glibc hands each
    one back to the kernel on free, so every round re-faults its pages
    — on this class of host that triples the cost of a fresh-array
    binary op.  Raising both thresholds keeps the pages resident.  A
    no-op (returns False) off glibc.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        m_mmap_threshold, m_trim_threshold = -3, -1
        ok = libc.mallopt(m_mmap_threshold, 1 << 30)
        ok &= libc.mallopt(m_trim_threshold, 1 << 30)
        return bool(ok)
    except Exception:  # noqa: BLE001 - musl/macOS/windows: keep defaults
        return False


@dataclass
class WallclockCase:
    """One matrix (squared) to time the engines on."""

    name: str
    a: object
    b: object
    dtype: str = "float64"


def _case(name: str, matrix, dtype: str = "float64") -> WallclockCase:
    a, b = squared_operands(matrix)
    return WallclockCase(name=name, a=a, b=b, dtype=dtype)


def wallclock_cases(smoke: bool = False) -> list[WallclockCase]:
    """The benchmark inputs: a cross-section of the suite families.

    ``smoke`` shrinks the matrices for CI — the speedup claim is made on
    the full set, the smoke set only proves the harness end to end.
    """
    if smoke:
        return [
            _case("uniform-800-avg10", random_uniform(800, 800, 10.0, seed=1)),
            _case("banded-1200-bw8", banded(1200, 8, seed=2)),
            _case(
                "powerlaw-800", power_law(800, avg_row_len=8.0, seed=3),
                dtype="float32",
            ),
        ]
    return [
        _case("uniform-3000-avg20", random_uniform(3000, 3000, 20.0, seed=1)),
        _case("uniform-2000-avg40", random_uniform(2000, 2000, 40.0, seed=2)),
        _case("banded-6000-bw16", banded(6000, 16, seed=3)),
        _case("powerlaw-2500", power_law(2500, avg_row_len=12.0, seed=4)),
        _case(
            "longrow-3000",
            long_row_matrix(3000, 4.0, n_long_rows=4, long_row_len=2000, seed=5),
        ),
        _case(
            "uniform-2000-avg25-f32",
            random_uniform(2000, 2000, 25.0, seed=6),
            dtype="float32",
        ),
    ]


def _signature(result) -> dict:
    """Everything that must be invariant across engines."""
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


def _time_engines(
    case: WallclockCase, engines: tuple[str, ...], repeats: int
) -> tuple[dict[str, float], dict[str, dict]]:
    """Best-of-``repeats`` seconds and result signature per engine.

    Repeats are interleaved across engines (engine A, engine B, ...,
    engine A, ...) so that slow phases of a shared host hit every
    engine alike instead of biasing whichever ran during them.
    """
    opts = {
        e: AcSpgemmOptions(value_dtype=np.dtype(case.dtype), engine=e)
        for e in engines
    }
    best = {e: math.inf for e in engines}
    sigs: dict[str, dict] = {}
    for _ in range(repeats):
        for engine in engines:
            t0 = time.perf_counter()
            result = ac_spgemm(case.a, case.b, opts[engine])
            best[engine] = min(best[engine], time.perf_counter() - t0)
            sigs[engine] = _signature(result)
    return best, sigs


def run_wallclock(
    smoke: bool = False,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    repeats: int | None = None,
) -> dict:
    """Time every engine on every case and verify equivalence.

    Returns the JSON-serialisable payload; ``geomean_speedup`` maps each
    non-reference engine to its geometric-mean host speedup.
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    engines = tuple(dict.fromkeys(("reference",) + tuple(engines)))
    tuned = tune_allocator()
    cases = wallclock_cases(smoke)
    rows = []
    speedups: dict[str, list[float]] = {e: [] for e in engines if e != "reference"}
    for case in cases:
        best, sigs = _time_engines(case, engines, repeats)
        ref_s, ref_sig = best["reference"], sigs["reference"]
        row = {
            "case": case.name,
            "dtype": case.dtype,
            "nnz_a": int(case.a.nnz),
            "seconds": {"reference": ref_s},
            "speedup": {},
            "identical": {},
        }
        for engine in engines:
            if engine == "reference":
                continue
            s, sig = best[engine], sigs[engine]
            identical = all(ref_sig[k] == sig[k] for k in ref_sig)
            row["seconds"][engine] = s
            row["speedup"][engine] = ref_s / s if s else math.inf
            row["identical"][engine] = identical
            if identical:
                speedups[engine].append(ref_s / s)
        rows.append(row)

    geomean = {
        e: (math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0)
        for e, xs in speedups.items()
    }
    # the speedup claim is made on the full case set; smoke shrinks the
    # matrices until fixed overheads dominate, so smoke mode reports the
    # targets without gating on them
    enforced = {
        e: t for e, t in SPEEDUP_TARGETS.items() if e in geomean and not smoke
    }
    return {
        "bench": "engine-wallclock",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "allocator_tuned": tuned,
        "cpu_count": os.cpu_count() or 1,
        "engines": list(engines),
        "cases": rows,
        "all_identical": all(
            ok for r in rows for ok in r["identical"].values()
        ),
        "geomean_speedup": geomean,
        "speedup_targets": dict(SPEEDUP_TARGETS),
        "targets_enforced": sorted(enforced),
        "within_targets": all(geomean[e] >= t for e, t in enforced.items()),
    }


def run_hotspots(
    smoke: bool = False,
    engine: str = "batched",
    top: int = 10,
) -> dict:
    """Span-attributed host hotspot table for one engine.

    Runs every case once under :func:`~repro.obs.span.host_span_profile`
    and joins the resulting per-span host seconds with the simulated
    cycles each span name accumulates in the (engine-invariant) span
    tree.  The result answers the optimisation question directly: a
    span whose share of host seconds dwarfs its share of simulated
    cycles is pure host overhead — that is where the next fast path
    goes.  ``top`` bounds the table to the heaviest span names by host
    seconds; anything dropped is summed under ``other_host_seconds`` so
    the table never silently hides cost.
    """
    tuned = tune_allocator()
    cases = wallclock_cases(smoke)
    sim_cycles: dict[str, float] = {}
    with host_span_profile() as prof:
        t0 = time.perf_counter()
        for case in cases:
            opts = AcSpgemmOptions(
                value_dtype=np.dtype(case.dtype), engine=engine
            )
            result = ac_spgemm(case.a, case.b, opts)
            for s in result.spans.walk():
                sim_cycles[s.name] = sim_cycles.get(s.name, 0.0) + s.duration
        total = time.perf_counter() - t0
    rows = [
        {
            "span": name,
            "calls": ent["calls"],
            "host_seconds": ent["host_seconds"],
            "sim_cycles": sim_cycles.get(name, 0.0),
        }
        for name, ent in prof.table().items()
    ]
    rows.sort(key=lambda r: (-r["host_seconds"], r["span"]))
    kept, dropped = rows[:top], rows[top:]
    return {
        "bench": "host-hotspots",
        "mode": "smoke" if smoke else "full",
        "engine": engine,
        "allocator_tuned": tuned,
        "total_host_seconds": total,
        "attributed_host_seconds": sum(r["host_seconds"] for r in rows),
        "top_spans": kept,
        "other_host_seconds": sum(r["host_seconds"] for r in dropped),
    }


#: Host-overhead budget for the opt-in device trace (fraction of the
#: untraced run).  The trace is record-keeping only — no extra passes —
#: so anything past this points at an accidental hot-path allocation.
TRACE_OVERHEAD_BUDGET = 0.10


def run_trace_overhead(
    smoke: bool = False,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    repeats: int | None = None,
) -> dict:
    """Host cost of ``device_trace=True``, per engine and case.

    Times every engine twice per case — trace off and trace on —
    interleaved like :func:`run_wallclock` so host noise hits both
    variants alike.  Also asserts the two contracts the trace makes:
    the traced run's result signature matches the untraced run exactly
    (tracing observes, never perturbs), and the trace bytes are
    identical across engines.  Per-cell ``overhead`` (``on/off - 1``)
    is informational — single cells of tens of ms swing ±10% on a
    shared host even best-of-5.  The gated quantity is
    ``total_overhead``: summed traced over summed untraced seconds
    across every case and engine, which averages the noise and weights
    the larger (more trustworthy) cases; ``within_budget`` holds it to
    :data:`TRACE_OVERHEAD_BUDGET`.  When the trace is *disabled* the
    driver never constructs a :class:`~repro.obs.device.DeviceTrace`,
    so the off-variant here *is* the disabled cost — there is no third
    state to measure.
    """
    # best-of needs warm runs even in smoke mode: a single repeat times
    # the cold first pass and reports pure noise, and the smoke cases
    # are so small (tens of ms) that only a deeper best-of converges
    if repeats is None:
        repeats = 5 if smoke else 3
    engines = tuple(dict.fromkeys(("reference",) + tuple(engines)))
    tuned = tune_allocator()
    cases = wallclock_cases(smoke)
    rows = []
    max_overhead = 0.0
    for case in cases:
        opts_off = {
            e: AcSpgemmOptions(value_dtype=np.dtype(case.dtype), engine=e)
            for e in engines
        }
        opts_on = {
            e: AcSpgemmOptions(
                value_dtype=np.dtype(case.dtype), engine=e, device_trace=True
            )
            for e in engines
        }
        best_off = {e: math.inf for e in engines}
        best_on = {e: math.inf for e in engines}
        sigs_off: dict[str, dict] = {}
        traces: dict[str, str] = {}
        for _ in range(repeats):
            for engine in engines:
                t0 = time.perf_counter()
                r_off = ac_spgemm(case.a, case.b, opts_off[engine])
                best_off[engine] = min(
                    best_off[engine], time.perf_counter() - t0
                )
                t0 = time.perf_counter()
                r_on = ac_spgemm(case.a, case.b, opts_on[engine])
                best_on[engine] = min(best_on[engine], time.perf_counter() - t0)
                sigs_off[engine] = _signature(r_off)
                if _signature(r_on) != sigs_off[engine]:
                    raise AssertionError(
                        f"{case.name}/{engine}: tracing changed the result"
                    )
                traces[engine] = r_on.device_trace.to_json()
        trace_identical = len(set(traces.values())) == 1
        overhead = {
            e: (best_on[e] / best_off[e] - 1.0) if best_off[e] else 0.0
            for e in engines
        }
        max_overhead = max(max_overhead, *overhead.values())
        rows.append(
            {
                "case": case.name,
                "dtype": case.dtype,
                "nnz_a": int(case.a.nnz),
                "trace_bytes": len(traces[engines[0]]),
                "seconds_off": best_off,
                "seconds_on": best_on,
                "overhead": overhead,
                "trace_identical_across_engines": trace_identical,
            }
        )
    sum_off = sum(s for r in rows for s in r["seconds_off"].values())
    sum_on = sum(s for r in rows for s in r["seconds_on"].values())
    total_overhead = (sum_on / sum_off - 1.0) if sum_off else 0.0
    return {
        "bench": "device-trace-overhead",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "allocator_tuned": tuned,
        "engines": list(engines),
        "overhead_budget": TRACE_OVERHEAD_BUDGET,
        "cases": rows,
        "max_overhead": max_overhead,
        "total_overhead": total_overhead,
        "within_budget": total_overhead <= TRACE_OVERHEAD_BUDGET,
        "all_traces_identical": all(
            r["trace_identical_across_engines"] for r in rows
        ),
    }


def write_payload(payload: dict, out: str | Path) -> Path:
    """Write the payload as JSON and return the path."""
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
