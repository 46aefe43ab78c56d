"""§5 future-work extensions, quantified.

1. **Chunk-memory overallocation** — the paper: "An obvious improvement
   for our approach is reducing the overallocation of chunk memory."
   We compare the paper's uniform estimate (100 MB lower bound) with the
   sampling-based estimator on the named collection: allocation shrinks
   by an order of magnitude while restarts stay rare.

2. **Adaptive strategy selection** — "choosing between alternative
   approaches (ESC, hashing, ...) may lead to a further improvement ...
   where other strategies shine."  The ``adaptive`` router
   (:mod:`repro.backends.selector`) prices AC-SpGEMM and the two hash
   engines with their cost models and runs the cheapest.  On both sides
   of the crossover it must route to the candidate that actually runs
   fastest, and cost exactly that engine plus its ``SEL`` probe.  The
   line-up's nsparse sketch is printed next to it, not checked: it
   prices dense inputs far below the ``hash-spgemm`` engine model.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro import AcSpgemmOptions, ac_spgemm
from repro.bench import format_table, named_cases, write_csv
from repro.baselines import make_algorithm
from repro.core import estimate_chunk_pool_bytes, sampled_chunk_pool_bytes

EST_HEADERS = [
    "matrix",
    "uniform_pool_MB",
    "sampled_pool_MB",
    "used_MB",
    "restarts_uniform",
    "restarts_sampled",
]


def _estimator_rows():
    rows = []
    for case in named_cases():
        opts = AcSpgemmOptions()
        uniform = estimate_chunk_pool_bytes(case.a, case.b, opts)
        sampled = sampled_chunk_pool_bytes(case.a, case.b, opts)
        r_uni = ac_spgemm(case.a, case.b, opts)
        r_smp = ac_spgemm(case.a, case.b, opts.with_(chunk_pool_bytes=sampled))
        rows.append(
            (
                case.name,
                round(uniform / 1e6, 2),
                round(sampled / 1e6, 2),
                round(r_uni.memory.chunk_used_bytes / 1e6, 2),
                r_uni.restarts,
                r_smp.restarts,
            )
        )
    return rows


def test_sampled_estimator_reduces_overallocation(benchmark, results_dir):
    rows = run_once(benchmark, _estimator_rows)
    write_csv(results_dir / "ext_estimator.csv", EST_HEADERS, rows)
    print()
    print(format_table(EST_HEADERS, rows, title="Chunk-pool estimators"))
    total_uniform = sum(r[1] for r in rows)
    total_sampled = sum(r[2] for r in rows)
    print(f"total allocation: uniform {total_uniform:.0f} MB -> "
          f"sampled {total_sampled:.0f} MB")
    assert total_sampled < total_uniform / 5
    # the tighter pools still avoid restart storms
    assert sum(r[5] for r in rows) <= len(rows)
    # and never undershoot what is actually used by more than growth
    # can recover (every run completed, so this is implicit)


ROUTED = ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")
AD_HEADERS = [
    "matrix", "ac_us", "hash_us", "hashmap_us", "adaptive_us", "route",
    "nsparse_sketch_us",
]


def _us(run) -> float:
    return round(run.seconds * 1e6, 1)


def _adaptive_cases():
    from repro.matrices import random_uniform

    cases = [
        ("sparse-a5", random_uniform(4000, 4000, 5, seed=21)),
        ("sparse-a12", random_uniform(1500, 1500, 12, seed=22)),
        ("dense-a64", random_uniform(1100, 1100, 64, seed=23)),
        ("dense-a96", random_uniform(700, 700, 96, seed=24)),
    ]
    out = []
    for name, m in cases:
        runs = {n: make_algorithm(n).multiply(m, m) for n in ROUTED}
        adaptive = make_algorithm("adaptive").multiply(m, m)
        sketch = make_algorithm("nsparse").multiply(m, m)
        out.append((name, runs, adaptive, sketch))
    return out


def test_adaptive_routes_to_the_fastest_engine(benchmark, results_dir):
    cases = run_once(benchmark, _adaptive_cases)
    rows = [
        (
            name,
            *(_us(runs[n]) for n in ROUTED),
            _us(adaptive),
            adaptive.dispatched_to,
            _us(sketch),
        )
        for name, runs, adaptive, sketch in cases
    ]
    write_csv(results_dir / "ext_adaptive.csv", AD_HEADERS, rows)
    print()
    print(format_table(AD_HEADERS, rows, title="Adaptive router (µs simulated)"))
    for name, runs, adaptive, _ in cases:
        # the route is the candidate that actually ran fastest
        fastest = min(ROUTED, key=lambda n: runs[n].cycles)
        assert adaptive.dispatched_to == fastest, name
        routed = runs[fastest]
        # the router costs its SEL probe and nothing else
        assert adaptive.cycles - adaptive.stage_cycles["SEL"] == pytest.approx(
            routed.cycles, rel=1e-9
        ), name
        for part in ("row_ptr", "col_idx", "values"):
            got = getattr(adaptive.matrix, part)
            assert got.tobytes() == getattr(routed.matrix, part).tobytes(), name
