"""Experiment drivers: one function per paper table/figure.

Each function returns plain data (lists of tuples) that the bench files
print and write to CSV.  The records they read come from one campaign
(:mod:`repro.campaign`) per matrix collection, so the full cross product
of (matrix x algorithm x dtype) is executed once and resumed from its
directory afterwards.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..baselines.registry import GPU_ALGORITHMS
from ..core.acspgemm import STAGE_KEYS, ac_spgemm
from ..core.options import AcSpgemmOptions
from ..matrices.collection import NAMED_COLLECTION
from ..matrices.suite import suite_entries
from ..sparse.stats import HIGHLY_SPARSE_SPLIT
from .harness import MatrixCase, RunRecord, run_case
from .metrics import SpeedupSummary, speedup_summary, trend_bins

__all__ = [
    "GPU_LINEUP",
    "suite_cases",
    "named_cases",
    "table1_rows",
    "ac_best_percentage",
    "figure5_trends",
    "figure6_rows",
    "figure7_rows",
    "figure8_rows",
    "table2_rows",
    "table3_rows",
    "fullset_rows",
    "restart_study",
    "cpu_crossover",
    "ablation_rows",
]

GPU_LINEUP = list(GPU_ALGORITHMS)  # ac-spgemm, cusparse, bhsparse, rmerge, nsparse, kokkos

_case_cache: dict[str, list[MatrixCase]] = {}


def suite_cases(limit: int | None = None) -> list[MatrixCase]:
    """Materialised (and memoised) suite benchmark cases."""
    key = f"suite-{limit}"
    if key not in _case_cache:
        _case_cache[key] = [
            MatrixCase(e.name, e.build(), family=e.family)
            for e in suite_entries()[:limit]
        ]
    return _case_cache[key]


def named_cases() -> list[MatrixCase]:
    """Materialised (and memoised) Table 2 named-analogue cases."""
    if "named" not in _case_cache:
        _case_cache["named"] = [
            MatrixCase(m.name, m.build(), family=m.family)
            for m in NAMED_COLLECTION
        ]
    return _case_cache["named"]


def _by_matrix(records: list[RunRecord], dtype: str):
    """{matrix: {algorithm: record}} for one dtype."""
    out: dict[str, dict[str, RunRecord]] = defaultdict(dict)
    for r in records:
        if r.dtype == dtype:
            out[r.matrix][r.algorithm] = r
    return out


# ---------------------------------------------------------------- Table 1


def table1_rows(
    records: list[RunRecord], dtype: str, *, sparse: bool
) -> list[SpeedupSummary]:
    """Relative speedups of AC-SpGEMM per competitor, for one dtype and
    one side of the a <= 42 split."""
    cells = _by_matrix(records, dtype)
    ac_seconds: dict[str, float] = {}
    comp_seconds: dict[str, dict[str, float]] = defaultdict(dict)
    best: dict[str, str] = {}
    for matrix, by_alg in cells.items():
        any_rec = next(iter(by_alg.values()))
        if (any_rec.mean_row_length <= HIGHLY_SPARSE_SPLIT) != sparse:
            continue
        if "ac-spgemm" not in by_alg:
            continue
        ac_seconds[matrix] = by_alg["ac-spgemm"].seconds
        best[matrix] = min(by_alg.items(), key=lambda kv: kv[1].seconds)[0]
        for alg, rec in by_alg.items():
            if alg != "ac-spgemm":
                comp_seconds[alg][matrix] = rec.seconds
    return [
        speedup_summary(alg, ac_seconds, comp_seconds[alg], best)
        for alg in GPU_LINEUP
        if alg != "ac-spgemm" and comp_seconds[alg]
    ]


def ac_best_percentage(records: list[RunRecord], dtype: str, *, sparse: bool) -> float:
    """Percentage of matrices where AC-SpGEMM is the fastest (the
    AC-SpGEMM row of Table 1)."""
    cells = _by_matrix(records, dtype)
    wins = total = 0
    for matrix, by_alg in cells.items():
        any_rec = next(iter(by_alg.values()))
        if (any_rec.mean_row_length <= HIGHLY_SPARSE_SPLIT) != sparse:
            continue
        total += 1
        if min(by_alg.items(), key=lambda kv: kv[1].seconds)[0] == "ac-spgemm":
            wins += 1
    return 100.0 * wins / total if total else float("nan")


# ---------------------------------------------------------------- Figure 5


def figure5_trends(
    records: list[RunRecord], dtype: str, n_bins: int = 8
) -> dict[str, list[tuple[float, float, int]]]:
    """GFLOPS trend over temporary elements, highly sparse matrices."""
    out = {}
    for alg in GPU_LINEUP:
        pts = [
            (r.temp, r.gflops)
            for r in records
            if r.dtype == dtype
            and r.algorithm == alg
            and r.mean_row_length <= HIGHLY_SPARSE_SPLIT
        ]
        if pts:
            out[alg] = trend_bins(*zip(*pts), n_bins=n_bins)
    return out


# ------------------------------------------------------- Figures 6-8, Tables 2-3


def figure6_rows(records: list[RunRecord]) -> list[tuple]:
    """Double-precision GFLOPS per named matrix per algorithm."""
    cells = _by_matrix(records, "float64")
    rows = []
    for case in named_cases():
        by_alg = cells.get(case.name, {})
        rows.append(
            (case.name,)
            + tuple(
                by_alg[a].gflops if a in by_alg else float("nan")
                for a in GPU_LINEUP
            )
        )
    return rows


def figure7_rows(records: list[RunRecord]) -> list[tuple]:
    """Relative per-stage runtime of AC-SpGEMM (GLB/ESC/MCC/MM/PM/SM/CC)."""
    cells = _by_matrix(records, "float64")
    rows = []
    for case in named_cases():
        rec = cells.get(case.name, {}).get("ac-spgemm")
        if rec is None or not rec.stage_cycles:
            continue
        # summed in pipeline order, whatever order the record's JSON
        # round trip left its keys in
        shares = [rec.stage_cycles.get(k, 0.0) for k in STAGE_KEYS]
        total = sum(shares)
        rows.append((case.name,) + tuple(c / total for c in shares))
    return rows


def table2_rows() -> list[tuple]:
    """Matrix statistics of the named collection (analogue values) next
    to the paper's Table 2 numbers."""
    rows = []
    for m, case in zip(NAMED_COLLECTION, named_cases()):
        from ..sparse.ops import spgemm_reference

        c = spgemm_reference(case.a, case.b)
        c_len = c.nnz / c.rows if c.rows else 0.0
        rows.append(
            (
                m.name,
                case.stats.rows,
                case.stats.cols,
                case.stats.nnz,
                round(case.stats.mean_row_length, 1),
                case.stats.max_row_length,
                c.nnz,
                round(c_len, 1),
                case.temp,
                m.paper.a_len,
                m.paper.compaction and round(m.paper.compaction, 1),
                round(case.temp / max(c.nnz, 1), 1),
            )
        )
    return rows


def table3_rows(records: list[RunRecord]) -> list[tuple]:
    """AC-SpGEMM memory/restart/load statistics per named matrix."""
    cells = _by_matrix(records, "float64")
    rows = []
    for case in named_cases():
        rec = cells.get(case.name, {}).get("ac-spgemm")
        if rec is None or not rec.ac_extras:
            continue
        e = rec.ac_extras
        used = e["chunk_used_bytes"]
        rows.append(
            (
                case.name,
                e["helper_bytes"] / 1e6,
                e["chunk_pool_bytes"] / 1e6,
                used / 1e6,
                100.0 * used / max(e["chunk_pool_bytes"], 1),
                used / max(e["output_bytes"], 1),
                int(e["restarts"]),
                100.0 * e["mp_load"],
            )
        )
    return rows


def figure8_rows(records: list[RunRecord]) -> list[tuple]:
    """Memory consumption comparison: AC helper/used/allocated versus
    RMerge, bhSparse and nsparse extra memory."""
    cells = _by_matrix(records, "float64")
    rows = []
    for case in named_cases():
        by_alg = cells.get(case.name, {})
        ac = by_alg.get("ac-spgemm")
        if ac is None:
            continue
        e = ac.ac_extras
        rows.append(
            (
                case.name,
                e["helper_bytes"] / 1e6,
                e["chunk_used_bytes"] / 1e6,
                e["chunk_pool_bytes"] / 1e6,
                by_alg["rmerge"].extra_memory_bytes / 1e6 if "rmerge" in by_alg else float("nan"),
                by_alg["bhsparse"].extra_memory_bytes / 1e6 if "bhsparse" in by_alg else float("nan"),
                by_alg["nsparse"].extra_memory_bytes / 1e6 if "nsparse" in by_alg else float("nan"),
            )
        )
    return rows


# ------------------------------------------------------ Figures 9-12 (full set)


def fullset_rows(records: list[RunRecord], dtype: str, *, sparse: bool) -> list[tuple]:
    """Per-matrix GFLOPS marker-plot data (small = a < 42, large otherwise)."""
    cells = _by_matrix(records, dtype)
    rows = []
    for matrix in sorted(cells):
        by_alg = cells[matrix]
        any_rec = next(iter(by_alg.values()))
        if (any_rec.mean_row_length < HIGHLY_SPARSE_SPLIT) != sparse:
            continue
        rows.append(
            (matrix, round(any_rec.mean_row_length, 1))
            + tuple(
                round(by_alg[a].gflops, 3) if a in by_alg else float("nan")
                for a in GPU_LINEUP
            )
        )
    return rows


# ------------------------------------------------------------- §4.3 restarts


def restart_study(pool_fractions=(1.0, 0.6, 0.35, 0.2, 0.12)) -> list[tuple]:
    """Runtime versus restart count on the webbase analogue, shrinking
    the chunk pool (the paper's 0..63-restart experiment)."""
    case = next(c for c in named_cases() if c.name == "webbase-1M")
    base = ac_spgemm(
        case.a, case.b, AcSpgemmOptions(chunk_pool_lower_bound_bytes=1 << 20)
    )
    needed = base.memory.chunk_used_bytes
    rows = []
    for frac in pool_fractions:
        opts = AcSpgemmOptions(
            chunk_pool_bytes=max(int(needed * frac), 1 << 14),
            pool_growth_factor=1.5,
        )
        res = ac_spgemm(case.a, case.b, opts)
        rows.append(
            (
                frac,
                res.restarts,
                res.seconds * 1e3,
                res.memory.chunk_pool_bytes / 1e6,
            )
        )
    return rows


# ------------------------------------------------------------ CPU crossover


def cpu_crossover() -> list[tuple]:
    """AC-SpGEMM versus the CPU baseline over matrix size (§4: the GPU
    takes over from ~1e4 non-zeros upward).  Its fourteen cells run
    uncached."""
    from ..matrices.generators import random_uniform

    rows = []
    for n, avg in ((200, 4), (400, 5), (800, 6), (1600, 6), (3200, 6), (6400, 6), (12800, 6)):
        case = MatrixCase(f"crossover-n{n}", random_uniform(n, n, avg, seed=77))
        ac = run_case(case, "ac-spgemm", np.float64)
        cpu = run_case(case, "cpu-gustavson", np.float64)
        rows.append(
            (
                n,
                case.matrix.nnz,
                case.temp,
                ac.gflops,
                cpu.gflops,
                cpu.seconds / ac.seconds,
            )
        )
    return rows


# ---------------------------------------------------------------- ablations


def ablation_rows(case_names=("webbase-1M", "cant", "language", "poisson3Da")) -> list[tuple]:
    """Design-choice ablations: keep-last-row, dynamic bit reduction,
    long-row handling, and the NNZ_PER_BLOCK granularity."""
    variants = {
        "baseline": {},
        "no-keep-last-row": {"enable_keep_last_row": False},
        "no-bit-reduction": {"enable_bit_reduction": False},
        "no-long-rows": {"enable_long_row_handling": False},
        "nnz-per-block-512": {},
    }
    rows = []
    for case in named_cases():
        if case.name not in case_names:
            continue
        base_opts = AcSpgemmOptions(chunk_pool_lower_bound_bytes=1 << 22)
        for vname, kw in variants.items():
            opts = base_opts.with_(**kw)
            if vname == "nnz-per-block-512":
                opts = opts.with_(device=opts.device.with_(nnz_per_block_glb=512))
            res = ac_spgemm(case.a, case.b, opts)
            rows.append(
                (
                    case.name,
                    vname,
                    res.seconds * 1e3,
                    2.0 * case.temp / res.seconds / 1e9,
                    res.n_chunks,
                    res.shared_rows,
                )
            )
    return rows
