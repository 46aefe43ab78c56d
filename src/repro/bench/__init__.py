"""Benchmark harness, metrics, experiment drivers and reporting
(system S19 of DESIGN.md)."""

from .experiments import (
    GPU_LINEUP,
    ablation_rows,
    ac_best_percentage,
    cpu_crossover,
    figure5_trends,
    figure6_rows,
    figure7_rows,
    figure8_rows,
    fullset_rows,
    named_cases,
    restart_study,
    suite_cases,
    table1_rows,
    table2_rows,
    table3_rows,
)
from .harness import MatrixCase, RunRecord, run_case
from .metrics import SpeedupSummary, harmonic_mean, speedup_summary, trend_bins
from .report import format_table, human_bytes, write_csv
from .stability import StabilityReport, check_bit_stability

__all__ = [
    "GPU_LINEUP",
    "MatrixCase",
    "RunRecord",
    "SpeedupSummary",
    "StabilityReport",
    "ablation_rows",
    "ac_best_percentage",
    "check_bit_stability",
    "cpu_crossover",
    "figure5_trends",
    "figure6_rows",
    "figure7_rows",
    "figure8_rows",
    "format_table",
    "fullset_rows",
    "harmonic_mean",
    "human_bytes",
    "named_cases",
    "restart_study",
    "run_case",
    "speedup_summary",
    "suite_cases",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "trend_bins",
    "write_csv",
]
