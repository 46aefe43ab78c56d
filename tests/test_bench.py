"""Tests for the benchmark harness, metrics and reporting."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    MatrixCase,
    check_bit_stability,
    format_table,
    harmonic_mean,
    human_bytes,
    run_case,
    speedup_summary,
    trend_bins,
    write_csv,
)
from repro.matrices.generators import random_uniform
from tests.conftest import random_csr


@pytest.fixture
def case(rng):
    return MatrixCase("test-case", random_csr(rng, 40, 40, 0.12))


class TestMatrixCase:
    def test_square_operands(self, case):
        assert case.a is case.matrix and case.b is case.matrix
        assert case.temp > 0

    def test_nonsquare_uses_transpose(self, rng):
        c = MatrixCase("rect", random_csr(rng, 10, 30, 0.2))
        assert c.b.shape == (30, 10)

    def test_sparse_classification(self, case):
        assert case.highly_sparse == (case.mean_row_length <= 42)


class TestRunCase:
    def test_record_fields(self, case):
        rec = run_case(case, "nsparse")
        assert rec.matrix == "test-case"
        assert rec.algorithm == "nsparse"
        assert rec.correct
        assert rec.gflops > 0
        assert rec.temp == case.temp

    def test_ac_extras_populated(self, case):
        rec = run_case(case, "ac-spgemm")
        assert "restarts" in rec.ac_extras
        assert rec.ac_extras["chunk_pool_bytes"] > 0

    def test_verification_flag(self, case):
        rec = run_case(case, "rmerge", verify=False)
        assert rec.correct  # default True when unverified


class TestMetrics:
    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 1.0]) == 1.0
        assert harmonic_mean([2.0, 2.0]) == 2.0
        assert harmonic_mean([1.0, 4.0]) == pytest.approx(1.6)

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    def test_speedup_summary(self):
        ac = {"m1": 1.0, "m2": 2.0}
        comp = {"m1": 2.0, "m2": 1.0}
        best = {"m1": "ac-spgemm", "m2": "x"}
        s = speedup_summary("x", ac, comp, best)
        assert s.min_speedup == 0.5 and s.max_speedup == 2.0
        assert s.pct_better_than_ac == 50.0
        assert s.pct_best_overall == 50.0

    def test_speedup_no_common(self):
        with pytest.raises(ValueError):
            speedup_summary("x", {"a": 1.0}, {"b": 1.0}, {})

    def test_trend_bins_geometric(self):
        temps = [1e3, 1e4, 1e5, 1e6]
        vals = [1.0, 2.0, 3.0, 4.0]
        bins = trend_bins(temps, vals, n_bins=4)
        assert len(bins) >= 3
        assert sum(n for _, _, n in bins) == 4

    def test_trend_bins_empty(self):
        assert trend_bins([], []) == []


class TestReport:
    def test_format_table(self):
        out = format_table(
            ["name", "value"], [("a", 1.5), ("bb", 2.25)], title="T"
        )
        assert "T" in out and "1.50" in out and "bb" in out

    def test_write_csv(self, tmp_path):
        p = write_csv(tmp_path / "sub" / "x.csv", ["a", "b"], [(1, 2)])
        assert p.read_text().splitlines() == ["a,b", "1,2"]

    def test_human_bytes(self):
        assert human_bytes(512) == "512.00B"
        assert human_bytes(2048) == "2.00KB"
        assert human_bytes(3 * 1024**2) == "3.00MB"


class TestStabilityChecker:
    def test_ac_reported_stable(self):
        a = random_uniform(150, 150, 5, seed=3)
        rep = check_bit_stability("ac-spgemm", a, a, n_runs=3)
        assert rep.claims_stable and rep.observed_stable and rep.consistent
        assert rep.max_value_deviation == 0.0

    def test_nsparse_reported_unstable(self):
        a = random_uniform(200, 200, 8, seed=3)
        rep = check_bit_stability("nsparse", a, a, n_runs=4)
        assert not rep.claims_stable
        assert not rep.observed_stable
        assert rep.consistent
        assert rep.max_value_deviation > 0.0


def _load_bench_wallclock():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_wallclock.py"
    spec = importlib.util.spec_from_file_location("bench_wallclock", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestWallclockBench:
    def test_wallclock_reports_median_and_spread(self):
        bw = _load_bench_wallclock()
        payload = bw.run(smoke=True, repeats=3)
        assert payload["repeats"] == 3
        assert payload["engines"] == ["reference", "batched"]
        for row in payload["cases"]:
            assert set(row["seconds"]) == set(row["iqr_seconds"]) == {
                "reference", "batched"
            }
            assert all(v >= 0.0 for v in row["iqr_seconds"].values())
            assert row["speedup"] == (
                row["seconds"]["reference"] / row["seconds"]["batched"]
            )
            assert row["engines_identical"]
            assert row["trace_unperturbed"]
            assert row["traces_identical"] and row["trace_bytes"] > 0
            assert set(row["overhead"]) == {"reference", "batched"}
        # the timing gates are reported, never asserted here: host time
        # on a shared machine is too noisy for a unit test
        assert math.isfinite(payload["trace_overhead"])
        assert payload["geomean_speedup"] > 0.0
        assert not payload["speedup_enforced"]
        # the gate logic, on doctored timings
        ok = dict(payload, trace_overhead=0.0)
        assert bw.failures(ok) == []
        bad = dict(
            ok, trace_overhead=0.5, speedup_enforced=True, geomean_speedup=1.0,
            cases=[dict(payload["cases"][0], traces_identical=False)],
        )
        assert len(bw.failures(bad)) == 3
