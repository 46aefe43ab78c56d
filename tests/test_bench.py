"""Tests for the benchmark harness, metrics and reporting."""

import numpy as np
import pytest

from repro.bench import (
    MatrixCase,
    ResultCache,
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


class TestResultCache:
    def test_memoisation(self, tmp_path, case):
        cache = ResultCache(tmp_path / "c.json")
        r1 = cache.get_or_run(case, "nsparse")
        r2 = cache.get_or_run(case, "nsparse")
        assert r1.cycles == r2.cycles
        assert len(cache) == 1

    def test_round_trip_disk(self, tmp_path, case):
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        rec = cache.get_or_run(case, "rmerge")
        cache.save()
        cache2 = ResultCache(path)
        rec2 = cache2.get_or_run(case, "rmerge")
        assert rec2.cycles == rec.cycles
        assert rec2.stage_cycles == rec.stage_cycles

    def test_version_mismatch_discards(self, tmp_path, case):
        path = tmp_path / "c.json"
        path.write_text('{"version": -1, "cells": {"x": {}}}')
        cache = ResultCache(path)
        assert len(cache) == 0

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert len(ResultCache(path)) == 0

    def test_interleaved_writers_merge(self, tmp_path, rng):
        """Two caches saving in turn must not clobber each other: the
        save merges the on-disk cells under an exclusive lock."""
        path = tmp_path / "c.json"
        case_a = MatrixCase("m-a", random_csr(rng, 30, 30, 0.15))
        case_b = MatrixCase("m-b", random_csr(rng, 30, 30, 0.15))
        w1 = ResultCache(path)
        w2 = ResultCache(path)  # opened before w1 writes anything
        w1.get_or_run(case_a, "nsparse")
        w2.get_or_run(case_b, "rmerge")
        w1.save()
        w2.save()  # pre-fix this rewrote the file, losing w1's cell
        merged = ResultCache(path)
        assert len(merged) == 2
        assert merged.get_or_run(case_a, "nsparse")  # no re-run needed
        assert len(merged) == 2

    def test_save_is_atomic_no_torn_sibling(self, tmp_path, case):
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        cache.get_or_run(case, "nsparse")
        cache.save()
        # the temp file is renamed over the target, never left behind
        leftovers = [
            p for p in path.parent.iterdir() if p.name.startswith(".c.json.tmp")
        ]
        assert leftovers == []
        assert len(ResultCache(path)) == 1

    def test_lazy_case_untouched_on_full_cache_hit(self, tmp_path, rng):
        """Satellite: a warm-cache sweep must not build operands or
        count intermediate products (the expensive part)."""
        path = tmp_path / "c.json"
        warm = ResultCache(path)
        warm.get_or_run(MatrixCase("lazy-m", random_csr(rng, 40, 40, 0.1)),
                        "nsparse")
        warm.save()
        fresh_case = MatrixCase("lazy-m", random_csr(rng, 40, 40, 0.1))
        assert not fresh_case.materialized
        ResultCache(path).get_or_run(fresh_case, "nsparse")
        assert not fresh_case.materialized  # full hit: operands never built


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


class TestHotspotBench:
    def test_run_hotspots_payload(self):
        from repro.bench.wallclock import run_hotspots

        hot = run_hotspots(smoke=True, engine="batched", top=5)
        assert hot["bench"] == "host-hotspots"
        assert hot["engine"] == "batched"
        assert 0 < len(hot["top_spans"]) <= 5
        assert hot["top_spans"][0]["host_seconds"] >= (
            hot["top_spans"][-1]["host_seconds"]
        )
        names = {r["span"] for r in hot["top_spans"]}
        assert "esc.round" in names  # the known dominant host span
        spent = sum(r["host_seconds"] for r in hot["top_spans"])
        assert spent <= hot["total_host_seconds"] + 1e-6
