"""Additional property-based tests: scheduler, generators, estimates."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import TITAN_XP, CostMeter, schedule_blocks
from repro.matrices import generators as g
from repro.sparse import matrix_stats, validate_csr
from tests.conftest import random_csr

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSchedulerProperties:
    @SETTINGS
    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=0, max_size=100),
        st.integers(1, 32),
    )
    def test_makespan_bounds(self, blocks, sms):
        t = schedule_blocks(blocks, sms)
        total = sum(blocks)
        longest = max(blocks) if blocks else 0.0
        lower = max(longest, total / sms)
        assert t.makespan_cycles >= lower - 1e-6
        # greedy list scheduling is a 2-approximation
        assert t.makespan_cycles <= 2 * lower + 1e-6
        assert t.total_block_cycles == pytest.approx(total, rel=1e-9, abs=1e-9)

    @SETTINGS
    @given(
        st.lists(st.floats(0, 1e4, allow_nan=False), min_size=1, max_size=60),
        st.integers(1, 8),
    )
    def test_busy_conservation(self, blocks, sms):
        t = schedule_blocks(blocks, sms)
        assert len(t.sm_busy_cycles) == sms
        assert 0.0 <= t.multiprocessor_load <= 1.0


class TestGeneratorProperties:
    @SETTINGS
    @given(
        st.integers(20, 400),
        st.floats(0.5, 20),
        st.integers(0, 1000),
    )
    def test_uniform_always_canonical(self, n, avg, seed):
        m = g.random_uniform(n, n, avg, seed=seed)
        validate_csr(m)
        assert m.shape == (n, n)

    @SETTINGS
    @given(st.integers(10, 200), st.integers(1, 8), st.integers(0, 100))
    def test_banded_within_band(self, n, bw, seed):
        m = g.banded(n, bw, seed=seed)
        validate_csr(m)
        row_ids = np.repeat(np.arange(n), m.row_lengths())
        assert (np.abs(m.col_idx - row_ids) <= bw).all()

    @SETTINGS
    @given(st.integers(50, 500), st.integers(0, 100))
    def test_road_degree_bounded(self, n, seed):
        m = g.road_network(n, seed=seed)
        validate_csr(m)
        assert matrix_stats(m).mean_row_length < 8

    @SETTINGS
    @given(
        st.integers(5, 40),
        st.integers(50, 400),
        st.integers(1, 30),
        st.integers(0, 50),
    )
    def test_design_constant_rows(self, rows, cols, length, seed):
        length = min(length, cols)
        m = g.bipartite_design(rows, cols, length, seed=seed)
        validate_csr(m)
        assert (m.row_lengths() == length).all()


class TestEstimateProperties:
    @SETTINGS
    @given(st.integers(50, 300), st.floats(1, 10), st.integers(0, 50))
    def test_uniform_estimate_monotone_in_density(self, n, avg, seed):
        from repro.core import estimate_output_entries

        a1 = g.random_uniform(n, n, avg, seed=seed)
        a2 = g.random_uniform(n, n, avg * 2, seed=seed)
        e1 = estimate_output_entries(a1, a1)
        e2 = estimate_output_entries(a2, a2)
        assert e2 >= e1 * 0.9  # denser inputs never shrink the estimate

    @SETTINGS
    @given(st.integers(100, 400), st.floats(1, 8), st.integers(0, 30))
    def test_sampled_estimate_nonnegative_and_bounded(self, n, avg, seed):
        from repro.core import sampled_output_estimate

        a = g.random_uniform(n, n, avg, seed=seed)
        est = sampled_output_estimate(a, a, sample_rows=32, seed=seed)
        assert 0.0 <= est <= 1.3 * n * n

    @SETTINGS
    @given(
        st.integers(0, 30),  # rows of A
        st.integers(1, 30),  # inner dimension
        st.integers(1, 30),  # cols of B
        st.sampled_from([0.0, 0.05, 0.3]),  # A density: 0 = all rows empty
        st.sampled_from([0.0, 0.05, 0.3]),  # B density: 0 = b.nnz == 0
        st.integers(1, 40),  # sample_rows, often capped by a.rows
        st.integers(0, 10_000),
    )
    def test_sampled_estimate_matches_per_row_definition(
        self, m, n, p, da, db, sample_rows, seed
    ):
        """The one-gather estimate equals the per-row symbolic pass it
        replaced: the same rows drawn, the same distinct (row, column)
        count and the same three meter charges."""
        from repro.core import sampled_output_estimate

        rng = np.random.default_rng(seed)
        a = random_csr(rng, m, n, da)
        b = random_csr(rng, n, p, db)
        meter = CostMeter(config=TITAN_XP)
        est = sampled_output_estimate(
            a, b, sample_rows=sample_rows, seed=seed, meter=meter
        )

        expected, products = 0.0, 0
        if a.rows and a.nnz and b.nnz:
            k = min(sample_rows, a.rows)
            rows = np.random.default_rng(seed).choice(a.rows, size=k, replace=False)
            distinct = 0
            for r in sorted(rows.tolist()):
                ks = a.col_idx[a.row_ptr[r] : a.row_ptr[r + 1]]
                cols = [b.col_idx[b.row_ptr[j] : b.row_ptr[j + 1]] for j in ks]
                merged = np.concatenate(cols) if cols else np.zeros(0)
                products += merged.shape[0]
                distinct += np.unique(merged).shape[0]
            expected = 1.3 * distinct * (a.rows / k)
        assert est == expected

        ref = CostMeter(config=TITAN_XP)
        if a.rows and a.nnz and b.nnz:
            ref.global_read(products, 4)
            ref.hash_probe(products, in_scratchpad=True)
            ref.kernel_launch()
        assert meter.cycles == ref.cycles
        assert meter.counters == ref.counters
