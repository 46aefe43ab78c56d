"""Tests for the competing SpGEMM implementations."""

import numpy as np
import pytest

from repro import CSRMatrix, count_intermediate_products, spgemm_reference
from repro.baselines import (
    ALL_ALGORITHMS,
    GPU_ALGORITHMS,
    accumulate_products,
    expand_products,
    make_algorithm,
)
from tests.conftest import random_csr

ALGO_NAMES = sorted(ALL_ALGORITHMS)


class TestExpansion:
    def test_expansion_count_and_values(self, rng):
        a = random_csr(rng, 15, 15, 0.2)
        rows, cols, vals = expand_products(a, a, np.dtype(np.float64))
        assert rows.shape[0] == count_intermediate_products(a, a)
        dense = np.zeros((15, 15))
        np.add.at(dense, (rows, cols), vals)
        np.testing.assert_allclose(
            dense, spgemm_reference(a, a).to_dense(), rtol=1e-12
        )

    def test_expansion_order_is_csr_order(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
        b = CSRMatrix.from_dense(np.array([[4.0, 0.0], [5.0, 6.0]]))
        rows, cols, vals = expand_products(a, b, np.dtype(np.float64))
        # A entries in CSR order: (0,0)->B row0; (0,1)->B row1; (1,1)->B row1
        np.testing.assert_array_equal(rows, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(cols, [0, 0, 1, 0, 1])
        np.testing.assert_allclose(vals, [4.0, 10.0, 12.0, 15.0, 18.0])

    def test_empty(self):
        a = CSRMatrix.empty(3, 3)
        rows, cols, vals = expand_products(a, a, np.dtype(np.float64))
        assert rows.shape[0] == 0


class TestAccumulate:
    def test_matches_reference(self, rng):
        a = random_csr(rng, 20, 20, 0.2)
        rows, cols, vals = expand_products(a, a, np.dtype(np.float64))
        c = accumulate_products(rows, cols, vals, 20, 20)
        assert c.allclose(spgemm_reference(a, a))

    def test_shuffle_changes_bits_not_math(self, rng):
        a = random_csr(rng, 25, 25, 0.25)
        rows, cols, vals = expand_products(a, a, np.dtype(np.float64))
        c0 = accumulate_products(rows, cols, vals, 25, 25)
        c1 = accumulate_products(rows, cols, vals, 25, 25, shuffle_seed=1)
        c2 = accumulate_products(rows, cols, vals, 25, 25, shuffle_seed=2)
        assert c1.allclose(c0)
        assert c2.allclose(c0)
        # with enough products some accumulation differs in the last ulp
        assert not (c1.exactly_equal(c2) and c1.exactly_equal(c0))


class TestAllAlgorithms:
    @pytest.mark.parametrize("name", ALGO_NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_correct_product(self, name, seed):
        rng = np.random.default_rng(seed)
        a = random_csr(rng, 60, 60, 0.08)
        run = make_algorithm(name).multiply(a, a)
        assert run.matrix.allclose(spgemm_reference(a, a)), name

    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_rectangular(self, name, rng):
        a = random_csr(rng, 20, 35, 0.15)
        b = random_csr(rng, 35, 25, 0.15)
        run = make_algorithm(name).multiply(a, b)
        assert run.matrix.allclose(spgemm_reference(a, b))

    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_empty(self, name):
        run = make_algorithm(name).multiply(
            CSRMatrix.empty(4, 5), CSRMatrix.empty(5, 3)
        )
        assert run.matrix.nnz == 0

    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_accounting_populated(self, name, rng):
        a = random_csr(rng, 40, 40, 0.1)
        temp = count_intermediate_products(a, a)
        run = make_algorithm(name).multiply(a, a)
        assert run.cycles > 0
        assert run.seconds > 0
        assert run.gflops(temp) > 0
        assert run.stage_cycles

    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_float32(self, name, rng):
        a = random_csr(rng, 30, 30, 0.15)
        run = make_algorithm(name).multiply(a, a, dtype=np.float32)
        assert run.matrix.dtype == np.float32

    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_dimension_mismatch(self, name, rng):
        a = random_csr(rng, 4, 5, 0.5)
        with pytest.raises(ValueError):
            make_algorithm(name).multiply(a, a)


class TestBitStabilityFlags:
    @pytest.mark.parametrize("name", ["ac-spgemm", "bhsparse", "rmerge", "cusp-esc", "cpu-gustavson"])
    def test_stable_algorithms_ignore_seed(self, name, rng):
        a = random_csr(rng, 50, 50, 0.12)
        alg = make_algorithm(name)
        assert alg.bit_stable
        r1 = alg.multiply(a, a, scheduler_seed=1)
        r2 = alg.multiply(a, a, scheduler_seed=99)
        assert r1.matrix.exactly_equal(r2.matrix)

    @pytest.mark.parametrize("name", ["cusparse", "nsparse", "kokkos"])
    def test_hash_algorithms_vary_with_schedule(self, name, rng):
        a = random_csr(rng, 60, 60, 0.15)
        alg = make_algorithm(name)
        assert not alg.bit_stable
        results = [
            alg.multiply(a, a, scheduler_seed=s).matrix for s in range(4)
        ]
        assert any(
            not results[0].exactly_equal(r) for r in results[1:]
        ), "accumulation-order noise expected"
        for r in results[1:]:
            assert results[0].allclose(r)


class TestCostShapes:
    """Coarse relative-performance invariants of the cost model (the
    fine-grained claims live in the benchmarks)."""

    def make(self, avg, n, seed=0):
        from repro.matrices.generators import random_uniform

        return random_uniform(n, n, avg, seed=seed)

    def test_ac_beats_global_esc(self):
        a = self.make(6, 2000)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        esc = make_algorithm("cusp-esc").multiply(a, a)
        assert ac.seconds < esc.seconds

    def test_ac_beats_nsparse_on_sparse(self):
        a = self.make(4, 4000)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        ns = make_algorithm("nsparse").multiply(a, a)
        assert ac.seconds < ns.seconds

    def test_nsparse_beats_ac_on_dense(self):
        a = self.make(64, 1100)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        ns = make_algorithm("nsparse").multiply(a, a)
        assert ns.seconds < ac.seconds

    def test_cpu_wins_tiny(self):
        a = self.make(4, 150)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        cpu = make_algorithm("cpu-gustavson").multiply(a, a)
        assert cpu.seconds < ac.seconds

    def test_gpu_wins_large(self):
        a = self.make(6, 8000)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        cpu = make_algorithm("cpu-gustavson").multiply(a, a)
        assert ac.seconds < cpu.seconds


class TestRegistry:
    def test_lineup_default(self):
        lineup = [make_algorithm(n) for n in GPU_ALGORITHMS]
        assert [a.name for a in lineup] == list(GPU_ALGORITHMS)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            make_algorithm("does-not-exist")

    def test_named_subset(self):
        lineup = [make_algorithm(n) for n in ("nsparse", "rmerge")]
        assert [a.name for a in lineup] == ["nsparse", "rmerge"]
