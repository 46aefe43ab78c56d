"""Tests for the MKL-like parallel CPU baseline."""

import pytest

from repro import count_intermediate_products, spgemm_reference
from repro.baselines import GustavsonCPU, MklLikeCPU, make_algorithm
from repro.matrices import random_uniform
from tests.conftest import random_csr


class TestMklLikeCPU:
    def test_registered(self):
        assert make_algorithm("cpu-mkl").name == "cpu-mkl"

    def test_correct_and_stable(self, rng):
        a = random_csr(rng, 50, 50, 0.12)
        alg = MklLikeCPU()
        r1 = alg.multiply(a, a, scheduler_seed=1)
        r2 = alg.multiply(a, a, scheduler_seed=9)
        assert r1.matrix.allclose(spgemm_reference(a, a))
        assert r1.matrix.exactly_equal(r2.matrix)

    def test_faster_than_sequential_cpu(self):
        """16 threads must beat the single-core Gustavson on a matrix
        large enough to amortise the parallel-section overhead."""
        a = random_uniform(3000, 3000, 8, seed=2)
        seq = GustavsonCPU().multiply(a, a)
        par = MklLikeCPU().multiply(a, a)
        assert par.seconds < seq.seconds / 2

    def test_gpu_beats_mkl_on_large_input(self):
        """bhSparse reports ~2.2-2.5x GPU speedup over MKL; our AC should
        clear the parallel CPU by at least that on a large sparse case
        whose working set exceeds the CPU caches."""
        a = random_uniform(20000, 20000, 6, seed=3)
        temp = count_intermediate_products(a, a)
        mkl = MklLikeCPU().multiply(a, a)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        assert ac.seconds < mkl.seconds
        assert ac.gflops(temp) / mkl.gflops(temp) > 1.5

    def test_mkl_wins_tiny_input(self):
        a = random_uniform(150, 150, 4, seed=4)
        mkl = MklLikeCPU().multiply(a, a)
        ac = make_algorithm("ac-spgemm").multiply(a, a)
        assert mkl.seconds < ac.seconds

    def test_uses_cpu_clock(self, rng):
        a = random_csr(rng, 30, 30, 0.2)
        assert MklLikeCPU().multiply(a, a).clock_ghz == pytest.approx(2.2)
