"""§4 first paragraph: GPU-vs-CPU crossover around 1e4 non-zeros.

"Very small matrices (<= 1e4 NNZ) are excluded as they do not provide
sufficient parallelism for execution on the GPU and thus CPU
implementations are typically faster.  From about 1e4 NNZ upwards, our
approach outperforms state-of-the-art CPU implementations."
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import cpu_crossover, format_table, write_csv

HEADERS = ["n", "nnz", "temp", "AC_gflops", "CPU_gflops", "speedup_AC_over_CPU"]


def test_cpu_crossover(benchmark, results_dir):
    rows = run_once(benchmark, cpu_crossover)
    write_csv(results_dir / "cpu_crossover.csv", HEADERS, rows)
    print()
    print(
        format_table(
            HEADERS,
            [(r[0], r[1], r[2], round(r[3], 3), round(r[4], 3), round(r[5], 2)) for r in rows],
            title="CPU crossover",
        )
    )
    small = [r for r in rows if r[1] <= 3_000]
    large = [r for r in rows if r[1] >= 30_000]
    # CPU wins clearly below the crossover, GPU above
    assert any(r[5] < 1.0 for r in small)
    assert all(r[5] > 1.0 for r in large)


def test_gpu_vs_parallel_cpu(benchmark, results_dir):
    """§2 context: bhSparse reports an average GPU speedup of 2.5/2.2
    (single/double) over an Intel MKL CPU implementation.  We measure
    the merge-based GPU baseline and AC-SpGEMM against the MKL-like
    16-thread CPU baseline on medium sparse inputs."""
    import numpy as np

    from repro.baselines import make_algorithm
    from repro.matrices import random_uniform

    def rows():
        out = []
        for dtype, label in ((np.float32, "float"), (np.float64, "double")):
            ratios_bh, ratios_ac = [], []
            # large inputs: the working set exceeds the CPU caches, the
            # regime the published MKL comparisons measure
            for n, avg, seed in ((20000, 6, 31), (15000, 8, 32), (25000, 4, 33)):
                m = random_uniform(n, n, avg, seed=seed)
                mkl = make_algorithm("cpu-mkl").multiply(m, m, dtype=dtype)
                bh = make_algorithm("bhsparse").multiply(m, m, dtype=dtype)
                ac = make_algorithm("ac-spgemm").multiply(m, m, dtype=dtype)
                ratios_bh.append(mkl.seconds / bh.seconds)
                ratios_ac.append(mkl.seconds / ac.seconds)
            out.append(
                (
                    label,
                    round(float(np.mean(ratios_bh)), 2),
                    round(float(np.mean(ratios_ac)), 2),
                )
            )
        return out

    data = run_once(benchmark, rows)
    write_csv(
        results_dir / "gpu_vs_mkl.csv",
        ["precision", "bhsparse_over_mkl", "ac_over_mkl"],
        data,
    )
    print()
    print(format_table(
        ["precision", "bhSparse/MKL", "AC/MKL"], data,
        title="GPU speedup over the 16-thread CPU (paper context: 2.5/2.2)",
    ))
    for _, bh_ratio, ac_ratio in data:
        assert 1.0 < bh_ratio < 10.0  # GPU faster, same order as published
        assert ac_ratio > bh_ratio * 0.8  # AC at least comparable to bhSparse
