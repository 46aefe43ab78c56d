"""Degenerate-input audit: empty and zero-structure matrices.

Every shape below must flow through the full adaptive pipeline (both
engines), the instrumented ``repro analyze`` run with every export, and
every registered baseline without divide-by-zero or empty-array
reductions.
Run with ``-W error::RuntimeWarning`` semantics in mind: the numpy
warnings that precede ``nan`` results are treated as failures here.
"""

import warnings

import numpy as np
import pytest

from repro import AcSpgemmOptions, CSRMatrix, ac_spgemm
from repro.baselines import ALL_ALGORITHMS, make_algorithm
from repro.gpu import SMALL_DEVICE
from repro.obs import (
    MetricsRegistry,
    analyze_result,
    perfetto_payload,
    validate_perfetto,
    write_perfetto,
)
from repro.sparse import matrix_stats, spgemm_reference

ENGINES = ("reference", "batched")


def _empty(rows: int, cols: int) -> CSRMatrix:
    return CSRMatrix.from_dense(np.zeros((rows, cols)))


def degenerate_cases() -> list[tuple[str, CSRMatrix, CSRMatrix]]:
    one_zero_row = CSRMatrix.from_dense(np.zeros((1, 4)))
    square_zero = _empty(5, 5)
    return [
        ("0xN @ Nx3", _empty(0, 4), _empty(4, 3)),
        ("Nx0 @ 0xM", _empty(3, 0), _empty(0, 2)),
        ("zero-nnz square", square_zero, square_zero),
        ("single all-zero row", one_zero_row, _empty(4, 4)),
    ]


def _opts(**kw) -> AcSpgemmOptions:
    base = dict(device=SMALL_DEVICE, chunk_pool_lower_bound_bytes=1 << 20)
    base.update(kw)
    return AcSpgemmOptions(**base)


@pytest.mark.parametrize(
    "label,a,b", degenerate_cases(), ids=[c[0] for c in degenerate_cases()]
)
class TestDegeneratePipeline:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_engines(self, label, a, b, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ac_spgemm(a, b, _opts(engine=engine, device_trace=True))
        assert res.matrix.shape == (a.rows, b.cols)
        assert res.matrix.nnz == 0
        ref = spgemm_reference(a, b)
        assert res.matrix.allclose(ref)
        # derived statistics stay finite on empty work
        assert res.total_cycles >= 0.0
        assert res.sm_utilization == 1.0
        assert res.memory.used_fraction >= 0.0
        assert res.memory.used_over_output == 0.0
        assert res.stage_fractions()

    def test_profile_and_exports(self, label, a, b, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = _opts(device_trace=True)
            res = ac_spgemm(a, b, opts)
            rep = analyze_result(res, opts, matrix_name=label)
            text = rep.text()
            payload = perfetto_payload(
                spans=res.spans, device=res.device_trace,
                clock_ghz=res.clock_ghz,
            )
            doc = rep.metrics_doc()
            prom = MetricsRegistry.from_result(
                res, engine=opts.engine
            ).to_prometheus()
        assert label in text and "100.0%" not in text.splitlines()[1]
        validate_perfetto(payload)
        assert doc["metrics"]['repro_output_nnz{engine="batched"}'] == 0
        assert prom.endswith("\n")
        write_perfetto(tmp_path / "t.json", payload)
        rep.write_metrics(tmp_path / "m.json")

    def test_fallback_path(self, label, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ac_spgemm(a, b, _opts(on_failure="fallback"))
        assert not res.degraded
        assert res.matrix.nnz == 0

    def test_matrix_stats(self, label, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = matrix_stats(a)
        assert st.nnz == 0
        assert st.mean_row_length == 0.0


@pytest.mark.parametrize("name", sorted(ALL_ALGORITHMS))
@pytest.mark.parametrize(
    "label,a,b", degenerate_cases(), ids=[c[0] for c in degenerate_cases()]
)
def test_all_baselines_degenerate(name, label, a, b):
    algo = make_algorithm(name, device=SMALL_DEVICE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = algo.multiply(a, b)
    assert run.matrix.shape == (a.rows, b.cols)
    assert run.matrix.nnz == 0
    assert run.cycles >= 0.0
    assert run.gflops(0) == 0.0
