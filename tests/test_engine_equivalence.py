"""Property tests: the batched engine is observationally identical to
the reference engine.

``batched`` is an execution strategy, not alternative semantics (see
docs/ARCHITECTURE.md, "Execution engines"): for any input it must
produce a bit-identical output matrix *and*
identical simulated statistics — per-stage cycles, traffic counters,
restart count, multiprocessor load, memory report.  The cases below
sweep the shapes that exercise distinct code paths: empty rows, dense
rows, long rows, both value dtypes, disabled bit reduction, and a pool
small enough to force completion restarts.  Slab-boundary cases shrink
the batched engine's ESC slab budget so launches split into several
slabs, down to one block per slab, and compare the device trace too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AcSpgemmOptions, FaultPlan, ac_spgemm
from repro.core.chunks import ChunkPool
from repro.engine import batched
from repro.engine.reference import ReferenceEngine
from repro.matrices import generators as g
from repro.sparse.stats import count_intermediate_products, squared_operands
from tests.conftest import random_csr

ENGINES = ("batched",)


def _signature(res) -> dict:
    """Everything an engine is forbidden to perturb."""
    return {
        "row_ptr": res.matrix.row_ptr.tobytes(),
        "col_idx": res.matrix.col_idx.tobytes(),
        "values": res.matrix.values.tobytes(),
        "stage_cycles": dict(res.stage_cycles),
        "counters": res.counters,
        "restarts": res.restarts,
        "mp_load": res.multiprocessor_load,
        "n_chunks": res.n_chunks,
        "memory": res.memory,
        "device_trace": res.device_trace.to_json() if res.device_trace else None,
    }


def _run_all(a, b, dtype="float64", **kw):
    sigs = {}
    results = {}
    for engine in ("reference",) + ENGINES:
        opts = AcSpgemmOptions(
            value_dtype=np.dtype(dtype), engine=engine, **kw
        )
        results[engine] = ac_spgemm(a, b, opts)
        sigs[engine] = _signature(results[engine])
    ref = sigs["reference"]
    for engine in ENGINES:
        mismatched = [k for k in ref if sigs[engine][k] != ref[k]]
        assert not mismatched, f"{engine} diverges in {mismatched}"
    return results["reference"]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_uniform_square_both_dtypes(dtype):
    a, b = squared_operands(g.random_uniform(500, 500, 10.0, seed=11))
    _run_all(a, b, dtype=dtype)


def test_empty_rows(rng):
    # sparse enough that many rows of A (and of the result) are empty
    a = random_csr(rng, 300, 300, 0.008)
    counts = np.diff(a.row_ptr)
    assert (counts == 0).any(), "case must include empty rows"
    _run_all(a, a)


def test_dense_rows(rng):
    # dense operand rows drive large per-block expansions
    a = random_csr(rng, 120, 120, 0.5)
    _run_all(a, a)


def _pointer_admissions(monkeypatch) -> list[tuple[ChunkPool, bool]]:
    """Spy on every pool admission: the pool, and whether it is a
    pointer chunk's (the only allocation without payload)."""
    seen: list[tuple[ChunkPool, bool]] = []
    admit = ChunkPool.admission_ok

    def spy(pool, nbytes):
        seen.append((pool, nbytes == pool.data_bytes(0, 0)))
        return admit(pool, nbytes)

    monkeypatch.setattr(ChunkPool, "admission_ok", spy)
    return seen


#: the default long-row threshold is a block's ESC capacity (2048
#: products); this one turns the ~300-entry rows into pointer chunks
POINTER_THRESHOLD = 256


def test_long_skewed_rows():
    mtx = g.long_row_matrix(
        400, 3.0, n_long_rows=3, long_row_len=300, seed=12
    )
    a, b = squared_operands(mtx)
    _run_all(a, b)


def test_long_skewed_rows_as_pointer_chunks(monkeypatch):
    mtx = g.long_row_matrix(
        400, 3.0, n_long_rows=3, long_row_len=300, seed=12
    )
    a, b = squared_operands(mtx)
    seen = _pointer_admissions(monkeypatch)
    _run_all(a, b, long_row_threshold=POINTER_THRESHOLD)
    assert any(ptr for _, ptr in seen), "case must admit a pointer chunk"


def test_power_law_float32():
    a, b = squared_operands(g.power_law(500, avg_row_len=8.0, seed=13))
    _run_all(a, b, dtype="float32")


def test_banded_with_device_trace():
    a, b = squared_operands(g.banded(600, 8, seed=16))
    _run_all(a, b, device_trace=True)


def test_restarts_from_small_pool():
    a, b = squared_operands(g.random_uniform(400, 400, 10.0, seed=14))
    res = _run_all(
        a, b, chunk_pool_bytes=6000, chunk_pool_lower_bound_bytes=0
    )
    assert res.restarts > 0, "case must exercise the restart path"


@pytest.mark.parametrize("mode", ["clean", "small-pool", "pool-fault"])
def test_campaign_shape(monkeypatch, mode):
    """The campaign's very sparse, wide squares: tens of one-iteration
    ESC blocks with about one shared row each, merged by Multi Merge.
    Clean, the batched replay admits each launch by one prefix sum; a
    small pool restarts it, and a pool fault hook makes it admit record
    by record in the reference's order."""
    a, b = squared_operands(g.random_uniform(8000, 8000, 1.5, seed=21))
    kw = {
        "clean": {},
        "small-pool": dict(chunk_pool_bytes=60000, chunk_pool_lower_bound_bytes=0),
        "pool-fault": dict(fault_plan=FaultPlan.pool_exhaust_at(5, 30)),
    }[mode]
    batched_admissions = []
    admit = ChunkPool.admission_ok

    def spy(pool, nbytes):
        batched_admissions.append(pool)
        return admit(pool, nbytes)

    results = {}
    for engine in ("reference", "batched"):
        if engine == "batched":
            monkeypatch.setattr(ChunkPool, "admission_ok", spy)
        results[engine] = ac_spgemm(
            a, b, AcSpgemmOptions(engine=engine, device_trace=True, **kw)
        )
    ref, bat = (_signature(results[e]) for e in ("reference", "batched"))
    mismatched = [k for k in ref if bat[k] != ref[k]]
    assert not mismatched, f"batched diverges in {mismatched}"

    res = results["reference"]
    assert res.n_blocks >= 30
    first_launch = next(
        rec for rec in res.device_trace.records
        if rec.stage == "ESC" and rec.kind == "launch"
    )
    assert max(ev.esc_iterations for ev in first_launch.blocks) == 1
    assert res.shared_rows >= 10 and res.stage_cycles["MM"] > 0
    assert (res.restarts > 0) == (mode != "clean")
    # a launch that fits admits without a scan; one that does not, or
    # any launch under a fault hook, checks record by record
    assert bool(batched_admissions) == (mode != "clean")


def test_path_and_search_merge_restarts(monkeypatch):
    """A pool fault in the middle of the Path Merge admissions and one in
    the middle of the Search Merge admissions: each kernel restarts with
    its workers' cursors kept, on both engines alike (the batched engine
    runs the reference workers under the fast sort)."""
    a, b = squared_operands(g.power_law(2500, avg_row_len=12.0, seed=4))
    stages: list[str] = []
    current = ["ESC"]
    admit = ChunkPool.admission_ok
    merge_round = ReferenceEngine.merge_round

    def spy_admit(pool, nbytes):
        stages.append(current[0])
        return admit(pool, nbytes)

    def spy_round(engine, ectx, stage, workers):
        current[0] = stage
        return merge_round(engine, ectx, stage, workers)

    with monkeypatch.context() as m:
        m.setattr(ChunkPool, "admission_ok", spy_admit)
        m.setattr(ReferenceEngine, "merge_round", spy_round)
        ac_spgemm(a, b, AcSpgemmOptions(engine="reference"))
    pm = [i + 1 for i, st in enumerate(stages) if st == "PM"]
    sm = [i + 1 for i, st in enumerate(stages) if st == "SM"]
    assert len(pm) > 1 and len(sm) > 1, "case must run Path and Search Merge"
    # the failed Path Merge attempt is retried, so every later
    # admission moves one ordinal on
    res = _run_all(
        a, b, device_trace=True,
        fault_plan=FaultPlan.pool_exhaust_at(pm[len(pm) // 2], sm[len(sm) // 2] + 1),
    )
    restarts = [rec.stage for rec in res.device_trace.records if rec.kind == "host"]
    assert restarts == ["PM", "SM"]
    assert res.restarts == 2


def test_bit_reduction_disabled():
    a, b = squared_operands(g.random_uniform(350, 350, 9.0, seed=15))
    _run_all(a, b, enable_bit_reduction=False)


# ---------------------------------------------------------------------------
# slab boundaries: a launch split into slabs must not perturb anything


def _log_slabs(monkeypatch, budget: int) -> list[list[list[int]]]:
    """Cap batched ESC slabs at ``budget`` products; the returned list
    collects each launch's slabs as block-id lists."""
    monkeypatch.setattr(batched, "SLAB_ELEMENTS", budget)
    log: list[list[list[int]]] = []
    split = batched._esc_slabs

    def spy(ectx, pending):
        slabs = split(ectx, pending)
        log.append([[blk.block_id for blk in slab] for slab in slabs])
        return slabs

    monkeypatch.setattr(batched, "_esc_slabs", spy)
    return log


def _mid_budget(a, b) -> int:
    """A budget that splits the first launch into about three slabs."""
    return max(1, count_intermediate_products(a, b) // 3)


@pytest.mark.parametrize("split", ["block-per-slab", "mid"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_slab_boundaries(monkeypatch, split, dtype):
    a, b = squared_operands(g.random_uniform(400, 400, 10.0, seed=16))
    budget = 1 if split == "block-per-slab" else _mid_budget(a, b)
    log = _log_slabs(monkeypatch, budget)
    _run_all(a, b, dtype=dtype, device_trace=True)
    first = log[0]
    assert len(first) > 1, "the launch must split"
    if split == "block-per-slab":
        assert all(len(slab) == 1 for slab in first)


def test_slab_boundaries_long_rows(monkeypatch):
    mtx = g.long_row_matrix(400, 3.0, n_long_rows=3, long_row_len=300, seed=17)
    a, b = squared_operands(mtx)
    log = _log_slabs(monkeypatch, _mid_budget(a, b))
    _run_all(a, b, device_trace=True)
    assert len(log[0]) > 1


def test_slab_boundaries_long_rows_as_pointer_chunks(monkeypatch):
    mtx = g.long_row_matrix(400, 3.0, n_long_rows=3, long_row_len=300, seed=17)
    a, b = squared_operands(mtx)
    seen = _pointer_admissions(monkeypatch)
    log = _log_slabs(monkeypatch, _mid_budget(a, b))
    _run_all(
        a, b, long_row_threshold=POINTER_THRESHOLD, device_trace=True
    )
    assert len(log[0]) > 1
    assert any(ptr for _, ptr in seen), "case must admit a pointer chunk"


@pytest.mark.parametrize("split", ["block-per-slab", "mid"])
def test_restart_across_slab_boundary(monkeypatch, split):
    a, b = squared_operands(g.random_uniform(400, 400, 10.0, seed=14))
    budget = 1 if split == "block-per-slab" else _mid_budget(a, b)
    log = _log_slabs(monkeypatch, budget)
    res = _run_all(
        a, b, chunk_pool_bytes=6000, chunk_pool_lower_bound_bytes=0,
        device_trace=True,
    )
    assert res.restarts > 0
    # the blocks the first launch failed came from more than one of its
    # slabs, so the serial replay's restart decision spans a boundary
    slab_of = {bid: i for i, slab in enumerate(log[0]) for bid in slab}
    retried = {bid for slab in log[1] for bid in slab}
    assert len({slab_of[bid] for bid in retried}) > 1


@pytest.mark.parametrize("split", ["block-per-slab", "mid"])
def test_pointer_chunk_pool_fault_across_slabs(monkeypatch, split):
    """A pool fault on a long row's pointer chunk, with slabs and the
    device trace: the failed attempt reports the scratchpad high water
    of the A arrays alone (the reference allocates WDState and the ESC
    arrays only after writing the long rows)."""
    mtx = g.long_row_matrix(400, 3.0, n_long_rows=3, long_row_len=300, seed=17)
    a, b = squared_operands(mtx)
    kw = dict(long_row_threshold=POINTER_THRESHOLD, device_trace=True)
    # holding the pools keeps runs apart
    seen = _pointer_admissions(monkeypatch)
    ac_spgemm(a, b, AcSpgemmOptions(engine="reference", **kw))
    pointers = [i + 1 for i, (_, ptr) in enumerate(seen) if ptr]
    assert len(pointers) > 1
    # the second pointer chunk: a restart that must skip the first
    # when it belongs to the same block
    at = pointers[1]
    seen.clear()

    budget = 1 if split == "block-per-slab" else _mid_budget(a, b)
    log = _log_slabs(monkeypatch, budget)
    res = _run_all(a, b, fault_plan=FaultPlan.pool_exhaust_at(at), **kw)
    assert res.restarts > 0
    assert len(log[0]) > 1
    runs: dict[int, list[bool]] = {}
    for pool, ptr in seen:
        runs.setdefault(id(pool), []).append(ptr)
    assert len(runs) == 2
    assert all(flags[at - 1] for flags in runs.values()), "fault on a pointer"
