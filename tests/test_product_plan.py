"""``ProductPlan``: one expansion and sort of ``A @ B`` for every baseline.

Pinned down here:

* ``ProductPlan(a, b).product(dtype, seed)`` returns the bytes of the
  expand-then-accumulate path it replaced (that ``accumulate_products``
  body is kept below as the oracle), for float32 and float64 and seeds
  None, 0, 1 and 2, on random operands and on edge inputs: empty rows,
  ``nnz == 0``, ``b.cols == 0``, one long row, NaN-payload pairs, +-0.0;
* one plan serves the line-up's five baselines in any order with the
  bytes, cycles, stage cycles, counters and extra memory of a fresh run;
* serving all five from one plan does not raise the traced heap peak
  above one baseline's own run.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CSRMatrix
from repro.baselines import GPU_ALGORITHMS, make_algorithm
from repro.baselines.base import ProductPlan, expand_products
from repro.campaign.plan import CampaignConfig, config_entries, tiny_entries
from repro.matrices import generators as g
from repro.sparse import row_temp_counts
from repro.sparse.coo import row_major_order
from repro.sparse.stats import squared_operands

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
DTYPES = (np.float32, np.float64)
SEEDS = (None, 0, 1, 2)
BASELINE_LINEUP = [n for n in GPU_ALGORITHMS if n != "ac-spgemm"]


# ---------------------------------------------------------------------------
# the former expand-then-accumulate path, kept as the oracle
# ---------------------------------------------------------------------------


def oracle_accumulate(rows, cols, vals, n_rows, n_cols, *, shuffle_seed=None):
    """``accumulate_products`` as it was before the plan."""
    n = rows.shape[0]
    if n == 0:
        return CSRMatrix.empty(n_rows, n_cols, dtype=vals.dtype)
    order, keys = row_major_order(rows, cols, n_rows, n_cols)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    if shuffle_seed is not None:
        priority = np.random.default_rng(shuffle_seed).random(n)
        shared = ~new_group
        shared[:-1] |= shared[1:]
        pos = np.flatnonzero(shared)
        sub = order[pos]
        order[pos] = sub[np.lexsort((priority[sub], keys[pos]))]
    start_idx = np.flatnonzero(new_group)
    out_vals = np.add.reduceat(vals[order], start_idx)
    out_rows, out_cols = np.divmod(keys[start_idx], n_cols)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=n_rows), out=row_ptr[1:])
    return CSRMatrix(
        rows=n_rows, cols=n_cols, row_ptr=row_ptr, col_idx=out_cols,
        values=out_vals,
    )


def oracle_product(a, b, dtype, seed):
    rows, cols, vals = expand_products(a, b, np.dtype(dtype))
    return oracle_accumulate(rows, cols, vals, a.rows, b.cols, shuffle_seed=seed)


def assert_same_bytes(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for x, y in (
        (got.row_ptr, want.row_ptr),
        (got.col_idx, want.col_idx),
        (got.values, want.values),
    ):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def assert_plan_matches_oracle(a, b) -> None:
    plan = ProductPlan(a, b)
    # every dtype and seed from the one plan, the dtype switching back
    for dtype in (*DTYPES, DTYPES[0]):
        for seed in SEEDS:
            with np.errstate(invalid="ignore", over="ignore"):
                got = plan.product(dtype, seed)
                want = oracle_product(a, b, dtype, seed)
            assert_same_bytes(got, want)
    np.testing.assert_array_equal(plan.per_row, row_temp_counts(a, b))


# ---------------------------------------------------------------------------
# the plan == the oracle
# ---------------------------------------------------------------------------

#: NaNs with payloads 1 and 2, signed zeros and infinities
SPECIAL = np.array(
    [0x7FF8000000000001, 0x7FF8000000000002], dtype=np.int64
).view(np.float64).tolist() + [0.0, -0.0, np.inf, -np.inf]


@st.composite
def csr(draw, n_rows, n_cols):
    """A CSR matrix with sorted unique columns per row; the values mix
    ordinary floats with NaN payloads, signed zeros and infinities."""
    row_ptr = [0]
    col_idx: list[int] = []
    for _ in range(n_rows):
        row = sorted(draw(st.sets(st.integers(0, max(n_cols - 1, 0)),
                                  max_size=n_cols)))
        col_idx += row
        row_ptr.append(len(col_idx))
    vals = draw(st.lists(
        st.one_of(st.floats(-4, 4, width=32), st.sampled_from(SPECIAL)),
        min_size=len(col_idx), max_size=len(col_idx),
    ))
    return CSRMatrix(
        rows=n_rows, cols=n_cols, row_ptr=np.array(row_ptr, dtype=np.int64),
        col_idx=np.array(col_idx, dtype=np.int64),
        values=np.array(vals, dtype=np.float64),
    )


@st.composite
def operands(draw):
    """Small shapes (B may have no columns): heavy product groups."""
    n_rows = draw(st.integers(0, 7))
    inner = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 5))
    return draw(csr(n_rows, inner)), draw(csr(inner, n_cols))


@SETTINGS
@given(operands())
def test_plan_equals_the_former_path(ab):
    assert_plan_matches_oracle(*ab)


def _dense(rows, cols, seed, density=0.5):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    return CSRMatrix.from_dense(d)


#: rows 0 and 2 of A are empty
EMPTY_ROWS_A = CSRMatrix(
    rows=4, cols=3, row_ptr=np.array([0, 0, 2, 2, 5]),
    col_idx=np.array([0, 2, 0, 1, 2]), values=np.arange(1.0, 6.0),
)


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(EMPTY_ROWS_A, _dense(3, 4, 1, density=1.0), id="empty-rows"),
        pytest.param(
            CSRMatrix.empty(4, 3), _dense(3, 4, 2), id="a-nnz-0",
        ),
        pytest.param(_dense(4, 3, 3), CSRMatrix.empty(3, 4), id="b-nnz-0"),
        pytest.param(_dense(4, 3, 4), CSRMatrix.empty(3, 0), id="b-cols-0"),
        pytest.param(
            *squared_operands(
                g.long_row_matrix(300, 3.0, n_long_rows=1, long_row_len=250, seed=5)
            ),
            id="one-long-row",
        ),
    ],
)
def test_edge_inputs(a, b):
    assert_plan_matches_oracle(a, b)


def test_nan_pair_follows_the_shuffle():
    """A two-product group is shuffled too: the sum of two NaNs keeps
    the first operand's payload."""
    nan1, nan2 = SPECIAL[:2]
    a = CSRMatrix(
        rows=1, cols=2, row_ptr=np.array([0, 2]), col_idx=np.array([0, 1]),
        values=np.array([nan1, nan2]),
    )
    b = CSRMatrix(
        rows=2, cols=1, row_ptr=np.array([0, 1, 2]), col_idx=np.array([0, 0]),
        values=np.array([1.0, 1.0]),
    )
    plan = ProductPlan(a, b)
    sums = set()
    for seed in (None, *range(8)):
        got = plan.product(np.float64, seed)
        assert_same_bytes(got, oracle_product(a, b, np.float64, seed))
        sums.add(got.values.tobytes())
    assert len(sums) == 2  # both orders occur among the seeds


def test_signed_zeros_in_one_group():
    a = CSRMatrix(
        rows=1, cols=4, row_ptr=np.array([0, 4]), col_idx=np.arange(4),
        values=np.array([-0.0, 0.0, -0.0, 1.0]),
    )
    b = CSRMatrix(
        rows=4, cols=1, row_ptr=np.arange(5), col_idx=np.zeros(4, np.int64),
        values=np.array([1.0, -1.0, 1.0, -0.0]),
    )
    assert_plan_matches_oracle(a, b)


def test_results_are_fresh_arrays():
    a, b = squared_operands(tiny_entries()[0].build())
    plan = ProductPlan(a, b)
    first = plan.product(np.float64, 0)
    first.values[:] = 0.0
    first.col_idx[:] = 0
    first.row_ptr[:] = 0
    assert_same_bytes(plan.product(np.float64, 0), oracle_product(a, b, np.float64, 0))
    with pytest.raises(ValueError):
        plan.per_row[0] = 1  # shared by every reader: read-only


def test_plan_of_other_operands_is_rejected():
    a, b = squared_operands(tiny_entries()[0].build())
    plan = ProductPlan(a, b)
    with pytest.raises(ValueError, match="other operands"):
        make_algorithm("nsparse").multiply(a.copy(), b, plan=plan)


# ---------------------------------------------------------------------------
# one plan, five baselines, any order
# ---------------------------------------------------------------------------


def _fingerprint(run) -> tuple:
    m = run.matrix
    return (
        m.shape,
        m.row_ptr.tobytes(), m.col_idx.tobytes(), m.values.tobytes(),
        str(m.values.dtype),
        run.cycles,
        list(run.stage_cycles.items()),
        sorted(run.counters.snapshot().items()),
        run.extra_memory_bytes,
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", (None, 0))
def test_one_plan_serves_the_lineup_in_any_order(dtype, seed):
    a, b = squared_operands(
        g.long_row_matrix(300, 3.0, n_long_rows=2, long_row_len=120, seed=5)
    )
    fresh = {
        name: _fingerprint(
            make_algorithm(name).multiply(a, b, dtype=dtype, scheduler_seed=seed)
        )
        for name in BASELINE_LINEUP
    }
    for names in (BASELINE_LINEUP, BASELINE_LINEUP[::-1]):
        plan = ProductPlan(a, b)
        for name in names:
            run = make_algorithm(name).multiply(
                a, b, dtype=dtype, scheduler_seed=seed, plan=plan
            )
            assert _fingerprint(run) == fresh[name], name


# ---------------------------------------------------------------------------
# the shared plan does not raise the heap peak
# ---------------------------------------------------------------------------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shared_plan_peak_is_one_cells_peak():
    """On the campaign's heaviest product (``uniform-a4-2``, ~300k
    products), one plan serving all five baselines peaks at most 10%
    above one baseline's own run."""
    entry = next(
        e for e in config_entries(CampaignConfig(suite="suite", limit=12))
        if e.name == "uniform-a4-2"
    )
    a, b = squared_operands(entry.build())
    algorithms = [make_algorithm(name) for name in BASELINE_LINEUP]

    def one_cell():
        algorithms[0].multiply(a, b)

    def whole_group():
        plan = ProductPlan(a, b)
        for alg in algorithms:
            run = alg.multiply(a, b, plan=plan)
            del run

    single = _traced_peak(one_cell)
    shared = _traced_peak(whole_group)
    assert shared <= 1.1 * single, (shared / 2**20, single / 2**20)
