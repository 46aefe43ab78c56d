"""Golden determinism regression.

These hashes lock the exact floating-point accumulation order of
AC-SpGEMM for fixed inputs and device geometries.  If any future change
alters the expansion order, sort stability, compaction fold, chunk
ordering or merge sequencing, the result bits change and these tests
fail — the repository-level version of the paper's bit-stability
guarantee.

If a change *intentionally* alters the (still deterministic)
accumulation order, regenerate the constants with the snippet in this
file's docstring history and document the change.
"""

import hashlib
import json

import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.backends import run_backend
from repro.gpu import SMALL_DEVICE
from repro.matrices import random_uniform
from repro.resilience.faults import FaultPlan
from repro.sparse.stats import squared_operands

GOLDEN = {
    # (device label) -> sha256 of row_ptr || col_idx || values
    "titan": "9d1d71fb222c203dbc3dc22650f15acbf718a0e0f3d00851ba9df540e382a130",
    "small": "e27bb71b01b571de78653d7c2f1fa4ce0839eeed2ae91c87987a64cd1c295539",
}
GOLDEN_NNZ = 140841


def result_hash(matrix) -> str:
    h = hashlib.sha256()
    h.update(matrix.row_ptr.tobytes())
    h.update(matrix.col_idx.tobytes())
    h.update(matrix.values.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_input():
    return random_uniform(400, 400, 30, seed=9)


@pytest.mark.parametrize(
    "label,opts",
    [
        ("titan", AcSpgemmOptions(chunk_pool_lower_bound_bytes=1 << 22)),
        (
            "small",
            AcSpgemmOptions(
                device=SMALL_DEVICE, chunk_pool_lower_bound_bytes=1 << 20
            ),
        ),
    ],
)
def test_golden_bits(label, opts, golden_input):
    res = ac_spgemm(golden_input, golden_input, opts)
    assert res.matrix.nnz == GOLDEN_NNZ
    assert result_hash(res.matrix) == GOLDEN[label], (
        "AC-SpGEMM's deterministic accumulation order changed; if this "
        "is intentional, regenerate the golden hashes"
    )


def test_geometry_changes_grouping_not_math(golden_input):
    """Different block geometries may group accumulations differently
    (hence different bits) but must agree numerically."""
    r1 = ac_spgemm(
        golden_input,
        golden_input,
        AcSpgemmOptions(chunk_pool_lower_bound_bytes=1 << 22),
    )
    r2 = ac_spgemm(
        golden_input,
        golden_input,
        AcSpgemmOptions(device=SMALL_DEVICE, chunk_pool_lower_bound_bytes=1 << 20),
    )
    assert r1.matrix.allclose(r2.matrix, rtol=1e-12)


# ---------------------------------------------------------------------------
# device-trace and span-tree bytes
# ---------------------------------------------------------------------------

#: case -> (sha256 of ``device_trace.to_json()``, sha256 of the span
#: tree as sorted-key JSON).  Cross-engine tests compare two engines of
#: one tree; these pin the recorded timeline itself, so a change to how
#: launches, device-wide passes, restarts or the fallback are recorded
#: shows even when every engine changes the same way.
TRACE_GOLDEN = {
    "ac-spgemm": (
        "8ce375c481219e47c27556f0f2c393ee2a07e1e338d984e1b7af957f3784f398",
        "f15ecbf0f9104d93f3e07fc1425884a6cc3604a71ba509232956eb9f214b0c9b",
    ),
    "ac-spgemm/degraded": (
        "7e6e086f4f0850ad79b0a410767b880dcbe6dfe820b90a99e98490cae319c472",
        "6ab002cf6a82a7749afb9d3c93ef685483ae30c2183360273db85b5175aa65ba",
    ),
    "ac-spgemm/restart": (
        "90a214c89585fa037e1c449f0c572049f6b06219b307e5097feb53fced9632d6",
        "88945b3e7acda8f5866703273878a6461f188861ecfb2570e1dbe6b605a4d866",
    ),
    "ac-spgemm/sampling": (
        "2c90cdde8570dd406f538d9a8684f804d77e2e60051bf916537fafd652f52dba",
        "fad3851a167167557f05a9495db29a9e7f2f90eabb0151e7b56f401162855b56",
    ),
    "adaptive": (
        "feadbb1f507a4e5f0b6f2fdf28ae9027dedccab657e38661869bf48c2df4d0c1",
        "48f9a9064ba2f9761801036602b12ce74ebe60c9bbcb0be92480062e45ce8715",
    ),
    "hash-spgemm": (
        "2dc5be64b5f6bc928b22a273714a82142b3c88c487d0b85607206c83b2657572",
        "e0dcf1848dfca516d98f27109d47c5124c05c4bd1e41dbb3914f53a78fd67780",
    ),
    "hashmap-spgemm": (
        "c5c1add2604a8cb451ed5756a0e33358351a1426f142106fed84a0093772336e",
        "e8005074caa4b31d99d6817cedc39cc24a05320270ade8c65d1ebd6548e6cf3d",
    ),
}

TRACE_CASES = {
    "ac-spgemm": ("ac-spgemm", {}),
    "ac-spgemm/restart": (
        "ac-spgemm",
        {"chunk_pool_bytes": 1 << 11, "chunk_pool_lower_bound_bytes": 0},
    ),
    "ac-spgemm/sampling": ("ac-spgemm", {"estimator": "sampling"}),
    "ac-spgemm/degraded": (
        "ac-spgemm",
        {
            "fault_plan": FaultPlan.single(
                "scratchpad_overflow", stage="MM", round=0, block=0
            ),
            "on_failure": "fallback",
        },
    ),
    "adaptive": ("adaptive", {}),
    "hash-spgemm": ("hash-spgemm", {}),
    "hashmap-spgemm": ("hashmap-spgemm", {}),
}


def trace_hashes(res) -> tuple[str, str]:
    trace = hashlib.sha256(res.device_trace.to_json().encode()).hexdigest()
    spans = hashlib.sha256(
        json.dumps(res.spans.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return trace, spans


@pytest.fixture(scope="module")
def trace_input():
    return squared_operands(random_uniform(200, 200, 8, seed=81005))


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_golden_trace_and_spans(case, trace_input):
    backend, kw = TRACE_CASES[case]
    a, b = trace_input
    res = run_backend(backend, a, b, AcSpgemmOptions(device_trace=True, **kw))
    assert trace_hashes(res) == TRACE_GOLDEN[case], (
        "the recorded device trace or span tree changed; if this is "
        "intentional, regenerate TRACE_GOLDEN and document the change"
    )
