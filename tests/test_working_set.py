"""Host working-set bound of the batched engine.

AC-SpGEMM's local ESC (§3.2) works through a bounded window per block
instead of materialising every intermediate product of a launch at once
the way global ESC does.  The batched engine follows that on the host by
running each ESC launch as slabs under ``batched.SLAB_ELEMENTS``
products, so its traced heap peak stays a small multiple of the
reference engine's however many blocks a launch holds.
"""

from __future__ import annotations

import tracemalloc

from repro import AcSpgemmOptions, ac_spgemm
from repro.matrices import generators as g
from repro.sparse.stats import squared_operands

#: batched heap peak allowed per unit of the reference engine's peak
#: (about 2x with slabs; a whole-launch expansion measured about 9x)
PEAK_RATIO_BOUND = 3.0


def _traced_peak(a, b, engine: str) -> int:
    opts = AcSpgemmOptions(engine=engine)
    tracemalloc.start()
    try:
        ac_spgemm(a, b, opts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_peak_is_a_small_multiple_of_reference():
    # the offline benchmark's full-size banded-fem input (seed 1)
    a, b = squared_operands(g.banded(2500, 8, seed=1002))
    ref = _traced_peak(a, b, "reference")
    bat = _traced_peak(a, b, "batched")
    assert bat <= PEAK_RATIO_BOUND * ref, (
        f"batched peak {bat / 2**20:.1f} MiB exceeds {PEAK_RATIO_BOUND}x "
        f"the reference's {ref / 2**20:.1f} MiB"
    )
