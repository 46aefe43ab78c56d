"""SUMMA over a simulated multi-device node, 4-colour pipelined.

The driver 2D-partitions the operands over a √P×√P device grid and runs
the √P SUMMA rounds: in round ``k`` device ``(i, k)`` broadcasts
``A[i][k]`` on row bus ``i``, device ``(k, j)`` broadcasts ``B[k][j]``
on column bus ``j``, and every device ``(i, j)`` multiplies the two
tiles it received through :func:`~repro.backends.run_backend` — so the
``adaptive`` backend routes each tile independently.  Two timeline
models are evaluated from the same per-tile durations:

* **pipelined** (the SNIPPETS.md 4-colour schedule): the broadcast of
  round ``k+1`` occupies the *other* colour channel of each bus, so it
  only waits for the same-colour broadcast of round ``k-1`` and for the
  receive buffer that compute round ``k-1`` frees — it overlaps round
  ``k``'s compute;
* **blocking** (1 colour per bus): round ``k+1``'s broadcast cannot
  start before every receiver on the bus has consumed round ``k``,
  i.e. no communication/compute overlap.

Numerical contract (the part a physical SUMMA hand-waves): per device,
per-round partial tiles are merged **in ascending round order** — a
deterministic left fold, byte-identical across runs, host engines and
both timeline modes.  For ``P = 1`` the result is trivially the
single-device backend result.  For ``P > 1`` an output entry whose
inner products span several rounds is folded at round granularity
instead of the single device's chunk granularity, so cross-P
byte-identity additionally requires the cross-round additions to be
exact — which holds for the integer-valued workloads this node exists
for (AMG Galerkin chains, 0/1 graph squarings) and is asserted by
``benchmarks/bench_summa.py``; for general float inputs the merged
pattern is still byte-identical and values agree to accumulation
round-off (``verify="close"``).  See ARCHITECTURE §11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.registry import run_backend
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..gpu.counters import TrafficCounters
from ..obs.span import Span
from ..sparse.csr import CSRMatrix
from .node import Interconnect, LinkCounters, NodeConfig, link_key
from .partition import GridPartition, assemble_tiles

__all__ = ["SummaResult", "SummaReconciliationError", "summa_spgemm"]


class SummaReconciliationError(ValueError):
    """The node's interconnect/stage accounting disagrees with itself."""


@dataclass
class TileRun:
    """One local multiply: device ``(i, j)``, round ``k``."""

    i: int
    j: int
    k: int
    result: object  # AcSpgemmResult
    a_bytes: int
    b_bytes: int
    #: node-clock compute window in the requested timeline mode
    start_cycle: float = 0.0
    end_cycle: float = 0.0


@dataclass
class SummaResult:
    """Result + accounting of one multi-device SUMMA multiply."""

    matrix: CSRMatrix
    node: NodeConfig
    partition: GridPartition
    backend: str
    pipelined: bool
    #: all per-tile backend results, keyed ``(i, j, k)``
    tile_runs: dict = field(default_factory=dict)
    #: per-link interconnect counters (4-colour keys)
    link_counters: dict = field(default_factory=dict)
    #: node-level work sums per stage (PART/BCAST/LMUL/TMERGE/ASM);
    #: sums of work, not the overlapped makespan
    stage_cycles: dict = field(default_factory=dict)
    #: device-compute counters merged over every tile run
    counters: TrafficCounters = field(default_factory=TrafficCounters)
    #: modeled end-to-end cycles in the requested mode
    makespan_cycles: float = 0.0
    makespan_pipelined: float = 0.0
    makespan_blocking: float = 0.0
    round_records: list = field(default_factory=list)
    spans: Span | None = None
    degraded_tiles: list = field(default_factory=list)
    restarts: int = 0
    clock_ghz: float = 0.0

    @property
    def devices(self) -> int:
        return self.node.devices

    @property
    def grid(self) -> int:
        return self.node.grid

    @property
    def overlap_saved_cycles(self) -> float:
        """Cycles the 4-colour pipeline hides versus blocking rounds."""
        return self.makespan_blocking - self.makespan_pipelined

    @property
    def seconds(self) -> float:
        return self.makespan_cycles / (self.clock_ghz * 1e9)

    # -- reconciliation ---------------------------------------------------

    def reconcile(self) -> dict:
        """Exact cross-checks of the node accounting; raises on mismatch.

        * every 4-colour link's counters re-derive from the partition
          (tile bytes × fan-out, one message per receiver, modeled busy
          cycles) — nothing moved that the tiles don't explain;
        * partitioned nnz is conserved (operands → tiles → merged C);
        * device counters merged over the tile runs equal
          ``result.counters`` field-for-field;
        * the LMUL/TMERGE/ASM stage sums re-accumulate from the tile
          runs in merge order, bit for bit.
        """

        def fail(message: str) -> None:
            raise SummaReconciliationError(message)

        g = self.grid
        expected: dict[str, LinkCounters] = {}
        if g > 1:
            fanout = g - 1
            for k in range(g):
                for i in range(g):
                    run = self.tile_runs[(i, 0, k)]
                    key = link_key("row", i, k % self.node.colors_per_bus)
                    link = expected.setdefault(key, LinkCounters())
                    link.broadcasts += 1
                    link.messages += fanout
                    link.bytes_sent += run.a_bytes * fanout
                    link.busy_cycles += self.node.broadcast_cycles(run.a_bytes)
                for j in range(g):
                    run = self.tile_runs[(0, j, k)]
                    key = link_key("col", j, k % self.node.colors_per_bus)
                    link = expected.setdefault(key, LinkCounters())
                    link.broadcasts += 1
                    link.messages += fanout
                    link.bytes_sent += run.b_bytes * fanout
                    link.busy_cycles += self.node.broadcast_cycles(run.b_bytes)
        if sorted(expected) != sorted(self.link_counters):
            fail(
                f"link set mismatch: expected {sorted(expected)}, "
                f"recorded {sorted(self.link_counters)}"
            )
        for key in sorted(expected):
            if expected[key].snapshot() != self.link_counters[key].snapshot():
                fail(
                    f"link {key} counters mismatch: expected "
                    f"{expected[key].snapshot()}, recorded "
                    f"{self.link_counters[key].snapshot()}"
                )

        # conservation: C nnz assembles exactly from the merged tiles
        merged_nnz = 0
        for i in range(g):
            for j in range(g):
                union = set()
                for k in range(g):
                    t = self.tile_runs[(i, j, k)].result.matrix
                    rows = np.repeat(
                        np.arange(t.rows, dtype=np.int64), t.row_lengths()
                    )
                    union.update(zip(rows.tolist(), t.col_idx.tolist()))
                merged_nnz += len(union)
        if merged_nnz != self.matrix.nnz:
            fail(
                f"merged nnz {self.matrix.nnz} != union of tile patterns "
                f"{merged_nnz}"
            )

        merged = TrafficCounters()
        for key in sorted(self.tile_runs):
            merged.merge(self.tile_runs[key].result.counters)
        if merged != self.counters:
            fail(
                f"device counters mismatch: tiles {merged.snapshot()} != "
                f"result {self.counters.snapshot()}"
            )

        lmul = 0.0
        for key in sorted(self.tile_runs):
            lmul += self.tile_runs[key].result.total_cycles
        if lmul != self.stage_cycles.get("LMUL", 0.0):
            fail(
                f"LMUL cycles {self.stage_cycles.get('LMUL')!r} do not "
                f"re-accumulate from the tile runs ({lmul!r})"
            )
        bcast = 0.0
        for key in sorted(self.link_counters):
            bcast += self.link_counters[key].busy_cycles
        if bcast != self.stage_cycles.get("BCAST", 0.0):
            fail(
                f"BCAST cycles {self.stage_cycles.get('BCAST')!r} != "
                f"link busy sum {bcast!r}"
            )
        return {
            "links_exact": True,
            "nnz_conserved": True,
            "counters_exact": True,
            "stage_cycles_exact": True,
            "links": {k: self.link_counters[k].snapshot()
                      for k in sorted(self.link_counters)},
        }

    def summary(self) -> dict:
        """Deterministic JSON-ready summary (CLI/bench output)."""
        return {
            "devices": self.devices,
            "grid": self.grid,
            "backend": self.backend,
            "pipelined": self.pipelined,
            "rows": self.matrix.rows,
            "cols": self.matrix.cols,
            "nnz": self.matrix.nnz,
            "makespan_cycles": self.makespan_cycles,
            "makespan_pipelined": self.makespan_pipelined,
            "makespan_blocking": self.makespan_blocking,
            "overlap_saved_cycles": self.overlap_saved_cycles,
            "stage_cycles": {k: self.stage_cycles[k]
                             for k in sorted(self.stage_cycles)},
            "links": {k: self.link_counters[k].snapshot()
                      for k in sorted(self.link_counters)},
            "degraded_tiles": [list(t) for t in self.degraded_tiles],
            "restarts": self.restarts,
            "seconds": self.seconds,
        }


def _merge_round_tiles(tiles: list[CSRMatrix]) -> tuple[CSRMatrix, int]:
    """Merge one device's per-round partial C tiles, ascending round.

    Pattern = union; each entry's value is the left fold of its round
    contributions in round order (``p0``, then ``+= p1``, ...), applied
    round-by-round with vectorised scatter-adds — deterministic and
    mode/engine independent.  Returns the merged tile and the number of
    scatter updates (the TMERGE work measure).
    """
    live = [t for t in tiles if t.nnz]
    if not live:
        first = tiles[0]
        return (
            CSRMatrix.empty(first.rows, first.cols, dtype=first.values.dtype),
            0,
        )
    if len(live) == 1:
        return live[0], live[0].nnz
    rows_n, cols_n = live[0].rows, live[0].cols
    keys_per = []
    for t in live:
        rows = np.repeat(np.arange(rows_n, dtype=np.int64), t.row_lengths())
        keys_per.append(rows * cols_n + t.col_idx)
    union = np.unique(np.concatenate(keys_per))
    values = np.zeros(union.size, dtype=live[0].values.dtype)
    written = np.zeros(union.size, dtype=bool)
    updates = 0
    for t, keys in zip(live, keys_per):
        pos = np.searchsorted(union, keys)
        fresh = ~written[pos]
        # first contribution is copied (not 0.0 + x: that would flush a
        # signed zero), later rounds accumulate in ascending order
        values[pos[fresh]] = t.values[fresh]
        values[pos[~fresh]] += t.values[~fresh]
        written[pos] = True
        updates += t.nnz
    out_rows = (union // cols_n).astype(np.int64)
    row_ptr = np.zeros(rows_n + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=rows_n), out=row_ptr[1:])
    return (
        CSRMatrix(
            rows=rows_n,
            cols=cols_n,
            row_ptr=row_ptr,
            col_idx=(union % cols_n).astype(np.int64),
            values=values,
        ),
        updates,
    )


def _timeline(node, durs_a, durs_b, tile_cycles, *, pipelined, t0):
    """Per-device compute windows for one mode; pure float arithmetic.

    ``durs_a[i][k]`` / ``durs_b[j][k]`` are the bus occupancies,
    ``tile_cycles[(i, j, k)]`` the local-multiply durations.  Returns
    ``(compute_start, compute_end, arrivals, bcast_windows)``.
    """
    g = node.grid
    compute_start: dict = {}
    compute_end: dict = {}
    arrivals: dict = {}
    end_a = [[0.0] * g for _ in range(g)]  # row bus i, round k
    end_b = [[0.0] * g for _ in range(g)]  # col bus j, round k
    start_a = [[0.0] * g for _ in range(g)]
    start_b = [[0.0] * g for _ in range(g)]
    for k in range(g):
        back = 2 if (pipelined and node.colors_per_bus == 2) else 1
        for i in range(g):
            ready = t0 if k < back else max(
                compute_end[(i, j, k - back)] for j in range(g)
            )
            chan_free = t0 if k == 0 else end_a[i][k - 1]
            start_a[i][k] = max(ready, chan_free)
            end_a[i][k] = start_a[i][k] + durs_a[i][k]
        for j in range(g):
            ready = t0 if k < back else max(
                compute_end[(i, j, k - back)] for i in range(g)
            )
            chan_free = t0 if k == 0 else end_b[j][k - 1]
            start_b[j][k] = max(ready, chan_free)
            end_b[j][k] = start_b[j][k] + durs_b[j][k]
        for i in range(g):
            for j in range(g):
                arr_a = t0 if (g == 1 or j == k) else end_a[i][k]
                arr_b = t0 if (g == 1 or i == k) else end_b[j][k]
                prev = t0 if k == 0 else compute_end[(i, j, k - 1)]
                start = max(prev, arr_a, arr_b)
                compute_start[(i, j, k)] = start
                compute_end[(i, j, k)] = start + tile_cycles[(i, j, k)]
                arrivals[(i, j, k)] = (arr_a, arr_b)
    windows = {"a": (start_a, end_a), "b": (start_b, end_b)}
    return compute_start, compute_end, arrivals, windows


def summa_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeConfig | None = None,
    options: AcSpgemmOptions | None = None,
    *,
    backend: str = "ac-spgemm",
    pipelined: bool = True,
    tile_fault_plans: dict | None = None,
) -> SummaResult:
    """Multiply ``a @ b`` on a simulated √P×√P node.

    ``tile_fault_plans`` maps ``(i, j, k)`` to a
    :class:`~repro.resilience.FaultPlan` injected into that one local
    multiply (the degraded tile follows ``options.on_failure``; with
    ``"fallback"`` its partial still merges deterministically).
    """
    node = node or NodeConfig()
    opts = options or DEFAULT_OPTIONS
    if node.device is not None:
        opts = opts.with_(device=node.device)
    g = node.grid
    cfg = opts.device
    part = GridPartition.build(a, b, g)
    a_tiles = part.a_tiles(a)
    b_tiles = part.b_tiles(b)
    part_cycles = (a.nnz + b.nnz + a.rows + b.rows) * node.partition_cycles_per_nnz

    fabric = Interconnect(node=node)
    durs_a = [[0.0] * g for _ in range(g)]
    durs_b = [[0.0] * g for _ in range(g)]
    if g > 1:
        for k in range(g):
            for i in range(g):
                _, durs_a[i][k] = fabric.broadcast(
                    "row", i, k, a_tiles[i][k].nbytes(), g - 1
                )
            for j in range(g):
                _, durs_b[j][k] = fabric.broadcast(
                    "col", j, k, b_tiles[k][j].nbytes(), g - 1
                )

    # local multiplies: every tile through the backend registry, in
    # deterministic (round, row, col) order
    runs: dict = {}
    degraded: list = []
    restarts = 0
    for k in range(g):
        for i in range(g):
            for j in range(g):
                tile_opts = opts
                if tile_fault_plans and (i, j, k) in tile_fault_plans:
                    tile_opts = opts.with_(fault_plan=tile_fault_plans[(i, j, k)])
                result = run_backend(
                    backend,
                    a_tiles[i][k],
                    b_tiles[k][j],
                    tile_opts,
                    scheduler_seed=(i * g + j) * g + k,
                )
                runs[(i, j, k)] = TileRun(
                    i=i,
                    j=j,
                    k=k,
                    result=result,
                    a_bytes=a_tiles[i][k].nbytes(),
                    b_bytes=b_tiles[k][j].nbytes(),
                )
                if result.degraded:
                    degraded.append((i, j, k))
                restarts += result.restarts

    tile_cycles = {key: runs[key].result.total_cycles for key in runs}
    start_p, end_p, arr_p, _ = _timeline(
        node, durs_a, durs_b, tile_cycles, pipelined=True, t0=part_cycles
    )
    start_b_, end_b_, arr_b_, _ = _timeline(
        node, durs_a, durs_b, tile_cycles, pipelined=False, t0=part_cycles
    )
    start_m, end_m, arr_m = (
        (start_p, end_p, arr_p) if pipelined else (start_b_, end_b_, arr_b_)
    )
    for key, run in runs.items():
        run.start_cycle = start_m[key]
        run.end_cycle = end_m[key]

    # deterministic per-device merge (ascending round), then assembly
    merged_tiles = []
    merge_updates: dict = {}
    for i in range(g):
        row = []
        for j in range(g):
            tile, updates = _merge_round_tiles(
                [runs[(i, j, k)].result.matrix for k in range(g)]
            )
            merge_updates[(i, j)] = updates
            row.append(tile)
        merged_tiles.append(row)
    matrix = assemble_tiles(merged_tiles, part)

    merge_cycles = {
        d: merge_updates[d] * node.merge_cycles_per_entry for d in merge_updates
    }
    asm_cycles = matrix.nnz * node.assemble_cycles_per_entry

    def finish(end):
        last = max(end[(i, j, g - 1)] for i in range(g) for j in range(g))
        merge_done = max(
            end[(i, j, g - 1)] + merge_cycles[(i, j)]
            for i in range(g)
            for j in range(g)
        )
        return last, merge_done + asm_cycles

    _, makespan_pipe = finish(end_p)
    _, makespan_block = finish(end_b_)

    # node-level work sums (per-stage totals, in deterministic order)
    stage_cycles = {"PART": part_cycles}
    bcast = 0.0
    for key in sorted(fabric.links):
        bcast += fabric.links[key].busy_cycles
    stage_cycles["BCAST"] = bcast
    lmul = 0.0
    for key in sorted(runs):
        lmul += runs[key].result.total_cycles
    stage_cycles["LMUL"] = lmul
    tmerge = 0.0
    for d in sorted(merge_cycles):
        tmerge += merge_cycles[d]
    stage_cycles["TMERGE"] = tmerge
    stage_cycles["ASM"] = asm_cycles

    counters = TrafficCounters()
    for key in sorted(runs):
        counters.merge(runs[key].result.counters)

    # span tree: node narrative on the node clock; per-device subtrees
    # grafted under their summa.round span on the device-local clock
    # (node placement lives in the start_cycle_on_node attr, applied at
    # Perfetto export)
    makespan = makespan_pipe if pipelined else makespan_block
    root = Span(
        "summa",
        0.0,
        makespan,
        attrs={
            "devices": node.devices,
            "grid": g,
            "backend": backend,
            "pipelined": pipelined,
        },
    )
    root.children.append(Span("summa.partition", 0.0, part_cycles))
    round_records = []
    prev_end = part_cycles
    for k in range(g):
        round_end = max(end_m[(i, j, k)] for i in range(g) for j in range(g))
        arrival_max = max(
            max(arr_m[(i, j, k)]) for i in range(g) for j in range(g)
        )
        exposed = max(0.0, min(arrival_max, round_end) - prev_end)
        rspan = Span(
            "summa.round", prev_end, round_end, attrs={"round": k}
        )
        rspan.children.append(
            Span(
                "summa.broadcast",
                prev_end,
                prev_end + exposed,
                attrs={"exposed_cycles": exposed,
                       "color": k % node.colors_per_bus},
            )
        )
        for i in range(g):
            for j in range(g):
                run = runs[(i, j, k)]
                sub = run.result.spans
                if sub is not None:
                    sub.attrs["device"] = i * g + j
                    sub.attrs["device_grid"] = f"({i},{j})"
                    sub.attrs["round"] = k
                    sub.attrs["start_cycle_on_node"] = run.start_cycle
                    rspan.children.append(sub)
        root.children.append(rspan)
        round_records.append(
            {
                "round": k,
                "color": k % node.colors_per_bus,
                "start": prev_end,
                "end": round_end,
                "exposed_broadcast_cycles": exposed,
                "compute_cycles": {
                    f"({i},{j})": tile_cycles[(i, j, k)]
                    for i in range(g)
                    for j in range(g)
                },
            }
        )
        prev_end = round_end
    merge_done = max(
        end_m[(i, j, g - 1)] + merge_cycles[(i, j)]
        for i in range(g)
        for j in range(g)
    )
    root.children.append(Span("summa.merge", prev_end, merge_done))
    root.children.append(Span("summa.assemble", merge_done, makespan))

    return SummaResult(
        matrix=matrix,
        node=node,
        partition=part,
        backend=backend,
        pipelined=pipelined,
        tile_runs=runs,
        link_counters=fabric.links,
        stage_cycles=stage_cycles,
        counters=counters,
        makespan_cycles=makespan,
        makespan_pipelined=makespan_pipe,
        makespan_blocking=makespan_block,
        round_records=round_records,
        spans=root,
        degraded_tiles=degraded,
        restarts=restarts,
        clock_ghz=cfg.clock_ghz,
    )
