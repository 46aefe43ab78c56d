"""``offline`` workload: one process, one caller, sequential passes.

Every pass calls the three in-process entry points on the same seeded
inputs, each the way its CLI subcommand calls it with no flags:

* ``ac_spgemm(a, b, opts)`` -- ``repro single``;
* ``run_backend("adaptive", a, b, opts)`` -- the examples' path;
* ``summa_spgemm(a, b, NodeConfig(), backend="adaptive")`` on the two
  integer pairs -- ``repro multinode`` at its defaults (P=4).

``opts`` carries only the input's value dtype, so every call runs on
the engine the defaults resolve to; the run records which one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import benchlib as bl
from benchlib import Outcome, RunSpec

#: the traced ``ac_spgemm`` pass and the sum of its ``core.*`` seconds
#: must agree within this share of the pass
CORE_SUM_TOLERANCE = 0.05

HASH_ENGINES = ("hash-spgemm", "hashmap-spgemm")


@dataclass
class Case:
    name: str
    a: object
    b: object
    opts: object
    integer: bool = False  # exact in float64: results must be byte-identical


@dataclass
class Reference:
    digest: str
    stats: tuple
    value_scale: float


def _zero_one(m):
    out = m.copy()
    out.values = np.ones_like(out.values)
    return out


def build_cases(seed: int, small: bool) -> list[Case]:
    """Seeded squared generator matrices, one per structure family,
    plus the AMG Galerkin A.P and 0/1 graph-square integer pairs."""
    from repro.core import AcSpgemmOptions
    from repro.matrices.generators import (
        aggregation_prolongation,
        banded,
        long_row_matrix,
        poisson_2d,
        power_law,
        random_uniform,
    )
    from repro.sparse import squared_operands

    k = 5 if small else 1  # test scale divides every dimension
    s = seed * 1000
    f64 = AcSpgemmOptions()
    f32 = AcSpgemmOptions(value_dtype=np.float32)
    families = [
        ("uniform-sparse", random_uniform(1500 // k, 1500 // k, 8, seed=s), f64),
        ("uniform-dense", random_uniform(800 // k, 800 // k, 24, seed=s + 1), f64),
        ("banded-fem", banded(2500 // k, 8, seed=s + 2), f64),
        (
            "power-law",
            power_law(1500 // k, avg_row_len=8.0, max_row_len=64, seed=s + 3),
            f64,
        ),
        (
            "long-row",
            long_row_matrix(
                1500 // k, 3.0, n_long_rows=2, long_row_len=600 // k, seed=s + 4
            ),
            f64,
        ),
        ("uniform-f32", random_uniform(1000 // k, 1000 // k, 12, seed=s + 5), f32),
    ]
    cases = []
    for name, m, opts in families:
        a, b = squared_operands(m)
        cases.append(Case(name, a, b, opts))
    side = 40 // k
    cases.append(
        Case("amg-galerkin", poisson_2d(side), aggregation_prolongation(side),
             f64, integer=True)
    )
    adj = _zero_one(random_uniform(320 // k, 320 // k, 8, seed=s + 6))
    cases.append(Case("graph-square", adj, adj, f64, integer=True))
    return cases


def _stats(result) -> tuple:
    """Simulated statistics that must repeat exactly."""
    return (
        tuple(sorted(result.stage_cycles.items())),
        tuple(sorted(result.counters.snapshot().items())),
        result.n_chunks,
        result.restarts,
        result.shared_rows,
    )


def reference(case: Case) -> Reference:
    from repro.core import ac_spgemm

    result = ac_spgemm(case.a, case.b, case.opts)
    return Reference(
        digest=bl.csr_digest(result.matrix),
        stats=_stats(result),
        value_scale=float(np.abs(result.matrix.values).max(initial=0.0)),
    )


def check_against_scipy(case: Case, result, out: Outcome) -> None:
    """An ``ac_spgemm`` product against scipy's SpGEMM (tolerance by dtype)."""
    ref = case.a.astype(case.opts.value_dtype).to_scipy() @ case.b.astype(
        case.opts.value_dtype
    ).to_scipy()
    got = result.matrix.to_scipy()
    tol = 1e-4 if case.opts.value_dtype == np.float32 else 1e-10
    scale = float(abs(ref).max()) if ref.nnz else 0.0
    err = float(abs(got - ref).max()) if (got.nnz or ref.nnz) else 0.0
    if err > tol * max(scale, 1.0):
        out.fail(f"{case.name}: ac_spgemm differs from scipy by {err:.3g}")


def _call(out: Outcome, label: str, fn):
    """Run one entry-point call; a raise counts as a failed op."""
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - counted and reported
        out.fail(f"{label}: raised {exc!r}")
        return None, time.perf_counter() - t0
    return result, time.perf_counter() - t0


def check_multiply(out, case, ref, result) -> None:
    if bl.csr_digest(result.matrix) != ref.digest:
        out.fail(f"{case.name}: ac_spgemm digest differs from set-up")
    elif _stats(result) != ref.stats:
        out.fail(f"{case.name}: ac_spgemm simulated stats differ from set-up")


def check_adaptive(out, case, ref, result, ac_matrix) -> None:
    if case.integer:
        if bl.csr_digest(result.matrix) != ref.digest:
            out.fail(f"{case.name}: adaptive not byte-identical on integers")
        return
    tol = 1e-4 if case.opts.value_dtype == np.float32 else 1e-10
    if not result.matrix.allclose(ac_matrix, rtol=tol, atol=tol * ref.value_scale):
        out.fail(f"{case.name}: adaptive pattern/values differ")


def check_summa(out, case, ref, result) -> None:
    if bl.csr_digest(result.matrix) != ref.digest:
        out.fail(f"{case.name}: SUMMA not byte-identical to single device")
    try:
        result.reconcile()
    except Exception as exc:  # noqa: BLE001 - SummaReconciliationError et al.
        out.fail(f"{case.name}: SUMMA reconcile failed: {exc}")


class Runner:
    """One pass = the three entry points over the input mix."""

    def __init__(self, cases, refs, out: Outcome, calibrate):
        from repro.backends import run_backend
        from repro.core import ac_spgemm
        from repro.multi import NodeConfig, summa_spgemm

        self.cases, self.refs, self.out = cases, refs, out
        self.calibrate = calibrate
        self.ac_spgemm = ac_spgemm
        self.run_backend = run_backend
        self.summa = summa_spgemm
        self.node = NodeConfig()
        self.call_ms: list[float] = []
        self.ac_results: dict[str, object] = {}
        self.dispatched: dict[str, int] = {}

    def multiply(self, case, ref) -> float:
        result, dt = _call(
            self.out, f"{case.name}/ac_spgemm",
            lambda: self.ac_spgemm(case.a, case.b, case.opts),
        )
        if result is not None:
            check_multiply(self.out, case, ref, result)
            self.ac_results[case.name] = result
        return dt

    def adaptive(self, case, ref) -> float:
        result, dt = _call(
            self.out, f"{case.name}/adaptive",
            lambda: self.run_backend("adaptive", case.a, case.b, case.opts),
        )
        if result is not None:
            ac = self.ac_results.get(case.name)
            if ac is not None:
                check_adaptive(self.out, case, ref, result, ac.matrix)
            self.dispatched[result.dispatched_to] = (
                self.dispatched.get(result.dispatched_to, 0) + 1
            )
        return dt

    def summa_call(self, case, ref):
        result, dt = _call(
            self.out, f"{case.name}/summa",
            lambda: self.summa(case.a, case.b, self.node, backend="adaptive"),
        )
        if result is not None:
            check_summa(self.out, case, ref, result)
        return result, dt

    def one_pass(self) -> dict[str, float]:
        """Time every call; the host is calibrated after each."""
        sums = {"multiply": 0.0, "adaptive": 0.0, "summa": 0.0}
        pairs = list(zip(self.cases, self.refs))
        for case, ref in pairs:
            dt = self.multiply(case, ref)
            sums["multiply"] += dt
            self.call_ms.append(dt * 1e3)
            self.calibrate()
        for case, ref in pairs:
            dt = self.adaptive(case, ref)
            sums["adaptive"] += dt
            self.call_ms.append(dt * 1e3)
            self.calibrate()
        for case, ref in pairs:
            if case.integer:
                _, dt = self.summa_call(case, ref)
                sums["summa"] += dt
                self.call_ms.append(dt * 1e3)
                self.calibrate()
        return sums


def traced_pass(runner: Runner, out: Outcome) -> dict:
    """One pass with host-span profiling and timing wrappers installed."""
    from repro.backends import selector as selector_mod
    from repro.backends.selector import AdaptiveSelector
    from repro.multi import summa as summa_mod
    from repro.multi.partition import GridPartition
    from repro.obs.span import host_span_profile

    sw = bl.Stopwatch()
    orig_features = selector_mod.collect_features
    orig_predictions = AdaptiveSelector.__dict__["predictions"]
    orig_get_backend = selector_mod.get_backend
    orig_build = GridPartition.__dict__["build"]
    orig_tiles = summa_mod.run_backend

    def get_backend(name):
        backend = orig_get_backend(name)
        backend.run = sw.wrap(backend.run, "routed")
        return backend

    timed_build = sw.wrap(orig_build.__func__, "partition")
    selector_mod.collect_features = sw.wrap(orig_features, "features")
    AdaptiveSelector.predictions = sw.wrap(orig_predictions, "predict")
    selector_mod.get_backend = get_backend
    GridPartition.build = classmethod(timed_build)
    summa_mod.run_backend = sw.wrap(orig_tiles, "tiles")

    core = bl.core_seconds()
    unattributed = 0.0
    traced = {"multiply": 0.0, "adaptive": 0.0, "summa": 0.0}
    chunks = restarts = link_bytes = 0
    adaptive_calls = hash_calls = 0
    try:
        pairs = list(zip(runner.cases, runner.refs))
        for case, ref in pairs:
            with host_span_profile() as prof:
                traced["multiply"] += runner.multiply(case, ref)
            unattributed += bl.credit_core(core, prof)
            result = runner.ac_results.get(case.name)
            if result is not None:
                chunks += result.n_chunks
                restarts += result.restarts
        sw.bucket = "adaptive"
        before = dict(runner.dispatched)
        for case, ref in pairs:
            traced["adaptive"] += runner.adaptive(case, ref)
        for engine, n in runner.dispatched.items():
            delta = n - before.get(engine, 0)
            adaptive_calls += delta
            if engine in HASH_ENGINES:
                hash_calls += delta
        sw.bucket = "summa"
        for case, ref in pairs:
            if case.integer:
                result, dt = runner.summa_call(case, ref)
                traced["summa"] += dt
                if result is not None:
                    link_bytes += sum(
                        link.bytes_sent for link in result.link_counters.values()
                    )
    finally:
        selector_mod.collect_features = orig_features
        AdaptiveSelector.predictions = orig_predictions
        selector_mod.get_backend = orig_get_backend
        GridPartition.build = orig_build
        summa_mod.run_backend = orig_tiles

    core_sum = sum(core.values())
    gap = abs(core_sum - traced["multiply"]) / traced["multiply"]
    out.info["core_sum_gap"] = gap
    out.info["core_unattributed_s"] = unattributed
    if gap > CORE_SUM_TOLERANCE:
        out.problems.append(
            f"core.* spans sum to {core_sum:.4f}s but the traced ac_spgemm "
            f"pass took {traced['multiply']:.4f}s (gap {gap:.1%} > "
            f"{CORE_SUM_TOLERANCE:.0%})"
        )
    layers = {f"core.{stage}_s": s for stage, s in core.items()}
    layers.update(
        {
            "core.chunks": chunks,
            "core.restarts": restarts,
            "backends.features_s": sw.get("adaptive", "features"),
            "backends.predict_s": sw.get("adaptive", "predict"),
            "backends.routed_s": sw.get("adaptive", "routed"),
            "backends.hash_share": hash_calls / adaptive_calls
            if adaptive_calls
            else 0.0,
            "multi.partition_s": sw.get("summa", "partition"),
            "multi.tiles_s": sw.get("summa", "tiles"),
            "multi.merge_s": traced["summa"]
            - sw.get("summa", "partition")
            - sw.get("summa", "tiles"),
            "multi.link_bytes": link_bytes,
        }
    )
    return {"layers": layers, "traced": traced}


def run(spec: RunSpec) -> Outcome:
    out = Outcome()
    with bl.Calibrator(1, out.cals) as calibrate:  # one caller, one CPU
        measure(spec, out, calibrate)
    return out


def measure(spec: RunSpec, out: Outcome, calibrate) -> None:
    t_import, build_s, ref_s = [], [], []
    for _ in range(bl.SETUP_REPEATS):
        calibrate(3)
        t_import.append(bl.import_seconds(
            spec.root, ("repro.core", "repro.backends", "repro.multi")
        ))
        t0 = time.perf_counter()
        cases = build_cases(spec.seed, spec.small)
        t1 = time.perf_counter()
        refs = [reference(c) for c in cases]
        t2 = time.perf_counter()
        build_s.append(t1 - t0)
        ref_s.append(t2 - t1)
    setup_s = bl.median(t_import) + bl.median(build_s) + bl.median(ref_s)
    if spec.tamper:
        refs[0].digest = "0" * 64

    runner = Runner(cases, refs, out, calibrate)
    runner.one_pass()  # warm-up: lazy imports and first-call allocations
    runner.call_ms.clear()
    passes: list[dict[str, float]] = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < spec.seconds:
        passes.append(runner.one_pass())
    totals = [sum(p.values()) for p in passes]
    for case in cases:
        result = runner.ac_results.get(case.name)
        if result is not None:
            check_against_scipy(case, result, out)

    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": bl.peak_rss_mb(),
        "p50_ms": bl.median(runner.call_ms),
        "throughput_per_s": len(runner.call_ms) / len(passes) / bl.median(totals),
    }
    per_entry = {
        key: bl.median([p[key] for p in passes])
        for key in ("multiply", "adaptive", "summa")
    }
    out.info.update(
        {
            "p90_ms": bl.percentile(runner.call_ms, 0.90),
            "engines": {
                "ac_spgemm": cases[0].opts.engine,
                "adaptive": {
                    "engine": cases[0].opts.engine,
                    "dispatched_to": dict(sorted(runner.dispatched.items())),
                },
                "summa_spgemm": {
                    "backend": "adaptive",
                    "engine": cases[0].opts.engine,
                    "devices": runner.node.devices,
                },
            },
            "inputs": {c.name: int(c.a.nnz) for c in cases},
            "passes": len(passes),
            "calls": len(runner.call_ms),
            "spread": {
                "pass_s": bl.spread(totals),
                "multiply.pass_s": bl.spread([p["multiply"] for p in passes]),
                "adaptive.pass_s": bl.spread([p["adaptive"] for p in passes]),
                "summa.pass_s": bl.spread([p["summa"] for p in passes]),
                "call_ms": bl.spread(runner.call_ms),
            },
        }
    )
    if spec.trace:
        traced = traced_pass(runner, out)
        out.per_layer = traced["layers"]
        out.per_layer.update(
            {
                "multiply.pass_s": per_entry["multiply"],
                "adaptive.pass_s": per_entry["adaptive"],
                "summa.pass_s": per_entry["summa"],
                "matrices.build_s": bl.median(build_s),
                "trace_overhead": sum(traced["traced"].values())
                / bl.median(totals)
                - 1.0,
            }
        )
        out.info["core_sum_tolerance"] = CORE_SUM_TOLERANCE
