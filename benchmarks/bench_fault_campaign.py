"""Seeded fault-injection campaign across both execution engines.

Runs a battery of fault classes — pool exhaustion (recovered and
budget-exceeded), scratchpad overflow (raised and degraded), scheduler
block aborts, and the adversarial-input corruptions — against the
reference and batched engines, and checks the resilience
layer's acceptance bar: **the same FaultPlan produces the same
exceptions, the same restart counts and a bit-identical recovered C on
every engine**, and the degradation fallback matches the Gustavson
reference's sparsity pattern.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_campaign.py --smoke --out BENCH_fault.json

The campaign is fully deterministic in ``--seed``: the JSON artifact
records every plan, so a failing case can be replayed exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    AcSpgemmOptions,
    FaultPlan,
    FaultSpec,
    ReproError,
    ac_spgemm,
    spgemm_reference,
)
from repro.gpu import SMALL_DEVICE  # noqa: E402
from repro.matrices import generators as g  # noqa: E402
from repro.resilience import ADVERSARIAL_MODES, corrupt_csr  # noqa: E402
from repro.sparse import CSRMatrix  # noqa: E402

ENGINES = ("reference", "batched")


def _operand(seed: int, n: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    d = (rng.random((n, n)) < 0.1) * rng.random((n, n))
    return CSRMatrix.from_dense(d)


def _digest(m: CSRMatrix) -> str:
    h = hashlib.sha256()
    for arr in (m.row_ptr, m.col_idx, m.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _outcome(a, b, opts) -> dict:
    """One engine run reduced to a comparable record."""
    try:
        res = ac_spgemm(a, b, opts)
    except ReproError as exc:
        ctx = exc.context()
        # block ids can legitimately differ in *message* formatting only;
        # the typed context is the comparable part
        return {"error": ctx["kind"], "stage": ctx["stage"],
                "block_id": ctx["block_id"], "restarts": ctx["restarts"]}
    return {
        "restarts": res.restarts,
        "degraded": res.degraded,
        "failure": res.failure["kind"] if res.failure else None,
        "digest": _digest(res.matrix),
    }


def _cases(seed: int, smoke: bool) -> list[dict]:
    """The campaign: name, FaultPlan (or corruption mode), options."""
    rng = np.random.default_rng(seed)
    o1, o2 = sorted(int(x) for x in rng.integers(2, 60, size=2))
    cases = [
        {"name": "pool_exhaust_recovered",
         "plan": FaultPlan.pool_exhaust_at(o1, seed=seed)},
        {"name": "pool_exhaust_double",
         "plan": FaultPlan.pool_exhaust_at(o1, o2 + 60, seed=seed)},
        {"name": "pool_exhaust_budget_raise",
         "plan": FaultPlan.pool_exhaust_at(*range(1, 400), seed=seed),
         "opts": {"max_restarts": 2}},
        {"name": "pool_exhaust_budget_fallback",
         "plan": FaultPlan.pool_exhaust_at(*range(1, 400), seed=seed),
         "opts": {"max_restarts": 2, "on_failure": "fallback"},
         "check_fallback": True},
        {"name": "scratchpad_overflow_raise",
         "plan": FaultPlan.single("scratchpad_overflow", stage="ESC",
                                  round=0, block=0, seed=seed)},
        {"name": "scratchpad_overflow_fallback",
         "plan": FaultPlan.single("scratchpad_overflow", stage="ESC",
                                  round=0, block=0, seed=seed),
         "opts": {"on_failure": "fallback"}, "check_fallback": True},
        {"name": "block_abort",
         "plan": FaultPlan.single("block_abort", stage="ESC", round=0,
                                  block=int(rng.integers(0, 4)), seed=seed)},
        {"name": "block_abort_sanitized",
         "plan": FaultPlan.single("block_abort", stage="ESC", round=0,
                                  block=0, seed=seed),
         "opts": {"sanitize": True}},
    ]
    for mode in ADVERSARIAL_MODES:
        cases.append({"name": f"adversarial_{mode}", "corrupt": mode,
                      "opts": {"sanitize": True}})
    if not smoke:
        cases.append({"name": "overflow_merge_stage",
                      "plan": FaultPlan.single("scratchpad_overflow",
                                               stage="MM", round=0,
                                               block=0, seed=seed),
                      "dense": True})
    return cases


def run_campaign(seed: int, smoke: bool) -> dict:
    n = 50 if smoke else 90
    a = _operand(seed, n)
    dense_a = None
    payload = {"seed": seed, "mode": "smoke" if smoke else "full",
               "engines": list(ENGINES), "cases": []}
    ref_digest = _digest(spgemm_reference(a, a))

    for case in _cases(seed, smoke):
        if case.get("dense"):
            if dense_a is None:
                rngd = np.random.default_rng(seed + 1)
                d = (rngd.random((80, 80)) < 0.2) * rngd.random((80, 80))
                dense_a = CSRMatrix.from_dense(d)
            mat = dense_a
        elif "corrupt" in case:
            mat = corrupt_csr(a, case["corrupt"], seed=seed)
        else:
            mat = a
        opt_kwargs = dict(device=SMALL_DEVICE,
                          chunk_pool_lower_bound_bytes=1 << 20)
        opt_kwargs.update(case.get("opts", {}))
        if "plan" in case:
            opt_kwargs["fault_plan"] = case["plan"]
        per_engine = {}
        for eng in ENGINES:
            opts = AcSpgemmOptions(engine=eng, **opt_kwargs)
            per_engine[eng] = _outcome(mat, mat, opts)
        identical = all(
            per_engine[e] == per_engine[ENGINES[0]] for e in ENGINES[1:]
        )
        record = {
            "name": case["name"],
            "plan": case["plan"].to_dict() if "plan" in case else None,
            "corrupt": case.get("corrupt"),
            "outcome": per_engine[ENGINES[0]],
            "identical_across_engines": identical,
        }
        if case.get("check_fallback"):
            out = per_engine[ENGINES[0]]
            record["fallback_ok"] = bool(
                out.get("degraded") and _fallback_matches_reference(mat, opt_kwargs)
            )
        payload["cases"].append(record)

    payload["all_identical"] = all(
        c["identical_across_engines"] for c in payload["cases"]
    )
    payload["fallbacks_ok"] = all(
        c.get("fallback_ok", True) for c in payload["cases"]
    )
    payload["reference_digest"] = ref_digest
    return payload


def _fallback_matches_reference(mat, opt_kwargs) -> bool:
    """Degraded C has the exact Gustavson pattern, values allclose."""
    from repro.resilience.degrade import fallback_multiply

    opts = AcSpgemmOptions(**opt_kwargs)
    ref = spgemm_reference(mat, mat)
    run = fallback_multiply(mat, mat, opts)
    return (
        np.array_equal(run.matrix.row_ptr, ref.row_ptr)
        and np.array_equal(run.matrix.col_idx, ref.col_idx)
        and run.matrix.allclose(ref, rtol=1e-10)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small operands for CI (~seconds)")
    parser.add_argument("--seed", type=int, default=2019,
                        help="campaign seed (PPoPP'19 by default)")
    parser.add_argument("--out", default="BENCH_fault.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    payload = run_campaign(args.seed, args.smoke)
    payload["host_seconds"] = round(time.perf_counter() - t0, 3)

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"fault campaign ({payload['mode']}, seed {payload['seed']}): "
          f"{len(payload['cases'])} cases x {len(ENGINES)} engines "
          f"in {payload['host_seconds']}s")
    for c in payload["cases"]:
        out = c["outcome"]
        what = out.get("error") or (
            "degraded" if out.get("degraded") else f"restarts={out['restarts']}"
        )
        mark = "ok" if c["identical_across_engines"] else "ENGINES DISAGREE"
        print(f"  {c['name']:32s} {what:28s} {mark}")
    print(f"wrote {args.out}")

    if not payload["all_identical"]:
        print("ERROR: engines disagree on at least one case", file=sys.stderr)
        return 1
    if not payload["fallbacks_ok"]:
        print("ERROR: degraded fallback does not match the reference",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
