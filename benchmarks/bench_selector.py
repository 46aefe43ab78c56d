"""Selection-accuracy bench: adaptive routing vs per-matrix oracle.

Runs every candidate engine (always-ESC ``ac-spgemm``, always-hash
``hash-spgemm`` and ``hashmap-spgemm``) plus the ``adaptive`` selector
over the tiny + synthetic-suite matrices and grades the selector
against the per-matrix oracle (the candidate with the fewest measured
cycles).  Doubles as the registry smoke: every engine's device trace
must reconcile exactly on the tiny set, and every engine advertising
``bit_stable=True`` must be byte-identical to the reference pipeline.

Gates (the PR's acceptance criteria):

* the adaptive selector picks the per-matrix oracle engine on >= 80%
  of the matrices;
* on the mismatches the routed engine never loses more than 10%
  cycles to the oracle engine (routing regret).

The inspection probe is a constant per-multiply cost paid on matches
and mismatches alike, so it is reported separately
(``probe_overhead`` per row, ``mean_probe_overhead`` in the summary)
rather than being folded into the mismatch regret.

Writes ``BENCH_selector.json`` with per-matrix rows and the summary.
With ``--expect PATH`` the run also fails when any matrix present in
both it and the earlier artifact at ``PATH`` differs in ``cycles``,
``dispatched_to`` or ``adaptive_cycles``: simulated routing is a pinned
contract, and host-side changes must leave it bit-for-bit alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_selector.py [--smoke] \
        [--out BENCH_selector.json] [--expect BENCH_selector.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import available_backends, get_backend, run_backend  # noqa: E402
from repro.campaign.plan import tiny_entries  # noqa: E402
from repro.core import AcSpgemmOptions, ac_spgemm  # noqa: E402
from repro.matrices.suite import suite_entries  # noqa: E402
from repro.obs.analyze import reconcile  # noqa: E402
from repro.sparse import squared_operands  # noqa: E402

CANDIDATES = ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")

#: acceptance gates
MIN_MATCH_RATE = 0.80
MAX_MISMATCH_LOSS = 0.10


def entry_list(smoke: bool):
    """Tiny set plus the synthetic suite (thinned in smoke mode)."""
    entries = list(tiny_entries())
    suite = list(suite_entries())
    if smoke:
        suite = suite[::8]  # stratified: every family stays represented
    return entries + suite


def registry_smoke() -> dict:
    """Enumerate the registry and gate reconciliation + parity on the
    tiny set; returns the smoke summary for the artifact."""
    names = available_backends()
    assert set(CANDIDATES) <= set(names), names
    assert "adaptive" in names
    stable = [n for n in names if get_backend(n).bit_stable]
    traced = AcSpgemmOptions(device_trace=True)
    checked = 0
    for entry in tiny_entries():
        a, b = squared_operands(entry.build())
        ref = ac_spgemm(a, b)
        for name in names:
            res = run_backend(name, a, b, traced)
            summary = reconcile(res)  # raises ReconciliationError on drift
            assert summary["checked"], (name, entry.name)
            if get_backend(name).bit_stable:
                assert (
                    res.matrix.values.tobytes() == ref.matrix.values.tobytes()
                    and res.matrix.col_idx.tobytes()
                    == ref.matrix.col_idx.tobytes()
                ), f"{name} is not byte-identical to reference on {entry.name}"
            checked += 1
    return {
        "engines": list(names),
        "bit_stable_engines": stable,
        "runs_reconciled": checked,
    }


def grade(entries) -> tuple[list[dict], dict]:
    opts = AcSpgemmOptions()
    rows: list[dict] = []
    for entry in entries:
        a, b = squared_operands(entry.build())
        cycles = {
            name: run_backend(name, a, b, opts).total_cycles
            for name in CANDIDATES
        }
        adaptive = run_backend("adaptive", a, b, opts)
        oracle = min(cycles, key=cycles.get)
        match = adaptive.dispatched_to == oracle
        # routing regret: the routed engine's standalone cycles vs the
        # oracle engine's (0.0 on a match); the probe is reported as a
        # separate overhead because it is paid on every multiply
        loss = cycles[adaptive.dispatched_to] / cycles[oracle] - 1.0
        probe = (
            adaptive.total_cycles - cycles[adaptive.dispatched_to]
        ) / cycles[oracle]
        rows.append(
            {
                "matrix": entry.name,
                "family": entry.family,
                "oracle": oracle,
                "dispatched_to": adaptive.dispatched_to,
                "match": match,
                "adaptive_cycles": round(adaptive.total_cycles, 1),
                "loss_vs_oracle": round(loss, 4),
                "probe_overhead": round(probe, 4),
                "cycles": {k: round(v, 1) for k, v in cycles.items()},
            }
        )
    n = len(rows)
    matches = sum(r["match"] for r in rows)
    mism_losses = [r["loss_vs_oracle"] for r in rows if not r["match"]]
    summary = {
        "matrices": n,
        "matches": matches,
        "match_rate": round(matches / n, 4) if n else 1.0,
        "max_mismatch_loss": round(max(mism_losses), 4) if mism_losses else 0.0,
        "mean_loss": round(sum(r["loss_vs_oracle"] for r in rows) / n, 4)
        if n
        else 0.0,
        "mean_probe_overhead": round(
            sum(r["probe_overhead"] for r in rows) / n, 4
        )
        if n
        else 0.0,
        "oracle_wins": {
            name: sum(1 for r in rows if r["oracle"] == name)
            for name in CANDIDATES
        },
        "selected": {
            name: sum(1 for r in rows if r["dispatched_to"] == name)
            for name in CANDIDATES
        },
    }
    return rows, summary


#: per-matrix fields ``--expect`` pins
PINNED_FIELDS = ("cycles", "dispatched_to", "adaptive_cycles")


def expectation_failures(rows: list[dict], expected: list[dict]) -> list[str]:
    """Pinned-field differences for matrices present in both runs."""
    want = {r["matrix"]: r for r in expected}
    shared = [r for r in rows if r["matrix"] in want]
    if not shared:
        return ["no matrix of this run is in the expected artifact"]
    return [
        f"{r['matrix']}: {field} {r[field]!r} != expected "
        f"{want[r['matrix']][field]!r}"
        for r in shared
        for field in PINNED_FIELDS
        if r[field] != want[r["matrix"]][field]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="thin the suite for CI (every 8th entry)")
    parser.add_argument("--out", default="BENCH_selector.json")
    parser.add_argument(
        "--expect",
        metavar="PATH",
        help="earlier BENCH_selector.json whose per-matrix cycles, "
        "dispatched_to and adaptive_cycles this run must reproduce",
    )
    args = parser.parse_args(argv)
    # read before --out may overwrite the same file
    expected = (
        json.loads(Path(args.expect).read_text())["rows"] if args.expect else None
    )

    smoke = registry_smoke()
    print(f"registry smoke: {len(smoke['engines'])} engines, "
          f"{smoke['runs_reconciled']} traced runs reconciled exactly")

    rows, summary = grade(entry_list(args.smoke))
    payload = {
        "bench": "selector",
        "mode": "smoke" if args.smoke else "full",
        "gates": {
            "min_match_rate": MIN_MATCH_RATE,
            "max_mismatch_loss": MAX_MISMATCH_LOSS,
        },
        "registry_smoke": smoke,
        "summary": summary,
        "rows": rows,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"selector: {summary['matches']}/{summary['matrices']} matched the "
        f"oracle (rate {summary['match_rate']:.2%}), worst mismatch regret "
        f"{summary['max_mismatch_loss']:+.2%}, mean regret "
        f"{summary['mean_loss']:+.2%}, mean probe overhead "
        f"{summary['mean_probe_overhead']:+.2%}"
    )
    print(f"oracle wins {summary['oracle_wins']}")
    print(f"selected    {summary['selected']}")
    print(f"wrote {out}")

    failures = []
    if summary["match_rate"] < MIN_MATCH_RATE:
        failures.append(
            f"match rate {summary['match_rate']:.2%} < {MIN_MATCH_RATE:.0%}"
        )
    if summary["max_mismatch_loss"] > MAX_MISMATCH_LOSS:
        worst = max(
            (r for r in rows if not r["match"]),
            key=lambda r: r["loss_vs_oracle"],
        )
        failures.append(
            f"mismatch loss {summary['max_mismatch_loss']:+.2%} > "
            f"{MAX_MISMATCH_LOSS:.0%} on {worst['matrix']} "
            f"(chose {worst['dispatched_to']}, oracle {worst['oracle']})"
        )
    if expected is not None:
        drift = expectation_failures(rows, expected)
        failures.extend(f"routing differs from {args.expect}: {d}" for d in drift)
        if not drift:
            print(f"routing matches {args.expect} on every shared matrix")
    for f in failures:
        print(f"GATE FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
