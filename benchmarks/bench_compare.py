"""Regression diff of two ``BENCH_*.json`` artifacts.

Compares every shared numeric leaf of two bench payloads (a baseline and
a candidate) and flags regressions beyond a relative threshold.  The
primary use is gating on ``repro analyze --metrics-out`` artifacts
(against ``benchmarks/seed/BENCH_analyze_seed.json``) — their
``"metrics"`` map is flat, simulated-cycle based and therefore
machine-independent — but any JSON payload with numeric leaves works
(nested objects are flattened with dotted keys).  The ``analyze``
artifact replaced the former ``repro profile --metrics-out`` one and
holds every key it had.

Larger is treated as worse for every metric except the excluded ones:
wall-clock quantities (machine-dependent) and host-side telemetry
(engine-specific by design) are skipped.

Usage::

    python benchmarks/bench_compare.py baseline.json candidate.json \
        [--threshold 0.001] [--fail-on-missing]

Exit status: 0 when no regression exceeds the threshold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: substrings of flattened keys that must not gate the comparison:
#: machine-dependent wall-clock values and engine-specific host
#: telemetry.  Deliberately precise — plain "host" would also exclude
#: the deterministic ``host_round_trips`` traffic counter.
EXCLUDE_SUBSTRINGS = ("seconds", "speedup", "wall", "repro_host_ops", "allocator")


def flatten(payload, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON document as ``dotted.key -> value``."""
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for k, v in payload.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            out.update(flatten(v, f"{prefix}[{i}]"))
    elif isinstance(payload, bool):
        pass  # bools are ints but not metrics
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    return out


def excluded(key: str) -> bool:
    """True when the key must not participate in the regression gate."""
    return any(s in key for s in EXCLUDE_SUBSTRINGS)


def engine_neutral(flat: dict[str, float], engine) -> dict[str, float]:
    """Drop the payload's own host-engine label (its top-level
    ``"engine"``) from metric keys.  Host engines are byte-identical in
    every simulated statistic, so a baseline recorded on one engine
    gates a candidate run on another; other ``engine`` labels (a routed
    backend's, say) never equal a host engine name and are kept."""
    if not isinstance(engine, str):
        return flat
    label = f'engine="{engine}"'
    out: dict[str, float] = {}
    for key, v in flat.items():
        key = key.replace("{" + label + "}", "")
        key = key.replace(label + ",", "").replace("," + label, "")
        out[key] = v
    return out


def compare(
    baseline: dict, candidate: dict, threshold: float
) -> tuple[list[dict], list[str], list[str]]:
    """Diff two flattened payloads.

    Returns ``(regressions, improvements, missing)`` where regressions
    are dicts with key/base/cand/ratio, improvements are formatted lines
    and missing lists keys present in only one payload.
    """
    base = {
        k: v
        for k, v in engine_neutral(flatten(baseline), baseline.get("engine")).items()
        if not excluded(k)
    }
    cand = {
        k: v
        for k, v in engine_neutral(flatten(candidate), candidate.get("engine")).items()
        if not excluded(k)
    }
    regressions: list[dict] = []
    improvements: list[str] = []
    for key in sorted(base.keys() & cand.keys()):
        b, c = base[key], cand[key]
        if b == c:
            continue
        if b == 0:
            delta = float("inf") if c > 0 else -1.0
        else:
            delta = (c - b) / abs(b)
        if delta > threshold:
            regressions.append(
                {"key": key, "baseline": b, "candidate": c, "delta": delta}
            )
        elif delta < -threshold:
            improvements.append(f"  {key}: {b} -> {c} ({delta:+.2%})")
    missing = sorted((base.keys() | cand.keys()) - (base.keys() & cand.keys()))
    return regressions, improvements, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.001,
        help="relative regression tolerance (default 0.1%%)",
    )
    parser.add_argument(
        "--fail-on-missing", action="store_true",
        help="also fail when the two payloads cover different keys",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    regressions, improvements, missing = compare(
        baseline, candidate, args.threshold
    )

    print(
        f"bench_compare: {args.baseline} vs {args.candidate} "
        f"(threshold {args.threshold:.3%})"
    )
    if improvements:
        print(f"improvements ({len(improvements)}):")
        for line in improvements:
            print(line)
    if missing:
        print(f"keys present in only one payload ({len(missing)}):")
        for key in missing:
            print(f"  {key}")
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):", file=sys.stderr)
        for r in regressions:
            print(
                f"  {r['key']}: {r['baseline']} -> {r['candidate']} "
                f"({r['delta']:+.2%})",
                file=sys.stderr,
            )
        return 1
    if missing and args.fail_on_missing:
        print("FAIL: key coverage differs", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
