"""Small-scale runs of every benchmark workload.

Each test runs ``perfbench/run.py`` the way the benchmark is run, with
``--small`` inputs and a one-second window.  Run from a checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
DOC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DOC["workloads"]]

#: counts that must repeat exactly between two runs of one seed
REPEATING = (
    "core.chunks",
    "core.restarts",
    "backends.hash_share",
    "multi.link_bytes",
    "serve.cache_hit_share",
    "campaign.failed_cells",
)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT,
          run: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    context = next(
        (json.loads(ln[len("context "):]) for ln in lines
         if ln.startswith("context ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, context


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs of every workload with the same seed."""
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DOC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    proc, result, context = bench(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert context["seed"] == 7 and context["nproc"] >= 1
    assert context["engines"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload, traced_pairs):
    (p1, r1, c1), (p2, r2, c2) = traced_pairs[workload]
    assert p1.returncode == 0 and p2.returncode == 0, p1.stdout + p2.stdout
    emitted = {k: v["unit"] for k, v in r1["metrics"].items()}
    assert emitted == _declared("per_layer")
    for name in REPEATING:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name
    if workload == "campaign":
        assert c1["campaign_sha256"] == c2["campaign_sha256"]


def test_offline_measures_its_layers(traced_pairs):
    (_, result, context), _ = traced_pairs["offline"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["core.chunks"] > 0 and m["multi.link_bytes"] > 0
    for name in ("core.esc_s", "backends.features_s", "backends.predict_s",
                 "backends.routed_s", "multi.tiles_s", "summa.pass_s"):
        assert m[name] > 0, name
    assert context["core_sum_gap"] <= context["core_sum_tolerance"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_digest_is_caught(workload):
    proc, result, _ = bench(workload, 0, "--tamper")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "FAILED:" in proc.stdout


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_process_outlives_the_run(workload, tmp_path):
    """Everything the run starts (workers, the daemon and its helpers,
    resource trackers) has ended by the time the run exits.

    Output goes to files, not pipes: waiting for a pipe's end would also
    wait for any helper that inherited it.
    """
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as fout, open(err, "w") as ferr:
        proc = subprocess.Popen(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "0", "--small"],
            cwd=ROOT, stdout=fout, stderr=ferr, start_new_session=True,
        )
        proc.wait(timeout=300)
    left = _group_members(proc.pid)
    stdout = out.read_text()
    assert proc.returncode == 0, stdout + err.read_text()
    assert left == []
    context = next(json.loads(ln[len("context "):])
                   for ln in stdout.splitlines() if ln.startswith("context "))
    assert context["children_signalled"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result, _ = bench(
        "offline", 0, cwd=tmp_path, run=tmp_path / "perfbench" / "run.py"
    )
    assert proc.returncode != 0
    assert result is None
