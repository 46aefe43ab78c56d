"""Shared fixtures for the paper-reproduction benchmarks.

The expensive part — running every algorithm over every matrix in both
precisions — is driven by the sharded campaign runner
(:mod:`repro.campaign`), and its campaign directories are the one result
store the per-figure bench files read:

* ``results/campaign_full`` holds the full-set sweep behind Figures
  9-12 and Table 1 (suite + named, both precisions);
* ``results/campaign_named`` holds the named-collection sweep behind
  Figures 6-8 and Table 3 (double precision).

A rerun resumes every checkpointed cell, so the figures read one
deterministic sweep no matter how many workers (set
``REPRO_BENCH_WORKERS``) produced it.  The CPU-crossover bench runs its
few cells uncached.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, campaign_records

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _workers() -> int:
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1")
    return max((os.cpu_count() or 1) if raw == "auto" else int(raw), 1)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_records():
    """The complete sweep: (suite + named) x GPU line-up x {float32,
    float64}, executed as a resumable campaign.  Correctness is covered
    by the test suite, so the sweep skips per-cell verification."""
    config = CampaignConfig(
        suite="full", dtypes=("float32", "float64"), verify=False
    )
    return campaign_records(
        RESULTS_DIR / "campaign_full", config, workers=_workers()
    )


@pytest.fixture(scope="session")
def named_records():
    """The Table 2 named collection x GPU line-up in double precision,
    executed as a resumable campaign (unverified, like the full set)."""
    config = CampaignConfig(suite="named", verify=False)
    return campaign_records(
        RESULTS_DIR / "campaign_named", config, workers=_workers()
    )


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
