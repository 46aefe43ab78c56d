"""Sharded, resumable sweep campaigns over the matrix collections.

The paper's evaluation is a ~1800-matrix sweep of six algorithms in two
precisions; this package turns that cross product into a *campaign*: a
plan of content-addressed cells, executed by N workers (the coordinator
and N−1 spawned processes), each checkpointing finished cells to its own
JSONL shard.  A killed campaign
resumes from the checkpoints, and the merged artifact is byte-identical
no matter how many workers (or how many interruptions) produced it.

See ``docs/ARCHITECTURE.md`` §7 ("Campaign runner") for the design.
"""

from .plan import (
    SUITES,
    CampaignConfig,
    CampaignError,
    CellSpec,
    cell_key,
    config_entries,
    enumerate_cells,
    matrix_fingerprint,
    tiny_entries,
)
from .runner import CampaignResult, CampaignRunner, campaign_records
from .store import (
    ShardWriter,
    load_completed,
    merged_artifact_bytes,
    read_shard_lines,
    write_atomic,
)
from .worker import execute_cell, worker_main

__all__ = [
    "SUITES",
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CellSpec",
    "ShardWriter",
    "campaign_records",
    "cell_key",
    "config_entries",
    "enumerate_cells",
    "execute_cell",
    "load_completed",
    "matrix_fingerprint",
    "merged_artifact_bytes",
    "read_shard_lines",
    "tiny_entries",
    "worker_main",
]
