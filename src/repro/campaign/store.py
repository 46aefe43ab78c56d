"""Campaign checkpoint store: per-worker JSONL shards and the merge.

Each worker appends one JSON line per finished cell to its own shard
file and fsyncs it, so a killed campaign loses at most the cell that
was mid-flight (a torn final line is detected and ignored on load).
The merge reads every shard, validates each line against the current
plan's content keys, and emits one byte-deterministic artifact: cells
in plan order, worker identity and host timings stripped, canonical
JSON serialization.  The artifact is therefore identical whether the
campaign ran with one worker, with eight, or was killed and resumed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .plan import CACHE_VERSION, CampaignConfig, CampaignError

__all__ = [
    "ShardWriter",
    "read_shard_diagnostics",
    "read_shard_lines",
    "load_completed",
    "merged_artifact_bytes",
    "write_atomic",
]

SHARD_DIR = "shards"

#: line fields that survive into the merged artifact (deterministic);
#: everything else (worker id, host wallclock) is execution detail
_ARTIFACT_FIELDS = ("id", "key", "status", "attempts", "record", "error")


def shard_dir(directory: str | Path) -> Path:
    """The shard subdirectory of a campaign directory."""
    return Path(directory) / SHARD_DIR


class ShardWriter:
    """Append-only, crash-safe JSONL writer for one worker."""

    def __init__(self, directory: str | Path, worker: int | str) -> None:
        d = shard_dir(directory)
        d.mkdir(parents=True, exist_ok=True)
        label = f"{worker:02d}" if isinstance(worker, int) else str(worker)
        self.path = d / f"shard-{label}.jsonl"
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, line: dict) -> None:
        """Write one checkpoint line durably (flush + fsync)."""
        self._fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def read_shard_lines(path: str | Path) -> list[dict]:
    """Parse one shard, skipping a torn (mid-write) final line."""
    lines: list[dict] = []
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError:
        return lines
    for i, text in enumerate(raw.splitlines()):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            # only the *last* line may legally be torn by a kill
            if i == raw.count("\n"):
                continue
            raise CampaignError(
                f"corrupt checkpoint line {i + 1} in {path}"
            ) from None
        if isinstance(obj, dict) and "id" in obj and "key" in obj:
            lines.append(obj)
    return lines


def read_shard_diagnostics(path: str | Path) -> list[dict]:
    """Non-cell lines of one shard: heartbeats, starvation, drain marks.

    Workers interleave ``{"kind": ...}`` diagnostic lines (no ``id``/
    ``key``, so resume and merge never see them) with cell checkpoints;
    this lenient reader surfaces them for post-mortems and tests.
    """
    out: list[dict] = []
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError:
        return out
    for text in raw.splitlines():
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            continue  # torn line; the strict reader polices corruption
        if isinstance(obj, dict) and "kind" in obj and "id" not in obj:
            out.append(obj)
    return out


def load_completed(
    directory: str | Path, expected_keys: dict[str, str]
) -> dict[str, dict]:
    """All valid checkpointed cells of a campaign directory.

    ``expected_keys`` maps cell id -> current content key; lines whose
    key does not match (stale generator, different options, older
    ``CACHE_VERSION``) are ignored rather than trusted.  Duplicate
    lines for one cell must agree on the outcome — the simulator is
    deterministic, so a disagreement means the checkpoint is corrupt.
    """
    completed: dict[str, dict] = {}
    d = shard_dir(directory)
    if not d.is_dir():
        return completed
    for path in sorted(d.glob("*.jsonl")):
        for line in read_shard_lines(path):
            cid = line["id"]
            if expected_keys.get(cid) != line["key"]:
                continue
            seen = completed.get(cid)
            if seen is not None:
                if {k: seen.get(k) for k in _ARTIFACT_FIELDS} != {
                    k: line.get(k) for k in _ARTIFACT_FIELDS
                }:
                    raise CampaignError(
                        f"conflicting checkpoints for cell {cid!r} "
                        f"(deterministic cells can never disagree)"
                    )
                continue
            completed[cid] = line
    return completed


def merged_artifact_bytes(
    config: CampaignConfig,
    cells,
    completed: dict[str, dict],
) -> bytes:
    """The canonical merged artifact for a *complete* campaign.

    Raises :class:`CampaignError` while any cell is missing; the
    serialization is canonical JSON (sorted keys, fixed separators, no
    timestamps or worker identity), so any two complete runs of the
    same plan produce byte-identical artifacts.
    """
    missing = [c.id for c in cells if c.id not in completed]
    if missing:
        raise CampaignError(
            f"campaign incomplete: {len(missing)}/{len(cells)} cells "
            f"missing (first: {missing[0]!r})"
        )
    out_cells = []
    for c in cells:
        line = completed[c.id]
        out_cells.append({k: line.get(k) for k in _ARTIFACT_FIELDS})
    doc = {
        "format": 1,
        "cache_version": CACHE_VERSION,
        "config": config.to_json(),
        "n_cells": len(out_cells),
        "cells": out_cells,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_atomic(path: str | Path, data: bytes) -> Path:
    """Write ``data`` via a same-directory temp file + atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return path
