"""Campaign plans: configuration, cell enumeration and content keys.

A campaign is the cross product (matrix x algorithm x dtype) over a
named matrix collection.  The plan layer is deliberately cheap: it
enumerates :class:`CellSpec` descriptors without building any matrix,
so a resumed campaign whose cells are all checkpointed never pays for
operand construction.  Cells are *content-addressed*: the cell key
hashes the matrix fingerprint (the actual CSR bytes), the pipeline
options fingerprint and :data:`CACHE_VERSION`, so a checkpoint
written by an older generator or option set can never be mistaken for
a current result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..backends.registry import is_backend
from ..baselines.registry import BASELINES, GPU_ALGORITHMS
from ..core.options import DEFAULT_OPTIONS, AcSpgemmOptions
from ..matrices import generators as g
from ..matrices.collection import NAMED_COLLECTION
from ..matrices.suite import SuiteEntry, suite_entries
from ..resilience.errors import ReproError

__all__ = [
    "CACHE_VERSION",
    "CampaignError",
    "CampaignConfig",
    "CellSpec",
    "SUITES",
    "config_entries",
    "enumerate_cells",
    "matrix_fingerprint",
    "cell_key",
    "cell_options",
    "tiny_entries",
]

#: bump when generators / cost model / record schema change
#: incompatibly: every cell key and serve result key hashes it
CACHE_VERSION = 10

#: selectable matrix collections; "tiny" is the fast CI/resume-test set
SUITES = ("tiny", "suite", "named", "full")


class CampaignError(ReproError):
    """A campaign-level failure (bad plan, conflicting checkpoint, ...)."""


def tiny_entries() -> list[SuiteEntry]:
    """A six-matrix suite small enough for smoke runs and kill tests.

    Spans the generator families (uniform, stencil, power law, road,
    banded, long-row) at sizes where one full line-up sweep takes
    seconds, not minutes.
    """
    return [
        SuiteEntry("tiny-uniform", "uniform", lambda: g.random_uniform(300, 300, 3, seed=71001)),
        SuiteEntry("tiny-grid2d", "stencil", lambda: g.stencil_2d(18, seed=71002)),
        SuiteEntry("tiny-powerlaw", "power-law", lambda: g.power_law(400, 3.0, max_row_len=60, seed=71003)),
        SuiteEntry("tiny-road", "road", lambda: g.road_network(700, seed=71004)),
        SuiteEntry("tiny-banded", "fem-banded", lambda: g.banded(260, 2, seed=71005, fill=0.97)),
        SuiteEntry("tiny-longrow", "long-row", lambda: g.long_row_matrix(500, 2.5, n_long_rows=1, long_row_len=120, seed=71006)),
    ]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines *what* a campaign computes.

    Runtime knobs that cannot change the merged artifact (worker count,
    directories, metrics outputs) are deliberately absent, so one
    serialized config describes the same artifact regardless of how the
    sweep is executed.
    """

    suite: str = "suite"
    limit: int | None = None
    algorithms: tuple[str, ...] = tuple(GPU_ALGORITHMS)
    dtypes: tuple[str, ...] = ("float64",)
    engine: str = DEFAULT_OPTIONS.engine
    estimator: str = "uniform"
    sanitize: bool = False
    fallback: bool = False
    verify: bool = False
    retries: int = 1

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise CampaignError(
                f"unknown suite {self.suite!r}; expected one of {SUITES}"
            )
        unknown = {
            name
            for name in self.algorithms
            if name not in BASELINES and not is_backend(name)
        }
        if unknown:
            raise CampaignError(f"unknown algorithms {sorted(unknown)}")
        bad = set(self.dtypes) - {"float32", "float64"}
        if bad:
            raise CampaignError(f"unknown dtypes {sorted(bad)}")
        if self.estimator not in ("uniform", "sampling"):
            raise CampaignError(f"unknown estimator {self.estimator!r}")
        if self.retries < 0:
            raise CampaignError("retries must be non-negative")

    def options(self):
        """The :class:`AcSpgemmOptions` for registered-backend cells.

        ``None`` when every knob is at its default, so default cells run
        with each backend's stock options.
        """
        if (
            self.engine == DEFAULT_OPTIONS.engine
            and self.estimator == "uniform"
            and not self.sanitize
            and not self.fallback
        ):
            return None
        return AcSpgemmOptions(
            engine=self.engine,
            estimator=self.estimator,
            sanitize=self.sanitize,
            on_failure="fallback" if self.fallback else "raise",
        )

    def options_fingerprint(self) -> str:
        """Stable digest of the pipeline options ("default" when None)."""
        opts = self.options()
        return "default" if opts is None else opts.cache_fingerprint()

    def to_json(self) -> dict:
        """Deterministic JSON form (tuples become lists)."""
        d = asdict(self)
        d["algorithms"] = list(self.algorithms)
        d["dtypes"] = list(self.dtypes)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "CampaignConfig":
        """Inverse of :meth:`to_json`."""
        d = dict(d)
        d["algorithms"] = tuple(d.get("algorithms", GPU_ALGORITHMS))
        d["dtypes"] = tuple(d.get("dtypes", ("float64",)))
        return cls(**d)

    def with_(self, **kwargs) -> "CampaignConfig":
        """Copy with replaced fields."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell, identified before any matrix is built."""

    index: int  # position in the deterministic plan order
    matrix: str
    algorithm: str
    dtype: str

    @property
    def id(self) -> str:
        """Human-readable cell identity (not content-addressed)."""
        return f"{self.matrix}|{self.algorithm}|{self.dtype}"


def config_entries(config: CampaignConfig) -> list:
    """Lazy matrix entries (objects with ``name``/``family``/``build()``)
    of the configured collection, in deterministic order."""
    if config.suite == "tiny":
        entries: list = tiny_entries()
    elif config.suite == "suite":
        entries = list(suite_entries())
    elif config.suite == "named":
        entries = list(NAMED_COLLECTION)
    else:  # full: the complete figure-9..12 population
        entries = list(suite_entries()) + list(NAMED_COLLECTION)
    if config.limit is not None:
        entries = entries[: config.limit]
    return entries


def enumerate_cells(config: CampaignConfig) -> list[CellSpec]:
    """Every cell of the campaign, in the canonical sweep order
    (matrices outer, then dtypes, then algorithms)."""
    cells = []
    for entry in config_entries(config):
        for dtype in config.dtypes:
            for alg in config.algorithms:
                cells.append(
                    CellSpec(
                        index=len(cells),
                        matrix=entry.name,
                        algorithm=alg,
                        dtype=dtype,
                    )
                )
    return cells


def matrix_fingerprint(matrix) -> str:
    """Content hash of a CSR matrix (shape + structure + values)."""
    h = hashlib.sha1()
    h.update(f"{matrix.rows}x{matrix.cols}".encode())
    h.update(np.ascontiguousarray(matrix.row_ptr).tobytes())
    h.update(np.ascontiguousarray(matrix.col_idx).tobytes())
    h.update(np.ascontiguousarray(matrix.values).tobytes())
    return h.hexdigest()[:16]


def cell_options(algorithm: str, options):
    """The pipeline options a cell of ``algorithm`` runs with.

    A registered backend (``ac-spgemm`` included) takes the campaign's
    ``options``; a fixed-function baseline always runs stock (None).
    The worker runs a cell with these.
    """
    return options if options is not None and is_backend(algorithm) else None


def cell_key(
    cell: CellSpec, matrix_fp: str, config: CampaignConfig
) -> str:
    """Content address of one cell's result.

    Hashes the matrix fingerprint, the options/engine fingerprint,
    :data:`CACHE_VERSION` and the cell coordinates, so checkpoints
    survive only as long as they would be reproduced bit-identically.
    """
    payload = "|".join(
        (
            matrix_fp,
            config.options_fingerprint(),
            str(CACHE_VERSION),
            cell.algorithm,
            cell.dtype,
            "verify" if config.verify else "noverify",
        )
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:20]


def plan_document(config: CampaignConfig) -> str:
    """The serialized plan written to ``plan.json`` (byte-stable)."""
    return json.dumps(
        {
            "format": 1,
            "cache_version": CACHE_VERSION,
            "config": config.to_json(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
