"""Algorithm registry: name -> line-up entry, as used by the benches.

``GPU_ALGORITHMS`` is the evaluation line-up of the paper's figures
(AC-SpGEMM, cuSPARSE, bhSparse, RMerge, nsparse, Kokkos).
``ALL_ALGORITHMS`` is every name :func:`make_algorithm` builds: the
fixed-function baselines of ``BASELINES`` plus the engines registered
in :mod:`repro.backends` (``ac-spgemm`` among them).
"""

from __future__ import annotations

from ..backends.registry import available_backends, is_backend
from ..core.options import AcSpgemmOptions
from ..gpu.config import DeviceConfig, TITAN_XP
from ..gpu.cost import CostConstants, DEFAULT_COSTS
from .base import SpGEMMAlgorithm
from .bhsparse import BhSparse
from .cusparse_like import CusparseLike
from .esc_global import EscGlobal
from .gustavson import GustavsonCPU
from .kokkos_like import KokkosLike
from .mkl_like import MklLikeCPU
from .nsparse import NsparseHash
from .rmerge import RMerge

__all__ = [
    "GPU_ALGORITHMS",
    "BASELINES",
    "ALL_ALGORITHMS",
    "make_algorithm",
]

GPU_ALGORITHMS: tuple[str, ...] = (
    "ac-spgemm", "cusparse", "bhsparse", "rmerge", "nsparse", "kokkos",
)

#: fixed-function cost models: they take no pipeline options
BASELINES: dict[str, type[SpGEMMAlgorithm]] = {
    cls.name: cls
    for cls in (
        CusparseLike, BhSparse, RMerge, NsparseHash, KokkosLike, EscGlobal,
        GustavsonCPU, MklLikeCPU,
    )
}


def __getattr__(name: str):
    # ``ALL_ALGORITHMS`` is resolved on use: listing the backends loads
    # their engine modules, which importing this module must not do
    if name == "ALL_ALGORITHMS":
        return tuple(BASELINES) + available_backends()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_algorithm(
    name: str,
    device: DeviceConfig = TITAN_XP,
    costs: CostConstants = DEFAULT_COSTS,
    options: AcSpgemmOptions | None = None,
) -> SpGEMMAlgorithm:
    """Instantiate a registered algorithm by name.

    A registered backend runs with ``options`` (the defaults for this
    device and cost model when None); a fixed-function baseline takes
    none and raises ``ValueError`` when given some.
    """
    cls = BASELINES.get(name)
    if cls is not None:
        if options is not None:
            raise ValueError(
                f"options only apply to a registered backend, not {name!r}"
            )
        return cls(device=device, costs=costs)
    if not is_backend(name):
        raise KeyError(
            f"unknown algorithm {name!r}; available: "
            f"{sorted(tuple(BASELINES) + available_backends())}"
        )
    # the adapter subclasses ``SpGEMMAlgorithm``: importing it here keeps
    # ``import repro.backends.adapter`` from finding this module half-built
    from ..backends.adapter import BackendAlgorithm

    return BackendAlgorithm(name, device=device, costs=costs, options=options)

