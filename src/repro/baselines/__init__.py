"""Competing SpGEMM implementations (systems S12–S17 of DESIGN.md),
reimplemented on the shared simulated device for apples-to-apples
comparison with AC-SpGEMM."""

from .balanced_hash import BalancedHash
from .base import (
    ProductPlan,
    SpGEMMAlgorithm,
    SpGEMMRun,
    accumulate_products,
    expand_products,
)
from .bhsparse import BhSparse
from .cusparse_like import CusparseLike
from .esc_global import EscGlobal
from .gustavson import GustavsonCPU
from .kokkos_like import KokkosLike
from .mkl_like import MklLikeCPU
from .nsparse import NsparseHash
from .registry import GPU_ALGORITHMS, make_algorithm, make_lineup
from .rmerge import RMerge

__all__ = [
    "ALL_ALGORITHMS",
    "BalancedHash",
    "BhSparse",
    "CusparseLike",
    "EscGlobal",
    "GPU_ALGORITHMS",
    "GustavsonCPU",
    "KokkosLike",
    "MklLikeCPU",
    "NsparseHash",
    "ProductPlan",
    "RMerge",
    "SpGEMMAlgorithm",
    "SpGEMMRun",
    "accumulate_products",
    "expand_products",
    "make_algorithm",
    "make_lineup",
]


def __getattr__(name: str):
    if name == "ALL_ALGORITHMS":  # lists the backends, so resolved on use
        from .registry import ALL_ALGORITHMS

        return ALL_ALGORITHMS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
