"""SpGEMM-as-a-service: the overload-tolerant serve daemon.

``repro serve`` runs the ``batched`` pipeline in-process behind a
hardened admission pipeline: bounded queue, deadlines, a result cache,
and a circuit breaker that degrades to the global-ESC fallback.  See
:mod:`repro.serve.core` for the policy and :mod:`repro.serve.server`
for the HTTP transport.
"""

from .core import ServeConfig, ServeCore
from .server import ReproServer, make_server, run_server

__all__ = [
    "ReproServer",
    "ServeConfig",
    "ServeCore",
    "make_server",
    "run_server",
]
