"""The HTTP front door over the unified :class:`CubeBackend` API.

Sub-modules:

- :mod:`repro.server.model` — the logical cube model: named cubes,
  dimensions and level hierarchies as JSON metadata, bound to physical
  lattice coordinates at registration time;
- :mod:`repro.server.http` — the transport-independent API core
  (:class:`X3Api`) plus the stdlib ``ThreadingHTTPServer`` wrapper
  (:class:`X3HttpServer`), with bearer-token auth and bounded-admission
  backpressure;
- :mod:`repro.server.loadgen` — the deterministic closed-loop load
  generator that drives a live front door and reports latency
  distributions on both time bases;
- :mod:`repro.server.cli` — what ``x3 server`` runs over its backend.
"""

from repro.server.http import (
    AdmissionController,
    ApiResponse,
    TenantAuth,
    X3Api,
    X3HttpServer,
)
from repro.server.loadgen import LoadGenerator, LoadReport
from repro.server.model import (
    BoundCube,
    CubeCatalog,
    LogicalCube,
    LogicalDimension,
)

__all__ = [
    "AdmissionController",
    "ApiResponse",
    "BoundCube",
    "CubeCatalog",
    "LoadGenerator",
    "LoadReport",
    "LogicalCube",
    "LogicalDimension",
    "TenantAuth",
    "X3Api",
    "X3HttpServer",
]
