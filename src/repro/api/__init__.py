"""The unified client API: sessions, futures, and the shared plan IR.

``repro.api`` is the one stable surface callers program against,
whatever executes underneath:

* :class:`PimSession` — declarative submit (``scan`` / ``conjunction`` /
  ``range_count``), :class:`Future` handles, one :class:`Response`
  shape, one :class:`SessionReport` roll-up;
* :class:`Backend` — the ``offer`` / ``advance_to`` / ``drain``
  protocol every tier speaks
  (:class:`~repro.service.frontend.ServiceFrontend`,
  :class:`~repro.cluster.frontend.ClusterFrontend`, and the serial
  :class:`HostBackend` baseline);
* :mod:`repro.api.plans` — the shared plan IR both tiers lower through
  (:class:`ScanSpec`, :class:`ConjunctionSpec`,
  :func:`lower_conjunction_steps`).

The exported names below are pinned by ``tests/test_api_surface.py``;
additions are deliberate API growth, removals are breaking changes.
"""

from repro.api.backends import Backend, HostBackend
from repro.api.plans import (
    SCAN_KINDS,
    AppendSpec,
    ConjunctionSpec,
    DeleteSpec,
    QuerySpec,
    ScanSpec,
    UpdateSpec,
    WriteSpec,
    lower_conjunction_steps,
    range_count_spec,
    spec_for_request,
)
from repro.api.session import (
    ClusterDetails,
    Future,
    HostDetails,
    PimSession,
    RequestFailed,
    RequestRejected,
    Response,
    ResponseDetails,
    ServiceDetails,
    SessionReport,
    ShardUnavailable,
)

__all__ = [
    "AppendSpec",
    "Backend",
    "ClusterDetails",
    "ConjunctionSpec",
    "DeleteSpec",
    "Future",
    "HostBackend",
    "HostDetails",
    "PimSession",
    "QuerySpec",
    "RequestFailed",
    "RequestRejected",
    "Response",
    "ResponseDetails",
    "SCAN_KINDS",
    "ScanSpec",
    "ServiceDetails",
    "SessionReport",
    "ShardUnavailable",
    "UpdateSpec",
    "WriteSpec",
    "lower_conjunction_steps",
    "range_count_spec",
    "spec_for_request",
]
