"""The unified client API: sessions, futures, and the shared plan IR.

``repro.api`` is the one stable surface callers program against,
whatever executes underneath:

* :class:`PimSession` — submit (``scan`` / ``conjunction`` /
  ``range_count`` / ``append`` / ``update`` / ``delete``, or any request
  from :mod:`repro.service.requests` and :mod:`repro.storage.requests`
  through ``submit``), :class:`Future` handles, one :class:`Response`
  shape, one :class:`SessionReport` roll-up;
* :class:`Backend` — the ``offer`` / ``advance_to`` / ``drain``
  protocol every tier speaks
  (:class:`~repro.service.frontend.ServiceFrontend`,
  :class:`~repro.cluster.frontend.ClusterFrontend`, and the serial
  :class:`HostBackend` baseline);
* :mod:`repro.api.plans` — the shared conjunction lowering both tiers
  run (:func:`lower_conjunction_steps`).

The exported names below are pinned by ``tests/test_api_surface.py``;
additions are deliberate API growth, removals are breaking changes.
"""

from repro.api.backends import Backend, HostBackend
from repro.api.plans import SCAN_KINDS, lower_conjunction_steps
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
    "Backend",
    "ClusterDetails",
    "Future",
    "HostBackend",
    "HostDetails",
    "PimSession",
    "RequestFailed",
    "RequestRejected",
    "Response",
    "ResponseDetails",
    "SCAN_KINDS",
    "ServiceDetails",
    "SessionReport",
    "ShardUnavailable",
    "lower_conjunction_steps",
]
