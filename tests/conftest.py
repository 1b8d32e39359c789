"""Shared pytest fixtures.

The fixtures provide deliberately *small* device configurations so that the
functional paths (real bytes moving through simulated banks) stay fast even
when exercised by hundreds of tests; the analytical paths are configuration
independent and are tested against the full-size presets directly.
"""

from __future__ import annotations

import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters


@pytest.fixture
def small_geometry() -> DramGeometry:
    """A tiny DRAM organization for functional tests (2 banks, 64 B rows)."""
    return DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=2,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )


@pytest.fixture
def small_device(small_geometry) -> DramDevice:
    """A functional DRAM device built on the tiny geometry."""
    return DramDevice(
        small_geometry,
        DramTimingParameters.ddr3_1600(),
        DramEnergyParameters.ddr3_1600(),
    )


@pytest.fixture
def small_ambit(small_device) -> AmbitEngine:
    """An Ambit engine bound to the tiny functional device."""
    return AmbitEngine(small_device, AmbitConfig(banks_parallel=2))


@pytest.fixture
def ddr3_device() -> DramDevice:
    """The full-size DDR3-1600 preset (used by analytical tests)."""
    return DramDevice.ddr3()


@pytest.fixture(scope="session")
def serve():
    """Serve an arrival stream through a fresh session over ``backend``.

    ``serve(backend, events, name="session")`` submits the stream, drains
    it, and returns ``(report, records)``: the session's report and every
    request's envelope, in event order.
    """

    def _serve(backend, events, name="session"):
        session = PimSession(backend, name=name)
        futures = session.submit_stream(events)
        session.drain()
        return session.report(), [future.record for future in futures]

    return _serve
