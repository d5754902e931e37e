"""Shared fixtures for the server tests: a loopback server on a thread.

The event loop runs on a background thread; tests drive the server through
the real TCP socket with :class:`repro.client.Client`, so every test
exercises the full parse -> route -> pool -> ledger path.  Jobs execute on a
*thread* executor (not the production process pool) to keep the suite fast;
cross-process store-hit semantics are preserved because each executor thread
keeps its own run store and refreshes it from the shared file before every
job, as each pool process does (and ``scripts/load_smoke.py`` covers the
real process pool end to end).
"""

from __future__ import annotations

import pytest
from server_harness import ServerHandle

from repro.client import Client


@pytest.fixture
def server(tmp_path):
    """A small loopback server over a fresh workspace."""
    handle = ServerHandle(
        workspace=tmp_path / "server-ws", workers=2, queue_cap=8
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    return Client(server.base_url, client_id="pytest", retries=3, backoff_seconds=0.01)


@pytest.fixture
def hospital_rows(hospital):
    """The paper's Table 1 as decoded row dicts plus its qi/sa names."""
    rows = [
        {key: str(value) for key, value in hospital.decoded_record(index).items()}
        for index in range(len(hospital))
    ]
    return rows, list(hospital.schema.qi_names), hospital.schema.sensitive.name
