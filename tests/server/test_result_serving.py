"""Zero-copy result artifacts through the serving stack.

The contract under test: a worker that publishes through the columnar
artifact path must serve **byte-identical** CSV to the legacy
render-and-pickle path, repeat fetches must come from the render cache
instead of re-rendering, and the on-disk artifacts must be reclaimed with
their resident entries.
"""

from __future__ import annotations

import csv
import io

from repro.client import Client
from repro.server.pool import execute_job
from tests.server.server_harness import ServerHandle
from tests.server.test_telemetry import parse_exposition, sample

SOURCE = {"kind": "synthetic", "dataset": "SAL", "n": 400, "dimension": 3}


def _spec(**overrides) -> dict:
    spec = {
        "algorithm": "TP+",
        "l": 4,
        "metrics": [],
        "shards": None,
        "backend": None,
        "seed": 0,
        "chunk_rows": None,
        "include_rows": True,
        "source": dict(SOURCE),
    }
    spec.update(overrides)
    return spec


def _legacy_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


class TestArtifactServing:
    def test_served_csv_is_byte_identical_to_legacy_pickled_path(
        self, client, tmp_path
    ):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        served = client.result_csv(job_id)
        # The same deterministic job through the historical path: no
        # ``result_artifact`` in the spec, so the worker renders and pickles
        # every row-string list.
        legacy = execute_job(_spec(), str(tmp_path / "legacy-ws"), False)
        assert "rows" in legacy and "result_artifact" not in legacy
        assert served == _legacy_csv(legacy["header"], legacy["rows"])

    def test_json_rows_match_legacy_and_payload_omits_them(
        self, server, client, tmp_path
    ):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        # The resident worker payload carries the artifact pointer, not the
        # n rendered row lists that used to ride through the pickle channel.
        payload = server.server._jobs[job_id]["result"]
        assert "rows" not in payload
        info = payload["result_artifact"]
        assert info["rows"] == SOURCE["n"] and info["bytes"] > 0
        # ... while the JSON view still materializes the historical shape.
        result = client.result(job_id)
        legacy = execute_job(_spec(), str(tmp_path / "legacy-ws"), False)
        assert result["header"] == legacy["header"]
        assert result["rows"] == legacy["rows"]

    def test_store_hit_serves_its_artifact_byte_identically(self, server, client):
        first = client.submit(source=dict(SOURCE), l=4)
        client.wait(first)
        repeat = client.submit(source=dict(SOURCE), l=4)
        client.wait(repeat)
        payload = server.server._jobs[repeat]["result"]
        assert payload["store_hit"]
        # The hit rebuilt the columnar form, so it took the zero-copy path.
        assert "rows" not in payload and "result_artifact" in payload
        assert client.result_csv(repeat).encode() == client.result_csv(first).encode()

    def test_repeat_csv_fetches_render_once(self, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        client.result_csv(job_id)
        samples = parse_exposition(client.telemetry_text())
        assert sample(samples, "repro_result_renders_total", format="csv") == 1.0
        assert sample(samples, "repro_result_cache_hits_total", format="csv") == 0.0
        for fetches in (1, 2):
            client.result_csv(job_id)
            samples = parse_exposition(client.telemetry_text())
            assert sample(samples, "repro_result_renders_total", format="csv") == 1.0
            assert (
                sample(samples, "repro_result_cache_hits_total", format="csv")
                == fetches
            )

    def test_artifact_bytes_gauge_tracks_resident_results(self, server, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        info = server.server._jobs[job_id]["result"]["result_artifact"]
        samples = parse_exposition(client.telemetry_text())
        assert sample(samples, "repro_result_artifact_bytes") == info["bytes"]


class TestArtifactLifecycle:
    def test_eviction_reclaims_the_artifact_directory(self, tmp_path):
        server = ServerHandle(
            workspace=tmp_path / "ws", workers=1, queue_cap=1, max_resident_jobs=1
        )
        try:
            client = Client(server.base_url, retries=5, backoff_seconds=0.05)
            first = client.submit(source=dict(SOURCE), l=4)
            client.wait(first)
            first_dir = server.server.workspace.results_dir / first
            assert first_dir.is_dir()
            # The resident table floor is queue_cap + workers + 1 = 3, so
            # three more terminal jobs push the first one out.
            for _ in range(3):
                client.wait(client.submit(source=dict(SOURCE), l=4))
            assert first not in server.server._jobs
            assert not first_dir.exists()
        finally:
            server.stop()

    def test_startup_clears_stale_artifacts(self, tmp_path):
        workspace = tmp_path / "ws"
        stale = workspace / "results" / "job-9999"
        stale.mkdir(parents=True)
        (stale / "meta.json").write_text("{}")
        server = ServerHandle(workspace=workspace, workers=1, queue_cap=2)
        try:
            # No ledger entry can ever serve job-9999 again: the orphan
            # directory is swept on boot.
            assert not stale.exists()
        finally:
            server.stop()
