"""Host provenance — the context block every benchmark result embeds."""

import json

from repro.perf.host import host_provenance


class TestHostProvenance:
    def test_payload_is_json_ready(self):
        payload = host_provenance()
        assert json.loads(json.dumps(payload)) == payload

    def test_resolved_parallelism_is_reported(self):
        """The artifact answers "how parallel was it actually?" even
        when no REPRO_* variable was set."""
        payload = host_provenance()
        workers = payload["resolved_workers"]
        threads = payload["resolved_native_threads"]
        assert isinstance(workers, int) and workers >= 1
        assert isinstance(threads, int) and threads >= 1

    def test_env_knobs_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        payload = host_provenance()
        assert payload["env"]["REPRO_WORKERS"] == "3"
        assert payload["env"]["REPRO_NATIVE_THREADS"] == "2"
        assert payload["resolved_workers"] == 3
        assert payload["resolved_native_threads"] == 2

    def test_kernel_and_threading_status_present(self):
        payload = host_provenance()
        assert payload["threading_mode"] in ("pthreads", "serial")
        assert isinstance(payload["kernel_status"], dict)

    def test_epochbatch_kernel_status_is_reported(self):
        """dynbatch artifacts must record the epoch-batch kernel's
        compile status."""
        payload = host_provenance()
        assert set(payload["kernel_status"]) == {"batchwalk", "epochbatch"}
        assert "threading_by_kernel" not in payload
