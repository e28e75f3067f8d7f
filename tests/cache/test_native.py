"""The native-kernel loader: best-effort, but never silent.

Every unavailability path must leave a human-readable reason behind so
``kernel_status`` (and through it ``format_engine_stat`` / ``repro
trace-sweep --engine-stat``) can answer "why is native off?".
"""

import pytest

from repro.cache import native


@pytest.fixture(autouse=True)
def _fresh_loader(monkeypatch, tmp_path):
    """Private cache dir and a clean memo around every test."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    native.reset()
    yield
    native.reset()


class TestKernelStatus:
    def test_reports_every_kernel(self):
        status = native.kernel_status()
        assert set(status) == {"batchwalk", "epochbatch"}

    def test_ok_when_compiled(self):
        if native.epoch_batch_fn() is None:
            pytest.skip("no C compiler on this host")
        status = native.kernel_status()
        # Every kernel runs on the run_items pthread pool.
        assert status == {"batchwalk": "ok [pthreads]",
                          "epochbatch": "ok [pthreads]"}

    def test_disabled_reason_names_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        assert native.batch_walk_fn() is None
        assert native.epoch_batch_fn() is None
        for reason in native.kernel_status().values():
            assert "REPRO_NATIVE" in reason and "'0'" in reason

    def test_missing_compiler_reason(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        status = native.kernel_status()
        assert status["epochbatch"] == (
            "no C compiler found ($CC, cc, gcc, clang)"
        )

    def test_compile_failure_reason_recorded_once(self, monkeypatch):
        calls = []
        real = native._build_library

        def broken(name):
            calls.append(name)
            return None, "cc failed: synthetic diagnostic"

        monkeypatch.setattr(native, "_build_library", broken)
        assert native.epoch_batch_fn() is None
        assert native.epoch_batch_fn() is None  # memoized, not retried
        assert calls == ["epochbatch"]
        assert (
            native.kernel_status()["epochbatch"]
            == "cc failed: synthetic diagnostic"
        )
        monkeypatch.setattr(native, "_build_library", real)
        # Still the memoized failure until an explicit reset.
        assert native.epoch_batch_fn() is None
        native.reset()
        if native._compiler() is not None:
            assert native.epoch_batch_fn() is not None

    def test_reason_lands_in_engine_stat(self, monkeypatch):
        from repro.perf.stat import format_engine_stat

        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        text = format_engine_stat()
        assert "native-kernel/batchwalk:" in text
        assert "native-kernel/epochbatch:" in text
        assert "/threading:" not in text
        assert "REPRO_NATIVE" in text


class TestThreadingProbe:
    """``threading_status``: loading a kernel is the probe, and the pthread
    pool is the only threading a loaded kernel has."""

    def test_no_compiler_means_serial(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        status = native.threading_status()
        assert status == {
            "mode": "serial",
            "reason": "no C compiler found ($CC, cc, gcc, clang)",
        }

    def test_failed_pthread_build_leaves_the_kernels_off(self, monkeypatch):
        """A compiler that cannot build with ``-pthread`` is a failed
        compile: the kernel is unavailable and the status says why."""
        import subprocess

        def no_pthread(cmd, **kwargs):
            assert "-pthread" in cmd
            return subprocess.CompletedProcess(
                cmd, 1, b"", b"cc: error: unrecognized option '-pthread'"
            )

        monkeypatch.setattr(native, "_compiler", lambda: "cc")
        monkeypatch.setattr(native.subprocess, "run", no_pthread)
        assert native.epoch_batch_fn() is None
        status = native.threading_status("epochbatch")
        assert status["mode"] == "serial"
        assert status["reason"] == (
            "cc failed: cc: error: unrecognized option '-pthread'"
        )

    def test_status_disabled_names_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        status = native.threading_status()
        assert status["mode"] == "serial"
        assert "REPRO_NATIVE" in status["reason"]
        assert "'0'" in status["reason"]

    def test_status_matches_the_compiled_object(self):
        """Every compiled object holds the one pthread pool."""
        if native.batch_walk_fn() is None:
            pytest.skip("batch kernel unavailable on this host")
        for name in ("batchwalk", "epochbatch"):
            assert native.threading_status(name) == {
                "mode": "pthreads", "reason": None,
            }

    def test_status_loads_the_kernel(self, monkeypatch):
        """After a reset, ``threading_status("epochbatch")`` loads that
        kernel, so a later ``epoch_batch_fn()`` is a memo hit: a caller
        can keep the load out of what it times."""
        if native._compiler() is None:
            pytest.skip("no C compiler on this host")
        native.reset()
        assert native.threading_status("epochbatch") == {
            "mode": "pthreads", "reason": None,
        }
        calls = []
        monkeypatch.setattr(
            native, "_build_library",
            lambda name: calls.append(name) or (None, "rebuilt"),
        )
        assert native.epoch_batch_fn() is not None
        assert calls == []

    def test_flags_land_in_the_cache_digest(self, monkeypatch):
        """A sanitizer build and a plain build must not share a .so."""
        if native._compiler() is None:
            pytest.skip("no C compiler on this host")
        paths = {}
        for mode, sanitize in (("plain", "0"), ("sanitized", "1")):
            monkeypatch.setenv("REPRO_NATIVE_SANITIZE", sanitize)
            native.reset()
            path, reason = native._build_library("batchwalk")
            if path is None:
                pytest.skip(f"batchwalk build failed: {reason}")
            paths[mode] = path
        assert paths["plain"] != paths["sanitized"]


class TestBuildLibrary:
    def test_failed_build_leaves_no_object_behind(self, monkeypatch,
                                                  tmp_path):
        """A compiler that times out (or any other raised failure) must
        not leave its temporary ``.so`` in the cache directory."""
        import subprocess

        def timeout(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(native, "_compiler", lambda: "cc")
        monkeypatch.setattr(native.subprocess, "run", timeout)
        path, reason = native._build_library("batchwalk")
        assert path is None
        assert reason.startswith("compile error:") and "timed out" in reason
        assert not list((tmp_path / "traces").rglob("*.so"))


class TestSanitizerBuild:
    def test_sanitizer_flags_are_opt_in(self, monkeypatch):
        sanitize = ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        assert native._kernel_flags() == ("-pthread",)
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        assert native._kernel_flags() == ("-pthread",) + sanitize
