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
        # Every kernel runs on the run_items pool; its ok carries the mode,
        # e.g. "ok [openmp]" or "ok [serial; openmp probe failed: ...]".
        for name in ("batchwalk", "epochbatch"):
            assert status[name].startswith("ok [")
            mode = status[name][len("ok ["):].split("]")[0].split(";")[0]
            assert mode in ("openmp", "pthreads", "serial")

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
        assert "native-batch/threading:" in text
        assert "native-epochbatch/threading:" in text
        assert "REPRO_NATIVE" in text


class TestThreadingProbe:
    """The OpenMP -> pthreads -> serial compile-probe fallback chain."""

    def test_no_compiler_means_serial(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        probe = native._threading_probe()
        assert probe["mode"] == "serial"
        assert probe["flags"] == ()
        assert probe["reason"] == (
            "no C compiler found ($CC, cc, gcc, clang)"
        )

    def test_openmp_wins_cleanly(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: "cc")
        monkeypatch.setattr(
            native, "_probe_compile", lambda cc, flags, source: None
        )
        probe = native._threading_probe()
        assert probe == {
            "flags": ("-fopenmp",), "mode": "openmp", "reason": None
        }

    def test_openmp_failure_falls_back_to_pthreads(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: "cc")

        def probe_compile(cc, flags, source):
            if "-fopenmp" in flags:
                return "omp.h: No such file or directory"
            return None

        monkeypatch.setattr(native, "_probe_compile", probe_compile)
        probe = native._threading_probe()
        assert probe["mode"] == "pthreads"
        assert probe["flags"] == ("-pthread", "-DREPRO_BATCH_PTHREADS")
        assert probe["reason"] == (
            "openmp probe failed: omp.h: No such file or directory"
        )

    def test_both_failures_fall_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: "cc")
        monkeypatch.setattr(
            native,
            "_probe_compile",
            lambda cc, flags, source: f"cannot use {flags[0]}",
        )
        probe = native._threading_probe()
        assert probe["mode"] == "serial"
        assert probe["flags"] == ()
        assert "openmp probe failed: cannot use -fopenmp" in probe["reason"]
        assert "pthread probe failed: cannot use -pthread" in probe["reason"]

    def test_probe_memoized_per_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(native, "_compiler", lambda: "cc")

        def probe_compile(cc, flags, source):
            calls.append(flags)
            return None

        monkeypatch.setattr(native, "_probe_compile", probe_compile)
        first = native._threading_probe()
        second = native._threading_probe()
        assert first is second
        assert calls == [("-fopenmp",)]

    def test_status_disabled_names_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        status = native.threading_status()
        assert status["mode"] == "serial"
        assert "REPRO_NATIVE" in status["reason"]
        assert "'0'" in status["reason"]

    def test_status_matches_the_compiled_object(self):
        if native.batch_walk_fn() is None:
            pytest.skip("batch kernel unavailable on this host")
        status = native.threading_status()
        fn = native._symbol("batchwalk", "repro_batch_threading")
        compiled = {2: "openmp", 1: "pthreads", 0: "serial"}[int(fn())]
        assert status["mode"] == compiled

    def test_flags_land_in_the_cache_digest(self, monkeypatch):
        """An OpenMP build and a serial build must not share a .so."""
        if native._compiler() is None:
            pytest.skip("no C compiler on this host")
        paths = {}
        for mode, flags in (
            ("serial", ()),
            ("threaded", ("-fopenmp",)),
        ):
            native.reset()
            monkeypatch.setattr(
                native, "_kernel_flags",
                lambda name, _f=flags: _f if name == "batchwalk" else (),
            )
            path, reason = native._build_library("batchwalk")
            if path is None:
                pytest.skip(f"batchwalk build failed: {reason}")
            paths[mode] = path
        assert paths["serial"] != paths["threaded"]


class TestSanitizerBuild:
    def test_sanitizer_flags_are_opt_in(self, monkeypatch):
        sanitize = ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain = native._kernel_flags("batchwalk")
        assert not set(sanitize) & set(plain)
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        assert native._kernel_flags("batchwalk") == plain + sanitize
        assert native._kernel_flags("epochbatch") == plain + sanitize
