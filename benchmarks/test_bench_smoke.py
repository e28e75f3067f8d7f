"""Tier-2 check: the engine-optimization smoke benchmark.

Runs scripts/bench_smoke.py as a subprocess (the way CI and humans run
it) and validates the artifact it writes: the optimized engine must beat
the seed-equivalent path while producing bitwise-identical results.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "bench_smoke.py")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    bench_dir = tmp_path_factory.mktemp("bench")
    out = bench_dir / "BENCH_engine.json"
    pack_out = bench_dir / "BENCH_tracepack.json"
    dynamic_out = bench_dir / "BENCH_dynamic.json"
    proc = subprocess.run(
        [
            sys.executable,
            SCRIPT,
            "--output",
            str(out),
            "--tracepack-output",
            str(pack_out),
            "--dynamic-output",
            str(dynamic_out),
            "--repeats",
            "2",
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as handle:
        engine = json.load(handle)
    with open(dynamic_out) as handle:
        dynamic = json.load(handle)
    return engine, dynamic


@pytest.fixture(scope="module")
def artifact(artifacts):
    return artifacts[0]


@pytest.fixture(scope="module")
def dynamic_artifact(artifacts):
    return artifacts[1]


class TestBenchSmoke:
    def test_artifact_shape(self, artifact):
        for key in (
            "benchmark",
            "apps",
            "wall_s",
            "speedup",
            "memo_hit_rate",
            "equivalent",
        ):
            assert key in artifact
        assert set(artifact["wall_s"]) == {"seed", "fast", "memo", "parallel_memo"}
        assert artifact["pairs"] == len(artifact["apps"]) ** 2

    def test_results_equivalent(self, artifact):
        """The script aborts if results diverge; the artifact records it."""
        assert artifact["equivalent"] is True
        assert artifact["max_rel_drift_vs_seed"] < 1e-5

    def test_optimizations_actually_help(self, artifact):
        assert artifact["speedup"] > 1.0
        assert artifact["wall_s"]["memo"] < artifact["wall_s"]["seed"]
        assert 0.0 < artifact["memo_hit_rate"] < 1.0


class TestDynamicBench:
    def test_artifact_shape(self, dynamic_artifact):
        assert dynamic_artifact["benchmark"] == "dynamic_epoch_replay"
        assert set(dynamic_artifact["static_4dom"]["wall_s"]) == {
            "python",
            "native",
        }
        assert set(dynamic_artifact["dynamic_2dom"]["wall_s"]) == {
            "python",
            "native",
        }

    def test_bit_identical(self, dynamic_artifact):
        """The script aborts on any divergence; the artifact records it."""
        assert dynamic_artifact["static_4dom"]["identical"] is True
        assert dynamic_artifact["dynamic_2dom"]["identical"] is True
        assert dynamic_artifact["dynamic_2dom"]["timeline_identical"] is True
        assert dynamic_artifact["dynamic_2dom"]["reallocations"] > 0

    def test_native_kernel_actually_faster(self, dynamic_artifact):
        """Loose floors for noisy CI boxes; the committed artifact holds
        the headline numbers (>=10x static, >=5x dynamic). Without a C
        compiler both arms run the same Python path, so no floor."""
        if not dynamic_artifact["native_kernel"]:
            pytest.skip("native kernels unavailable; arms are both Python")
        assert dynamic_artifact["static_4dom"]["speedup"] > 3.0
        assert dynamic_artifact["dynamic_2dom"]["speedup"] > 1.5
