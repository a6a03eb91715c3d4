"""Smoke test of the benchmark at tiny sizes (about two minutes).

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("estimate.mle_iterations", "estimate.mle_boundary_hits", "estimate.mle_zero_iterations")


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", "--compare", "/dev/null"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit_and_no_failures(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # error_rate = failed / attempted
    assert result["attempted"] > 0 and result["failed"] == 0 and result["correct"]
    if trace:
        # self times of a segment's spans add up to its traced wall time
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for segment in ("crb", "sweep", "mc", "cli"):
            self_ms = sum(v for k, v in values.items() if k.startswith(f"{segment}.") and k.endswith(".self_ms"))
            traced_ms = values[f"{segment}.untraced_ms"] + values[f"{segment}.trace_overhead_ms"]
            assert self_ms == pytest.approx(traced_ms, rel=0.02)


def test_exact_counts_repeat_for_a_seed():
    first, second = (result_of(run("crb", 1))["metrics"] for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"]
    assert first["estimate.mle_iterations"]["value"] > 0


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
