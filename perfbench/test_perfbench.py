"""The benchmark's own test: every workload at a reduced size.

Checks the output contract (every metric named in BENCHMARK.json, with its
unit), that no op fails at the default seed, that the traced self times
account for the traced wall time, and that the benchmark refuses to run
without the package sources.  It asserts no timings.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIMULATION_WORKLOADS = ("sweep-single", "sweep-two", "calibrate")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result: dict, spec: list[dict]) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    return {k: v["value"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = parse(run_bench(workload, trace=0))
    values = check_metrics(result, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())
    assert report["end_to_end"]["failed_frac"]["value"] == 0.0
    env = report["environment"]
    for key in ("backend", "python", "numpy", "scipy", "nproc", "git_sha", "loadavg_at_start"):
        assert key in env
    if workload.startswith("sweep"):
        assert len(report["csv_sha256"]) == 1  # every iteration wrote the same bytes
        assert any(k.startswith("err_pct.") for k in report["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, result = parse(run_bench(workload, trace=1))
    values = check_metrics(result, SPEC["per_layer"])
    modules = [k for k in values if k.count(".") == 1 and k.endswith(".self_s")
               and not k.startswith("trace.")]
    attributed = sum(values[k] for k in modules)
    assert attributed + values["trace.unattributed_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-6)
    if workload in SIMULATION_WORKLOADS:
        # the CLI entry point is traced, so nearly all time sits in known spans
        assert values["stochastic.sample_stream.calls"] > 0
        assert values["kernels.lindley_system_times.ns_per_update"] > 0
        assert 0.0 <= values["trace.unattributed_s"] < 0.05 * values["trace.wall_s"]
    else:
        assert values["robust_bounds.calls"] > 0
        assert values["kernels.exact_two_max.ns_per_grid_point"] > 0
    if workload == "calibrate":
        assert 0.0 < values["calibration.rows_kept_frac"] <= 1.0
        assert values["calibration.invert_gamma_s.bound_evals_per_call"] > 1
    if workload == "sweep-single":
        assert values["calibration.map_variability.clamped_frac"] == pytest.approx(7 / 16)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("sweep-single", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
