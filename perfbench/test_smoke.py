"""Smoke test of the benchmark itself: python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at a tiny size, traced and untraced, and must print
every metric BENCHMARK.json names, with its unit, in a correct result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from calibration import REF_S, HostClock  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_matches_run_py():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: [m["unit"], m["better"]] for m in SPEC["per_layer"]} == {
        k: list(v) for k, v in run.PER_LAYER.items()
    }


def test_host_clock_scales_by_reference_over_kernel_time():
    clock = HostClock()
    clock.mark()
    factor = clock.scale()
    assert len(clock.samples) == 2
    assert factor == pytest.approx(REF_S / (sum(clock.samples) / 2))


def test_missing_probe_target_reads_zero_calls():
    qcgrad = run.import_qcgrad()
    tracer = Tracer([Probe("qcgrad.state:no_such_kernel", "gone"),
                     Probe("qcgrad.trainer:NoSuchClass.loss", "gone.method"),
                     Probe("qcgrad.no_such_module:f", "gone.module"),
                     Probe("qcgrad.datasets:gen_moons", "datasets.gen_moons")])
    tracer.install()
    try:
        qcgrad.gen_moons(count=4)
    finally:
        tracer.uninstall()
    assert len(tracer.missing) == 3
    assert tracer.counts == {"datasets.gen_moons": 1}
    assert qcgrad.gen_moons is qcgrad.datasets.gen_moons  # originals restored


def test_fails_without_result_when_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "bp-deep", "--seed", "0", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
