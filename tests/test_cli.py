import json
import subprocess
import sys

import numpy as np
import pytest

from qcgrad.cli import main


def run_cli(args):
    return main(list(args))


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["regress", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_command_is_usage_error():
    assert run_cli([]) == 1


def test_regress_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        ["regress", "--target", "sine", "--samples", "20", "--iters", "5",
         "--qubits", "2", "--depth", "1", "--seed", "3", "--out-dir", str(out)]
    )
    assert code == 0
    assert "final R^2" in capsys.readouterr().out
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "iter,loss,r_squared"
    assert len(metrics) == 6
    predictions = (out / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "x,y_true,y_pred"
    assert len(predictions) == 1 + 201 + 20
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "regress"
    assert manifest["config"]["samples"] == 20
    assert set(manifest["artifacts"]) == {"metrics.csv", "predictions.csv", "manifest.json"}


def test_classify_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        ["classify", "--dataset", "circles", "--qubits", "2", "--depth", "1",
         "--samples", "20", "--iters", "3", "--seed", "1", "--out-dir", str(out)]
    )
    assert code == 0
    assert "final accuracy" in capsys.readouterr().out
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "iter,loss,accuracy"
    assert len(metrics) == 4
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "x1,x2,y1"
    assert len(grid) == 1 + 101 * 101
    points = (out / "points.csv").read_text().splitlines()
    assert points[0] == "x1,x2,label,y1,predicted_label"
    assert len(points) == 21


def test_rerun_reproduces_outputs_byte_identically(tmp_path):
    out = tmp_path / "first"
    assert run_cli(
        ["regress", "--target", "linear", "--samples", "12", "--iters", "4",
         "--qubits", "2", "--depth", "0", "--seed", "7", "--out-dir", str(out)]
    ) == 0
    rerun_out = tmp_path / "second"
    assert run_cli(["rerun", str(out / "manifest.json"), "--out-dir", str(rerun_out)]) == 0
    for name in ("metrics.csv", "predictions.csv"):
        assert (out / name).read_bytes() == (rerun_out / name).read_bytes()
    first = json.loads((out / "manifest.json").read_text())
    second = json.loads((rerun_out / "manifest.json").read_text())
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second


def test_rerun_missing_manifest_is_usage_error(tmp_path, capsys):
    assert run_cli(["rerun", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert "cannot read manifest" in err and len(err.strip().splitlines()) == 1


def test_rerun_manifest_without_config_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "regress"}))
    assert run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "no config" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_rerun_manifest_missing_config_keys_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "regress", "config": {"iters": 2}}))
    assert run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    missing = err.split("lacks", 1)[1]
    assert "target" in missing and "seed" in missing and "iters" not in missing
    assert not (tmp_path / "out").exists()


def test_gradcheck_passes_and_reports(capsys):
    code = run_cli(["gradcheck", "--qubits", "2", "--depth", "1", "--trials", "6", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max abs deviation" in out


def test_gradcheck_zero_tolerance_fails():
    code = run_cli(
        ["gradcheck", "--qubits", "2", "--depth", "1", "--trials", "3",
         "--seed", "0", "--tolerance", "0"]
    )
    assert code == 2


def test_gradcheck_json_report(capsys):
    code = run_cli(
        ["gradcheck", "--qubits", "2", "--depth", "0", "--trials", "4", "--seed", "1", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 4
    assert report["ok"] is True
    assert report["max_scaled_deviation"] < 1e-5


def test_bench_csv_row_count(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run_cli(
        ["bench", "--methods", "backprop,spsa", "--depth-sweep", "0",
         "--qubit-sweep", "2", "--seed", "0", "--out-dir", str(out)]
    )
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,n_qubits,depth_l,n_params,seconds_per_100_iters"
    assert len(lines) == 1 + 2 * 2  # |methods| * (|depth_sweep| + |qubit_sweep|)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bench"


def test_bench_rejects_unknown_method(tmp_path, capsys):
    code = run_cli(["bench", "--methods", "sorcery", "--depth-sweep", "0",
                    "--qubit-sweep", "2", "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters=4\nsamples=10\ntarget=linear\n")
    out = tmp_path / "a"
    assert run_cli(
        ["regress", "--config", str(cfg), "--qubits", "2", "--depth", "0",
         "--samples", "12", "--out-dir", str(out)]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["iters"] == 4  # from the config file
    assert manifest["config"]["samples"] == 12  # explicit flag wins
    assert manifest["config"]["target"] == "linear"


def test_config_file_sets_switches(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("json=true\ntrials=2\n")
    assert run_cli(["gradcheck", "--config", str(cfg), "--qubits", "2", "--depth", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2
    cfg.write_text("json=false\n")
    assert run_cli(["gradcheck", "--config", str(cfg)]) == 1


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    assert run_cli(["regress", "--config", str(cfg)]) == 1


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "qcgrad", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "qcgrad" in proc.stdout
