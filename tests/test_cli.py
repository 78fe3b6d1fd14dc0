import json
import subprocess
import sys

import numpy as np
import pytest

from qcgrad.cli import _build_parser, main
from qcgrad.trainer import GRADIENT_METHODS


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


def test_rerun_reproduces_bench_list_config(tmp_path, capsys):
    out = tmp_path / "first"
    assert run_cli(
        ["bench", "--methods", "backprop", "--depth-sweep", "0", "--qubit-sweep", "2",
         "--seed", "3", "--out-dir", str(out)]
    ) == 0
    rerun_out = tmp_path / "second"
    assert run_cli(["rerun", str(out / "manifest.json"), "--out-dir", str(rerun_out)]) == 0
    columns = lambda path: [line.split(",")[:4] for line in path.read_text().splitlines()]
    assert columns(out / "bench.csv") == columns(rerun_out / "bench.csv")
    first = json.loads((out / "manifest.json").read_text())
    second = json.loads((rerun_out / "manifest.json").read_text())
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second
    assert first["config"]["methods"] == ["backprop"] and first["config"]["depth_sweep"] == [0]


@pytest.mark.parametrize("command", ["regress", "classify", "bench"])
def test_negative_seed_is_usage_error(command, tmp_path, capsys):
    assert run_cli([command, "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", ["missing", "unknown"])
def test_rerun_manifest_config_keys_are_checked(case, tmp_path, capsys):
    out = tmp_path / "first"
    assert run_cli(
        ["regress", "--target", "linear", "--samples", "12", "--iters", "2",
         "--qubits", "2", "--depth", "0", "--seed", "7", "--out-dir", str(out)]
    ) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    if case == "missing":
        manifest["config"] = {"iters": 2}
    else:
        # a key the command does not have would be dropped from the rerun's manifest
        manifest["config"]["volume"] = 11
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli(["rerun", str(out / "manifest.json"), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    if case == "missing":
        missing = err.split("lacks", 1)[1]
        assert "target" in missing and "seed" in missing and "iters" not in missing
    else:
        assert "has unknown key 'volume'" in err
    assert not (tmp_path / "out").exists()


def test_rerun_manifest_command_not_a_string_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": ["regress"], "config": {}}))
    assert run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "cannot be re-run" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_rerun_manifest_bad_config_value_is_usage_error(tmp_path, capsys):
    out = tmp_path / "first"
    assert run_cli(
        ["regress", "--target", "linear", "--samples", "12", "--iters", "2",
         "--qubits", "2", "--depth", "0", "--seed", "7", "--out-dir", str(out)]
    ) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["noise"] = "x"
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli(["rerun", str(out / "manifest.json"), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "--noise: invalid float value: 'x'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli(["gradcheck", "--qubits", "2", "--depth", "1", "--trials", "6", "--seed", "0",
                    "--out-dir", str(out)])
    assert code == 0
    assert "max abs deviation" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gradcheck"
    assert manifest["artifacts"] == ["gradcheck.json", "manifest.json"]
    # the per-trial generator seeds, not the training commands' {dataset, init}
    assert manifest["seeds"] == [[0, trial] for trial in range(6)]


def test_gradcheck_zero_tolerance_fails(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli(
        ["gradcheck", "--qubits", "2", "--depth", "1", "--trials", "3",
         "--seed", "0", "--tolerance", "0", "--out-dir", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "violation: {'trial': 0, 'seed': [0, 0]" in err and "numeric failure" in err
    # a failed check still leaves its report and manifest
    assert json.loads((out / "gradcheck.json").read_text())["ok"] is False
    assert json.loads((out / "manifest.json").read_text())["command"] == "gradcheck"


@pytest.mark.parametrize(
    "flag,value", [("tolerance", "nan"), ("tolerance", "inf"), ("tolerance", "-1e-5"), ("trials", "0")]
)
def test_gradcheck_rejects_bad_settings(flag, value, tmp_path, capsys):
    # `scaled > nan` is never true, and 0 trials check nothing: both would report ok
    out = tmp_path / "gc"
    code = run_cli(["gradcheck", "--qubits", "2", "--depth", "0", "--trials", "2", f"--{flag}", value,
                    "--out-dir", str(out)])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_json_report(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli(
        ["gradcheck", "--qubits", "2", "--depth", "0", "--trials", "4", "--seed", "1",
         "--out-dir", str(out)]
    )
    assert code == 0
    report = json.loads((out / "gradcheck.json").read_text())
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
    # method-major: the depth cells at 4 qubits, then the qubit cells at depth 10
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["backprop", "4", "0"], ["backprop", "2", "10"], ["spsa", "4", "0"], ["spsa", "2", "10"]
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bench"


@pytest.mark.parametrize(
    "depths,qubits,message",
    [
        ("-1", "", "depth_l must be >= 0, got -1"),
        # the qubit sweep's (1, 10) cell cannot encode the 2-D moons
        ("0", "1", "2-D inputs need at least 2 qubits"),
    ],
    ids=["negative-depth", "one-qubit"],
)
def test_bench_rejects_an_impossible_cell_before_writing(depths, qubits, message, tmp_path, capsys):
    out = tmp_path / "bench"
    code = run_cli(["bench", "--methods", "backprop", "--depth-sweep", depths,
                    "--qubit-sweep", qubits, "--out-dir", str(out)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_methods_all_parses_to_every_gradient_method():
    parser = _build_parser()[0]
    assert parser.parse_args(["bench", "--methods", "all"]).methods == list(GRADIENT_METHODS)
    assert parser.parse_args(["bench", "--methods", "spsa, backprop"]).methods == ["spsa", "backprop"]


def test_bench_rejects_unknown_method(tmp_path, capsys):
    code = run_cli(["bench", "--methods", "sorcery", "--depth-sweep", "0",
                    "--qubit-sweep", "2", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "sorcery" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_config_flag_prefix_applies_the_file(tmp_path):
    # argparse reads --conf as --config, and so must the config file's reader
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters=2\nsamples=10\nqubits=2\ndepth=0\n")
    out = tmp_path / "a"
    assert run_cli(["regress", "--conf", str(cfg), "--out-dir", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["iters"], config["samples"], config["qubits"]) == (2, 10, 2)
    assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2


def test_empty_config_path_is_usage_error(tmp_path, capsys):
    assert run_cli(["regress", "--config=", "--out-dir", str(tmp_path / "a")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    assert run_cli(["regress", "--config", str(cfg)]) == 1
    # the CLI has no switches, so json=true is an unknown key like any other
    cfg.write_text("json=true\n")
    assert run_cli(["gradcheck", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
    # a line without "=" and every key that is not exactly a config key name
    # their file and line: argparse would read a prefix such as conf or it as
    # --config or --iters, and out_dir is where a run writes, not its config
    for text, where in (
        ("iters=2\nqubits 2\n", ":2: expected key=value, got 'qubits 2'"),
        ("config=other.cfg\n", ":1: unknown config key 'config'"),
        ("\nhelp=true\n", ":2: unknown config key 'help'"),
        ("conf=other.cfg\n", ":1: unknown config key 'conf'"),
        ("samples=10\nit=2\n", ":2: unknown config key 'it'"),
        ("out_dir=elsewhere\n", ":1: unknown config key 'out_dir'"),
    ):
        cfg.write_text(text)
        capsys.readouterr()
        assert run_cli(["regress", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert f"{cfg}{where}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment = not a key\n\n  iters=2\nsamples=10\nqubits=2\ndepth=0\n")
    out = tmp_path / "a"
    assert run_cli(["regress", "--config", str(cfg), "--out-dir", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["iters"], config["samples"], config["qubits"]) == (2, 10, 2)


def test_diverged_training_is_a_numeric_failure(tmp_path, capsys):
    # iteration 3 overflows (see test_trainer's lr = 1e308 run)
    args = ["regress", "--target", "linear", "--samples", "10", "--qubits", "2",
            "--depth", "1", "--lr", "1e308", "--out-dir", str(tmp_path / "a")]
    for iters in ("4", "5"):
        assert run_cli([*args, "--iters", iters]) == 2
        assert "numeric failure: iteration 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags",
    [
        ("regress", ["--seed", "--config", "--out-dir"]),
        ("classify", ["--seed", "--config", "--out-dir"]),
        ("gradcheck", ["--seed", "--config", "--out-dir"]),
        ("bench", ["--seed", "--config", "--out-dir"]),
        ("rerun", ["--out-dir"]),
    ],
)
def test_subcommand_help_lists_shared_flags(command, flags, capsys):
    assert run_cli([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in flags)


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "qcgrad", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "qcgrad" in proc.stdout
