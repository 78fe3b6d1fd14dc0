"""Command-line experiment runner.

Subcommands: ``regress``, ``classify``, ``gradcheck``, ``bench``, and
``rerun`` (replay a saved manifest).  Every run writes CSV artifacts plus a
``manifest.json`` capturing the full configuration; re-running from the
manifest reproduces all non-timing outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import finite_difference_grad
from .bench import run_benchmark
from .circuit import AnsatzSpec
from .datasets import REGRESSION_KINDS, _target_fn, gen_circles, gen_function_dataset, gen_moons
from .heads import ClassificationHead, RegressionHead
from .trainer import (
    TrainConfig,
    TrainingDivergedError,
    predict_classification,
    predict_regression,
    r_squared,
    random_objective,
    train,
)

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2

BENCH_METHODS = ("backprop", "finite_difference", "spsa")

#: Config keys that each command's runner reads; the command's flags of the
#: same names fill them, and ``rerun`` requires them all.
CONFIG_KEYS = {
    "regress": ("target", "qubits", "depth", "samples", "noise", "lr", "iters", "seed"),
    "classify": ("dataset", "qubits", "depth", "samples", "gamma", "lr", "iters", "seed"),
    "gradcheck": ("qubits", "depth", "trials", "seed", "tolerance"),
    "bench": ("methods", "depth_sweep", "qubit_sweep", "seed"),
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(out_dir: Path, command: str, config: dict, seeds: dict, artifacts: list[str], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "artifacts": artifacts,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_regress(config: dict, out_dir: Path) -> float:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = gen_function_dataset(
        config["target"], config["samples"], config["noise"], config["seed"]
    )
    spec = AnsatzSpec(n_qubits=config["qubits"], depth_l=config["depth"], feature_dim=1)
    head = RegressionHead()
    cfg = TrainConfig(
        learning_rate=config["lr"], iterations=config["iters"], init_seed=config["seed"] + 1
    )
    result = train(dataset, spec, head, cfg)

    _write_csv(
        out_dir / "metrics.csv",
        ["iter", "loss", "r_squared"],
        (
            (i, result.loss_history[i], result.metric_history[i])
            for i in range(cfg.iterations)
        ),
    )

    grid = np.linspace(-1.0, 1.0, 201)
    grid_pred = predict_regression(grid[:, None], result.final_theta, spec, head)
    grid_true = _target_fn(config["target"], grid)
    train_pred = predict_regression(dataset.x, result.final_theta, spec, head)
    rows = [(x, t, p) for x, t, p in zip(grid, grid_true, grid_pred)]
    rows += [(x[0], t, p) for x, t, p in zip(dataset.x, dataset.targets, train_pred)]
    _write_csv(out_dir / "predictions.csv", ["x", "y_true", "y_pred"], rows)

    _write_manifest(
        out_dir,
        "regress",
        config,
        {"dataset": config["seed"], "init": config["seed"] + 1},
        ["metrics.csv", "predictions.csv", "manifest.json"],
    )
    final_r2 = r_squared(train_pred, dataset.targets)
    print(f"final R^2: {final_r2:.6f}")
    return final_r2


def run_classify(config: dict, out_dir: Path) -> float:
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = gen_circles if config["dataset"] == "circles" else gen_moons
    dataset = generator(count=config["samples"], seed=config["seed"])
    spec = AnsatzSpec(n_qubits=config["qubits"], depth_l=config["depth"], feature_dim=2)
    head = ClassificationHead(gamma=config["gamma"])
    cfg = TrainConfig(
        learning_rate=config["lr"],
        iterations=config["iters"],
        gamma=config["gamma"],
        init_seed=config["seed"] + 1,
    )
    result = train(dataset, spec, head, cfg)

    _write_csv(
        out_dir / "metrics.csv",
        ["iter", "loss", "accuracy"],
        (
            (i, result.loss_history[i], result.metric_history[i])
            for i in range(cfg.iterations)
        ),
    )

    axis = np.linspace(-1.0, 1.0, 101)
    mesh = np.column_stack([np.repeat(axis, axis.size), np.tile(axis, axis.size)])
    grid_y1 = predict_classification(mesh, result.final_theta, spec, head)
    _write_csv(
        out_dir / "grid.csv",
        ["x1", "x2", "y1"],
        ((mesh[i, 0], mesh[i, 1], grid_y1[i]) for i in range(len(mesh))),
    )

    train_y1 = predict_classification(dataset.x, result.final_theta, spec, head)
    labels = dataset.targets.astype(int)
    predicted = (train_y1 > 0.5).astype(int)
    _write_csv(
        out_dir / "points.csv",
        ["x1", "x2", "label", "y1", "predicted_label"],
        (
            (dataset.x[i, 0], dataset.x[i, 1], labels[i], train_y1[i], predicted[i])
            for i in range(len(dataset))
        ),
    )

    _write_manifest(
        out_dir,
        "classify",
        config,
        {"dataset": config["seed"], "init": config["seed"] + 1},
        ["metrics.csv", "grid.csv", "points.csv", "manifest.json"],
    )
    final_acc = float(np.mean(predicted == labels))
    print(f"final accuracy: {final_acc:.4f}")
    return final_acc


def run_gradcheck(config: dict) -> dict:
    """Random-instance backprop-vs-finite-difference comparison.

    A coordinate passes when |g_bp - g_fd| <= tolerance * max(1, |g_fd|),
    i.e. ``tolerance`` acts as both the absolute and the relative bound.
    """
    n, l = config["qubits"], config["depth"]
    tol = config["tolerance"]
    max_abs = 0.0
    max_scaled = 0.0
    failures = []
    for trial in range(config["trials"]):
        rng = np.random.default_rng([config["seed"], trial])
        classification = n >= 2 and trial % 2 == 1
        objective, theta = random_objective(rng, n, l, classification)
        _, _, g_bp = objective.backprop(theta)
        g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
        abs_dev = np.abs(g_bp - g_fd)
        scaled = abs_dev / np.maximum(1.0, np.abs(g_fd))
        max_abs = max(max_abs, float(abs_dev.max()))
        max_scaled = max(max_scaled, float(scaled.max()))
        bad = np.nonzero(scaled > tol)[0]
        if bad.size:
            failures.append(
                {
                    "trial": trial,
                    "seed": [config["seed"], trial],
                    "head": "classification" if classification else "regression",
                    "worst_coordinate": int(bad[np.argmax(scaled[bad])]),
                    "max_scaled_deviation": float(scaled.max()),
                }
            )
    return {
        "trials": config["trials"],
        "qubits": n,
        "depth": l,
        "tolerance": tol,
        "max_abs_deviation": max_abs,
        "max_scaled_deviation": max_scaled,
        "failures": failures,
        "ok": not failures,
    }


def run_bench(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = gen_moons(count=200, noise_sigma=0.0, seed=config["seed"])
    cfg = TrainConfig(iterations=100, init_seed=config["seed"] + 1)
    records = run_benchmark(
        config["methods"], config["depth_sweep"], config["qubit_sweep"], dataset, cfg
    )
    _write_csv(
        out_dir / "bench.csv",
        ["method", "n_qubits", "depth_l", "n_params", "seconds_per_100_iters"],
        (
            (r.method, r.n_qubits, r.depth_l, r.n_params, r.seconds_per_100_iterations)
            for r in records
        ),
    )
    failed = [
        {"method": r.method, "n_qubits": r.n_qubits, "depth_l": r.depth_l, "error": r.error}
        for r in records
        if r.error
    ]
    for cell in failed:
        print(f"failed cell: {cell}", file=sys.stderr)
    _write_manifest(
        out_dir,
        "bench",
        config,
        {"dataset": config["seed"], "init": config["seed"] + 1},
        ["bench.csv", "manifest.json"],
        extra={"failed_cells": failed} if failed else None,
    )
    for r in records:
        print(
            f"{r.method:18s} n={r.n_qubits} l={r.depth_l:2d} params={r.n_params:3d} "
            f"{r.seconds_per_100_iterations:.3f} s / 100 iters"
        )


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for numeric failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _csv_methods(text: str) -> list[str]:
    if text == "all":
        return list(BENCH_METHODS)
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="qcgrad", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcgrad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subparsers = {}

    rg = sub.add_parser("regress", help="train a 1-D regression circuit")
    rg.add_argument("--target", choices=REGRESSION_KINDS, default="square")
    rg.add_argument("--qubits", type=int, default=3)
    rg.add_argument("--depth", type=int, default=3)
    rg.add_argument("--samples", type=int, default=100)
    rg.add_argument("--noise", type=float, default=0.015)
    rg.add_argument("--lr", type=float, default=0.1)
    rg.add_argument("--iters", type=int, default=200)
    rg.add_argument("--seed", type=int, default=0)
    rg.add_argument("--out-dir", default="runs/regress")
    rg.add_argument("--config", default=None, help="key=value defaults file; flags win")
    rg.set_defaults(func=cmd_regress)
    subparsers["regress"] = rg

    cl = sub.add_parser("classify", help="train a 2-D binary classifier circuit")
    cl.add_argument("--dataset", choices=("circles", "moons"), default="circles")
    cl.add_argument("--qubits", type=int, default=4)
    cl.add_argument("--depth", type=int, default=6)
    cl.add_argument("--samples", type=int, default=200)
    cl.add_argument("--gamma", type=float, default=1.0)
    cl.add_argument("--lr", type=float, default=0.1)
    cl.add_argument("--iters", type=int, default=200)
    cl.add_argument("--seed", type=int, default=0)
    cl.add_argument("--out-dir", default="runs/classify")
    cl.add_argument("--config", default=None, help="key=value defaults file; flags win")
    cl.set_defaults(func=cmd_classify)
    subparsers["classify"] = cl

    gc = sub.add_parser("gradcheck", help="compare backprop against finite differences")
    gc.add_argument("--qubits", type=int, default=3)
    gc.add_argument("--depth", type=int, default=3)
    gc.add_argument("--trials", type=int, default=50)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-5)
    gc.add_argument("--json", action="store_true", help="machine-readable report")
    gc.add_argument("--config", default=None, help="key=value defaults file; flags win")
    gc.set_defaults(func=cmd_gradcheck)
    subparsers["gradcheck"] = gc

    bn = sub.add_parser("bench", help="time gradient methods across depth/qubit sweeps")
    bn.add_argument("--methods", type=_csv_methods, default=list(BENCH_METHODS))
    bn.add_argument("--depth-sweep", type=_csv_ints, default=[5, 10, 15, 20])
    bn.add_argument("--qubit-sweep", type=_csv_ints, default=[2, 3, 4, 5, 6])
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out-dir", default="runs/bench")
    bn.add_argument("--config", default=None, help="key=value defaults file; flags win")
    bn.set_defaults(func=cmd_bench)
    subparsers["bench"] = bn

    rr = sub.add_parser("rerun", help="replay a saved manifest")
    rr.add_argument("manifest", help="path to a manifest.json")
    rr.add_argument("--out-dir", default=None, help="defaults to <manifest dir>/rerun")
    rr.set_defaults(func=cmd_rerun)
    subparsers["rerun"] = rr

    return parser, subparsers


def _config_file_args(parser: _Parser, argv: list[str]) -> list[str]:
    """The key=value lines of the file named by --config, as ``--key=value`` flags.

    Placed before the explicit flags, they let argparse convert and check
    every value while the explicit flags still win.  ``key=true`` becomes
    the bare switch ``--key``.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    flags = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key in ("config", "help"):
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(f"--{key}" if value == "true" else f"--{key}={value}")
    return flags


def _config(args, command: str) -> dict:
    return {key: getattr(args, key) for key in CONFIG_KEYS[command]}


def cmd_regress(args) -> int:
    run_regress(_config(args, "regress"), Path(args.out_dir))
    return EXIT_OK


def cmd_classify(args) -> int:
    run_classify(_config(args, "classify"), Path(args.out_dir))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(_config(args, "gradcheck"))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"trials: {report['trials']}  max abs deviation: {report['max_abs_deviation']:.3e}  "
            f"max scaled deviation: {report['max_scaled_deviation']:.3e}  "
            f"tolerance: {report['tolerance']:.1e}"
        )
        for failure in report["failures"]:
            print(f"violation: {failure}", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_NUMERIC


def cmd_bench(args) -> int:
    for method in args.methods:
        if method not in BENCH_METHODS:
            print(f"unknown method {method!r}; expected one of {BENCH_METHODS}", file=sys.stderr)
            return EXIT_USAGE
    run_bench(_config(args, "bench"), Path(args.out_dir))
    return EXIT_OK


def cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir) if args.out_dir else manifest_path.parent / "rerun"
    runners = {"regress": run_regress, "classify": run_classify, "bench": run_bench}
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command not in runners:
        print(f"manifest command {command!r} cannot be re-run", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(manifest.get("config"), dict):
        print(f"manifest {manifest_path} has no config object", file=sys.stderr)
        return EXIT_USAGE
    missing = [key for key in CONFIG_KEYS[command] if key not in manifest["config"]]
    if missing:
        print(f"manifest {manifest_path} config lacks {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    runners[command](manifest["config"], out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        if argv and argv[0] in subparsers:
            argv[1:1] = _config_file_args(subparsers[argv[0]], argv[1:])
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TrainingDivergedError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
