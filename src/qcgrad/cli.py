"""Command-line experiment runner.

Every command but ``rerun`` is a runner in :data:`RUNNERS`: config in,
artifacts plus a ``manifest.json`` holding that config out, written to
``--out-dir`` (default ``runs/<command>``).  ``regress`` and ``classify``
train and write CSVs, ``bench`` times the gradient methods into
``bench.csv``, and ``gradcheck`` compares backprop against finite
differences, writes its report to ``gradcheck.json`` and prints a summary
line and a ``violation:`` line per failed trial.  Each takes ``--seed`` and
``--config``, a file of ``key=value`` lines.

A run's config is the parsed namespace less ``--config`` and ``--out-dir``,
and its keys (``seed``, ``iters``, ``depth_sweep``, ...) are all that a
config file or a manifest may set: any other key, a prefix included, is
rejected by exact name.  :func:`main` parses argv once; when that names a
config file, it parses again with the file's pairs as flags placed first,
so explicit flags win.  ``rerun`` turns a saved manifest's config into flags
the same way and re-enters :func:`main`, reproducing all non-timing outputs
byte for byte.

Exit codes: 0 success; 1 usage error or rejected setting, before anything
is written (an unknown config key, or a bench cell no circuit can have, such
as one qubit on 2-D inputs); 2 numeric failure (training diverged, in a
bench cell too, or a gradcheck trial exceeded its tolerance, after its
report and manifest were written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
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
    GRADIENT_METHODS,
    TrainConfig,
    predict,
    random_objective,
    train,
)

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(out_dir: Path, command: str, config: dict, artifacts: list[str], extra: dict | None = None) -> None:
    # seeds.dataset is the seed handed to the dataset generator.  The
    # classify and bench datasets are noise-free, and gen_moons and
    # gen_circles read their seed only for noise, so there it selects nothing
    manifest = {
        "command": command,
        "config": config,
        "seeds": {"dataset": config["seed"], "init": config["seed"] + 1},
        "artifacts": artifacts + ["manifest.json"],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _train_logged(dataset, head, config: dict, out_dir: Path) -> tuple[AnsatzSpec, np.ndarray, np.ndarray]:
    """Train on the config's circuit and schedule, write ``metrics.csv`` and
    print the head's final metric; (spec, final theta, outputs on the dataset)."""
    spec = AnsatzSpec(n_qubits=config["qubits"], depth_l=config["depth"], feature_dim=dataset.feature_dim)
    cfg = TrainConfig(learning_rate=config["lr"], iterations=config["iters"], init_seed=config["seed"] + 1)
    result = train(dataset, spec, head, cfg)
    _write_csv(
        out_dir / "metrics.csv",
        ["iter", "loss", head.metric_name],
        zip(range(cfg.iterations), result.loss_history, result.metric_history),
    )
    outputs = predict(dataset.x, result.final_theta, spec, head)
    print(head.metric_report.format(head.metric(outputs, dataset.targets)))
    return spec, result.final_theta, outputs


def run_regress(config: dict, out_dir: Path) -> None:
    dataset = gen_function_dataset(
        config["target"], config["samples"], config["noise"], config["seed"]
    )
    head = RegressionHead()
    spec, theta, train_pred = _train_logged(dataset, head, config, out_dir)
    grid = np.linspace(-1.0, 1.0, 201)
    grid_pred = predict(grid[:, None], theta, spec, head)
    rows = list(zip(grid, _target_fn(config["target"], grid), grid_pred))
    rows += zip(dataset.x[:, 0], dataset.targets, train_pred)
    _write_csv(out_dir / "predictions.csv", ["x", "y_true", "y_pred"], rows)
    _write_manifest(out_dir, "regress", config, ["metrics.csv", "predictions.csv"])


def run_classify(config: dict, out_dir: Path) -> None:
    generator = gen_circles if config["dataset"] == "circles" else gen_moons
    dataset = generator(count=config["samples"], seed=config["seed"])
    head = ClassificationHead(gamma=config["gamma"])
    spec, theta, train_y1 = _train_logged(dataset, head, config, out_dir)

    axis = np.linspace(-1.0, 1.0, 101)
    mesh = np.column_stack([np.repeat(axis, axis.size), np.tile(axis, axis.size)])
    grid_y1 = predict(mesh, theta, spec, head)
    _write_csv(out_dir / "grid.csv", ["x1", "x2", "y1"], zip(mesh[:, 0], mesh[:, 1], grid_y1))

    labels = dataset.targets.astype(int)
    predicted = (train_y1 > 0.5).astype(int)
    _write_csv(
        out_dir / "points.csv",
        ["x1", "x2", "label", "y1", "predicted_label"],
        zip(dataset.x[:, 0], dataset.x[:, 1], labels, train_y1, predicted),
    )
    _write_manifest(out_dir, "classify", config, ["metrics.csv", "grid.csv", "points.csv"])


def run_gradcheck(config: dict, out_dir: Path) -> None:
    """Random-instance backprop-vs-finite-difference comparison.

    A coordinate passes when |g_bp - g_fd| <= tolerance * max(1, |g_fd|),
    i.e. ``tolerance`` acts as both the absolute and the relative bound.
    Trial t draws its instance from the generator seeded ``[seed, t]``.
    """
    n, l = config["qubits"], config["depth"]
    tol = config["tolerance"]
    if config["trials"] < 1:
        raise ValueError(f"trials must be >= 1, got {config['trials']}")
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    seeds = [[config["seed"], trial] for trial in range(config["trials"])]
    max_abs = max_scaled = 0.0
    failures = []
    for trial, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        classification = n >= 2 and trial % 2 == 1
        objective, theta = random_objective(rng, n, l, classification)
        g_bp = objective.loss_and_grad_backprop(theta)[2]
        g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
        abs_dev = np.abs(g_bp - g_fd)
        scaled = abs_dev / np.maximum(1.0, np.abs(g_fd))
        max_abs = max(max_abs, float(abs_dev.max()))
        max_scaled = max(max_scaled, float(scaled.max()))
        bad = np.nonzero(scaled > tol)[0]
        if bad.size:
            head = "classification" if classification else "regression"
            worst = int(bad[np.argmax(scaled[bad])])
            failures.append({"trial": trial, "seed": seed, "head": head, "worst_coordinate": worst,
                             "max_scaled_deviation": float(scaled.max())})
    report = {
        "trials": config["trials"],
        "qubits": n,
        "depth": l,
        "tolerance": tol,
        "max_abs_deviation": max_abs,
        "max_scaled_deviation": max_scaled,
        "failures": failures,
        "ok": not failures,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "gradcheck.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "gradcheck", config, ["gradcheck.json"], extra={"seeds": seeds})
    print(
        f"trials: {report['trials']}  max abs deviation: {max_abs:.3e}  "
        f"max scaled deviation: {max_scaled:.3e}  tolerance: {tol:.1e}"
    )
    for failure in failures:
        print(f"violation: {failure}", file=sys.stderr)
    if failures:
        raise ArithmeticError(f"{len(failures)} of {config['trials']} trials exceed tolerance {tol:.1e}")


def run_bench(config: dict, out_dir: Path) -> None:
    dataset = gen_moons(count=200, noise_sigma=0.0, seed=config["seed"])
    cfg = TrainConfig(iterations=100, init_seed=config["seed"] + 1)
    # the paper's sweeps: the depths at 4 qubits, then the qubit counts at depth 10
    cells = [(4, l) for l in config["depth_sweep"]] + [(n, 10) for n in config["qubit_sweep"]]
    records = run_benchmark(config["methods"], cells, dataset, cfg)
    _write_csv(
        out_dir / "bench.csv",
        ["method", "n_qubits", "depth_l", "n_params", "seconds_per_100_iters"],
        map(astuple, records),
    )
    _write_manifest(out_dir, "bench", config, ["bench.csv"])
    for r in records:
        print(
            f"{r.method:18s} n={r.n_qubits} l={r.depth_l:2d} params={r.n_params:3d} "
            f"{r.seconds_per_100_iterations:.3f} s / 100 iters"
        )


#: Each command's runner and help, for its own subcommand and for ``rerun``.
RUNNERS = {
    "regress": (run_regress, "train a 1-D regression circuit"),
    "classify": (run_classify, "train a 2-D binary classifier circuit"),
    "gradcheck": (run_gradcheck, "compare backprop against finite differences"),
    "bench": (run_bench, "time gradient methods across depth/qubit sweeps"),
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for numeric failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _csv_methods(text: str) -> list[str]:
    if text == "all":
        return list(GRADIENT_METHODS)
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="qcgrad", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcgrad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--config", default=None,
                        help="key=value defaults file, keys as in the manifest's config; flags win")
    subparsers = {}
    for name, (_, text) in RUNNERS.items():
        sp = subparsers[name] = sub.add_parser(name, help=text, parents=[shared])
        sp.add_argument("--out-dir", default=f"runs/{name}")
        sp.set_defaults(func=cmd_run)

    rg = subparsers["regress"]
    rg.add_argument("--target", choices=REGRESSION_KINDS, default="square")
    rg.add_argument("--qubits", type=int, default=3)
    rg.add_argument("--depth", type=int, default=3)
    rg.add_argument("--samples", type=int, default=100)
    rg.add_argument("--noise", type=float, default=0.015)
    rg.add_argument("--lr", type=float, default=0.1)
    rg.add_argument("--iters", type=int, default=200)

    cl = subparsers["classify"]
    cl.add_argument("--dataset", choices=("circles", "moons"), default="circles")
    cl.add_argument("--qubits", type=int, default=4)
    cl.add_argument("--depth", type=int, default=6)
    cl.add_argument("--samples", type=int, default=200)
    cl.add_argument("--gamma", type=float, default=1.0)
    cl.add_argument("--lr", type=float, default=0.1)
    cl.add_argument("--iters", type=int, default=200)

    gc = subparsers["gradcheck"]
    gc.add_argument("--qubits", type=int, default=3)
    gc.add_argument("--depth", type=int, default=3)
    gc.add_argument("--trials", type=int, default=50)
    gc.add_argument("--tolerance", type=float, default=1e-5)

    bn = subparsers["bench"]
    bn.add_argument("--methods", type=_csv_methods, default=list(GRADIENT_METHODS))
    bn.add_argument("--depth-sweep", type=_csv_ints, default=[5, 10, 15, 20], help="at 4 qubits")
    bn.add_argument("--qubit-sweep", type=_csv_ints, default=[2, 3, 4, 5, 6], help="at depth 10")

    rr = subparsers["rerun"] = sub.add_parser("rerun", help="replay a saved manifest")
    rr.add_argument("manifest", help="path to a manifest.json")
    rr.add_argument("--out-dir", default=None, help="defaults to <manifest dir>/rerun")
    rr.set_defaults(func=cmd_rerun)

    return parser, subparsers


def _flags(pairs) -> list[str]:
    """(key, value) pairs as ``--key=value`` flags; a list is comma-separated."""
    flags = []
    for key, value in pairs:
        items = value if isinstance(value, list) else [value]
        text = ",".join(item if isinstance(item, str) else json.dumps(item) for item in items)
        flags.append(f"--{key.replace('_', '-')}={text}")
    return flags


def _config_file_pairs(parser: _Parser, path: str) -> list[tuple[str, str]]:
    """The key=value lines of a config file, each key one of the command's config keys."""
    keys = _config(parser.parse_args([]))
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    pairs = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}; expected one of {', '.join(keys)}")
        pairs.append((key, value))
    return pairs


def _config(args) -> dict:
    """The run's config: the parsed namespace less the names that are not config."""
    skip = ("command", "func", "config", "out_dir")
    return {key: value for key, value in vars(args).items() if key not in skip}


def cmd_run(args) -> int:
    RUNNERS[args.command][0](_config(args), Path(args.out_dir))
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
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, str) or command not in RUNNERS:
        print(f"manifest command {command!r} cannot be re-run", file=sys.stderr)
        return EXIT_USAGE
    config = manifest.get("config")
    if not isinstance(config, dict):
        print(f"manifest {manifest_path} has no config object", file=sys.stderr)
        return EXIT_USAGE
    keys = _config(_build_parser()[1][command].parse_args([]))
    missing = [key for key in keys if key not in config]
    unknown = [key for key in config if key not in keys]
    if missing or unknown:
        why = f"lacks {', '.join(missing)}" if missing else f"has unknown key {', '.join(map(repr, unknown))}"
        print(f"manifest {manifest_path} config {why}", file=sys.stderr)
        return EXIT_USAGE
    return main([command, *_flags((key, config[key]) for key in keys), f"--out-dir={out_dir}"])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            at = argv.index(args.command) + 1
            argv[at:at] = _flags(_config_file_pairs(subparsers[args.command], args.config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
