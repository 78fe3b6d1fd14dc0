"""Wall-clock comparison of gradient methods across circuit depth and width.

Each benchmark cell calls :func:`qcgrad.trainer.train` for a fixed number of
iterations on the same classification dataset and records its
``wall_time_seconds``: the bare loop of forward, gradient, parameter update,
and the per-iteration loss and metric that ``train`` records.  For finite
differences that bookkeeping is one loss evaluation per iteration on top of
the 2P of the gradient; for SPSA it is one on top of 2.  Dataset encoding and
parameter initialization happen outside the timed region, a 1-iteration
``train`` warms each cell up, and every cell is repeated with the median
reported.  Cells run strictly sequentially.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from .circuit import AnsatzSpec
from .datasets import Dataset
from .heads import ClassificationHead
from .state import as_index
from .trainer import TrainConfig, train


@dataclass(frozen=True)
class BenchmarkRecord:
    method: str
    n_qubits: int
    depth_l: int
    n_params: int
    seconds_per_100_iterations: float
    error: str | None = None


def _cell_seconds(spec: AnsatzSpec, dataset: Dataset, cfg: TrainConfig, repeats: int) -> float:
    """Median ``train`` wall time of one cell, scaled to 100 iterations."""
    head = ClassificationHead(gamma=cfg.gamma)
    train(dataset, spec, head, replace(cfg, iterations=1))  # warm-up, untimed
    times = [train(dataset, spec, head, cfg).wall_time_seconds for _ in range(repeats)]
    return statistics.median(times) * (100.0 / cfg.iterations)


def run_benchmark(
    methods,
    depth_sweep,
    qubit_sweep,
    dataset: Dataset,
    cfg: TrainConfig,
    fixed_n: int = 4,
    fixed_l: int = 10,
    repeats: int = 3,
) -> list[BenchmarkRecord]:
    """One record per (method, cell), depth cells first then qubit cells.

    A cell that fails numerically is recorded with ``error`` set and a NaN
    time instead of aborting the whole run.
    """
    # TrainConfig rejects an unknown method, so this fails before any cell runs
    configs = [replace(cfg, gradient_method=method) for method in methods]
    cells = [(fixed_n, l) for l in depth_sweep] + [(n, fixed_l) for n in qubit_sweep]
    if not configs or not cells:
        raise ValueError("need at least one method and one sweep cell")
    if dataset.task != "classification":
        raise ValueError("benchmarks run on a classification dataset")
    if as_index(repeats, "repeats") < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    records = []
    for method_cfg in configs:
        for n, l in cells:
            try:
                spec = AnsatzSpec(n_qubits=n, depth_l=l, feature_dim=dataset.feature_dim)
                seconds = _cell_seconds(spec, dataset, method_cfg, repeats)
                error = None
            except (ArithmeticError, ValueError) as exc:
                seconds = float("nan")
                error = str(exc)
            records.append(
                BenchmarkRecord(
                    method=method_cfg.gradient_method,
                    n_qubits=n,
                    depth_l=l,
                    n_params=2 * n * (l + 1),
                    seconds_per_100_iterations=seconds,
                    error=error,
                )
            )
    return records
