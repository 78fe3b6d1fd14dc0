"""Wall-clock comparison of gradient methods on a list of circuit cells.

A cell is an ``(n_qubits, depth_l)`` pair, and the caller picks the cells:
the ``bench`` command runs the paper's depth and qubit sweeps.  Each cell
calls :func:`qcgrad.trainer.train` for a fixed number of iterations on the
same classification dataset and records its ``wall_time_seconds``: the bare
loop of forward, gradient, parameter update, and the per-iteration loss and
metric that ``train`` records.  For finite differences that bookkeeping is
one loss evaluation per iteration on top of the 2P of the gradient; for SPSA
it is one on top of 2.  Dataset encoding and parameter initialization happen
outside the timed region, a 1-iteration ``train`` warms each cell up, and
every cell is repeated with the median reported.  Cells run strictly
sequentially, and only after every cell has been checked against the
dataset, so a record is always a run: an impossible cell raises before any
runs, and a numeric failure ends the call as it ends ``train``.
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


def _cell_seconds(spec: AnsatzSpec, dataset: Dataset, cfg: TrainConfig, repeats: int) -> float:
    """Median ``train`` wall time of one cell, scaled to 100 iterations."""
    head = ClassificationHead(gamma=cfg.gamma)
    train(dataset, spec, head, replace(cfg, iterations=1))  # warm-up, untimed
    times = [train(dataset, spec, head, cfg).wall_time_seconds for _ in range(repeats)]
    return statistics.median(times) * (100.0 / cfg.iterations)


def run_benchmark(
    methods, cells, dataset: Dataset, cfg: TrainConfig, repeats: int = 3
) -> list[BenchmarkRecord]:
    """One record per (method, cell), method-major, with ``cells`` in the order given.

    ``cells`` are ``(n_qubits, depth_l)`` pairs.  A method, or a cell that no
    circuit on ``dataset`` can have (one qubit cannot encode 2-D inputs),
    raises before any cell runs; a numeric failure inside a cell propagates
    as ``train``'s does.
    """
    # TrainConfig rejects an unknown method, and AnsatzSpec a negative,
    # zero-qubit or non-integer cell, or too few qubits for the inputs
    configs = [replace(cfg, gradient_method=method) for method in methods]
    specs = [AnsatzSpec(n, l, dataset.feature_dim) for n, l in cells]
    if not configs or not specs:
        raise ValueError("need at least one method and one cell")
    if dataset.task != "classification":
        raise ValueError("benchmarks run on a classification dataset")
    if as_index(repeats, "repeats") < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return [
        BenchmarkRecord(method_cfg.gradient_method, spec.n_qubits, spec.depth_l, spec.param_count,
                        _cell_seconds(spec, dataset, method_cfg, repeats))
        for method_cfg in configs
        for spec in specs
    ]
