import numpy as np
import pytest

from qcgrad import bench
from qcgrad.bench import run_benchmark
from qcgrad.datasets import gen_function_dataset, gen_moons
from qcgrad.trainer import TrainConfig


def tiny_dataset():
    return gen_moons(count=20, seed=0)


def test_records_structure_and_order():
    cfg = TrainConfig(iterations=3, init_seed=0)
    cells = [(2, 0), (2, 1), (2, 1)]
    records = run_benchmark(["backprop", "spsa"], cells, tiny_dataset(), cfg, repeats=1)
    assert len(records) == 6
    keys = [(r.method, r.n_qubits, r.depth_l) for r in records]
    assert keys == [
        ("backprop", 2, 0),
        ("backprop", 2, 1),
        ("backprop", 2, 1),
        ("spsa", 2, 0),
        ("spsa", 2, 1),
        ("spsa", 2, 1),
    ]
    for r in records:
        assert r.n_params == 2 * r.n_qubits * (r.depth_l + 1)
        assert r.seconds_per_100_iterations > 0


def test_input_validation(monkeypatch):
    cfg = TrainConfig(iterations=2)
    with pytest.raises(ValueError):
        run_benchmark(["newton"], [(4, 1)], tiny_dataset(), cfg)
    with pytest.raises(ValueError):
        run_benchmark([], [(4, 1), (2, 10)], tiny_dataset(), cfg)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [], tiny_dataset(), cfg)
    regression = gen_function_dataset("sine", 10, 0.0, 0)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [(4, 1)], regression, cfg)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [(4, 1)], tiny_dataset(), cfg, repeats=0)
    with pytest.raises(TypeError, match="repeats must be an integer, got 1.5"):
        run_benchmark(["backprop"], [(4, 1)], tiny_dataset(), cfg, repeats=1.5)
    # a cell no circuit can have is rejected before any cell runs
    monkeypatch.setattr(bench, "_cell_seconds", lambda *args: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match="depth_l must be >= 0, got -1"):
        run_benchmark(["backprop"], [(2, 0), (4, -1)], tiny_dataset(), cfg)
    with pytest.raises(ValueError, match="n_qubits must be >= 1, got 0"):
        run_benchmark(["backprop"], [(2, 0), (0, 10)], tiny_dataset(), cfg)
    with pytest.raises(TypeError, match="depth_l must be an integer, got 1.5"):
        run_benchmark(["backprop"], [(2, 0), (4, 1.5)], tiny_dataset(), cfg)
    # so is a cell the dataset rules out: one qubit cannot encode 2-D inputs
    with pytest.raises(ValueError, match="2-D inputs need at least 2 qubits"):
        run_benchmark(["backprop"], [(2, 0), (1, 0)], tiny_dataset(), cfg)


def test_backprop_much_faster_than_finite_difference_small_cell():
    cfg = TrainConfig(iterations=10, init_seed=0)
    methods = ["backprop", "finite_difference"]
    records = run_benchmark(methods, [(3, 3)], tiny_dataset(), cfg, repeats=1)
    bp, fd = records[0], records[1]
    assert fd.seconds_per_100_iterations > bp.seconds_per_100_iterations
