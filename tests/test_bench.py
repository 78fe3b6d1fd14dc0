import math

import numpy as np
import pytest

from qcgrad.bench import BenchmarkRecord, run_benchmark
from qcgrad.datasets import gen_function_dataset, gen_moons
from qcgrad.trainer import TrainConfig


def tiny_dataset():
    return gen_moons(count=20, seed=0)


def test_records_structure_and_order():
    cfg = TrainConfig(iterations=3, init_seed=0)
    records = run_benchmark(
        ["backprop", "spsa"], [0, 1], [2], tiny_dataset(), cfg, fixed_n=2, fixed_l=1, repeats=1
    )
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
        assert r.error is None
        assert r.seconds_per_100_iterations > 0


def test_failed_cell_recorded_not_raised():
    cfg = TrainConfig(iterations=2, init_seed=0)
    # a 1-qubit cell cannot encode 2-D inputs; it must fail in place
    records = run_benchmark(["backprop"], [0], [1], tiny_dataset(), cfg, fixed_n=2, fixed_l=0, repeats=1)
    assert len(records) == 2
    assert records[0].error is None
    assert records[1].error is not None
    assert math.isnan(records[1].seconds_per_100_iterations)


def test_input_validation():
    cfg = TrainConfig(iterations=2)
    with pytest.raises(ValueError):
        run_benchmark(["newton"], [1], [], tiny_dataset(), cfg)
    with pytest.raises(ValueError):
        run_benchmark([], [1], [2], tiny_dataset(), cfg)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [], [], tiny_dataset(), cfg)
    regression = gen_function_dataset("sine", 10, 0.0, 0)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [1], [], regression, cfg)
    with pytest.raises(ValueError):
        run_benchmark(["backprop"], [1], [], tiny_dataset(), cfg, repeats=0)
    with pytest.raises(TypeError, match="repeats must be an integer, got 1.5"):
        run_benchmark(["backprop"], [1], [], tiny_dataset(), cfg, repeats=1.5)


def test_backprop_much_faster_than_finite_difference_small_cell():
    cfg = TrainConfig(iterations=10, init_seed=0)
    records = run_benchmark(
        ["backprop", "finite_difference"], [3], [], tiny_dataset(), cfg, fixed_n=3, repeats=1
    )
    bp, fd = records[0], records[1]
    assert fd.seconds_per_100_iterations > bp.seconds_per_100_iterations
