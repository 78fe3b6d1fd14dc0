import importlib

import qcgrad

TOP_LEVEL = {
    "__version__",
    "AnsatzSpec",
    "BenchmarkRecord",
    "ClassificationHead",
    "Dataset",
    "RegressionHead",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "gen_circles",
    "gen_function_dataset",
    "gen_moons",
    "run_benchmark",
    "train",
}

#: kernels and the gate-by-gate reference: imported from their modules, not from the package
MODULE_LEVEL = {
    "autodiff": ["backward_batch", "backward_plan"],
    "baselines": ["finite_difference_grad", "spsa_grad"],
    "circuit": ["encode_batch", "forward_batch"],
    "gates": ["ry", "rz"],
    "heads": ["accuracy", "classification_batch", "r_squared", "regression_batch", "softmax_gamma"],
    "state": [
        "QuantumState",
        "apply_cz",
        "apply_single_qubit",
        "basis_state",
        "marginal",
        "probabilities",
        "z_expectation",
    ],
    "trainer": ["predict"],
}


def test_top_level_is_the_training_api():
    assert set(qcgrad.__all__) == TOP_LEVEL
    for name in TOP_LEVEL:
        assert hasattr(qcgrad, name), name
    for module, names in MODULE_LEVEL.items():
        module = importlib.import_module(f"qcgrad.{module}")
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
