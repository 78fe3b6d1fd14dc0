import numpy as np
import pytest

from qcgrad.circuit import AnsatzSpec
from qcgrad.datasets import Dataset, gen_circles, gen_function_dataset
from qcgrad.heads import ClassificationHead, RegressionHead
from qcgrad.trainer import (
    CircuitObjective,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    r_squared,
    train,
)


def small_regression():
    return gen_function_dataset("sine", count=16, noise_sigma=0.0, seed=0)


def test_r_squared_examples():
    targets = np.array([0.1, 0.5, -0.2, 0.9])
    assert r_squared(targets, targets) == 1.0
    assert abs(r_squared(np.full(4, targets.mean()), targets)) < 1e-12
    # constant offset c on targets (0, 1): R^2 = 1 - 2c^2 / 0.5
    t = np.array([0.0, 1.0])
    c = 0.1
    assert abs(r_squared(t + c, t) - (1 - 2 * c**2 / 0.5)) < 1e-12


def test_r_squared_validation():
    with pytest.raises(ValueError):
        r_squared(np.ones(3), np.ones(3))  # zero variance targets
    with pytest.raises(ValueError):
        r_squared(np.ones(3), np.ones(4))


def test_accuracy_examples():
    a = np.array([1, 0, 1, 1])
    assert accuracy(a, a) == 1.0
    assert accuracy(a, 1 - a) == 0.0
    assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1])) == 0.75
    with pytest.raises(ValueError):
        accuracy(np.ones(3), np.ones(2))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gradient_method="adagrad")


@pytest.mark.parametrize(
    "field",
    [{"gamma": np.nan}, {"fd_step": np.nan}, {"fd_step": -1e-4}, {"learning_rate": np.nan}],
    ids=["gamma-nan", "fd_step-nan", "fd_step-negative", "learning_rate-nan"],
)
def test_train_config_rejects_non_finite_and_negative(field):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        TrainConfig(**field)


def test_one_iteration_performs_one_update():
    ds = small_regression()
    spec = AnsatzSpec(2, 1)
    cfg = TrainConfig(iterations=1, init_seed=0)
    result = train(ds, spec, RegressionHead(), cfg)
    assert result.loss_history.shape == (1,)
    assert result.metric_history.shape == (1,)
    rng = np.random.default_rng(0)
    theta0 = rng.uniform(0, 2 * np.pi, spec.param_count)
    assert not np.array_equal(result.final_theta, theta0)


def test_train_determinism():
    ds = small_regression()
    spec = AnsatzSpec(2, 1)
    cfg = TrainConfig(iterations=20, init_seed=3)
    a = train(ds, spec, RegressionHead(), cfg)
    b = train(ds, spec, RegressionHead(), cfg)
    assert a.loss_history.tobytes() == b.loss_history.tobytes()
    assert a.metric_history.tobytes() == b.metric_history.tobytes()
    assert a.final_theta.tobytes() == b.final_theta.tobytes()


def test_loss_decreases_after_one_small_step():
    ds = small_regression()
    spec = AnsatzSpec(2, 1)
    improved = 0
    for seed in range(100):
        cfg = TrainConfig(learning_rate=1e-3, iterations=2, init_seed=seed)
        result = train(ds, spec, RegressionHead(), cfg)
        if result.loss_history[1] <= result.loss_history[0]:
            improved += 1
    assert improved >= 95


def test_backprop_and_fd_training_trajectories_agree():
    ds = small_regression()
    spec = AnsatzSpec(2, 1)
    common = dict(learning_rate=0.1, iterations=10, init_seed=1)
    bp = train(ds, spec, RegressionHead(), TrainConfig(gradient_method="backprop", **common))
    fd = train(ds, spec, RegressionHead(), TrainConfig(gradient_method="finite_difference", fd_step=1e-4, **common))
    assert np.linalg.norm(bp.final_theta - fd.final_theta) < 1e-3


def test_spsa_training_runs_and_is_deterministic():
    ds = small_regression()
    spec = AnsatzSpec(2, 1)
    cfg = TrainConfig(gradient_method="spsa", iterations=15, init_seed=2)
    a = train(ds, spec, RegressionHead(), cfg)
    b = train(ds, spec, RegressionHead(), cfg)
    assert a.final_theta.tobytes() == b.final_theta.tobytes()
    assert np.all(np.isfinite(a.loss_history))


def test_classification_training_improves_accuracy():
    ds = gen_circles(count=40, seed=0)
    spec = AnsatzSpec(2, 2, feature_dim=2)
    cfg = TrainConfig(learning_rate=0.5, iterations=60, init_seed=0)
    result = train(ds, spec, ClassificationHead(gamma=1.0), cfg)
    assert result.metric_history[-1] >= result.metric_history[0]
    assert result.loss_history[-1] < result.loss_history[0]


def test_diverged_training_reports_iteration():
    bad = Dataset(
        x=np.array([[0.1], [0.2]]),
        targets=np.array([np.inf, 0.0]),
        task="regression",
        seed=0,
    )
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as err:
        train(bad, AnsatzSpec(1, 0), RegressionHead(), TrainConfig(iterations=5))
    assert err.value.iteration == 0


def test_head_dataset_mismatch_rejected():
    ds = small_regression()
    with pytest.raises(ValueError):
        train(ds, AnsatzSpec(2, 1), ClassificationHead(), TrainConfig(iterations=1))
    circles = gen_circles(count=10, seed=0)
    with pytest.raises(ValueError):
        train(circles, AnsatzSpec(2, 1), RegressionHead(), TrainConfig(iterations=1))
    with pytest.raises(ValueError):
        # 2-D dataset into a 1-D circuit
        train(circles, AnsatzSpec(2, 1, feature_dim=1), ClassificationHead(), TrainConfig(iterations=1))


def test_wall_time_recorded():
    result = train(small_regression(), AnsatzSpec(2, 0), RegressionHead(), TrainConfig(iterations=3))
    assert result.wall_time_seconds > 0.0


def test_head_qubits_out_of_range_rejected():
    ds = small_regression()
    for qubit in (2, 5, -1):
        with pytest.raises(ValueError, match="out of range"):
            CircuitObjective(ds, AnsatzSpec(2, 1), RegressionHead(measured_qubit=qubit))
    CircuitObjective(ds, AnsatzSpec(2, 1), RegressionHead(measured_qubit=1))
    circles = gen_circles(count=10, seed=0)
    spec = AnsatzSpec(3, 1, feature_dim=2)
    for q1, q2 in ((3, 0), (0, 3), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            CircuitObjective(circles, spec, ClassificationHead(qubit_1=q1, qubit_2=q2))
    CircuitObjective(circles, spec, ClassificationHead(qubit_1=2, qubit_2=0))
