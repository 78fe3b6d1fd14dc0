from collections import Counter

import numpy as np
import pytest
from conftest import z_reference

import qcgrad.circuit as circuit
import qcgrad.heads as heads
import qcgrad.trainer as trainer

from qcgrad.baselines import finite_difference_grad
from qcgrad.circuit import AnsatzSpec, encode_batch, run_variational
from qcgrad.datasets import Dataset, gen_circles, gen_function_dataset, gen_moons
from qcgrad.heads import ClassificationHead, RegressionHead, accuracy, r_squared, readout
from qcgrad.state import apply_operator, z_sign_vector
from qcgrad.trainer import (
    CircuitObjective,
    TrainConfig,
    TrainingDivergedError,
    predict,
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


def test_non_heads_rejected_by_the_objective_and_predict():
    spec = AnsatzSpec(2, 0)
    with pytest.raises(TypeError, match="unsupported head object"):
        CircuitObjective(small_regression(), spec, object())
    with pytest.raises(TypeError, match="unsupported head object"):
        predict(np.zeros((2, 1)), np.zeros(spec.param_count), spec, object())


@pytest.mark.parametrize("classification", [False, True])
def test_out_of_range_head_qubits_rejected_wherever_they_become_signs(classification):
    n = 3
    xs = np.zeros((4, 2 if classification else 1))
    spec = AnsatzSpec(n, 1, feature_dim=xs.shape[1])
    theta = np.zeros(spec.param_count)
    for qubit in (n, n + 2, -1):
        head = ClassificationHead(qubit_2=qubit) if classification else RegressionHead(measured_qubit=qubit)
        with pytest.raises(ValueError, match="out of range"):
            predict(xs, theta, spec, head)
        with pytest.raises(ValueError, match="out of range"):
            z_sign_vector(n, qubit)


def operator_objective(n, l, classification, count, seed=0):
    """(objective, theta) on a moons or sine dataset of ``count`` points."""
    if classification:
        spec, head = AnsatzSpec(n, l, feature_dim=2), ClassificationHead(gamma=2.0)
        dataset = gen_moons(count=count, noise_sigma=0.05, seed=seed)
    else:
        spec, head = AnsatzSpec(n, l), RegressionHead()
        dataset = gen_function_dataset("sine", count=count, noise_sigma=0.05, seed=seed)
    theta = np.random.default_rng([n, l, seed]).uniform(0.0, 2.0 * np.pi, spec.param_count)
    return CircuitObjective(dataset, spec, head), theta


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_path_matches_per_sample_path(n):
    for l in range(6):
        for classification in (False, True) if n >= 2 else (False,):
            objective, theta = operator_objective(n, l, classification, count=130)
            objective.rows = objective.encoded
            ref_losses, ref_outputs, ref_grad = objective.backprop(theta)
            # shallow circuits run the inputs themselves; check the basis rows anyway
            objective.rows = np.eye(1 << n, dtype=complex)
            losses, outputs, grad = objective.backprop(theta)
            assert np.abs(grad - ref_grad).max() <= 1e-14
            assert np.abs(losses - ref_losses).max() <= 1e-14
            assert np.abs(outputs - ref_outputs).max() <= 1e-14
            loss, _, evaluated = objective.evaluate(theta)
            assert np.array_equal(evaluated, outputs)
            assert loss == objective.loss(theta) == float(losses.mean())


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_apply_rows_equal_single_runs(n):
    rng = np.random.default_rng(300 + n)
    spec = AnsatzSpec(n, 2)
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
    operator = run_variational(np.eye(1 << n, dtype=complex), theta, spec, record=False)
    for b in (2, 3, 200):
        states = rng.normal(size=(b, 1 << n)) + 1j * rng.normal(size=(b, 1 << n))
        rows = apply_operator(states, operator)
        assert np.abs(rows - states @ operator).max() <= 1e-13
        for i in range(b):
            assert np.array_equal(rows[i], apply_operator(states[i : i + 1], operator)[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_oracle_on_both_sides_of_the_operator_switch(n):
    # at l = 5 the basis rows save (l + 1) * (B - d) >= 4 * B row passes from B = 3d on
    dim, l = 1 << n, 5
    for count, operator in ((3 * dim, True), (3 * dim - 2, False)):
        for classification in (False, True):
            objective, theta = operator_objective(n, l, classification, count, seed=count)
            assert (objective.rows is not objective.encoded) == operator
            _, _, g_bp = objective.backprop(theta)
            g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
            assert np.all(np.abs(g_bp - g_fd) <= np.maximum(1e-7, 1e-5 * np.abs(g_fd)))


@pytest.mark.parametrize("n", range(1, 9))
def test_expectations_match_the_state_reference(n):
    # the objective's one measurement against z_expectation of each final
    # state, on both sides of the basis-row switch (worst 1.1e-15 at n <= 8)
    for l in (0, 3):
        for classification in (False, True) if n >= 2 else (False,):
            objective, theta = operator_objective(n, l, classification, count=40)
            final = run_variational(objective.encoded, theta, objective.spec, record=False)
            reference = z_reference(final, objective.head.qubits)
            for rows in (objective.encoded, np.eye(1 << n, dtype=complex)):
                objective.rows = rows
                assert np.abs(objective.expectations(theta) - reference).max() <= 1e-14


@pytest.mark.parametrize("n", range(1, 8))
def test_backprop_matches_the_parameter_shift_rule(n):
    # every angle sits in one Pauli rotation, so the shift rule is exact:
    # d<Z_q>/dtheta_m = [<Z_q>(theta + pi/2 e_m) - <Z_q>(theta - pi/2 e_m)] / 2,
    # chained through the head's dL/d<Z> and averaged over the batch
    for l in (0, 1, 3, 5):
        for classification in (False, True) if n >= 2 else (False,):
            for basis_rows in (False, True):
                objective, theta = operator_objective(n, l, classification, count=40)
                objective.rows = np.eye(1 << n, dtype=complex) if basis_rows else objective.encoded
                dL_dz = readout(objective.expectations(theta), objective.targets, objective.head)[2]
                shifted = np.empty_like(theta)
                for m in range(len(theta)):
                    step = np.zeros_like(theta)
                    step[m] = np.pi / 2
                    dz = (objective.expectations(theta + step) - objective.expectations(theta - step)) / 2
                    shifted[m] = np.sum(dL_dz * dz) / len(dz)
                assert np.abs(objective.backprop(theta)[2] - shifted).max() <= 1e-13


def test_every_readout_calls_the_head_functions_by_name(monkeypatch):
    # perfbench times the heads by rebinding these module-level names
    calls = Counter()
    for name in ("regression_batch", "classification_batch"):
        def counted(*args, _original=getattr(heads, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(heads, name, counted)
    for classification, name in ((False, "regression_batch"), (True, "classification_batch")):
        objective, theta = operator_objective(3, 2, classification, count=20)
        xs = np.zeros((5, objective.spec.feature_dim))
        for run in (
            objective.loss,
            objective.evaluate,
            objective.backprop,
            lambda th: predict(xs, th, objective.spec, objective.head),
        ):
            before = calls[name]
            run(theta)
            assert calls[name] == before + 1
    assert set(calls) == {"regression_batch", "classification_batch"}


def test_shallow_circuits_and_small_batches_run_the_inputs():
    # applying the operator costs about four layer passes per input, which a
    # shallow circuit, or a batch not much larger than 2**n, does not save
    def runs_basis_rows(n, l, count):
        objective = operator_objective(n, l, False, count)[0]
        return objective.rows is not objective.encoded

    assert not runs_basis_rows(4, 2, count=200)
    assert runs_basis_rows(4, 5, count=200)
    assert not runs_basis_rows(6, 10, count=100)
    assert runs_basis_rows(6, 10, count=200)


@pytest.mark.parametrize("count", [5, 401])
def test_predict_matches_the_per_sample_rows(count):
    # 401 inputs run the basis rows at n = 4, l = 6; 5 inputs run themselves
    spec, head = AnsatzSpec(4, 6, feature_dim=2), ClassificationHead(gamma=2.0)
    rng = np.random.default_rng(count)
    xs = rng.uniform(-1.0, 1.0, size=(count, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
    objective = CircuitObjective(Dataset(x=xs, targets=np.zeros(count), task=head.task), spec, head)
    assert (objective.rows is not objective.encoded) == (count > 5)
    final = run_variational(encode_batch(xs, spec), theta, spec, record=False)
    expected = readout(z_reference(final, head.qubits), np.zeros(count), head)[1]
    assert np.abs(predict(xs, theta, spec, head) - expected).max() <= 1e-14


@pytest.mark.parametrize("count", [8, 16], ids=["inputs", "basis-rows"])
def test_evaluation_counts(monkeypatch, count):
    # recording and loss-only forwards and backward passes, counted by
    # rebinding the names where they are called, as perfbench's tracer does
    calls = Counter()

    def run(*args, _original=circuit.run_variational, **kwargs):
        calls["record" if kwargs.get("record", args[3] if len(args) > 3 else True) else "loss"] += 1
        return _original(*args, **kwargs)

    def backward(*args, _original=trainer.backward_batch):
        calls["backward"] += 1
        return _original(*args)

    for module in (circuit, trainer):
        monkeypatch.setattr(module, "run_variational", run)
    monkeypatch.setattr(trainer, "backward_batch", backward)
    # at n = 2, l = 5 the layers run the basis rows from B = 12 on
    dataset = gen_function_dataset("sine", count=count, noise_sigma=0.0, seed=0)
    spec, head, iterations = AnsatzSpec(2, 5), RegressionHead(), 3
    objective = CircuitObjective(dataset, spec, head)
    assert (objective.rows is not objective.encoded) == (count == 16)
    per_iteration = {
        "finite_difference": {"loss": 2 * spec.param_count + 1},
        "spsa": {"loss": 3},
        "backprop": {"record": 1, "backward": 1},
    }
    for method, expected in per_iteration.items():
        calls.clear()
        train(dataset, spec, head, TrainConfig(iterations=iterations, gradient_method=method))
        assert calls == {name: iterations * k for name, k in expected.items()}, method
    theta = np.zeros(spec.param_count)
    for run in (objective.loss, objective.evaluate, lambda th: predict(dataset.x, th, spec, head)):
        calls.clear()
        run(theta)
        assert calls == {"loss": 1}
