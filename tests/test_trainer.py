import gc
import math
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from conftest import z_reference

import qcgrad.circuit as circuit
import qcgrad.heads as heads
import qcgrad.trainer as trainer

from qcgrad import gates
from qcgrad.baselines import finite_difference_grad, spsa_grad
from qcgrad.autodiff import backward_batch, backward_plan
from qcgrad.circuit import AnsatzSpec, BatchTape, encode_batch, forward_batch, run_variational, variational_plan
from qcgrad.datasets import Dataset, gen_circles, gen_function_dataset, gen_moons
from qcgrad.heads import ClassificationHead, RegressionHead, accuracy, r_squared, readout
from qcgrad.state import (
    apply_cz,
    apply_operator,
    apply_single_qubit,
    basis_state,
    marginal,
    z_sign_matrix,
    z_sign_vector,
)
from qcgrad.trainer import (
    CircuitObjective,
    TrainConfig,
    TrainingDivergedError,
    predict,
    random_objective,
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
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gradient_method="adagrad")
    with pytest.raises(TypeError, match="iterations must be an integer"):
        TrainConfig(iterations=2.0)
    assert TrainConfig(iterations=np.int64(2)).iterations == 2
    with pytest.raises(TypeError, match="init_seed must be an integer, got 2.5"):
        TrainConfig(init_seed=2.5)
    with pytest.raises(ValueError, match="init_seed must be >= 0, got -1"):
        TrainConfig(init_seed=-1)
    assert TrainConfig(init_seed=np.int64(3)).init_seed == 3


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


@pytest.mark.parametrize("method", ["backprop", "finite_difference", "spsa"])
def test_diverged_training_reports_iteration(method):
    # a finite target too large to square raises a floating-point error inside
    # the iteration; a NaN one raises none, so under backprop it reaches the
    # check of the loss and theta (FD and SPSA reject the NaN loss they
    # evaluate).  Dataset rejects a NaN target and keeps its arrays read-only,
    # so the target is written into its own copy, made writeable, afterwards.
    for target in (1e200, np.nan):
        bad = Dataset(x=np.array([[0.1], [0.2]]), targets=np.array([0.0, 0.0]), task="regression")
        bad.targets.flags.writeable = True
        bad.targets[0] = target
        with pytest.raises(TrainingDivergedError) as err:
            train(bad, AnsatzSpec(1, 0), RegressionHead(), TrainConfig(iterations=5, gradient_method=method))
        assert err.value.iteration == 0
        if method == "backprop" and np.isnan(target):
            assert "non-finite loss or parameters" in str(err.value)


@pytest.mark.parametrize("iterations", [4, 5])
@pytest.mark.parametrize("warning_filter", ["default", "error"])
def test_overflowing_iteration_raises_diverged(iterations, warning_filter):
    # lr = 1e308 puts theta near the float limit, and iteration 3's forward
    # overflows summing its angles: an error, whatever the warning filter
    ds = gen_function_dataset("linear", 10, 0.015, 0)
    cfg = TrainConfig(learning_rate=1e308, iterations=iterations, init_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter)
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, AnsatzSpec(2, 1), RegressionHead(), cfg)
    assert err.value.iteration == 3


@pytest.mark.parametrize(
    "method, lr",
    [("finite_difference", 1e308), ("finite_difference", 1e15), ("spsa", 1e15), ("spsa", 1e20)],
)
def test_perturbation_that_rounds_away_raises_diverged(method, lr):
    # after iteration 0, theta +/- h (or +/- c_k) rounds back to theta, so the
    # estimate would read an exact 0 and training would run on with a flat loss
    ds = gen_function_dataset("linear", 10, 0.015, 0)
    cfg = TrainConfig(learning_rate=lr, iterations=5, init_seed=1, gradient_method=method)
    with pytest.raises(TrainingDivergedError, match="does not move") as err:
        train(ds, AnsatzSpec(2, 1), RegressionHead(), cfg)
    assert err.value.iteration == 1


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
        # a negative qubit is refused by the head itself, the others by predict
        with pytest.raises(ValueError, match="out of range"):
            head = ClassificationHead(qubit_2=qubit) if classification else RegressionHead(measured_qubit=qubit)
            predict(xs, theta, spec, head)
        with pytest.raises(ValueError, match="out of range"):
            z_sign_vector(n, qubit)


NON_INTEGER_QUBITS = {
    "apply_single_qubit": (1.9, lambda q: apply_single_qubit(basis_state(2, 0), gates.ry(np.pi), q)),
    "apply_cz": (0.5, lambda q: apply_cz(basis_state(2, 3), q, 1)),
    "marginal": (0.7, lambda q: marginal(basis_state(2, 1), q)),
    "objective": (
        1.0,
        lambda q: CircuitObjective(
            gen_function_dataset("sine", 4), AnsatzSpec(2, 1), RegressionHead(measured_qubit=q)
        ),
    ),
}


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "int-cached"])
@pytest.mark.parametrize("qubit, call", NON_INTEGER_QUBITS.values(), ids=NON_INTEGER_QUBITS)
def test_non_integer_qubits_rejected(qubit, call, cached):
    # int() used to truncate each of these to a qubit, and a cached sign
    # table must not answer for a float before the qubit is checked
    z_sign_matrix.cache_clear()
    if cached:
        z_sign_vector(2, 1)
    with pytest.raises(TypeError, match="index must be an integer"):
        call(qubit)
    call(np.int64(int(qubit)))


def regression_loss(theta):
    """The loss of a random 2-qubit, l = 1 regression objective (8 parameters) at theta."""
    return random_objective(np.random.default_rng(0), 2, 1, classification=False)[0].loss(theta)


# (error, what its message names, call): a complex array used to lose its
# imaginary part with only a warning and a string array was parsed; a bool
# setting ran as 1.0; a float or negative head qubit built a head
MISTYPED_INPUTS = {
    "complex-theta": (TypeError, "theta", lambda: regression_loss(np.zeros(8) + 1j)),
    "string-theta": (TypeError, "theta", lambda: regression_loss(["0.5"] * 8)),
    "complex-dataset": (
        TypeError, "x", lambda: Dataset(x=np.array([[0.5 + 0.3j]]), targets=np.zeros(1), task="regression")
    ),
    "complex-predict": (
        TypeError, "x", lambda: predict([[0.2 + 0.9j]], np.zeros(8), AnsatzSpec(2, 1), RegressionHead())
    ),
    "complex-encoding": (TypeError, "xs", lambda: encode_batch(np.array([[0.5j]]), AnsatzSpec(1, 0))),
    "complex-fd": (TypeError, "theta", lambda: finite_difference_grad(np.sum, np.zeros(2) + 1j, 1e-4)),
    "complex-spsa": (TypeError, "theta", lambda: spsa_grad(np.sum, np.zeros(2) + 1j, 0, 0)),
    "bool-learning-rate": (TypeError, "learning_rate", lambda: TrainConfig(learning_rate=True)),
    "bool-fd-step": (TypeError, "fd_step", lambda: TrainConfig(fd_step=True)),
    "bool-gamma": (TypeError, "gamma", lambda: ClassificationHead(gamma=np.True_)),
    "bool-output-scale": (TypeError, "output_scale", lambda: RegressionHead(output_scale=True)),
    "float-qubit": (TypeError, "measured_qubit", lambda: RegressionHead(measured_qubit=1.5)),
    "negative-qubit": (ValueError, "measured_qubit", lambda: RegressionHead(measured_qubit=-1)),
    "float-first-qubit": (TypeError, "qubit_1", lambda: ClassificationHead(qubit_1=0.0, qubit_2=1)),
    "float-equal-qubit": (TypeError, "qubit_2", lambda: ClassificationHead(qubit_1=np.int64(0), qubit_2=0.0)),
}


@pytest.mark.parametrize("error, name, call", MISTYPED_INPUTS.values(), ids=MISTYPED_INPUTS)
def test_mistyped_inputs_are_refused_by_name(error, name, call):
    with pytest.raises(error, match=rf"\b{name}\b"):
        call()


def operator_objective(n, l, classification, count, seed=0, gamma=2.0):
    """(objective, theta) on a moons or sine dataset of ``count`` points."""
    if classification:
        spec, head = AnsatzSpec(n, l, feature_dim=2), ClassificationHead(gamma=gamma)
        dataset = gen_moons(count=count, noise_sigma=0.05, seed=seed)
    else:
        spec, head = AnsatzSpec(n, l), RegressionHead()
        dataset = gen_function_dataset("sine", count=count, noise_sigma=0.05, seed=seed)
    theta = np.random.default_rng([n, l, seed]).uniform(0.0, 2.0 * np.pi, spec.param_count)
    return CircuitObjective(dataset, spec, head), theta


def objective_on(basis_rows, n, l, classification, count, seed=0, gamma=2.0):
    """:func:`operator_objective` with its layers on the basis rows or on the inputs, whatever the rule says."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "OPERATOR_APPLY_COST", -math.inf if basis_rows else math.inf)
        return operator_objective(n, l, classification, count, seed, gamma)


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_path_matches_per_sample_path(n):
    for l in range(6):
        for classification in (False, True) if n >= 2 else (False,):
            objective, theta = objective_on(False, n, l, classification, count=130)
            ref_losses = readout(objective.expectations(theta), objective.targets, objective.head)[0]
            _, ref_outputs, ref_grad = objective.loss_and_grad_backprop(theta)
            # shallow circuits run the inputs themselves; check the basis rows anyway
            objective = objective_on(True, n, l, classification, count=130)[0]
            losses = readout(objective.expectations(theta), objective.targets, objective.head)[0]
            loss, outputs, grad = objective.loss_and_grad_backprop(theta)
            assert np.abs(grad - ref_grad).max() <= 1e-14
            assert np.abs(losses - ref_losses).max() <= 1e-14
            assert np.abs(outputs - ref_outputs).max() <= 1e-14
            evaluated_loss, evaluated = objective.evaluate(theta)
            assert np.array_equal(evaluated, outputs)
            assert loss == evaluated_loss == objective.loss(theta) == float(losses.mean())


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_apply_rows_equal_single_runs(n):
    rng = np.random.default_rng(300 + n)
    spec = AnsatzSpec(n, 2)
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
    operator = forward_batch(np.eye(1 << n, dtype=complex), theta, spec).final
    for b in (2, 3, 200):
        states = rng.normal(size=(b, 1 << n)) + 1j * rng.normal(size=(b, 1 << n))
        rows = apply_operator(states, operator)
        assert np.abs(rows - states @ operator).max() <= 1e-13
        for i in range(b):
            assert np.array_equal(rows[i], apply_operator(states[i : i + 1], operator)[0])


def every_result(objective, theta):
    """What each of the objective's paths returns at theta, in one list."""
    return [
        objective.loss(theta),
        *objective.evaluate(theta),
        objective.expectations(theta),
        *objective.loss_and_grad_backprop(theta),
    ]


@pytest.mark.parametrize(
    "n, l, count, basis_rows",
    # n = 7 has two Kronecker blocks in the forward and two Walsh-Hadamard blocks in the backward
    # (4, 20, 200) is perfbench's bp-deep cell
    [(4, 5, 200, True), (4, 20, 200, True), (4, 2, 200, False), (7, 5, 400, True), (7, 3, 40, False)],
)
def test_plans_are_reused_bit_for_bit_and_nothing_returned_aliases_them(n, l, count, basis_rows):
    # one objective keeps its buffers across calls; a fresh objective per
    # call makes them for that call alone.  Each case runs on the rows the
    # rule picks, then on the other kind
    for classification in (False, True):
        by_rule = operator_objective(n, l, classification, count)[0]
        assert (by_rule.rows is not by_rule.encoded) == basis_rows
        for rows_kind in (basis_rows, not basis_rows):
            objective, theta = objective_on(rows_kind, n, l, classification, count)
            first = kept = None
            for theta_i in (theta, theta[::-1].copy(), theta):
                fresh = objective_on(rows_kind, n, l, classification, count)[0]
                got = every_result(objective, theta_i)
                for value, expected in zip(got, every_result(fresh, theta_i)):
                    assert np.array_equal(value, expected)
                if first is None:
                    first, kept = got, [np.copy(value) for value in got]
                for value, expected in zip(first, kept):
                    assert np.array_equal(value, expected)


def test_buffers_are_kept_across_calls():
    # per-sample rows at n = 7, l = 5, B = 200: once each path has run, one
    # more call peaked at 0.34 MB (loss) and 0.36 MB (backprop step), where
    # the forward's buffers made again on every call peaked at 1.6 MB
    # (loss) and the backward's at 3.8 MB (backprop step)
    objective, theta = operator_objective(7, 5, True, count=200)
    assert objective.rows is objective.encoded
    for _ in range(2):
        objective.loss(theta)
        objective.loss_and_grad_backprop(theta)
    limit = 2 * objective.encoded.nbytes
    for run in (objective.loss, objective.loss_and_grad_backprop):
        tracemalloc.start()
        try:
            run(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, run.__name__


def test_an_objective_is_freed_without_the_cyclic_collector():
    # its buffers are its own attributes, and none of them refers back to
    # it: with such a reference, each train()'s buffers waited for the
    # collector and perfbench's peak RSS rose
    for count in (8, 200):  # the inputs, then the basis rows
        objective, theta = operator_objective(4, 5, True, count)
        objective.loss(theta)
        objective.loss_and_grad_backprop(theta)
        freed = weakref.ref(objective)
        gc.disable()
        try:
            del objective
            assert freed() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_oracle_on_both_sides_of_the_operator_switch(n):
    # at l = 5 the basis rows save (l + 1) * (B - d) >= 4 * B row passes from B = 3d on
    dim, l = 1 << n, 5
    for count, operator in ((3 * dim, True), (3 * dim - 2, False)):
        for classification in (False, True):
            objective, theta = operator_objective(n, l, classification, count, seed=count)
            assert (objective.rows is not objective.encoded) == operator
            g_bp = objective.loss_and_grad_backprop(theta)[2]
            g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
            assert np.all(np.abs(g_bp - g_fd) <= np.maximum(1e-7, 1e-5 * np.abs(g_fd)))


@pytest.mark.parametrize("basis_rows", [False, True], ids=["inputs", "basis-rows"])
def test_gradient_oracle_on_a_saturated_head(basis_rows):
    # at gamma = 400 rows reach y1 within 1e-12 of the wrong label, where the
    # cross entropy's gradient is largest; gradcheck's gamma <= 5 never does
    objective = objective_on(basis_rows, 3, 2, True, count=16, gamma=400.0)[0]
    labels = objective.targets
    rng = np.random.default_rng(400)
    saturated = 0
    for _ in range(5):
        theta = rng.uniform(0.0, 2.0 * np.pi, objective.spec.param_count)
        loss, y1, g_bp = objective.loss_and_grad_backprop(theta)
        saturated += int(np.sum(np.abs(y1 - (1.0 - labels)) < 1e-12))
        # the loss-only head against the batch head, where the loss is largest
        assert objective.loss(theta) == objective.evaluate(theta)[0] == loss
        g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
        assert np.all(np.abs(g_bp - g_fd) <= np.maximum(1e-7, 1e-5 * np.abs(g_fd)))
    assert saturated >= 1


@pytest.mark.parametrize("n", range(1, 9))
def test_expectations_match_the_state_reference(n):
    # the objective's one measurement against z_expectation of each final
    # state, on both sides of the basis-row switch (worst 1.1e-15 at n <= 8)
    for l in (0, 3):
        for classification in (False, True) if n >= 2 else (False,):
            for basis_rows in (False, True):
                objective, theta = objective_on(basis_rows, n, l, classification, count=40)
                final = forward_batch(objective.encoded, theta, objective.spec).final
                reference = z_reference(final, objective.head.qubits)
                assert np.abs(objective.expectations(theta) - reference).max() <= 1e-14


@pytest.mark.parametrize("n", range(1, 8))
def test_backprop_matches_the_parameter_shift_rule(n):
    # every angle sits in one Pauli rotation, so the shift rule is exact:
    # d<Z_q>/dtheta_m = [<Z_q>(theta + pi/2 e_m) - <Z_q>(theta - pi/2 e_m)] / 2,
    # chained through the head's dL/d<Z> and averaged over the batch
    for l in (0, 1, 3, 5):
        for classification in (False, True) if n >= 2 else (False,):
            for basis_rows in (False, True):
                objective, theta = objective_on(basis_rows, n, l, classification, count=40)
                dL_dz = readout(objective.expectations(theta), objective.targets, objective.head)[2]
                shifted = np.empty_like(theta)
                for m in range(len(theta)):
                    step = np.zeros_like(theta)
                    step[m] = np.pi / 2
                    dz = (objective.expectations(theta + step) - objective.expectations(theta - step)) / 2
                    shifted[m] = np.sum(dL_dz * dz) / len(dz)
                assert np.abs(objective.loss_and_grad_backprop(theta)[2] - shifted).max() <= 1e-13


def test_every_readout_calls_the_head_functions_by_name(monkeypatch):
    # perfbench times the heads by rebinding these module-level names; the
    # loss alone reads only the loss-only head, every other path the batch head
    calls = Counter()
    for name in ("regression_batch", "classification_batch", "regression_loss", "classification_loss"):
        def counted(*args, _original=getattr(heads, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(heads, name, counted)
    for classification, kind in ((False, "regression"), (True, "classification")):
        objective, theta = operator_objective(3, 2, classification, count=20)
        xs = np.zeros((5, objective.spec.feature_dim))
        for run, batch_calls, loss_calls in (
            (objective.loss, 0, 1),
            (objective.evaluate, 1, 0),
            (objective.loss_and_grad_backprop, 1, 0),
            (lambda th: predict(xs, th, objective.spec, objective.head), 1, 0),
        ):
            before = calls.copy()
            run(theta)
            assert calls - before == Counter({f"{kind}_batch": batch_calls, f"{kind}_loss": loss_calls})
    assert set(calls) == {"regression_batch", "classification_batch", "regression_loss", "classification_loss"}


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


def plan_stacks(objective, theta):
    """Shapes of the plans' and tape's diagonals, the backward's seed, and the products its sign matmul reads."""
    rows, spec = objective.rows, objective.spec
    shapes = [variational_plan(rows, spec, record=record)[2].shape for record in (False, True)]
    tape = forward_batch(rows, theta, spec)
    _, _, seed, _, calls, grad = backward_plan(tape)
    (sign_matmul,) = [call for call in calls if call.func is np.matmul and np.shares_memory(call.args[2], grad)]
    return shapes + [tape.diags.shape, seed.shape, sign_matmul.args[0].shape[:-1]]


def test_plans_hold_full_factors_and_one_sign_matmul_reads_every_layer():
    # full factors save numpy's broadcast iterator on each multiply.  Cells:
    # perfbench's bp-deep and fd-shallow and the paper's n = 2 at l = 10 on
    # the basis rows, then n = 7 on the per-sample rows (two Kronecker blocks)
    for n, l, count in ((4, 20, 200), (4, 5, 200), (2, 10, 200), (7, 5, 200)):
        objective, theta = operator_objective(n, l, True, count)
        rows, dim = len(objective.rows), 1 << n
        assert plan_stacks(objective, theta) == [(l + 1, rows, dim)] * 3 + [(rows, dim), (l + 1, 2, rows)]


@pytest.mark.parametrize(
    "n, l, count",
    # perfbench's bp-deep and fd-shallow cells on the basis rows, and n = 7 on
    # the per-sample rows: two Kronecker blocks and two Walsh-Hadamard blocks
    [(4, 20, 200), (4, 5, 200), (7, 3, 40)],
)
def test_full_factor_diagonals_give_the_bits_of_broadcast_rows(n, l, count):
    # every amplitude is multiplied by the same factor either way, so the
    # backward on a tape of full stacks and on the same tape with one
    # broadcast row per diagonal agree bit for bit, as the forward's last
    # product does; kept plans agree with plan-less calls
    for classification in (False, True):
        objective, theta = operator_objective(n, l, classification, count)
        rows, spec = objective.rows, objective.spec
        cotangent = np.random.default_rng(n).normal(size=(len(rows), 1 << n, 2)) @ np.array([1.0, 1j])
        tape = forward_batch(rows, theta, spec)
        planless = backward_batch(tape, cotangent)
        assert np.array_equal(tape.final, tape.posts[-2] * tape.diags[-1, 0])
        broadcast = BatchTape(spec, tape.posts, tape.theta, tape.diags[:, :1])
        assert np.array_equal(backward_batch(broadcast, cotangent), planless)
        forward = buffer, posts, diags, _ = variational_plan(rows, spec, record=True)
        kept_tape = BatchTape(spec, posts, buffer, diags)
        backward = backward_plan(kept_tape)
        for theta_i in (theta[::-1].copy(), theta):
            run_variational(rows, theta_i, spec, record=True, plan=forward)
            kept = backward_batch(kept_tape, cotangent, backward)
        assert np.array_equal(kept, planless)


@pytest.mark.parametrize("count", [5, 401])
def test_predict_matches_the_per_sample_rows(count):
    # 401 inputs run the basis rows at n = 4, l = 6; 5 inputs run themselves
    spec, head = AnsatzSpec(4, 6, feature_dim=2), ClassificationHead(gamma=2.0)
    rng = np.random.default_rng(count)
    xs = rng.uniform(-1.0, 1.0, size=(count, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
    objective = CircuitObjective(Dataset(x=xs, targets=np.zeros(count), task=head.task), spec, head)
    assert (objective.rows is not objective.encoded) == (count > 5)
    final = forward_batch(encode_batch(xs, spec), theta, spec).final
    expected = readout(z_reference(final, head.qubits), np.zeros(count), head)[1]
    assert np.abs(predict(xs, theta, spec, head) - expected).max() <= 1e-14


def test_lists_train_and_predict_as_arrays():
    xs = [[-0.5], [0.1], [0.4], [0.9]]
    spec, head, cfg = AnsatzSpec(2, 1), RegressionHead(), TrainConfig(iterations=3)
    result = train(Dataset(x=xs, targets=[0.2, 0.0, 0.1, 0.8], task="regression"), spec, head, cfg)
    reference = train(Dataset(x=np.array(xs), targets=np.array([0.2, 0.0, 0.1, 0.8]), task="regression"),
                      spec, head, cfg)
    assert np.array_equal(result.loss_history, reference.loss_history)
    theta = result.final_theta
    assert np.array_equal(predict(xs, theta, spec, head), predict(np.array(xs), theta, spec, head))


@pytest.mark.parametrize("count", [8, 16], ids=["inputs", "basis-rows"])
def test_evaluation_counts(monkeypatch, count):
    # recording and loss-only forwards and backward passes, counted by
    # rebinding the names where they are called, as perfbench's tracer does
    calls = Counter()

    def run(*args, _original=circuit.run_variational, **kwargs):
        calls["record" if kwargs["record"] else "loss"] += 1
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
