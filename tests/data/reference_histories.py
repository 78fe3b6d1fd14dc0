"""The training runs behind ``reference_histories.json``, and the script that writes it.

Each run is a short :func:`qcgrad.train` call whose loss and metric histories
and ``final_theta`` are kept as JSON floats (Python's shortest round-trip
repr).  ``tests/test_reference_histories.py`` reruns :data:`RUNS` and compares
within 1e-10 relative, which admits rounding from another BLAS or thread
count and fails on any change of arithmetic that is not rounding.

The runs cover both paths of the objective and all three gradient methods:
the ``bp-deep`` inputs (moons, n = 4, l = 20, on the basis rows), the
``fd-shallow`` inputs (n = 4, l = 5) by every method, n = 7, l = 3 on the
per-sample rows, and sine regression at n = 3, l = 3 by every method.

Regenerate only for a change that means to change the numbers, and record
the new data and its reason in CHANGES.md::

    PYTHONPATH=src python tests/data/reference_histories.py

To check that a change keeps every run bit for bit, compare what ::

    PYTHONPATH=src python tests/data/reference_histories.py --digest

prints on both trees: one sha256 over the float64 bytes of every run's loss
and metric histories and ``final_theta``, in :data:`RUNS` order.  To see how
much of the 1e-10 bound a change that rounds differently uses, ::

    PYTHONPATH=src python tests/data/reference_histories.py --deviation

prints each run's worst relative deviation from the file.  Neither writes
anything.
"""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from qcgrad import (
    AnsatzSpec,
    ClassificationHead,
    RegressionHead,
    TrainConfig,
    gen_function_dataset,
    gen_moons,
    train,
)

PATH = Path(__file__).with_name("reference_histories.json")

#: name -> (dataset, n_qubits, depth_l, gradient method, iterations)
RUNS = {
    "bp-deep backprop": ("moons", 4, 20, "backprop", 30),
    "fd-shallow backprop": ("moons", 4, 5, "backprop", 20),
    "fd-shallow finite_difference": ("moons", 4, 5, "finite_difference", 20),
    "fd-shallow spsa": ("moons", 4, 5, "spsa", 20),
    "n7 per-sample rows backprop": ("moons", 7, 3, "backprop", 10),
    "sine backprop": ("sine", 3, 3, "backprop", 50),
    "sine finite_difference": ("sine", 3, 3, "finite_difference", 50),
    "sine spsa": ("sine", 3, 3, "spsa", 50),
}


def run(name: str) -> dict[str, list[float]]:
    """Histories and final parameters of one run of :data:`RUNS`."""
    kind, n, l, method, iterations = RUNS[name]
    if kind == "moons":
        dataset, head = gen_moons(count=200, noise_sigma=0.0, seed=0), ClassificationHead()
    else:
        dataset, head = gen_function_dataset(kind, 100, 0.015, 0), RegressionHead()
    spec = AnsatzSpec(n, l, feature_dim=dataset.feature_dim)
    cfg = TrainConfig(iterations=iterations, init_seed=1, gradient_method=method)
    result = train(dataset, spec, head, cfg)
    return {
        "loss_history": result.loss_history.tolist(),
        "metric_history": result.metric_history.tolist(),
        "final_theta": result.final_theta.tolist(),
    }


def digest() -> str:
    """sha256 hex digest over the float64 bytes of every run's histories and final parameters."""
    sha = hashlib.sha256()
    for name in RUNS:
        for values in run(name).values():
            sha.update(np.asarray(values, dtype=np.float64).tobytes())
    return sha.hexdigest()


def deviation() -> dict[str, float]:
    """Each run's worst relative deviation from :data:`PATH`, ``|got - ref| / |ref|``, over all its values."""
    reference = json.loads(PATH.read_text())
    worst = {}
    for name in RUNS:
        worst[name] = 0.0
        for key, values in run(name).items():
            got, ref = np.asarray(values), np.asarray(reference[name][key])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(got == ref, 0.0, np.abs(got - ref) / np.abs(ref))
            worst[name] = max(worst[name], float(ratio.max()))
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write reference_histories.json, or check the runs against it.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--digest", action="store_true", help="print the sha256 of the runs and write nothing")
    mode.add_argument("--deviation", action="store_true", help="print each run's worst relative deviation from the file")
    args = parser.parse_args()
    if args.digest:
        print(digest())
    elif args.deviation:
        for name, worst in deviation().items():
            print(f"{name}: {worst:.3g}")
    else:
        PATH.write_text(json.dumps({name: run(name) for name in RUNS}, indent=1) + "\n")
