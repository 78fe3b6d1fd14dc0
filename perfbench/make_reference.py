"""Write reference.json: the final loss of one train() call per workload and seed.

Run from the repository root on the commit whose numbers are the reference
(the table was made from the code the benchmark was introduced on):

    python3 perfbench/make_reference.py

run.py fails every call whose final loss differs from this table by more
than its relative tolerance; seeds outside the table are checked against
the independent model in oracle.py only.
"""

from __future__ import annotations

import json

import run

SEEDS = 256  # the table covers seeds 0 .. SEEDS-1


def main() -> None:
    qcgrad = run.import_qcgrad()
    table = {}
    for name, w in run.WORKLOADS.items():
        table[name] = {}
        for seed in range(SEEDS):
            result = qcgrad.train(*run.make_inputs(qcgrad, w, seed, run.BATCH))
            table[name][str(seed)] = repr(float(result.loss_history[-1]))
        print(name, "done", flush=True)
    out = {"commit": run.git_commit(), "final_loss": table}
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
