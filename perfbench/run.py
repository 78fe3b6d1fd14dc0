"""Training-time benchmark of ``qcgrad``: wall time of ``train()`` per workload.

Run from the repository root:

    python3 perfbench/run.py --workload bp-deep --seed 0 --seconds 45 --trace 0

It imports ``qcgrad`` from ``src/`` next to this directory and exits non-zero
without a result if that package is missing.  The loop is closed: each
operation is one ``qcgrad.train()`` call from the same start, and the next
call begins when the previous one returns.  The benchmark starts no threads
and never sets BLAS thread variables; it records them in the ``env`` block.
Timings are corrected for the drifting speed of a shared host with a fixed
calibration kernel timed between operations (``calibration.HostClock``).

``--trace 0`` reports the end-to-end metrics.  Its timed seconds are split
over WORKERS processes run one after another, with set-up probes, each a
fresh process too, between them; only one of these processes runs at a
time.  ``--trace 1`` runs in one process, installs the span tracer for
every second call and reports the per-layer metrics.  The
last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the environment and the per-call
detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibration import HostClock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

BATCH = 200
WORKERS = 5  # processes of one end-to-end run, one after another
SETUP_PROBES_PER_WORKER = 2
LOSS_RTOL = 1e-9  # final loss against the seed-code table: reordered float sums pass, a wrong gradient does not
GRAD_TOL = 1e-6  # backprop gradient against central differences of the independent model
FD_CHECK_STEP = 1e-5


@dataclass(frozen=True)
class Workload:
    n_qubits: int
    depth_l: int
    method: str
    iterations: int  # per train() call, so one call takes roughly half a second
    check_coords: int  # gradient coordinates checked against central differences

    @property
    def param_count(self) -> int:
        return 2 * self.n_qubits * (self.depth_l + 1)


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "bp-deep": Workload(4, 20, "backprop", 25, 24),
    "fd-shallow": Workload(4, 5, "finite_difference", 3, 24),
}


def workload_of(args) -> tuple[Workload, int]:
    """(workload, batch size); ``--tiny`` keeps the method at the smallest size, for the smoke test."""
    w = WORKLOADS[args.workload]
    return (Workload(3, 1, w.method, 1, 4), 20) if args.tiny else (w, BATCH)


def import_qcgrad():
    """Import qcgrad from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcgrad

    if not Path(qcgrad.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qcgrad was imported from {qcgrad.__file__}, not from {src}")
    return qcgrad


def make_inputs(qcgrad, w: Workload, seed: int, batch: int):
    """(dataset, spec, head, config) of one workload; init_seed = seed + 1 as in ``qcgrad bench``."""
    dataset = qcgrad.gen_moons(count=batch, noise_sigma=0.0, seed=seed)
    spec = qcgrad.AnsatzSpec(n_qubits=w.n_qubits, depth_l=w.depth_l, feature_dim=2)
    cfg = qcgrad.TrainConfig(iterations=w.iterations, init_seed=seed + 1, gradient_method=w.method)
    return dataset, spec, qcgrad.ClassificationHead(gamma=cfg.gamma), cfg


def warm_up(qcgrad, dataset, spec, head, cfg) -> float:
    """One untimed 1-iteration train(); fills the package's lazy caches."""
    warm = qcgrad.TrainConfig(iterations=1, init_seed=cfg.init_seed, gradient_method=cfg.gradient_method)
    return float(qcgrad.train(dataset, spec, head, warm).loss_history[0])


# ---------------------------------------------------------------- environment


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- set-up time


def setup_probe(args) -> None:
    """Child process: import, generate, warm up, then report ready."""
    qcgrad = import_qcgrad()
    w, batch = workload_of(args)
    loss = warm_up(qcgrad, *make_inputs(qcgrad, w, args.seed, batch))
    print(f"ready {loss!r}", flush=True)


def setup_sample(args) -> float:
    """Wall time from the start of a fresh process to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    if not math.isfinite(float(line.split()[1])):
        raise RuntimeError("set-up probe warm-up loss is not finite")
    return elapsed


# ---------------------------------------------------------------- correctness


def reference_loss(workload: str, seed: int):
    """Seed-code final loss of one train() call, or None if the table lacks this seed."""
    table = json.loads((HERE / "reference.json").read_text())["final_loss"]
    value = table.get(workload, {}).get(str(seed))
    return None if value is None else float(value)


def oracle_checks(qcgrad, np, args) -> dict:
    """Untimed, once per run: loss and backprop gradient at theta_0 against the independent model.

    Two 1-iteration backprop train() calls with learning rates 1 and 1/2
    give theta_1 = theta_0 - lr * g, so g = 2 (theta_1(1/2) - theta_1(1))
    and theta_0 = theta_1(1) + g.
    """
    import oracle

    w, batch = workload_of(args)
    seed = args.seed
    dataset, spec, head, cfg = make_inputs(qcgrad, w, seed, batch)
    runs = []
    for lr in (1.0, 0.5):
        one = qcgrad.TrainConfig(learning_rate=lr, iterations=1, init_seed=cfg.init_seed, gradient_method="backprop")
        runs.append(qcgrad.train(dataset, spec, head, one))
    grad = (runs[1].final_theta - runs[0].final_theta) / 0.5
    theta0 = runs[0].final_theta + grad
    x, labels = dataset.x, np.asarray(dataset.targets, dtype=float)
    f = lambda th: oracle.loss(x, labels, th, w.n_qubits, w.depth_l, head.gamma)
    ref = f(theta0)
    loss_err = abs(float(runs[0].loss_history[0]) - ref) / abs(ref)
    grad_err = oracle.gradient_error(f, theta0, grad, np.random.default_rng(seed), w.check_coords, FD_CHECK_STEP)
    return {
        "loss0_rel_err": loss_err,
        "grad_fd_err": grad_err,
        "ok": bool(loss_err <= LOSS_RTOL and grad_err <= GRAD_TOL),
    }


class CallChecker:
    """Counts train() calls that raise, go non-finite, or change their final loss."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        self.attempted += 1
        losses = result.loss_history
        final = float(losses[-1])
        ok = all(math.isfinite(float(v)) for v in losses)
        if self.first is None:
            self.first = final
        ok = ok and final == self.first
        if self.reference is not None:
            ok = ok and abs(final - self.reference) <= LOSS_RTOL * abs(self.reference)
        if not ok:
            self.failed += 1
            print(f"call {self.attempted}: final loss {final!r} (first {self.first!r}, "
                  f"reference {self.reference!r})", file=sys.stderr)

    def raised(self) -> None:
        self.attempted += 1
        self.failed += 1
        traceback.print_exc(file=sys.stderr)


def timed_calls(qcgrad, inputs, checker: CallChecker, seconds: float, clock: HostClock,
                tracer=None) -> tuple[list, list]:
    """Closed loop of train() calls for ``seconds``; times of the calls that returned.

    With a ``tracer``, every second call runs with it installed, so traced
    and untraced calls see the same machine state.  ``clock`` is sampled
    before the first call and after every call.  Makes at least one call
    of each kind and raises if none returns.  Returns (untraced call times,
    traced call times), each a list of (wall seconds, host-speed-scaled
    seconds).
    """
    untraced, traced = [], []
    clock.mark()
    start = time.perf_counter()
    calls = 0
    while calls < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        tracing = tracer is not None and calls % 2 == 1
        if tracing:
            tracer.call_id = calls
            tracer.install()
        calls += 1
        t = time.perf_counter()
        try:
            result = qcgrad.train(*inputs)
            elapsed = time.perf_counter() - t
        except Exception:
            checker.raised()
            clock.mark()
            continue
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else untraced).append((elapsed, elapsed * clock.scale()))
        checker.check(result)
        # a result still referenced during the next call changes how malloc
        # serves that call's large arrays: about 30% slower at n=8, l=10
        del result
    if not untraced or (tracer and not traced):
        raise RuntimeError("every train() call of one kind raised")
    return untraced, traced


def measure(qcgrad, np, args, seconds: float, tracer=None) -> dict:
    """Set up one workload in this process, warm up, and run the timed loop."""
    w, batch = workload_of(args)
    dataset, spec, head, cfg = make_inputs(qcgrad, w, args.seed, batch)
    warm_up(qcgrad, dataset, spec, head, cfg)
    checker = CallChecker(None if args.tiny else reference_loss(args.workload, args.seed))
    if tracer is not None:
        tracer.install()
        try:
            qcgrad.gen_moons(count=batch, noise_sigma=0.0, seed=args.seed)
        finally:
            tracer.uninstall()
    clock = HostClock()
    untraced, traced = timed_calls(qcgrad, (dataset, spec, head, cfg), checker, seconds, clock, tracer)
    return {
        "untraced": untraced, "traced": traced, "attempted": checker.attempted, "failed": checker.failed,
        "first": checker.first, "reference": checker.reference, "calibration": clock.samples,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_worker(args, seconds: float) -> dict:
    """One measure() in a fresh process, which waits for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[list, list[dict], HostClock]:
    """Set-up probes and worker processes, one at a time: (set-up times, worker results, parent clock).

    Separate processes of the same workload gave median call times up to
    8% apart, so the timed seconds are split over WORKERS processes.
    """
    clock = HostClock()
    setup, workers = [], []
    for _ in range(WORKERS):
        for _ in range(SETUP_PROBES_PER_WORKER):
            clock.mark()
            elapsed = setup_sample(args)
            setup.append((elapsed, elapsed * clock.scale()))
        workers.append(run_worker(args, args.seconds / WORKERS))
    return setup, workers, clock


def medians(times: list) -> tuple[float, float]:
    """(median wall time, median scaled time) of (wall, scaled) pairs."""
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


# ---------------------------------------------------------------- tracing


def _run_variational_label(args, kwargs) -> str:
    record = kwargs.get("record", args[3] if len(args) > 3 else True)
    return ".record" if record else ".loss"


def _tape_nbytes(args, kwargs, result) -> int:
    if isinstance(result, (list, tuple)):
        return sum(getattr(a, "nbytes", 0) for a in result)
    return 0


def _apply_matrix_nbytes(args, kwargs, result) -> int:
    # computed: one read of the input, one write of the output, one temporary
    return 3 * getattr(args[0], "nbytes", 0) if args else 0


def make_probes():
    from tracer import Probe

    return [
        Probe("qcgrad.datasets:gen_moons", "datasets.gen_moons"),
        Probe("qcgrad.circuit:encode_batch", "circuit.encode_batch"),
        Probe("qcgrad.circuit:run_variational", "circuit.run_variational",
              label=_run_variational_label, nbytes=_tape_nbytes),
        Probe("qcgrad.state:apply_matrix", "state.apply_matrix", nbytes=_apply_matrix_nbytes),
        Probe("qcgrad.gates:ry", "gates.matrices", count_only=True),
        Probe("qcgrad.gates:rz", "gates.matrices", count_only=True),
        Probe("qcgrad.autodiff:backward_batch", "autodiff.backward_batch"),
        Probe("qcgrad.heads:classification_batch", "heads.classification_batch"),
        Probe("qcgrad.baselines:finite_difference_grad", "baselines.finite_difference_grad"),
        Probe("qcgrad.trainer:CircuitObjective.loss", "trainer.CircuitObjective.loss"),
        Probe("qcgrad.trainer:CircuitObjective.evaluate", "trainer.CircuitObjective.evaluate"),
        Probe("qcgrad.trainer:CircuitObjective.loss_and_grad_backprop",
              "trainer.CircuitObjective.loss_and_grad_backprop"),
        Probe("qcgrad.trainer:train", "trainer.train"),
    ]


# name -> (unit, better); per-iteration counts and seconds per 100 iterations
# are over the traced train() calls, so they add up like s_per_100it.
PER_LAYER = {
    "datasets.gen_moons.s": ("s/call", "lower"),
    "circuit.encode_batch.calls": ("count/call", "lower"),
    "circuit.encode_batch.s": ("s/call", "lower"),
    "circuit.run_variational.record.calls": ("count/iter", "lower"),
    "circuit.run_variational.record.self_s": ("s/100iter", "lower"),
    "circuit.run_variational.loss.calls": ("count/iter", "lower"),
    "circuit.run_variational.loss.self_s": ("s/100iter", "lower"),
    "circuit.tape_bytes": ("B", "lower"),
    "state.apply_matrix.calls_per_iter": ("count/iter", "lower"),
    "state.apply_matrix.s": ("s/100iter", "lower"),
    "state.apply_matrix.us_per_call": ("us", "lower"),
    "state.apply_matrix.bytes_per_call": ("B", "lower"),
    "state.apply_matrix.gbps": ("GB/s", "higher"),
    "gates.matrices_per_iter": ("count/iter", "lower"),
    "autodiff.backward_batch.calls": ("count/iter", "lower"),
    "autodiff.backward_batch.self_s": ("s/100iter", "lower"),
    "heads.classification_batch.calls": ("count/iter", "lower"),
    "heads.classification_batch.s": ("s/100iter", "lower"),
    "baselines.finite_difference_grad.self_s": ("s/100iter", "lower"),
    "baselines.loss_evals_per_iter": ("count/iter", "lower"),
    "trainer.CircuitObjective.loss.calls": ("count/iter", "lower"),
    "trainer.CircuitObjective.loss.s": ("s/100iter", "lower"),
    "trainer.CircuitObjective.evaluate.calls": ("count/iter", "lower"),
    "trainer.CircuitObjective.evaluate.s": ("s/100iter", "lower"),
    "trainer.CircuitObjective.loss_and_grad_backprop.calls": ("count/iter", "lower"),
    "trainer.CircuitObjective.loss_and_grad_backprop.s": ("s/100iter", "lower"),
    "trainer.train.self_s": ("s/100iter", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unaccounted_frac": ("frac", "lower"),
}


def layer_metrics(tracer, iterations: int, train_calls: int, overhead: float) -> dict[str, float]:
    inclusive, own = tracer.totals()
    counts, nbytes = tracer.counts, tracer.bytes
    per_iter = lambda name: counts.get(name, 0) / iterations
    per_100 = lambda table, name: table.get(name, 0.0) * 100.0 / iterations
    per_call = lambda name, table: table.get(name, 0) / counts[name] if counts.get(name) else 0.0
    am_calls = counts.get("state.apply_matrix", 0)
    am_busy = inclusive.get("state.apply_matrix", 0.0)
    am_bytes = nbytes.get("state.apply_matrix", 0)
    rv = "circuit.run_variational"
    accounted = (am_busy + own.get(rv + ".record", 0.0) + own.get(rv + ".loss", 0.0)
                 + own.get("autodiff.backward_batch", 0.0) + inclusive.get("heads.classification_batch", 0.0))
    train_s = inclusive.get("trainer.train", 0.0)
    m = {
        "datasets.gen_moons.s": per_call("datasets.gen_moons", inclusive),
        "circuit.encode_batch.calls": counts.get("circuit.encode_batch", 0) / train_calls,
        "circuit.encode_batch.s": per_call("circuit.encode_batch", inclusive),
        "circuit.tape_bytes": per_call(rv + ".record", nbytes),
        "state.apply_matrix.calls_per_iter": per_iter("state.apply_matrix"),
        "state.apply_matrix.s": per_100(inclusive, "state.apply_matrix"),
        "state.apply_matrix.us_per_call": am_busy / am_calls * 1e6 if am_calls else 0.0,
        "state.apply_matrix.bytes_per_call": am_bytes / am_calls if am_calls else 0.0,
        "state.apply_matrix.gbps": am_bytes / am_busy / 1e9 if am_busy else 0.0,
        "gates.matrices_per_iter": per_iter("gates.matrices"),
        "baselines.finite_difference_grad.self_s": per_100(own, "baselines.finite_difference_grad"),
        "baselines.loss_evals_per_iter": per_iter("trainer.CircuitObjective.loss"),
        "trainer.train.self_s": per_100(own, "trainer.train"),
        "trace.overhead_frac": overhead,
        "trace.unaccounted_frac": 1.0 - accounted / train_s if train_s else 0.0,
    }
    for name in (rv + ".record", rv + ".loss", "autodiff.backward_batch"):
        m[name + ".calls"] = per_iter(name)
        m[name + ".self_s"] = per_100(own, name)
    for name in ("heads.classification_batch", "trainer.CircuitObjective.loss",
                 "trainer.CircuitObjective.evaluate", "trainer.CircuitObjective.loss_and_grad_backprop"):
        m[name + ".calls"] = per_iter(name)
        m[name + ".s"] = per_100(inclusive, name)
    return m


def count_invariants(m: dict, w: Workload, missing: list[str]) -> list[str]:
    """Counts any correct implementation keeps; kernel-level counts are reported, never asserted."""
    errors = []
    if w.method == "finite_difference":
        if not any(t.endswith("CircuitObjective.loss") for t in missing) and \
                m["baselines.loss_evals_per_iter"] != 2 * w.param_count:
            errors.append(f"loss evaluations per iteration {m['baselines.loss_evals_per_iter']} != 2P = {2 * w.param_count}")
        if m["autodiff.backward_batch.calls"] != 0:
            errors.append("finite differences ran a backward pass")
    return errors


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest circuit and batch (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    qcgrad = import_qcgrad()
    import numpy as np

    sys.path.insert(0, str(HERE))
    if args.worker:
        print(json.dumps(measure(qcgrad, np, args, args.seconds)))
        return 0
    w, _ = workload_of(args)
    per_100 = 100.0 / w.iterations
    detail = {"workload": args.workload, "tiny": args.tiny, "env": env_block(np, args.seed),
              "iterations_per_call": w.iterations}

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(make_probes())
        runs = [measure(qcgrad, np, args, args.seconds, tracer)]
        calibration = runs[0]["calibration"]
    else:
        setup, runs, clock = end_to_end(args)
        calibration = [c for r in runs for c in r["calibration"]] + clock.samples
        detail["setup_samples_s"] = setup
    untraced = [t for r in runs for t in r["untraced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wall_call, scaled_call = medians(untraced)
    detail.update({
        "untraced_calls": len(untraced),
        "s_per_100it_quartiles": [t * per_100 for t in statistics.quantiles([t[1] for t in untraced], n=4)]
        if len(untraced) > 1 else None,
        "s_per_100it_per_process": [medians(r["untraced"])[1] * per_100 for r in runs],
        "wall_s_per_100it": wall_call * per_100,
        "calibration_s": {"median": statistics.median(calibration), "min": min(calibration),
                          "max": max(calibration), "samples": len(calibration)},
        "reference_final_loss": runs[0]["reference"],
        "first_final_loss": [r["first"] for r in runs],
    })
    errors = []
    if len({r["first"] for r in runs}) > 1:
        errors.append(f"final losses differ between processes: {detail['first_final_loss']}")
    oracle = oracle_checks(qcgrad, np, args)
    detail["oracle"] = oracle
    if not oracle["ok"]:
        errors.append(f"oracle check failed: {oracle}")

    if args.trace:
        traced = runs[0]["traced"]
        overhead = medians(traced)[1] / scaled_call - 1.0
        metrics = layer_metrics(tracer, len(traced) * w.iterations, len(traced), overhead)
        errors += count_invariants(metrics, w, tracer.missing)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write_csv(spans)
        detail.update(traced_calls=len(traced), missing_probes=tracer.missing, spans_file=str(spans.relative_to(ROOT)))
        result_metrics = {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    else:
        result_metrics = {
            "s_per_100it": {"value": scaled_call * per_100, "unit": "s"},
            "setup_s": {"value": medians(setup)[1], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_mb"] for r in runs), "unit": "MB"},
        }

    for e in errors:
        print(e, file=sys.stderr)
    for name, metric in result_metrics.items():
        print(f"{args.workload:11s} {name:54s} {metric['value']:14.6g} {metric['unit']}")
    detail["errors"] = errors
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
