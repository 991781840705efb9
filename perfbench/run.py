"""trendlab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload daily_batch --seed 0 --seconds 35 --trace 0

Run from anywhere inside a checkout that has ``src/trendlab``. The load is
a closed loop: one client in this process, each operation starting when
the previous one ends; BLAS/OpenMP pools are pinned to one thread. Set-up
writes the seeded inputs under ``.perfbench/`` in the checkout, runs one
untimed warm-up operation, then repeats whole rounds of the workload's
operations for about ``--seconds``. Every output is checked; a raise or a
failed check counts the operation as failed.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` untraced and traced rounds alternate; the result carries
the per-layer metrics of the traced rounds (per round) and the tracing
overhead, and the coarse spans are written to ``.perfbench/``.
The line before the result is a report with every workload metric, the
seed and the environment.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 0  # the seed whose outputs are stored under reference/
SETUP_SAMPLES = 9
IMPORT = "import trendlab, trendlab.cli"
CHILD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                f"{IMPORT}; print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("daily_batch", "long_history", "gbm_lab"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own smoke tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's first-round summaries as the reference")
    return parser.parse_args(argv)


def child_import_time() -> float:
    """The set-up import timed in a fresh interpreter, waited for before
    this returns (the benchmark never runs two processes at once)."""
    child = subprocess.run([sys.executable, "-c", CHILD_IMPORT, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_round(workload, tracer) -> dict:
    """One pass over the workload's operations; failures are counted."""
    samples, failures = [], []
    ops = workload.ops()
    for op in ops:
        try:
            if tracer is None:
                sample = workload.run(op, None)
            else:
                with tracer.operation(f"{workload.name}.{op.key}"):
                    sample = workload.run(op, tracer)
            errors = workload.check(op, sample)
        except Exception as exc:  # a failing operation is counted, not fatal
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            failures += [f"{op.key}: {e}" for e in errors]
            continue
        sample.data = None
        samples.append((op, sample))
    return {"samples": samples, "failures": failures, "attempted": len(ops),
            "failed": len(ops) - len(samples),
            "wall_s": sum(s.latency for _, s in samples)}


def measure(workload, seconds: float, setup: list[float], tracer=None) -> list[dict]:
    """Whole rounds until the next one would overrun ``seconds``. With a
    tracer, untraced and traced rounds alternate (at least one of each).

    Between rounds, fresh-interpreter set-up samples are appended to
    ``setup`` until it holds SETUP_SAMPLES, spread evenly over the run so
    that one slow spell of a shared host does not decide ``setup_s``.
    Their time is not counted as measured time."""
    rounds = []
    busy = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            result = run_round(workload, tracer if traced else None)
        finally:
            busy += time.perf_counter() - start
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        rounds.append(result)
        minimum = 2 if tracer is not None else 1
        done = len(rounds) >= minimum and busy * (len(rounds) + 1) / len(rounds) > seconds
        due = SETUP_SAMPLES if done or seconds <= 0 else min(
            SETUP_SAMPLES, 1 + int((SETUP_SAMPLES - 1) * busy / seconds))
        while len(setup) < due:
            setup.append(child_import_time())
        if done:
            return rounds


def best_latencies(rounds) -> dict[str, float]:
    """Each operation's fastest repetition in the run, by operation key."""
    best: dict[str, float] = {}
    for r in rounds:
        for op, sample in r["samples"]:
            best[op.key] = min(sample.latency, best.get(op.key, sample.latency))
    return best


def end_to_end(workload, rounds, setup) -> dict:
    samples = [x for r in rounds for x in r["samples"]]
    best = list(best_latencies(rounds).values())
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(best), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(best) if best else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return metrics, (workload.report(samples) if samples else {})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trendlab" / "__init__.py").is_file():
        print(f"error: no trendlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import trendlab.cli  # noqa: F401  (the import that setup_s times)
    setup = [time.perf_counter() - start]

    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    reference_path = HERE / "reference" / f"{args.workload}.json"
    reference = None
    if args.seed == DEFAULT_SEED and args.size == "full" and not args.write_reference:
        reference = json.loads(reference_path.read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir, reference)
        warm = workload.ops()[0]
        try:
            workload.run(warm, None)
        except Exception:  # the same operation fails, and is counted, when measured
            pass
        tracer = tracing.Tracer() if args.trace else None
        rounds = measure(workload, args.seconds, setup, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    e2e, detail = end_to_end(workload, untraced, setup)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(untraced), "traced_rounds": len(traced),
        "operations_per_round": len(workload.ops()),
        "setup_samples_s": setup,
        "round_wall_s": [r["wall_s"] for r in untraced],
        "op_best_s": best_latencies(untraced),
        "metrics": {**e2e, **detail,
                    "failed_frac": {"value": failed / attempted, "unit": "ratio",
                                    "base": f"{attempted} operations attempted"}},
        "failures": failures[:20],
        "environment": environment(),
    }
    if tracer is not None:
        overhead = sum(best_latencies(traced).values()) - e2e["wall_s"]["value"]
        metrics = {**tracer.metrics(len(traced)),
                   "trace.overhead_s": {"value": overhead, "unit": "s"}}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["per_layer"] = metrics
    else:
        metrics = e2e
    if args.write_reference:
        reference_path.write_text(json.dumps(workload.summaries, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
