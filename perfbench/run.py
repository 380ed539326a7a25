"""Benchmark for causalcomb: one command, one process, BLAS on one thread.

    python3 perfbench/run.py --workload general-exact --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the library from
``src/`` and nothing else.  The workloads are described in
``workloads.py``.  A run builds its workload from ``--seed`` several times
(the median is ``setup_s``), then loops over one fixed pass of tasks,
closed-loop with one caller, until ``--seconds`` have passed, stopping only
at the end of a pass so that every run covers the same inputs.  After the
loop, every output goes through the correctness gate.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics of exactly one traced pass,
run after one untraced pass that gives the tracing overhead; the spans go
to ``.bench_out/``.  The line before the last is the run record: versions,
thread settings, the seed, the ``src/`` line count, and the exact counts
(billed queries, swap tests, pairs tested) of one pass.

What each metric measures, and which modules are left unmeasured and why,
is in ``README.md``.
"""

import os

# Pinned before NumPy is imported: OpenBLAS reads these once, at load time.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 5


def import_library():
    """Import NumPy and the library from ``src/``; refuse any other copy."""
    if not (SRC / "causalcomb" / "__init__.py").is_file():
        raise ImportError(f"no causalcomb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import causalcomb
    import numpy

    if Path(causalcomb.__file__).resolve().parent != SRC / "causalcomb":
        raise ImportError(f"imported causalcomb from {causalcomb.__file__}, not {SRC}")
    return numpy


def git_sha() -> str:
    """HEAD commit read from ``.git`` directly; a bare source tree has none."""
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


def run_record(numpy, args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(p.read_text().count("\n") for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k in THREAD_ENV},
        "src_lines": src_lines,
    }


def run_pass(tasks, tracer=None):
    """One pass over ``tasks``; returns per-op latencies (s) and outcomes."""
    latencies, outcomes = [], []
    for i, task in enumerate(tasks):
        start = perf_counter()
        out = task.run() if tracer is None else tracer.op(i, task.run)
        latencies.append(perf_counter() - start)
        outcomes.append(out)
    return latencies, outcomes


def pass_counts(outcomes) -> dict:
    """Exact counts of one pass; identical across runs on one seed."""
    return {
        "queries_per_op": sum(o.queries for o in outcomes) / len(outcomes),
        "discovery.swap_tests": sum(o.swap_tests for o in outcomes),
        "discovery.pairs_tested": sum(o.pairs_tested for o in outcomes),
        "discovery.totalorder_retries": sum(o.retried for o in outcomes),
        "stages_accepted": sum(o.stages_accepted for o in outcomes),
    }


def measure(workload, seconds: float):
    """Untraced closed loop over whole passes until ``seconds`` have elapsed."""
    latencies, outcomes, passes = [], [], 0
    start = perf_counter()
    while True:
        lat, out = run_pass(workload.tasks)
        latencies += lat
        outcomes += out
        passes += 1
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = sorted(x * 1e3 for x in latencies)
    p50, p90 = (statistics.quantiles(ms, n=10, method="inclusive")[k] for k in (4, 8))
    metrics = {
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ops_per_s": len(ms) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"ops": len(ms), "passes": passes, "loop_s": wall}
    return metrics, outcomes, info


def measure_traced(workload, args):
    """One untraced pass, then one traced pass; per-layer metrics of the latter."""
    from tracing import SPAN_NAMES, Tracer

    start = perf_counter()
    _, untraced = run_pass(workload.tasks)
    untraced_s = perf_counter() - start

    tracer = Tracer()
    with tracer.installed():
        start = perf_counter()
        _, traced = run_pass(workload.tasks, tracer)
        traced_s = perf_counter() - start
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    n_ops = len(workload.tasks)
    summary = tracer.summary()
    metrics = {
        f"{span}.{field}": summary[span][field]
        for span in SPAN_NAMES
        for field in ("calls", "ms", "self_ms")
    }
    counts = pass_counts(traced)
    metrics.update(counts)
    metrics.update(
        {
            "tensors.choi_mb_touched": tracer.counters["tensors.choi_mb_touched"],
            "oracle.table_cells": tracer.counters["oracle.table_cells"],
            "discovery.accept_ratio": (
                counts["stages_accepted"] / max(counts["discovery.pairs_tested"], 1)
            ),
            "trace.ops_per_s": n_ops / traced_s,
            "trace.untraced_ops_per_s": n_ops / untraced_s,
            "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        }
    )
    return metrics, untraced + traced, {"ops": 2 * n_ops, "passes": 2}


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    start = perf_counter()
    try:
        numpy = import_library()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    args = parse_args(argv)

    # Draws 1.. build fresh combs, so that setup_s is not one seed's luck in
    # totalorder rejection sampling, and are dropped before the next set-up
    # so that they do not raise peak_rss_mb.  Draw 0, from the seed itself,
    # comes last and is the one the timed loop uses.
    setups = []
    for draw in [*range(1, SETUP_REPEATS), 0]:
        start = perf_counter()
        workload = workloads.build(args.workload, args.seed, args.tiny, draw)
        for task in workload.warmup:
            task.run()
        setups.append(perf_counter() - start)
        if draw:
            del workload
    gc.collect()

    if args.trace:
        metrics, outcomes, info = measure_traced(workload, args)
    else:
        metrics, outcomes, info = measure(workload, args.seconds)
        metrics["setup_s"] = import_s + statistics.median(setups)

    failures = workloads.gate(workload.tasks, outcomes)
    n_tasks = len(workload.tasks)
    if args.trace and pass_counts(outcomes[:n_tasks]) != pass_counts(outcomes[n_tasks:]):
        failures.append("tracing changed the counts of a pass")
    for line in failures:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    if args.trace:
        metrics["fail_rate"] = len(failures) / len(outcomes)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = run_record(numpy, args)
    record.update(info)
    record.update(import_s=import_s, setup_runs_s=setups)
    record["counts"] = pass_counts(outcomes[:n_tasks])
    record["counts"]["fail_rate"] = len(failures) / len(outcomes)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
