"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of the workloads in
``workloads.py`` or ``all`` (every workload in turn, in this one process).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record (environment, digests, counters)
is written to ``perfbench/results/``; the traced run also writes its spans
there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Run BLAS on one thread, so that a run's times do not depend on how
    much of the host's CPUs it gets; must run before numpy is imported.
    Returns the number of CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def use_checkout_source() -> None:
    """Import localtriplet from this checkout's src/, never an installed copy."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import localtriplet
    if Path(localtriplet.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"localtriplet imported from {localtriplet.__file__}, "
                         f"not from {ROOT / 'src'}")


def blas_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "env_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    # OpenBLAS reports its own thread count; other libraries leave it null
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    record["threads"] = None
    return record


def git_rev() -> str:
    """HEAD of the checkout's git repository, read from .git; "unknown"
    where the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_record(nproc: int, seeds: dict) -> dict:
    import numpy as np
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_record(), "nproc": nproc,
            "seeds": seeds}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns its full result record."""
    from tracing import Tracer
    from workloads import Bench, instance_seeds, run_traced, run_untraced

    workdir = HERE / "work" / f"{workload.name}-{os.getpid()}"
    # the traced run measures the first instance only
    seeds = instance_seeds(workload, seed)[:1 if trace else None]
    benches = [Bench(workload, s, workdir, references=not trace) for s in seeds]
    tracer = Tracer() if trace else None
    try:
        out = (run_traced(benches[0], seconds, tracer) if trace
               else run_untraced(benches, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tallies = [b.tally for b in benches]
    problems = [f"data seed {b.seed}: {p}" for b in benches for p in b.tally.problems]
    failed = sum(t.failed for t in tallies)
    result = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "correct": failed == 0 and not problems,
              "attempted": sum(t.attempted for t in tallies), "failed": failed,
              "metrics": out["metrics"], "info": out["info"],
              "digests": {str(b.seed): b.tally.digests for b in benches},
              "problems": problems}
    if tracer is not None:
        result["spans"] = f"{workload.name}-seed{seed}.spans.jsonl"
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / result["spans"])
    return result


def main(argv=None) -> int:
    nproc = limit_blas_threads()
    use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = env_record(nproc, {name: args.seed for name in names})
    print("environment: " + json.dumps(env, sort_keys=True))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
        print(f"== {name} (seed {args.seed}): attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for metric, (value, unit) in result["metrics"].items():
            print(f"  {metric:48s} {value!r} {unit}")
        print("  info: " + json.dumps({k: v for k, v in result["info"].items()
                                       if k != "samples"}, sort_keys=True))
        print("  digests: " + json.dumps(result["digests"], sort_keys=True))
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}:" if len(names) > 1 else ""
        for metric, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
