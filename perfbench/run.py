"""The repository's benchmark: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload sparse-loop --seconds 1 --trace 1 --smoke

A run sets its workload up several times (``setup_s`` is the median CPU
time), warms up, then measures for ``--seconds``.  Timed metrics are CPU
time of this process, not wall clock.  With ``--trace 0`` the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric; the line before it is a detail record with the
environment, sample counts and percentiles.  ``--trace 1`` first measures
half the time untraced, then installs the span recorder of
``perfbench/tracer.py`` and measures the other half; its metrics are the
per-layer ones plus the tracing overhead.  ``--workload all`` runs every
workload in a fresh process of its own.  ``--smoke`` swaps in tiny inputs.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-fit", "sparse-loop", "serve-http", "grow-refresh")
#: BLAS runs one thread unless the caller says otherwise: on the 2-vCPU
#: reference box two OpenBLAS threads made repeats of one r-top10 fit take
#: 8.0 to 11.6 s, one thread 13.8 to 14.4 s.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

#: (metric, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("fscore", "score"),
    ("nmi", "score"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    return parser.parse_args(argv)


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest of p99 / p90 with ten samples beyond it, else the maximum."""
    for label, share in (("p99", 0.99), ("p90", 0.90)):
        if len(samples) * (1.0 - share) >= 10:
            return label, statistics.quantiles(samples, n=100)[round(share * 100) - 1]
    return "max", max(samples)


def windowed(measurement, windows: int) -> dict:
    """p50, tail and throughput per time window, and their medians."""
    width = measurement.seconds / windows
    groups = [[] for _ in range(windows)]
    for end, latency in zip(measurement.ends, measurement.latencies):
        groups[min(int(end / width), windows - 1)].append(1e3 * latency)
    groups = [group for group in groups if group] or [[0.0]]
    per_window = {
        "p50_ms": [statistics.median(group) for group in groups],
        "tail_ms": [tail_percentile(group)[1] for group in groups],
        "per_s": [len(group) / width for group in groups],
    }
    return {"tail_percentile": tail_percentile(groups[0])[0],
            "per_window": per_window,
            **{name: statistics.median(values)
               for name, values in per_window.items()}}


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in BLAS_THREAD_VARIABLES},
    }


def run_workload(args: argparse.Namespace) -> int:
    from tracer import Tracer, install_layers, layer_metrics
    from workloads import WORKLOADS, Measurement, cpu_seconds

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    checks = Measurement()
    try:
        setup_times, setup_wall = [], []
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.teardown()
            start, start_cpu = time.perf_counter(), cpu_seconds()
            workload.setup(checks)
            setup_wall.append(time.perf_counter() - start)
            setup_times.append(cpu_seconds() - start_cpu)
        workload.warmup(checks)
        if args.trace:
            plain = workload.measure(args.seconds / 2)
            tracer = Tracer()
            install_layers(tracer)
            workload.tracer = tracer
            try:
                timed = workload.measure(args.seconds / 2)
            finally:
                tracer.restore()
                workload.tracer = None
            phases = (plain, timed)
        else:
            timed = workload.measure(args.seconds)
            phases = (timed,)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    for phase in phases:
        checks.absorb(phase)
    attempted, failed = checks.attempted, checks.failed
    stats = windowed(timed, workload.windows)
    fscore, nmi = (statistics.fmean(column)
                   for column in zip(*(timed.scores or [(0.0, 0.0)])))
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "cpu_ms_per_op": 1e3 * statistics.median(timed.cpu),
        "fscore": fscore,
        "nmi": nmi,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(),
        "setup_s_samples": setup_times, "setup_wall_s_samples": setup_wall,
        "samples": len(timed.latencies),
        "cpu_ms_per_op_samples": [1e3 * value for value in timed.cpu],
        "latency_p50_ms": stats["p50_ms"], "throughput_per_s": stats["per_s"],
        "latency_tail_ms": stats["tail_ms"],
        "tail_percentile": stats["tail_percentile"],
        "windows": stats["per_window"], "measured_s": timed.seconds,
        "failed_fraction": failed / max(attempted, 1),
        "failures": checks.failures,
    }
    if args.trace:
        plain_cpu = statistics.median(plain.cpu)
        overhead = statistics.median(timed.cpu) / plain_cpu - 1.0
        metrics = layer_metrics(tracer, len(timed.latencies), overhead)
        detail["untraced_cpu_ms_per_op"] = 1e3 * plain_cpu
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True,
                                   cwd=ROOT, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(completed.stderr)
        if not lines:
            print(f"{name}: no result (exit {completed.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
