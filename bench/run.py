"""Benchmark of the spinsqueeze package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process issues one request at a time (a closed loop with one client); a
request is one call into the program, either ``spinsqueeze.cli.run_cli`` or a
library function. Every output is checked against ``oracles``. The last line
of standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run, which follows an untraced run of the
same rounds to measure its own overhead. The program is imported from the
``src`` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
SETUP_PROBES = 3


def _import_program() -> None:
    if not (SRC / "spinsqueeze" / "__init__.py").is_file():
        sys.exit(f"bench: no spinsqueeze package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))


def run_phase(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed; time each request.

    Throughput is the operations completed divided by the time spent inside
    requests, so the benchmark's own input generation and checks do not count.
    Raises ``CheckError`` on the first wrong output. A request that raises
    fails its job's operations and skips the job's remaining requests.
    """
    latencies: list[float] = []
    attempted = failed = 0
    began = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - began < seconds:
        for job in workload.round(seed, index, str(OUT)):
            attempted += job.ops
            job_failed = 0
            for req in job.requests:
                if tracer is not None:
                    tracer.request_id += 1
                t0 = time.perf_counter()
                try:
                    result = req.call()
                except Exception:  # a failed operation, counted, not an abort
                    latencies.append(time.perf_counter() - t0)
                    traceback.print_exc(file=sys.stderr)
                    job_failed = job.ops
                    break
                latencies.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.active = False
                job_failed += req.check(result)
                if tracer is not None:
                    tracer.active = True
            failed += job_failed
        index += 1
    busy = sum(latencies)
    return {"attempted": attempted, "failed": failed, "rounds": index,
            "requests": len(latencies), "busy_s": busy,
            "ops_per_s": (attempted - failed) / busy,
            "request_p50_ms": statistics.median(latencies) * 1e3}


def setup_probe(workload_name: str, seed: int) -> None:
    """What a fresh process pays before its first timed request: import,
    input generation and one tiny request of every kind."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.round(seed, 0, str(OUT))
    for job in workload.warmup(str(OUT)):
        for req in job.requests:
            req.call()


def measure_setup(workload_name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload_name, "--seed", str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from oracles import CheckError
    from spans import Tracer, metric_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"bench: {workload.name} seed={args.seed} cpus={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
          f"SQZ_THREADS={os.environ.get('SQZ_THREADS', 'unset')}", file=sys.stderr)

    for job in workload.warmup(str(OUT)):
        for req in job.requests:
            req.call()
    setup_s = measure_setup(workload.name, args.seed)

    tracer = None
    try:
        plain = run_phase(workload, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = plain
        if args.trace:
            tracer = Tracer()
            tracer.install()
            stats = run_phase(workload, args.seed, args.seconds, tracer)
            tracer.uninstall()
    except CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(f"bench: {stats['rounds']} rounds, {stats['requests']} requests, "
          f"{stats['busy_s']:.3f} s in requests", file=sys.stderr)

    if args.trace:
        overhead = 1.0 - stats["ops_per_s"] / plain["ops_per_s"]
        values = tracer.metrics(stats["rounds"], overhead)
        tracer.save(str(OUT / f"spans-{workload.name}.npz"))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": stats["ops_per_s"], "unit": "ops/s"},
            "request_p50_ms": {"value": stats["request_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
