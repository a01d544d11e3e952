#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory.  Set-up is
timed at least SETUP_REPEATS times and reported as its median.  Then
whole rounds of the workload's operations run, closed-loop from one
thread, until the next round would pass ``--seconds`` and at least
MIN_OPS operations have run.  Set-up and operation times are scaled to
a reference core speed, measured by a probe loop after every set-up and
every operation.  Throughput is the median over rounds; latency
percentiles pool every completed operation.  Outputs of the first round
are checked against the independent computations in ``checks.py``, later
rounds against the first.  With ``--trace 1`` the public functions of
every layer are wrapped and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 0.5
SETUP_PROBES = 3  # probes after each set-up, which scale set-up time like the operations
MIN_OPS = 200  # so that at least ten latencies lie beyond the 95th percentile
IMPORT_PROBES = 5
# A core of a shared host can change speed by a quarter within a minute,
# and the same computation speeds up and slows down with it.  A fixed
# loop, timed after every operation, tracks that speed: each round's times
# are scaled by PROBE_REF_S over the round's median probe time, which
# reads as times on a core that runs the probe in exactly PROBE_REF_S.
PROBE_ITERATIONS = 12000
PROBE_REF_S = 0.001


def probe_seconds() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += (i * i) % 7
    return time.perf_counter() - started


def measure(workload, seconds: float, tracer=None) -> dict:
    setup_times, setup_probes = [], []
    while not setup_times or not tracer and (
        len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
    ):
        started = time.perf_counter()
        ops = workload.setup()
        setup_times.append(time.perf_counter() - started)
        setup_probes += [probe_seconds() for _ in range(SETUP_PROBES)]
    latencies, problems = [], []
    attempted = failed = rounds = 0
    throughputs, round_busy, scales = [], [], []  # per round: op/s, busy seconds, speed scale
    first = []
    clock_start = time.perf_counter()
    while True:
        rounds += 1
        if tracer:
            tracer.phase = rounds
        round_start = time.perf_counter()
        busy, completed, round_latencies, probes = 0.0, 0, [], []
        for k, op in enumerate(ops):
            attempted += 1
            started = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # every failure is counted, unexpected ones also reported
                busy += time.perf_counter() - started
                failed += 1
                if not (op.expect_failure and isinstance(exc, workload.expected_failure)):
                    problems.append(f"{op.kind}: unexpected {type(exc).__name__}: {exc}")
                out = None
            else:
                elapsed = time.perf_counter() - started
                busy += elapsed
                completed += 1
                round_latencies.append(elapsed)
            if rounds == 1:
                first.append(out)
            elif (out is None) != (first[k] is None) or (
                out is not None and workload.digest(out) != workload.digest(first[k])
            ):
                problems.append(f"{op.kind}: round {rounds} output differs from round 1")
            probes.append(probe_seconds())
        scale = PROBE_REF_S / statistics.median(probes)
        latencies.extend(x * scale for x in round_latencies)
        throughputs.append(completed / (busy * scale))
        round_busy.append(busy)
        scales.append(scale)
        now = time.perf_counter()
        if now - clock_start + (now - round_start) > seconds and attempted >= MIN_OPS:
            break
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" and not tracer else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for op, out in zip(ops, first):
        if out is not None:
            problems.extend(f"{op.kind}: {msg}" for msg in workload.check(op, out))
    latencies.sort()
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": rounds,
        "round_busy_s": statistics.median(round_busy),
        "speed_scale": statistics.median(scales),
        "first": first,
        "metrics": {
            "ops_per_s": (statistics.median(throughputs), "op/s"),
            "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "latency_p95_ms": (1000.0 * latencies[math.ceil(0.95 * len(latencies)) - 1], "ms"),
            "setup_s": (statistics.median(setup_times) * PROBE_REF_S / statistics.median(setup_probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def import_seconds(env) -> float:
    """Median time to import markovshift.cli in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import markovshift.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        proc.check_returncode()
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one core for this process and its children, so that the probe
        # times the core that runs every operation, the cli children's too
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isdir(os.path.join(SRC, "markovshift")):
        print(f"error: the markovshift sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import markovshift
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            tracer = tracing.Tracer(markovshift.UndecidedError)
            workload.in_process = True
            tracer.install()
            try:
                result = measure(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
            totals = tracer.totals(result["rounds"])
            totals["cli.import_s"] = import_seconds(workloads.child_env())
            if workload.name == "cli":
                totals["cli.report_bytes"] = sum(len(out[1].encode()) for out in result["first"] if out)
            metrics = {name: {"value": totals.get(name, 0), "unit": unit} for name, unit, _ in tracing.PER_LAYER}
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
                summary = {key: result[key] for key in ("rounds", "round_busy_s", "speed_scale", "attempted", "failed")}
                json.dump(dict(summary, spans=len(tracer.spans), layers=totals), fh, indent=1)
        else:
            result = measure(workload, args.seconds)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"rounds {result['rounds']}, median speed scale {result['speed_scale']:.4f}", file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
