"""One round of one workload in a fresh process; prints one JSON line.

    python3 perfbench/round.py WORKLOAD SEED SPAWNED [--trace] [--setup-only] [--small]

SPAWNED is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` counts
process start, interpreter start-up, ``import ergodist`` and building the
inputs. The timed section follows; its CPU time includes pool workers the
package reaps inside it. Peak RSS is read before the checks run.

The host's speed drifts by a third within minutes and changes within
seconds, so the round reports its times at a reference speed as well as
raw. It times a fixed loop on each CPU (``speed``) after set-up and after
each step of the timed section, outside the clock: a workload whose ``run``
is a generator pauses at each ``yield``, any other is one step. A step's
times are scaled by the loop time around it, and set-up by the loop time
after it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
os.chdir(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

# The machine's speed is sampled between the steps of the round: on each
# CPU, SPEED_SAMPLES loops of SPEED_STEPS steps.
SPEED_STEPS = 50_000
SPEED_SAMPLES = 8
# Median time of the speed loop on the reference machine (README). A time t
# measured while the loop took s seconds is reported as t * REF_SPEED_S / s.
REF_SPEED_S = 0.0100


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _speed_sample() -> float:
    """Time of a fixed pure-Python loop of Euler steps, apart from the program."""
    t = time.perf_counter()
    x, dt = 0.5, 0.005
    for i in range(SPEED_STEPS):
        x = x + (-x) * dt + 0.1 * (((i * 7919) % 200) - 99.5) * 0.001
    return time.perf_counter() - t


def _speed_samples() -> list[list[float]]:
    """SPEED_SAMPLES loop times on each allowed CPU, one list per CPU: the
    host can slow one virtual CPU and not the other, and the workload may
    run on either. The process's CPU affinity is restored before returning."""
    cpus = sorted(os.sched_getaffinity(0))
    samples: list[list[float]] = [[] for _ in cpus]
    try:
        for _ in range(SPEED_SAMPLES):
            for i, cpu in enumerate(cpus):
                os.sched_setaffinity(0, {cpu})
                samples[i].append(_speed_sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def _speed_s(samples: list[list[float]]) -> float:
    """Loop time from samples taken on each CPU: the mean over the CPUs of
    each CPU's median sample."""
    return statistics.fmean(statistics.median(cpu) for cpu in samples)


def _steps(run, inputs):
    """The timed section as a generator: the workload's own steps, or one."""
    if inspect.isgeneratorfunction(run):
        return (yield from run(inputs))
    return run(inputs)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("spawned", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    inputs = wl.setup(args.seed, args.small)
    setup_s = time.monotonic() - args.spawned
    before = _speed_samples()
    raw = {"setup_s": setup_s}
    report = {"setup_s": setup_s * REF_SPEED_S / _speed_s(before)}
    if args.setup_only:
        print(json.dumps({**report, "raw": raw}))
        return
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    steps = _steps(wl.run, inputs)
    wall = cpu = wall_scaled = cpu_scaled = 0.0
    speeds = []
    while True:
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        try:
            next(steps)
            done = False
        except StopIteration as stop:
            outputs, done = stop.value, True
        step_wall = time.monotonic() - t0
        step_cpu = _cpu_s() - cpu0
        after = _speed_samples()
        speed = _speed_s([b + a for b, a in zip(before, after)])
        speeds.append(speed)
        wall += step_wall
        cpu += step_cpu
        wall_scaled += step_wall * REF_SPEED_S / speed
        cpu_scaled += step_cpu * REF_SPEED_S / speed
        before = after
        if done:
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t1 = time.monotonic()
    outcome = wl.check(inputs, outputs)
    t2 = time.monotonic()
    raw.update(wall_s=wall, cpu_s=cpu)
    report.update({
        "wall_s": wall_scaled,
        "cpu_s": cpu_scaled,
        "peak_rss_mb": peak_kib / 1024.0,
        "check_s": t2 - t1,
        "raw": raw,
        "steps": len(speeds),
        "speed_ms": 1e3 * statistics.fmean(speeds),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "info": outcome.info,
    })
    if tracer is not None:
        outdir = os.path.join(workloads.OUT_ROOT, args.workload)
        if os.path.isdir(outdir):
            tracer.output_bytes = workloads.output_bytes(outdir)
        report["layers"] = spans.layer_metrics(tracer)
        os.makedirs(workloads.OUT_ROOT, exist_ok=True)
        spans.save(tracer, os.path.join(workloads.OUT_ROOT, f"trace_{args.workload}.npz"),
                   {"workload": args.workload, "seed": args.seed, "wall_s": wall})
    print(json.dumps(report))


if __name__ == "__main__":
    main()
