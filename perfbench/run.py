"""ergodist benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Every round is a fresh process (``round.py``), one at a time,
so set-up cost and page-fault behaviour are those of a real CLI call.

--trace 0  runs whole rounds until ``--seconds`` have passed (at least one).
           Times are at the reference machine speed (see ``round.py``).
           ``wall_s`` and ``cpu_s`` are the mean over the rounds,
           ``peak_rss_mb`` the median over the rounds, and ``setup_s`` the
           median over at least five fresh processes (extra set-up-only
           processes make up the count).
--trace 1  runs one untraced and one traced round and reports every
           per-layer metric of the traced round, plus the tracing overhead
           against the untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits 1
without that line if a round crashes, and 2 outside a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402

WORKLOADS = ("experiment_ou", "experiment_quartic_2w", "tables_and_bounds", "long_path")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "cpu_s": "s"}
MIN_SETUPS = 5
# A run must end within 180 s: start no round that would not finish by this.
BUDGET_S = 150.0


def _clean_env() -> dict:
    """The default environment: no allocator tuning and no thread caps, so
    the page-fault cost of large temporaries stays in the measurement."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and not k.endswith("_NUM_THREADS")
           and k != "VECLIB_MAXIMUM_THREADS"}
    return env


def _round(workload: str, seed: int, *flags: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned), *flags], cwd=ROOT, env=_clean_env(),
                          stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _verdict(rounds: list[dict]) -> tuple[bool, int, int]:
    correct = True
    for r in rounds:
        for msg in r["problems"]:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
            correct = False
    digests = [r["info"].get("digests") for r in rounds]
    if any(d != digests[0] for d in digests):
        print("CHECK FAILED: output digests differ between rounds", file=sys.stderr)
        correct = False
    return correct, sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds)


def measure(workload: str, seed: int, seconds: float, flags: list[str]) -> dict:
    start = time.monotonic()
    rounds: list[dict] = []
    last = 0.0
    while True:
        t = time.monotonic()
        rounds.append(_round(workload, seed, *flags, timeout=BUDGET_S - (t - start) + 25.0))
        last = time.monotonic() - t
        r = rounds[-1]
        raw = r["raw"]
        print(f"round {len(rounds)}: wall {raw['wall_s']:.3f} s, setup {raw['setup_s']:.3f} s, "
              f"cpu {raw['cpu_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MiB, "
              f"checks {r['check_s']:.3f} s, speed loop {r['speed_ms']:.2f} ms "
              f"over {r['steps']} steps, scaled wall {r['wall_s']:.3f} s, "
              f"{json.dumps(r['info'])}")
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + last > BUDGET_S:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(_round(workload, seed, "--setup-only", *flags, timeout=30.0)["setup_s"])
    correct, attempted, failed = _verdict(rounds)
    # The host slows down in bursts of a fraction of a second, which hit
    # one round and not the next: the mean over the rounds uses every
    # measured second, where the median of a handful of rounds rests on one.
    metrics = {name: statistics.fmean(r[name] for r in rounds) for name in ("wall_s", "cpu_s")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    print(f"{len(rounds)} rounds; unscaled means: "
          + ", ".join(f"{name} {statistics.fmean(r['raw'][name] for r in rounds):.4f} s"
                      for name in ("wall_s", "cpu_s", "setup_s")))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def measure_traced(workload: str, seed: int, flags: list[str]) -> dict:
    plain = _round(workload, seed, *flags, timeout=BUDGET_S / 2)
    traced = _round(workload, seed, "--trace", *flags, timeout=BUDGET_S / 2)
    correct, attempted, failed = _verdict([plain, traced])
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s; "
          f"spans in {os.path.join('.perfbench_out', 'trace_' + workload + '.npz')}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": layers[k], "unit": units[k]} for k in units}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny replication counts and horizons (self-test only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ergodist", "__init__.py")):
        print(f"error: no ergodist source tree at {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    flags = ["--small"] if args.small else []
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, flags)
        else:
            result = measure(args.workload, args.seed, args.seconds, flags)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
