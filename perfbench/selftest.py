"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

* runs every workload, untraced and traced, through ``run.py --small`` and
  requires its checks to pass and its report to name exactly the metrics
  that BENCHMARK.json lists (end-to-end untraced, per-layer traced);
* runs the small quartic experiment with 2 workers and with 1 and requires
  the risk CSVs to be byte-identical and result.json to differ in nothing
  but the ``workers`` echo of the configuration.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def _outputs(outdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name == "result.json" or name.startswith("risk_"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def worker_identity() -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.chdir(ROOT)
    import dataclasses

    import workloads

    inputs = workloads.experiment_quartic_setup(7, True)
    runs = {}
    for workers in (2, 1):
        cfg = dataclasses.replace(inputs["cfg"], workers=workers)
        workloads.harness.run_experiment(cfg)
        runs[workers] = _outputs(inputs["outdir"])
    problems = []
    if sorted(runs[1]) != sorted(runs[2]):
        problems.append(f"different output files: {sorted(runs[2])} vs {sorted(runs[1])}")
    for name, two in runs[2].items():
        one = runs[1].get(name)
        if name == "result.json":
            two = two.replace(b'"workers": 2', b'"workers": 1', 1)
        if one != two:
            problems.append(f"{name} differs between 2 workers and 1 worker")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    failures = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = _run(wl, trace)
            names = set(result["metrics"])
            status = "ok"
            if not result["correct"]:
                status = "checks failed"
            elif names != expected[trace]:
                status = f"metric names differ: {sorted(names ^ expected[trace])}"
            elif result["attempted"] < 1:
                status = "no operations attempted"
            print(f"{wl:24s} trace={trace}  {status}")
            if status != "ok":
                failures.append(f"{wl} trace={trace}: {status}")
    problems = worker_identity()
    print(f"{'2 workers vs 1 worker':24s}          {'ok' if not problems else '; '.join(problems)}")
    failures += problems
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
