"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py [--seeds 10] [--trace 0|1]

Runs every workload of BENCHMARK.json on seeds 1..N.  Each run is a fresh
``run.py`` process, started only after the previous one has exited.  For every metric the table gives the median over seeds,
the quartiles from ``statistics.quantiles(values, n=4)``, and the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json (end-to-end metrics only).  It also prints
``ops_failed_ratio`` with the failed and attempted op counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], args.trace)
                for seed in range(1, args.seeds + 1)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, ops_failed_ratio {failed / attempted:.6g}"
              f" ({failed} failed of {attempted} attempted)")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}  unit")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
            bound = f"{bounds[name]:.2f}" if name in bounds else "-"
            print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {share:8.4f} {bound:>6s}  {first['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
