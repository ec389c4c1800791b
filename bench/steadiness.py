"""Steadiness mode: run the benchmark over several seeds and report the spread.

Usage (from the repository root):

    python3 bench/steadiness.py --workload grid-dense --seeds 1-10 --seconds 20

For each end-to-end metric it prints the median over the runs, the first and
third quartiles and the quartile spread as a share of the median, for the
normalised metric next to the raw one, then the median probe time and the
machine.  Bounds in BENCHMARK.json are set from these spreads.  Runs are made
one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the benchmark bounds use them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(next(line for line in lines if line.startswith("raw "))[4:])
    return result, raw, proc.stderr.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    norm: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    probes: list[float] = []
    for seed in _seeds(args.seeds):
        result, raw_metrics, stderr = _run(args.workload, seed, args.seconds)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']}/{result['attempted']} failed\n{stderr}")
        for name, metric in result["metrics"].items():
            norm.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(raw_metrics[name])
        probes.append(raw_metrics["probe_ms"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, {len(next(iter(norm.values())))} runs of {args.seconds:g} s")
    print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'raw spread':>12}")
    for name, values in norm.items():
        median, q1, q3, rel = spread(values)
        raw_rel = spread(raw[name])[3]
        print(f"{name:<22}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{rel:>9.2%}{raw_rel:>12.2%}")
    import numpy

    print(f"median probe {statistics.median(probes):.4f} ms, "
          f"spread {spread(probes)[3]:.2%} over runs")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, {platform.machine()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
