"""Print every end-to-end and per-layer metric of every workload.

Usage (from the repository root):

    python3 bench/report.py --seed 1 --seconds 30

Runs ``run.py`` once untraced and once traced per workload listed in
BENCHMARK.json, one run at a time, and prints each run's table: metric
name, value, unit and sample count, under a header with the number of jobs
attempted and failed.  Exits non-zero when any run reports a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    workloads = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    all_correct = True
    for workload in workloads:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print("\n".join(line for line in lines[:-1] if not line.startswith("raw ")))
            if proc.stderr:
                print(proc.stderr.rstrip())
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
