"""vehsim benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 bench/run.py --workload grid-radio --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's OSM map and scenario from ``--seed``
(see ``workloads.py``), then repeats the user's job -- ``vehsim run`` followed
by ``vehsim map-svg --trace`` -- each time in a fresh child process, one at a
time, until ``--seconds`` have passed (at least three jobs).  Every job's
artifacts go through the correctness gate in ``check.py`` and must be
byte-identical to the first job's; a job that misses either counts as failed.

``--trace 0`` prints the gated end-to-end metrics.  Timings are in reference
seconds (see ``probe.py``): raw host time is too noisy on a shared machine to
gate on.  ``--trace 1`` alternates untraced jobs with traced ones and prints
the per-layer metrics from the traced jobs; their digests must equal the
untraced ones, and the exact work counters must repeat from job to job.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it are a readable table with sample counts and raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
MIN_JOBS = 3
# The whole run must finish within 180 s: start no job that could end after
# DEADLINE_S, and kill a job still running when the run reaches BUDGET_S.
DEADLINE_S = 150.0
BUDGET_S = 170.0

# Work counters that must repeat exactly from job to job.
EXACT_COUNTERS = (
    "radio.rssi_calls",
    "mobility.position_calls",
    "routing.connecting_ref_calls",
    "routing.shortest_path_calls",
    "mobility.mobil_calls",
)


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in listed}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Job:
    """Outcome of one child process."""

    def __init__(self, traced: bool, result: dict | None, problems: list[str], seconds: float):
        self.traced = traced
        self.result = result or {}
        self.problems = problems
        self.seconds = seconds


def run_job(spec: workloads.Spec, out: Path, traced: bool, timeout: float = BUDGET_S) -> Job:
    result_path = out.with_suffix(".json")
    cmd = [sys.executable, str(CHILD), str(spec.config), str(spec.map), str(out),
           str(result_path), "--trace", "1" if traced else "0"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Job(traced, None, [f"job killed after {timeout:.0f} s"], timeout)
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return Job(traced, None, [f"child exited {proc.returncode}: {' | '.join(tail)}"], seconds)
    result = json.loads(result_path.read_text())
    problems = check.problems(spec, out, Path(result["svg"]), result["rc_run"], result["rc_svg"])
    if not problems:
        result["digests"] = check.digests(out)
    return Job(traced, result, problems, seconds)


def run_jobs(spec: workloads.Spec, work: Path, seconds: float, trace: bool) -> list[Job]:
    """Alternate untraced (and, with ``trace``, traced) jobs for ``seconds``."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        plain = sum(1 for j in jobs if not j.traced)
        traced = len(jobs) - plain
        enough = plain >= (1 if trace else MIN_JOBS) and (not trace or traced >= 2)
        elapsed = time.perf_counter() - start
        longest = max((j.seconds for j in jobs), default=0.0)
        if enough and (elapsed >= seconds or elapsed + longest > DEADLINE_S):
            return jobs
        out = work / f"job{len(jobs)}"
        job = run_job(spec, out, trace and plain > traced, BUDGET_S - elapsed)
        shutil.rmtree(out, ignore_errors=True)
        jobs.append(job)
        if job.problems and len(jobs) >= MIN_JOBS and all(j.problems for j in jobs):
            return jobs  # nothing works; stop early


def cross_check(jobs: list[Job]) -> None:
    """Digests must match the first good job; exact counters must repeat."""
    reference = next((j.result["digests"] for j in jobs if not j.problems), None)
    counters = None
    for job in jobs:
        if job.problems:
            continue
        for name, digest in job.result["digests"].items():
            if digest != reference[name]:
                kind = "traced" if job.traced else "untraced"
                job.problems.append(f"{kind} {name} digest differs from the first job's")
        if not job.traced:
            continue
        layers = job.result["layers"]
        if counters is None:
            counters = {name: layers[name] for name in EXACT_COUNTERS}
        for name, value in counters.items():
            if layers[name] != value:
                job.problems.append(f"work counter {name} = {layers[name]}, first job {value}")
        inner = layers["kernel.run_until_s"] - layers["scenario.loop_residual_s"]
        if layers["scenario.loop_residual_s"] < 0 or inner <= 0:
            job.problems.append("layer busy times do not fit inside kernel.run_until_s")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) >= 2 else _median(values)


def end_to_end(spec: workloads.Spec, jobs: list[Job], kind: str) -> tuple[dict, dict]:
    """Gated metrics in ``kind`` ('norm' or 'raw') timings, plus sample counts.

    The jobs of a run have identical inputs, so step i does the same work in
    each.  Step percentiles are taken over the per-step medians across jobs:
    a host disturbance that hits one job's step does not reach the tail,
    while the program's own slow steps (trace writes, re-routes, GC) do.
    With 1000 steps, ten of them lie beyond the p99.
    """
    good = [j for j in jobs if not j.problems and not j.traced]
    timings = [j.result[kind] for j in good]
    profile = [statistics.median(periods) for periods in zip(*(t["step_ms"] for t in timings))]
    work = spec.vehicles * spec.steps
    metrics = {
        "setup_s": _median([t["setup_s"] for t in timings]),
        "wall_s": _median([t["wall_s"] for t in timings]),
        "vehicle_steps_per_s": _median([work / t["stepping_s"] for t in timings]),
        "step_ms_p50": _median(profile),
        "step_ms_p99": _percentile(profile, 99),
        "post_s": _median([t["post_s"] for t in timings]),
        "peak_rss_mb": _median([j.result["peak_rss_mb"] for j in good]),
    }
    samples = {name: len(good) for name in metrics}
    samples["step_ms_p50"] = samples["step_ms_p99"] = f"{len(good)}x{len(profile)}"
    return metrics, samples


def per_layer(jobs: list[Job], names) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced jobs, plus benchmark diagnostics."""
    traced = [j for j in jobs if not j.problems and j.traced]
    plain = [j for j in jobs if not j.problems and not j.traced]
    metrics = {
        name: _median([j.result["layers"][name] for j in traced])
        for name in names
        if not name.startswith("bench.")
    }
    plain_wall = _median([j.result["norm"]["wall_s"] for j in plain])
    traced_wall = _median([j.result["norm"]["wall_s"] for j in traced])
    metrics["bench.wall_raw_s"] = _median([j.result["raw"]["wall_s"] for j in plain])
    metrics["bench.probe_ms"] = _median([j.result["probe_ns"] / 1e6 for j in plain + traced])
    metrics["bench.trace_overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    samples = {name: len(traced) for name in metrics}
    samples["bench.wall_raw_s"] = len(plain)
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vehsim" / "cli.py").is_file():
        print(f"error: no vehsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.generate(args.workload, args.seed, work / "input", tiny=args.tiny)

    jobs = run_jobs(spec, work, args.seconds, bool(args.trace))
    cross_check(jobs)
    failed = sum(1 for j in jobs if j.problems)
    for i, job in enumerate(jobs):
        for problem in job.problems:
            print(f"job {i} FAILED: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {spec.vehicles} "
          f"vehicles x {spec.steps} steps, {len(jobs)} jobs attempted, {failed} failed")
    reference = next((j.result["digests"] for j in jobs if not j.problems), {})
    for name, digest in reference.items():
        print(f"  sha256 {name:<27} {digest}")
    units = declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, samples = per_layer(jobs, units)
    else:
        metrics, samples = end_to_end(spec, jobs, "norm")
        raw, _ = end_to_end(spec, jobs, "raw")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        value = metrics[name]
        line = f"  {name:<34} {value:>14.6g} {unit:<6} n={samples[name]}"
        if not args.trace and name in raw and name != "peak_rss_mb":
            line += f"  raw {raw[name]:.6g}"
        print(line)
    if not args.trace:
        probes = [j.result["probe_ns"] / 1e6 for j in jobs if not j.problems]
        print("raw " + json.dumps({**raw, "probe_ms": _median(probes)}))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
