"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_name_and_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
                  "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 3
    expected = run.declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value >= 0
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
    for artifact in check.ARTIFACTS:
        assert any(line.split()[:2] == ["sha256", artifact] for line in lines), artifact


def _job(tmp_path: Path) -> tuple[workloads.Spec, run.Job, Path]:
    spec = workloads.generate("city-trips", 3, tmp_path / "input", tiny=True)
    out = tmp_path / "job"
    job = run.run_job(spec, out, traced=False)
    assert job.problems == []
    return spec, job, out


def test_corrupted_artifacts_trip_the_gate(tmp_path):
    spec, job, out = _job(tmp_path)
    svg = Path(job.result["svg"])
    pristine = {p: p.read_bytes() for p in (out / "trace.csv", out / "events.csv",
                                            out / "summary.json", svg)}

    def corrupt(path: Path, text: str) -> list[str]:
        for p, data in pristine.items():
            p.write_bytes(data)
        path.write_text(text)
        return check.problems(spec, out, svg, 0, 0)

    trace = pristine[out / "trace.csv"].decode()
    assert corrupt(out / "trace.csv", trace.rsplit("\n", 2)[0] + "\n")  # one row lost
    summary = json.loads(pristine[out / "summary.json"])
    assert corrupt(out / "summary.json", json.dumps({**summary, "events_fired": 1}))
    assert corrupt(out / "summary.json", json.dumps({**summary, "aborted": True}))
    assert corrupt(out / "events.csv", check.EVENTS_HEADER + "\n2,handover,1,a,b,0,0\n"
                                       "1,handover,1,b,a,0,0\n")
    assert corrupt(out / "events.csv", check.EVENTS_HEADER + "\nnot,a,row\n")
    assert corrupt(svg, pristine[svg].decode().replace("<polyline ", "<path ", 1))
    assert check.problems(spec, out, svg, 2, 0)


def test_digest_mismatch_fails_the_job(tmp_path):
    _, job, _ = _job(tmp_path)
    twin = run.Job(False, json.loads(json.dumps(job.result)), [], 0.0)
    twin.result["digests"]["trace.csv"] = "0" * 64
    run.cross_check([job, twin])
    assert job.problems == [] and twin.problems


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "grid-radio", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
