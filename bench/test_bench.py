"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

Each test runs ``bench/run.py`` in a subprocess on a tiny input set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hostspeed import REFERENCE_MS, HostSpeed
from run import tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--spectra", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(workload):
    result, stdout = run_bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0.0
    assert "first operation repeated: identical bytes" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed(workload):
    result, stdout = run_bench(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]
    assert result["metrics"]["cli.calls"]["value"] > 0.0
    assert 0.0 < result["metrics"]["synthesis.verify.useful_sample_ratio"]["value"] <= 1.0
    assert "tracing overhead" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_malformed_input_counts_as_failed(workload):
    result, stdout = run_bench(workload, 0, "--inject-failure")
    assert not result["correct"]
    assert result["failed"] >= 1
    ratio = float(stdout.split("fail_ratio ")[1].split()[0])
    assert ratio > 0.0
    assert ratio == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_outputs_digest_depends_only_on_seed():
    first = run_bench("batch-small", 0)[1]
    second = run_bench("batch-small", 0)[1]
    digest = [line for line in first.splitlines() if line.startswith("outputs sha256")]
    assert digest and digest[0] in second.splitlines()


def test_tail_is_eleventh_largest():
    assert tail(list(range(100))) == (89, 90.0)
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0)


def test_host_speed_scale_takes_neighbouring_samples():
    speed = HostSpeed()
    speed.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    speed.ms = [9.0, 9.0, 2.0, 2.0, 4.0, 4.0]
    # no sample inside (4.2, 4.8): two on each side, median of 2, 2, 4, 4
    assert speed.scale(4.2, 4.8) == pytest.approx(REFERENCE_MS / 3.0)
    # samples inside (2.5, 5.5) join the two on each side: median of all six
    assert speed.scale(2.5, 5.5) == pytest.approx(REFERENCE_MS / 4.0)
    assert speed.scale(0.0, 0.5) == pytest.approx(REFERENCE_MS / 9.0)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
