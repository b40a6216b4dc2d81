"""Smoke test of the benchmark: every workload at a tiny spec, in seconds.

    python -m pytest bench -q

Not part of the tier-1 suite (pyproject's ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


WORKLOADS = ("desk-loop", "intent-requests")


def test_benchmark_json_lists_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(workload, trace):
    done = run_bench(ROOT, workload, trace, "--tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in declared:  # the human-readable lines name every metric too
        assert any(line.startswith(name + " ") for line in done.stdout.splitlines())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench(tmp_path, "desk-loop", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_is_the_nearest_rank_percentile():
    from run import tail

    assert tail(range(1000), 99.0) == (989, 10)
    assert tail(range(120), 90.0) == (107, 12)
    assert tail([5.0], 99.0) == (5.0, 0)


def test_hostspeed_scales_by_the_probes_around_an_interval():
    import time

    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert len(speed.starts) >= 10
    assert speed.seconds(t0, t1) > 0
    # Far from every probe the interval is left as measured.
    assert speed.scale(t1 + 10.0, t1 + 11.0, 1.0) == 1.0
