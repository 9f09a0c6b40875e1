"""The benchmark's own tests: metric names, the answer gate, seeding.

Runs are tiny (``--scale 0.15``, one pass) so the whole file takes well
under a minute; they check the benchmark's plumbing, not performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run(workload: str, seed: int = 1, trace: int = 0, *extra: str, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", "0.15", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed.returncode, result, completed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    code, result, completed = run(workload, trace=trace)
    assert code == 0, completed.stdout + completed.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", ["sp-cold", "served"])
def test_injected_wrong_answer_fails_the_command(workload):
    # sp-cold is gated against fresh engines, served against its replay.
    code, result, _ = run(workload, 1, 0, "--inject-wrong-answer")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_seeds_change_inputs_not_metric_names():
    from workloads import build

    for workload in WORKLOADS:
        one, two, again = (build(workload, seed, 0.15) for seed in (1, 2, 1))
        assert any(one.tables[n].rows != two.tables[n].rows for n in one.tables)
        assert all(one.tables[n].rows == again.tables[n].rows for n in one.tables)
        assert [s.sql for s in one.statements] == [s.sql for s in again.statements]
    names = [set(run("progressive-ingest", seed)[1]["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, _ = run("sp-cold", cwd=tmp_path)
    assert code != 0 and result is None
