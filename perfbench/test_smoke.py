"""Smoke tests of the benchmark harness: every workload at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("donbass", "dense", "sweep", "scale")


def bench(script, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(workload, trace):
    code, lines = bench(HERE / "run.py", "--workload", workload, "--seed", "13", "--trace", str(trace))
    result = json.loads(lines[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_corrupted_digest_counts_as_failure(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    table = json.loads((copy / "digests.json").read_text())
    table["smoke"]["donbass"]["3"]["run"]["run.csv"] = "0" * 64
    (copy / "digests.json").write_text(json.dumps(table))
    code, lines = bench(copy / "run.py", "--workload", "donbass", "--seed", "3")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench(tmp_path / "perfbench" / "run.py", "--workload", "donbass", cwd=tmp_path)
    assert code != 0 and lines == []
