"""Smoke test of the benchmark at tiny sizes.

Runs ``run.py`` in subprocesses, so the test process never imports qmpc.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# evap-fit runs on request; BENCHMARK.json leaves it out as too unsteady
WORKLOADS = ("evap-control", "evap-fit", "lqr-fit")


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = _run(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        row = re.compile(rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)")
        assert any(row.match(line) for line in lines[:-1]), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "evap-control", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
