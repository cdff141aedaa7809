"""Smoke test of the benchmark: every workload at tiny sizes, traced and not.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(trace: int, workload: str) -> dict:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke(workload):
    plain, traced = _result(0, workload), _result(1, workload)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["failed"] / plain["attempted"] == traced["failed"] / traced["attempted"]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layers["bench.unattributed_s"] >= 0
    self_s = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    assert self_s + layers["bench.unattributed_s"] == pytest.approx(layers["bench.traced_wall_s"], rel=1e-9)


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact-laws", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
