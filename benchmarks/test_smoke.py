"""Smoke test of the benchmark at tiny sizes; not part of the tier-1 suite.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload once untraced and once traced, checks the result line
against BENCHMARK.json, and checks that the benchmark refuses to run
without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# a count each workload's traced run must see, proving the layer was wrapped
EXERCISED = {
    "run_swlme_dambreak": "cli._write_outputs.calls",
    "run_swme_smooth": "model.eig_states",
    "converge_swe_dambreak": "diagnostics.stoker_dam_break.calls",
    "check_identities": "diagnostics._Expansions.calls",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        assert result["metrics"][EXERCISED[workload]]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", NAMES[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
