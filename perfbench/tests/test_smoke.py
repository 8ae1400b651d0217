"""Smoke test of the benchmark at a tiny size: output contract and checks."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace, record=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"]
    if record:
        cmd += ["--record", str(record)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


@pytest.mark.parametrize("workload,trace", [("closed-tall", 0), ("wide-mixed", 1), ("probe", 1)])
def test_run_prints_every_metric(tmp_path, workload, trace):
    done = _run(ROOT, workload, trace, tmp_path / "record.json")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1
    ok = sum(kind["ok"] for kind in record["kinds"].values())
    if not trace:
        # ok_frac counts known-defect ops that miss their tolerance as not ok
        assert result["metrics"]["ok_frac"]["value"] == ok / result["attempted"]
    if workload == "probe":
        # the probe workload never solves inside an op
        assert result["metrics"]["solve.calls"]["value"] == 0.0
        assert result["metrics"]["indicator.pairs"]["value"] == 2 * 200 * 200


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "probe", 0)
    assert done.returncode != 0
    assert done.stdout == ""
