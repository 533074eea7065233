"""Tiny-scale smoke test of the benchmark harness.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root (needs a C compiler, like the benchmark itself).  For every
workload it runs ``run.py --smoke`` untraced and traced and asserts
that every metric ``BENCHMARK.json`` names is emitted with its unit,
that the output checks pass, and that the traced run reproduced the
untraced digest and kernel-rung counts (``run.py`` fails the run's
checks otherwise).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


def test_refuses_to_run_without_a_source_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        path = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "suite-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
