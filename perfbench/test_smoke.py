"""Smoke test of the benchmark at tiny sizes (--quick, under a second of
measurement per run).

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit,
that all output checks pass, that the traced run finds every layer a
workload uses and the expected hot spot, and that a tree holding only the
benchmark (no package source) is refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HOT_SPOT = {"sweep": "channel.apply_multipath", "stream_scan": "kernels.metric_arrays"}


def bench(args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = bench(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())

    if trace:
        assert values["trace.layers_missing"] == 0, proc.stderr
        if workload in HOT_SPOT:
            shares = {k[: -len(".self_share")]: v for k, v in values.items() if k.endswith(".self_share")}
            assert max(shares, key=shares.get) == HOT_SPOT[workload]
    else:
        assert all(values[m["name"]] > 0 for m in spec)


def test_refuses_a_tree_without_the_package():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        tree = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, tree / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tree)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
