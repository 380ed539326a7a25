"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that must not depend on tracing or on which run made them
PINNED = ("queries_per_op", "discovery.swap_tests", "discovery.pairs_tested")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, [parse(bench(w, 0)), parse(bench(w, 0)), parse(bench(w, 1))]


def test_result_line_and_units(runs):
    _, results = runs
    for trace, (_, res) in zip((0, 0, 1), results):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in want
        }
        for v in res["metrics"].values():
            assert isinstance(v["value"], (int, float))


def test_counts_repeat_across_runs_and_tracing(runs):
    _, ((rec_a, _), (rec_b, _), (rec_t, traced)) = runs
    for key in PINNED:
        assert rec_a["counts"][key] == rec_b["counts"][key] == rec_t["counts"][key]
        assert traced["metrics"][key]["value"] == rec_a["counts"][key]


def test_traced_run_splits_layers(runs):
    w, (_, _, (_, traced)) = runs
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    if w == "general-exact":
        assert m["tensors.contract_wire.calls"] > 0
        assert m["oracle.sample_batch.calls"] == 0
    else:
        assert m["tensors.contract_wire.calls"] == 0
        assert m["oracle.overlap_estimate.calls"] == 0
    if w == "promise-sampled":
        assert m["oracle.sample_batch.calls"] > 0
    if w == "verify-orders":
        assert m["combs.check_comb_condition.calls"] > 0
        assert all(v == 0 for k, v in m.items() if k.startswith("oracle."))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
