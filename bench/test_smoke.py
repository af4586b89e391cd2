"""Smoke test of the benchmark: every workload with --seconds 0, untraced and
traced, so each runs the fewest whole rounds that give run.MIN_OPS
successful operations.  It asserts the output form, the correctness checks
and the exact failed share, and does not gate on timing.

  PYTHONPATH=src python -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# One reconstruct round is 36 seeded states and the 4 fixed noisy ones.
FAILED_SHARE = {"reconstruct": 4 / 40}


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == FAILED_SHARE.get(workload, 0) * result["attempted"]
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in names}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_counts_repeat_across_seeds():
    counts = []
    for seed in (1, 2):
        metrics = run("nongeneric-pairs", 1, seed)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
