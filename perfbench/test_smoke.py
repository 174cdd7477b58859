"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["plan-corridor", "plan-full", "train"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        names = (["plan_p50_ms", "plan_tail_ms", "plans_per_s",
                  "expanded_per_plan", "fuel_kg_per_plan"]
                 if workload.startswith("plan") else
                 ["train_call_p50_ms", "train_call_tail_ms", "episodes_per_s"])
        table = {line.split()[0]: line.split() for line in lines[:-1]}
        for name in names + ["setup_s", "peak_rss_mb", "failed_frac"]:
            assert name in table, f"{name} not printed"
            float(table[name][1])
            assert table[name][3].startswith("n=") or "/" in table[name][3]


def test_checker_rejects_tampered_fuel(tmp_path):
    import check
    import workloads
    from skyroute import harness

    wl = workloads.build("plan-full", 0, workloads.TINY, out_dir=tmp_path)
    req = wl.plans[0].request
    doc = harness.plan(req)
    check.check_plan(doc, req)
    expected = {"expanded_nodes": doc["search"]["expanded_nodes"],
                "fuel_kg": doc["totals"]["fuel_kg"]}
    check.check_reference(doc, expected)
    doc["totals"]["fuel_kg"] *= 1.0 + 1e-6
    with pytest.raises(check.CheckFailed, match="route_cost"):
        check.check_plan(doc, req)
    with pytest.raises(check.CheckFailed, match="reference"):
        check.check_reference(doc, expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "plan-full", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
