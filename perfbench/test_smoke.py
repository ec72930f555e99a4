"""Smoke size of the benchmark: schema and correctness, never wall time.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SUBCOMMANDS = {"check", "dps", "gen-constraints", "eval-valuation", "to-blocks", "to-bits",
               "expand", "validate-encoding", "compat", "collapse"}


def _run(workload, trace, cwd=ROOT, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_schema_and_verdicts(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        if workload != "check-corpus":
            assert values["interp.sample_s"] == 0
        if workload != "expand-compat":
            assert values["encoding.required_products_s"] == 0
    else:
        assert values["verdicts_ok"] == 1.0
        assert all(v > 0 for v in values.values()), values


def test_every_subcommand_is_called():
    called = {c.argv[0] for w in WORKLOADS for c in gen.build(w, 1, "smoke").calls}
    assert called == SUBCOMMANDS


def test_same_seed_same_inputs():
    for w in WORKLOADS:
        assert gen.build(w, 7, "smoke").files == gen.build(w, 7, "smoke").files


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, run_py=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
