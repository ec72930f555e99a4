"""Steadiness mode: run one workload with several seeds and report, for each
end-to-end metric, the median, the quartiles and the spread against the
bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload lift-verify --seeds 10

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. A spread within a third of the bound
is marked ``steady``; within the bound ``ok``; above it ``WIDE``. Each run
lasts ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="runs, with seeds 1..N")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    print(f"\n{'metric':16s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        mark = "steady" if spread <= m["bound"] / 3 else "ok" if spread <= m["bound"] else "WIDE"
        print(f"{m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m['bound']:6.3f} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
