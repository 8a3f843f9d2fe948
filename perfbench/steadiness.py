#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs one workload once per seed through run.py and reports, per metric,
the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, beside the
bound BENCHMARK.json fixes and a third of it.

    python3 perfbench/steadiness.py --workload forest_churn --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_range(args.seeds):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: failed\n{out.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    ok = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        steady = spread < m["bound"] / 3
        ok &= steady or m["name"] == "setup_s"
        print(f"{m['name']:<14} median {med:.5g} {m['unit']:<3} spread {spread:.3f} "
              f"bound {m['bound']} third {m['bound'] / 3:.3f} {'ok' if steady else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
