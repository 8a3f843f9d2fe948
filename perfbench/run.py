#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fl_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20 --trace 1

Without --workload every workload runs, each in its own process. The
benchmark builds from source first (into $CARGO_TARGET_DIR, by default
perfbench/target); build output goes to stderr so that the last line of
stdout stays the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fl_mix", "forest_churn", "geo_gossip"]


def build() -> bool:
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binary() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR")
    return (Path(target) if target else HERE / "target") / "release" / "perfbench"


def main(argv: list) -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in argv:
        return subprocess.run([str(binary()), *argv]).returncode
    code = 0
    for workload in WORKLOADS:
        sys.stdout.flush()
        code |= subprocess.run([str(binary()), "--workload", workload, *argv]).returncode
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
