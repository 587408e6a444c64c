"""Smoke run: every workload at a tiny run length, with all its oracles.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload it makes one plain run
at --seconds 1 that cross-checks every n = 2 verdict against `varmult fels`,
and one traced run, and checks that each prints the metrics BENCHMARK.json
names with their units and correct = true.  Exits 1 on the first problem.
Takes a few minutes: a run is at least one whole round.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import load_spec  # noqa: E402


def main() -> int:
    spec = load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace, extra in ((0, ["--fels-sample", "1000"]), (1, [])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                print(f"{label}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace] or not result["correct"]:
                print(f"{label}: correct={result['correct']}, metrics {sorted(units)}")
                return 1
            print(f"{label}: ok, {result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
