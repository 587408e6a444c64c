"""Run the benchmark over several seeds and collect a result set.

    python3 perfbench/sweep.py --out FILE [--runs 10] [--workload W ...]
                               [--trace 0|1]

Run from the root of a checkout.  Run i (1 <= i <= runs) is
`perfbench/run.py --seed i` at the run length BENCHMARK.json fixes; its
result line is appended to FILE as one JSON line {"workload", "seed",
"trace", "result"}.  At the end a table gives, per
workload and metric, the median and the spread (interquartile distance over
median) of the runs, against a third of the metric's bound.  Exits 1 if any
run failed or reported correct = false.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import load_spec, summarize  # noqa: E402


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description="benchmark sweep over seeds")
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    print(summarize(args.out, spec))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
