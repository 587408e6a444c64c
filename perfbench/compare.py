"""Compare two benchmark result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON line per run, as sweep.py writes them.  For every
workload and metric the table gives each side's median and quartiles
(`statistics.quantiles(values, n=4)`) and the change of the medians.  An
end-to-end metric is marked REGRESSION when the new median is worse than
the base median by more than the metric's bound in BENCHMARK.json, and
"unresolved" when either side's own spread (interquartile distance over
median) is wider than the bound and not every new run beats every base
run.  Per-layer metrics have no bound and are listed for reading only.
The share of failed operations is compared exactly.  Exits 1 on any
regression or on a changed failure share.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load(path: str) -> dict:
    """{workload: [result, ...]} of a result set."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"]].append(rec["result"])
    return runs


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric_specs(spec: dict) -> dict:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(path: str, spec: dict) -> str:
    """Median and spread per workload and metric of one result set."""
    specs = _metric_specs(spec)
    lines = [f"{'workload':10} {'metric':32} {'runs':>4} {'median':>14} "
             f"{'spread':>7} {'target':>7}"]
    for workload, results in sorted(load(path).items()):
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = _stats(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = specs.get(name, {}).get("bound")
            target = f"{bound / 3:.3f}" if bound is not None else "-"
            flag = "  over" if bound is not None and spread > bound / 3 else ""
            lines.append(f"{workload:10} {name:32} {len(values):>4} {med:>14.6g} "
                         f"{spread:>7.3f} {target:>7}{flag}")
        shares = {r["failed"] / r["attempted"] for r in results}
        lines.append(f"{workload:10} {'failed share':32} {len(results):>4} "
                     f"{', '.join(f'{s:.6f}' for s in sorted(shares))}")
    return "\n".join(lines)


def compare(base_path: str, new_path: str, spec: dict) -> tuple[str, bool]:
    specs = _metric_specs(spec)
    base, new = load(base_path), load(new_path)
    ok = True
    lines = [f"{'workload':10} {'metric':32} {'base q1/med/q3':>36} "
             f"{'new q1/med/q3':>36} {'change':>8}  verdict"]
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for name in b_runs[0]["metrics"]:
            if name not in n_runs[0]["metrics"]:
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = _stats(bv), _stats(nv)
            m = specs.get(name, {})
            sign = 1 if m.get("better", "lower") == "lower" else -1
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = sign * change
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq)]
                all_better = (max(nv) < min(bv)) if sign > 0 else (min(nv) > max(bv))
                if worse > bound:
                    verdict = "REGRESSION"
                    ok = False
                elif max(spreads) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            fmt = lambda q: "/".join(f"{v:.5g}" for v in q)  # noqa: E731
            lines.append(f"{workload:10} {name:32} {fmt(bq):>36} {fmt(nq):>36} "
                         f"{change:>+8.3f}  {verdict}")
        b_share = {r["failed"] / r["attempted"] for r in b_runs}
        n_share = {r["failed"] / r["attempted"] for r in n_runs}
        same = b_share == n_share
        ok = ok and same
        lines.append(f"{workload:10} {'failed share':32} "
                     f"{', '.join(f'{s:.6f}' for s in sorted(b_share)):>36} "
                     f"{', '.join(f'{s:.6f}' for s in sorted(n_share)):>36} "
                     f"{'':>8}  {'same' if same else 'CHANGED'}")
    return "\n".join(lines), ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    table, ok = compare(argv[0], argv[1], load_spec())
    print(table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
