"""varmult benchmark: one run of one workload.

    python3 perfbench/run.py --workload {roundtrip,screen,cli_cold}
                             --seed N --seconds S --trace {0,1}

The run generates the workload's inputs from the seed (gen.py), then starts
one fresh worker process per round (worker.py), one at a time.  The number
of rounds is round(S / ROUND_S[workload]), at least one: it depends on the
workload and the run length only, never on how fast the rounds went, so two
commits always take their medians over as many samples.  Every round is
whole and attempts the same operations.  Every time is in reference
seconds: wall time corrected for the host's changing speed by a probe that
runs beside the timed code in the same thread (refclock.py).  `wall_s` is
the median of the rounds' wall times; `op_p50_ms` and `op_tail_ms` are
percentiles of each operation's median time over the rounds.  Set-up is
timed from spawning a worker to its "ready" line; a run sets up at least
five times, adding set-up-only workers when it ran fewer rounds.  After
timing, every output is judged by the independent oracles in oracle.py.

With --trace 0 the last line of stdout reports the end-to-end metrics, with
--trace 1 the per-layer metrics of traced rounds (tracer.py), which then
alternate with plain rounds (at least one of each) so that
`trace.overhead_s` (traced minus plain `wall_s`) is measured in the same
run.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("roundtrip", "screen", "cli_cold")
#: operations that fail every time because of a known fault (ROADMAP item
#: 1: `is_zero` calls exactly nonzero rationals and polynomials zero)
KNOWN_FAULT_KINDS = {"known_false_accept"}
MIN_SETUPS = 5
#: nominal timed seconds of one round, which sets a workload's number of
#: rounds per run: at the run length of BENCHMARK.json (20 s) that is one
#: round of roundtrip and of cli_cold and eight of screen
ROUND_S = {"roundtrip": 20, "screen": 2.5, "cli_cold": 15}
#: `varmult fels` costs up to seconds per equation, so each run cross-checks
#: the verdicts of a seed-chosen sample of the n = 2 operations
FELS_SAMPLE = 2
#: a worker (with the processes it started) still running after this long
#: is stopped
ROUND_TIMEOUT_S = 150


def _log(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.flush()


class BenchError(Exception):
    pass


def _checkout_ok() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "varmult", "__init__.py"))


def _run_worker(inputs: str, out: str | None, *, spans: str | None = None,
                setup_only: bool = False, fels: list[int] = ()) -> float:
    """Start one worker, wait for it to end; return its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", inputs]
    if out is not None:
        cmd += ["--out", out]
    if spans is not None:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    if fels:
        cmd += ["--fels", ",".join(map(str, fels))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    timer = threading.Timer(ROUND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        word, _, samples = line.partition(" ")
        if word != "ready":
            raise BenchError(f"worker did not get ready: {line[:200]!r}")
        setup = refclock.RefClock(json.loads(samples)).span(t0, t1)
        proc.stdout.read()
        code = proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    return setup


TAIL_BEYOND = 10


def _tail(values: list[float]) -> float:
    """The value with exactly TAIL_BEYOND values above it: the highest
    percentile, 100 * (1 - TAIL_BEYOND / len(values)), with that many
    operations beyond it."""
    return sorted(values)[-TAIL_BEYOND - 1]


def _judge(ops: list[dict], rounds: list[dict]) -> tuple[int, list[str]]:
    """Count failed operations over all rounds and collect oracle problems.
    The first round's outputs go through the oracles; a later round's output
    that differs from the first's goes through them too."""
    import oracle

    failed, problems = 0, []
    verdicts: dict[int, tuple[bool, list[str], str]] = {}
    for r, rnd in enumerate(rounds):
        for i, (op, rec) in enumerate(zip(ops, rnd["outputs"])):
            key = json.dumps({k: v for k, v in rec.items() if k != "fels"},
                             sort_keys=True)
            if i in verdicts and verdicts[i][2] == key:
                f, p, _ = verdicts[i]
            else:
                f, p = oracle.check_op(op, rec)
                if i not in verdicts:
                    verdicts[i] = (f, p, key)
            if f:
                failed += 1
                if op.get("kind") not in KNOWN_FAULT_KINDS:
                    problems.append(f"round {r} op {i} (n={op['n']}): expected "
                                    f"{op['expect']}, got {rec['outcome']}")
            problems += [f"round {r} op {i} (n={op['n']}): {x}" for x in p]
    return failed, problems


def n_rounds(workload: str, seconds: int, trace: bool) -> int:
    n = max(1, round(seconds / ROUND_S[workload]))
    return max(2, n) if trace else n


def _op_medians(rounds: list[dict]) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(ts) for ts in zip(*(rnd["times"] for rnd in rounds))]


def _wall(rounds: list[dict]) -> float:
    return statistics.median(rnd["wall_s"] for rnd in rounds)


def bench(workload: str, seed: int, seconds: int, trace: bool,
          fels_sample: int = FELS_SAMPLE) -> dict:
    run_dir = os.path.join(TMP, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _bench(workload, seed, seconds, trace, fels_sample, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def _bench(workload: str, seed: int, seconds: int, trace: bool, fels_sample: int,
           run_dir: str) -> dict:
    inputs = os.path.join(run_dir, "inputs.json")
    t0 = time.perf_counter()
    gen = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--out", inputs], cwd=ROOT, check=False, timeout=120)
    if gen.returncode != 0:
        raise BenchError(f"gen.py exited with {gen.returncode}")
    with open(inputs) as fh:
        ops = json.load(fh)["ops"]
    _log(f"inputs made in {time.perf_counter() - t0:.2f} s")
    order2 = [i for i, op in enumerate(ops) if op["n"] == 2]
    fels = sorted(random.Random(seed).sample(order2, min(fels_sample, len(order2))))

    rounds, setups = [], []
    for r in range(n_rounds(workload, seconds, trace)):
        traced = trace and r % 2 == 1
        out = os.path.join(run_dir, f"round{r}.json")
        spans = os.path.join(run_dir, f"spans{r}") if traced else None
        setups.append(_run_worker(inputs, out, spans=spans, fels=fels if r == 0 else ()))
        with open(out) as fh:
            rnd = json.load(fh)
        rnd["spans"] = spans
        rounds.append(rnd)
        _log(f"{workload} round {r}{' (traced)' if traced else ''}: "
             f"{len(ops)} ops in {rnd['wall_s']:.3f} s")
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(_run_worker(inputs, None, setup_only=True))

    t0 = time.perf_counter()
    failed, problems = _judge(ops, rounds)
    _log(f"outputs judged in {time.perf_counter() - t0:.2f} s")
    for p in problems[:20]:
        _log(f"oracle: {p}")

    plain = [rnd for rnd in rounds if rnd["spans"] is None]
    if trace:
        import tracer
        traced = [rnd for rnd in rounds if rnd["spans"] is not None]
        per_round = []
        for rnd in traced:
            base = os.path.basename(rnd["spans"]) + "."
            files = sorted(os.path.join(run_dir, f) for f in os.listdir(run_dir)
                           if f.startswith(base) and f.endswith(".npz"))
            per_round.append(tracer.summarize(files))
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = _wall(traced) - _wall(plain)
        units = dict(tracer.METRICS)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _ in tracer.METRICS}
        _log(f"tracing overhead: {values['trace.overhead_s']:.3f} s per round")
    else:
        op_times = _op_medians(plain)
        metrics = {
            "wall_s": {"value": _wall(plain), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_times), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * _tail(op_times), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        _log(f"op_tail_ms is p{100 * (1 - TAIL_BEYOND / len(ops)):.1f} of "
             f"{len(ops)} operations, each the median of {len(plain)} rounds")
    return {"correct": not problems, "attempted": len(ops) * len(rounds),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="varmult benchmark, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fels-sample", type=int, default=FELS_SAMPLE,
                    help="n = 2 operations whose verdict is cross-checked "
                         "against `varmult fels` (default %(default)s)")
    args = ap.parse_args(argv)
    # a stopped run still stops its worker (see _run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not _checkout_ok():
        _log(f"no varmult source under {ROOT}/src: perfbench/ must sit in a checkout")
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.fels_sample)
    except (BenchError, subprocess.SubprocessError) as exc:
        _log(f"run failed: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
