"""The timed process: one fresh interpreter runs one round of a workload.

    python3 perfbench/worker.py --inputs FILE --out FILE [--spans FILE]
                                [--setup-only] [--fels I,J,...]

Set-up imports varmult from the checkout's `src/` and loads the inputs
written by gen.py (expression trees become varmult expressions with the
kernel's own constructors; nothing is parsed or constructed).  The worker
then prints "ready" and its host-speed samples so far (refclock.py) on
stdout, which ends the set-up the caller times.

Every time is in reference seconds (refclock.py): the probe that starts with
the worker keeps sampling the host's speed through the round; on cli_cold
each CLI process runs its own probe instead.  Each operation is timed alone;
the round's wall time runs from the start of the first to the end of the
last (on cli_cold, the sum of the operations' times).  Outputs are rendered
after the timed region.  With --spans the tracer is installed after set-up
and the spans are written out when the round ends; on `cli_cold` each
operation is then run under `tracer.py` instead, one span file per call.  --fels adds, after
the round, the verdict of `varmult fels` for the listed n = 2 operations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: the `varmult` executable, as its console-script entry point runs it,
#: with a host-speed probe started first
CLI = ("-c", "import refclock; refclock.start_child(); "
             "from varmult.cli import main; main()")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    return env


def build(tree: dict):
    """varmult expression of a JSON tree, through the public constructors."""
    import varmult as vm
    if "const" in tree:
        return vm.rational(Fraction(tree["const"]))
    if "var" in tree:
        return vm.X
    if "jet" in tree:
        return vm.jet(tree["jet"])
    op, args = tree["op"], tree["args"]
    if op == "pow":
        return vm.pow_int(build(args[0]), int(args[1]["const"]))
    if op == "int":
        return vm.antideriv(build(args[0]), build(args[1]))
    parts = [build(a) for a in args]
    if op == "sum":
        return vm.add(*parts)
    if op == "prod":
        return vm.mul(*parts)
    return getattr(vm, op)(parts[0])


def _tree(e) -> dict:
    import varmult
    return json.loads(varmult.render(e, "json"))


def _outcome_record(report) -> dict:
    import varmult
    from varmult.checker import Accepted, Rejected
    o = report.outcome
    if isinstance(o, Accepted):
        return {"outcome": "accepted", "R": _tree(o.R), "rho": _tree(o.rho),
                "L": _tree(o.L)}
    if isinstance(o, Rejected):
        point = {varmult.render(a): v for a, v in o.verdict.point.items()}
        return {"outcome": "rejected", "step": o.step, "witness": _tree(o.witness),
                "point": point}
    return {"outcome": "inconclusive", "step": o.step}


def fels_candidate(text: str) -> bool:
    """`variational_candidate` of `varmult fels --expr=TEXT --json`."""
    import varmult.cli
    out = io.StringIO()
    varmult.cli.run(["fels", f"--expr={text}", "--json"], out=out, err=io.StringIO())
    return json.loads(out.getvalue())["result"]["variational_candidate"]


def run_api(workload: str, ops: list[dict], fs: list | None, spans: str | None,
            probe: refclock.Probe):
    """roundtrip: gen_params -> construct -> check; screen: check alone."""
    import varmult
    cfgs = [varmult.ZeroTestConfig(seed=op["zero_test_seed"]) for op in ops]
    if spans is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    stamps, results = [], []
    clock = time.perf_counter
    first = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        if workload == "roundtrip":
            params = varmult.gen_params(op["n"], op["n"], varmult.GenConfig(
                seed=op["param_seed"], max_degree=3, max_terms=4))
            f = varmult.construct(params).f
            report = varmult.check(f, op["n"], cfgs[i])
            results.append((report, f, params.R))
        else:
            report = varmult.check(fs[i], op["n"], cfgs[i])
            results.append((report, fs[i], None))
        stamps.append((t0, clock()))
    last = clock()
    probe.stop()
    ref = refclock.RefClock(probe.samples())
    times = [ref.span(t0, t1) for t0, t1 in stamps]
    wall = ref.span(first, last)
    _log_speed(ref, last - first)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans is not None:
        tracer.dump(spans, ref)
    outputs = []
    for (report, f, r_true), op in zip(results, ops):
        rec = _outcome_record(report)
        if workload == "roundtrip":
            rec["f"] = _tree(f)
            rec["R_true"] = _tree(r_true)
        outputs.append(rec)
    return times, wall, rss, outputs, [f for _, f, _ in results]


def _log_speed(ref: refclock.RefClock, raw_wall: float) -> None:
    sys.stderr.write(f"worker: {raw_wall:.3f} s wall at a mean host speed of "
                     f"{ref.speed:.3f} (1 = reference)\n")


def run_cli(ops: list[dict], spans: str | None, probe_dir: str):
    """cli_cold: one fresh `varmult check --json` process per operation."""
    env = cli_env()
    times, outputs = [], []
    clock = time.perf_counter
    raw_first = clock()
    speeds = []
    for i, op in enumerate(ops):
        args = ["check", "--order", str(op["n"]), f"--expr={op['text']}",
                "--seed", str(op["zero_test_seed"]), "--json"]
        if spans is None:
            cmd = [sys.executable, *CLI, *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   "--spans", f"{spans}.{i}.npz", "--", *args]
        env[refclock.ENV] = os.path.join(probe_dir, f"probe{i}.json")
        t0 = clock()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, check=False)
        t1 = clock()
        ref = refclock.RefClock(refclock.load_samples(env[refclock.ENV]))
        times.append(ref.span(t0, t1))
        speeds.append(ref.speed)
        outputs.append({"code": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr[-2000:]})
    wall = sum(times)
    sys.stderr.write(f"worker: {clock() - raw_first:.3f} s wall at a mean host "
                     f"speed of {sum(speeds) / len(speeds):.3f} (1 = reference)\n")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    for rec in outputs:
        rec.update(_cli_record(rec.pop("stdout")))
    return times, wall, rss, outputs


def _cli_record(stdout: str) -> dict:
    """The outcome fields of a `check --json` envelope, as plain text."""
    try:
        res = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return {"outcome": "no-output"}
    rec = {"outcome": res["outcome"]}
    if res["outcome"] == "accepted":
        rec.update(R=res["R"], rho=res["rho"], L=res["L"])
    elif res["outcome"] == "rejected":
        rec.update(step=res["step"], witness=res["witness"],
                   point=res["verdict"]["point"])
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fels", default="", help="comma-separated op indices")
    args = ap.parse_args(argv)
    probe = refclock.Probe()
    probe.start()

    import varmult
    import varmult.cli  # noqa: F401  (the fels cross-check runs the CLI)
    if os.path.dirname(os.path.abspath(varmult.__file__)) != os.path.join(SRC, "varmult"):
        sys.stderr.write(f"worker: varmult resolved to {varmult.__file__}, "
                         f"not to {SRC}\n")
        return 2
    with open(args.inputs) as fh:
        doc = json.load(fh)
    workload, ops = doc["workload"], doc["ops"]
    fs = [build(op["f"]) for op in ops] if workload == "screen" else None
    print("ready", json.dumps(probe.samples()), flush=True)
    if args.setup_only or workload == "cli_cold":
        probe.stop()
    if args.setup_only:
        return 0

    if workload == "cli_cold":
        times, wall, rss, outputs = run_cli(ops, args.spans,
                                            os.path.dirname(os.path.abspath(args.out)))
        texts = [op["text"] for op in ops]
    else:
        times, wall, rss, outputs, fs = run_api(workload, ops, fs, args.spans, probe)
        texts = None
    for i in (int(i) for i in args.fels.split(",") if i):
        text = texts[i] if texts is not None else varmult.render(fs[i])
        outputs[i]["fels"] = fels_candidate(text)
    with open(args.out, "w") as fh:
        json.dump({"times": times, "wall_s": wall, "peak_rss_mb": rss,
                   "outputs": outputs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
