"""Span tracer that instruments varmult from outside the package.

`install()` replaces each traced public function by a recording wrapper at
every binding: the defining module and each varmult module that imported
the name (so `checker.construct` and `varcore.construct` are both wrapped,
and a span knows from which module the call was made).  Spans are kept in
memory in flat arrays (function, call site, depth, parent, start, end) and
written out once, at the end, with `Tracer.dump`, which puts the times on
the reference clock of refclock.py.  `summarize` turns a span
file into the per-layer metrics named in BENCHMARK.json.

Run as a program it is the traced stand-in for the `varmult` executable:

    python3 perfbench/tracer.py --spans FILE -- check --order 2 --expr=p3^2

starts a host-speed probe (refclock.start_child), times `import varmult.cli`,
installs the tracer, runs the CLI and writes the spans, exiting with the
CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

#: traced public functions, by defining module
TRACED = {
    "checker": ("check",),
    "varcore": ("construct", "verify_triple"),
    "jetops": ("euler_op", "d_pow", "total_derivative"),
    "symexpr": ("add", "mul", "pow_int", "diff", "antideriv", "is_zero",
                "parse", "render"),
    "testkit": ("gen_params",),
    "cli": ("run",),
}
KERNEL = ("add", "mul", "pow_int", "diff", "antideriv")
LAYERS = ("checker", "varcore", "jetops", "symexpr")
VERDICTS = {"ZeroStructural": "structural", "ZeroNumeric": "numeric",
            "NonZero": "nonzero", "Inconclusive": "inconclusive"}

#: every per-layer metric, in BENCHMARK.json order, with its unit
METRICS = (
    [("checker.check.calls", "count"), ("checker.check.s", "s"),
     ("checker.certificate.s", "s"), ("checker.steps.s", "s"),
     ("varcore.construct.calls", "count"), ("varcore.construct.s", "s"),
     ("varcore.verify_triple.calls", "count"), ("varcore.verify_triple.s", "s"),
     ("jetops.euler_op.calls", "count"), ("jetops.euler_op.s", "s"),
     ("jetops.d_pow.calls", "count"),
     ("jetops.total_derivative.calls", "count"),
     ("jetops.total_derivative.s", "s")]
    + [(f"symexpr.{f}.calls", "count") for f in KERNEL]
    + [("symexpr.kernel.s", "s"), ("symexpr.is_zero.calls", "count")]
    + [(f"symexpr.is_zero.{v}", "count") for v in VERDICTS.values()]
    + [("symexpr.is_zero.structural.s", "s"), ("symexpr.is_zero.sampled.s", "s"),
       ("symexpr.parse.s", "s"), ("symexpr.render.s", "s"),
       ("cli.import.s", "s"), ("cli.run.s", "s"), ("testkit.gen_params.s", "s")]
    + [(f"{layer}.self.s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)

# pseudo-function for the timed `import varmult.cli` of a traced CLI call
_IMPORT = ("cli", "import")


class Tracer:
    """In-memory span store.  Span i has function id `fid[i]` (an index into
    `funcs`, a list of (layer, function, call-site module)), nesting depth,
    the index of its parent span (-1 at top level) and perf_counter start
    and end times."""

    def __init__(self):
        self.funcs: list[tuple[str, str, str]] = []
        self.fid = array("H")
        self.depth = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.verdict: dict[int, str] = {}
        self._stack = [-1]

    def func_id(self, layer: str, name: str, site: str) -> int:
        self.funcs.append((layer, name, site))
        return len(self.funcs) - 1

    def record(self, fid: int, t0: float, t1: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.fid.append(fid)
        self.depth.append(len(self._stack) - 1)
        self.parent.append(self._stack[-1])
        self.start.append(t0)
        self.end.append(t1)

    def wrap(self, fn, fid: int, tag_verdict: bool):
        stack = self._stack
        fids, depths, parents = self.fid, self.depth, self.parent
        starts, ends, verdicts = self.start, self.end, self.verdict
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            depths.append(len(stack) - 1)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if tag_verdict:
                verdicts[i] = VERDICTS.get(type(out).__name__, "other")
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def dump(self, path: str, clock) -> None:
        """Write the spans as one compressed numpy archive, with start and
        end times in reference seconds of `clock` (a refclock.RefClock)."""
        import numpy as np

        ids = np.array(sorted(self.verdict), dtype=np.int64)
        np.savez_compressed(
            path,
            funcs=np.array(json.dumps(self.funcs)),
            fid=np.frombuffer(self.fid, dtype=np.uint16),
            depth=np.frombuffer(self.depth, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=clock.ref(np.frombuffer(self.start, dtype=np.float64)),
            end=clock.ref(np.frombuffer(self.end, dtype=np.float64)),
            verdict_ids=ids,
            verdict_kinds=np.array(json.dumps([self.verdict[int(i)] for i in ids])))


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each varmult module binding it."""
    import importlib

    mods = {name: importlib.import_module(f"varmult.{name}") for name in TRACED}
    bindings = [m for k, m in sorted(sys.modules.items())
                if (k == "varmult" or k.startswith("varmult.")) and m is not None]
    for layer, names in TRACED.items():
        for name in names:
            original = getattr(mods[layer], name)
            for mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        site = mod.__name__.rpartition(".")[2]
                        fid = tracer.func_id(layer, name, site)
                        setattr(mod, attr, tracer.wrap(original, fid, name == "is_zero"))


def load(path: str) -> dict:
    import numpy as np

    with np.load(path) as z:
        out = {k: z[k] for k in z.files}
    out["funcs"] = [tuple(f) for f in json.loads(str(out["funcs"]))]
    out["verdict_kinds"] = json.loads(str(out["verdict_kinds"]))
    return out


def summarize(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one traced round.

    `<layer>.<f>.s` is the time in calls of f that are not nested inside
    another call of f; `<layer>.self.s` is the time in the layer's spans
    not covered by their child spans."""
    totals = {name: 0.0 for name, _ in METRICS if name != "trace.overhead_s"}
    for path in span_files:
        for k, v in _summarize_one(load(path)).items():
            totals[k] += v
    return totals


def _summarize_one(sp: dict) -> dict[str, float]:
    import numpy as np

    funcs = sp["funcs"]
    fid, depth, parent = sp["fid"].astype(np.int64), sp["depth"], sp["parent"]
    dur = sp["end"] - sp["start"]
    n = len(fid)
    out: dict[str, float] = {}
    names = sorted({(layer, name) for layer, name, _ in funcs})
    bit = {ln: 1 << i for i, ln in enumerate(names)}
    kernel_bit = sum(bit[("symexpr", f)] for f in KERNEL if ("symexpr", f) in bit)
    fbit = np.array([bit[f[:2]] for f in funcs], dtype=np.int64)[fid]
    # ancestors[i]: bitmask of the functions of span i's ancestors, filled
    # level by level (a parent is one level shallower than its child)
    ancestors = np.zeros(n, dtype=np.int64)
    for d in range(1, int(depth.max(initial=0)) + 1):
        idx = np.nonzero(depth == d)[0]
        p = parent[idx]
        ancestors[idx] = ancestors[p] | fbit[p]
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered

    by_func = {ln: np.array([i for i, f in enumerate(funcs) if f[:2] == ln])
               for ln in names}
    for (layer, name), ids in by_func.items():
        sel = np.isin(fid, ids)
        outer = sel & ((ancestors & bit[(layer, name)]) == 0)
        out[f"{layer}.{name}.calls"] = float(sel.sum())
        out[f"{layer}.{name}.s"] = float(dur[outer].sum())
    for layer in LAYERS:
        ids = [i for i, f in enumerate(funcs) if f[0] == layer]
        out[f"{layer}.self.s"] = float(self_time[np.isin(fid, ids)].sum())

    cert_ids = [i for i, f in enumerate(funcs)
                if f[2] == "checker" and f[1] in ("construct", "verify_triple")]
    out["checker.certificate.s"] = float(dur[np.isin(fid, cert_ids)].sum())
    out["checker.steps.s"] = out.get("checker.check.s", 0.0) - out["checker.certificate.s"]

    kernel = (fbit & kernel_bit) != 0
    out["symexpr.kernel.s"] = float(dur[kernel & ((ancestors & kernel_bit) == 0)].sum())

    kinds = dict(zip(sp["verdict_ids"].tolist(), sp["verdict_kinds"]))
    for v in VERDICTS.values():
        out[f"symexpr.is_zero.{v}"] = float(sum(1 for k in kinds.values() if k == v))
    structural = [i for i, k in kinds.items() if k == "structural"]
    sampled = [i for i, k in kinds.items() if k != "structural"]
    out["symexpr.is_zero.structural.s"] = float(dur[structural].sum())
    out["symexpr.is_zero.sampled.s"] = float(dur[sampled].sum())
    return {k: v for k, v in out.items() if k in dict(METRICS)}


def _cli_main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --spans FILE -- <varmult arguments>\n")
        return 2
    spans, cli_args = argv[1], argv[3:]
    import refclock
    probe = refclock.start_child()
    tracer = Tracer()
    # nothing numpy-based is imported before this point, so the timed import
    # costs what it costs the `varmult` executable
    t0 = time.perf_counter()
    import varmult.cli
    t1 = time.perf_counter()
    tracer.record(tracer.func_id(*_IMPORT, "benchmark"), t0, t1)
    install(tracer)
    try:
        code = varmult.cli.run(cli_args)
    finally:
        probe.stop()
        tracer.dump(spans, refclock.RefClock(probe.samples()))
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
