"""Command-line front end.

Subcommands: check (run the decision algorithm on u^(2n) = f), construct
(build f, rho, L from free data), fels (fourth-order invariants T5/I1),
verify (test a candidate triple), roundtrip (construct -> check -> verify on
random data).  Output is plain text or a JSON envelope

    {"tool": "varmult", "version": ..., "subcommand": ...,
     "input": {...}, "result": {...}, "trace": [...]}

Exit codes: 0 success/accepted/zero, 1 rejected/nonzero, 2 usage or parse
error, 3 inconclusive, 4 internal error (including output that could not be
written, such as a closed pipe).  VARMULT_SEED overrides the default seed.
The JSON output is strict RFC 8259 JSON: a non-finite value is written as
null.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from . import __version__
from .checker import Accepted, Rejected, check
from .jetops import total_derivative
from .symexpr import (
    MAX_JET_INDEX,
    Expr,
    ExprError,
    NonZero,
    ParseError,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    is_zero,
    mul,
    parse,
    render,
)
from .varcore import ParamSet, VariationalTriple, construct, fels_I1, fels_T5, verify_triple

__all__ = ["main", "run"]


def _build_parser(out, err) -> argparse.ArgumentParser:
    """The command-line parser, which writes its help to `out` and its usage
    errors to `err`, where argparse alone writes to sys.stdout and
    sys.stderr; its subcommand parsers are of its class."""

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            if message:
                (out if file is sys.stdout else err).write(message)

    ap = Parser(prog="varmult",
                description="variational multiplier toolkit "
                            "for scalar equations u^(2n) = f")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="decide variationality of u^(2n) = f")
    p_check.add_argument("--order", type=int, required=True, metavar="N",
                         help=f"half-order 2 <= n <= {_MAX_ORDER} of the "
                              "equation u^(2n) = f")
    p_check.add_argument("--expr", required=True, metavar="F",
                         help="right-hand side f in x, p0..p(2n-1)")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--tol", type=float, default=None)

    p_con = sub.add_parser("construct", help="build (f, rho, L) from free data")
    p_con.add_argument("--order", type=int, required=True, metavar="N")
    p_con.add_argument("--lagrangian-order", type=int, default=None, metavar="M")
    p_con.add_argument("--R", default="0", metavar="E")
    p_con.add_argument("--f", action="append", default=[], metavar="L=E",
                       help="lower function f_L = E (repeatable; unset ones are 0)")
    p_con.add_argument("--N", default="0", metavar="E")
    p_con.add_argument("--json", action="store_true")

    p_fels = sub.add_parser("fels", help="fourth-order invariants T5 and I1")
    p_fels.add_argument("--expr", required=True, metavar="F3")
    p_fels.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="verify a candidate (f, rho, L) triple")
    p_ver.add_argument("--order", type=int, required=True, metavar="N")
    p_ver.add_argument("--expr", required=True, metavar="F")
    p_ver.add_argument("--rho", required=True, metavar="E")
    p_ver.add_argument("--lagrangian", required=True, metavar="E")
    p_ver.add_argument("--json", action="store_true")

    p_rt = sub.add_parser("roundtrip", help="construct -> check -> verify on random data")
    p_rt.add_argument("--order", type=int, required=True, metavar="N")
    p_rt.add_argument("--trials", type=int, required=True, metavar="T")
    p_rt.add_argument("--seed", type=int, default=None, metavar="S")
    p_rt.add_argument("--json", action="store_true")

    return ap


#: the equation u^(2n) = f has jets up to p_{2n}
_MAX_ORDER = MAX_JET_INDEX // 2


def _order(args) -> int:
    """The --order of a subcommand, within 2 <= n <= _MAX_ORDER."""
    n = args.order
    if n < 2:
        raise _Usage("--order must be >= 2")
    if n > _MAX_ORDER:
        raise _Usage(f"--order must be <= {_MAX_ORDER}")
    return n


def _cfg(args) -> ZeroTestConfig:
    """The zero-test settings: --seed, --samples and --tol where the
    subcommand has them, else VARMULT_SEED and the defaults."""
    opts = vars(args)
    seed = opts.get("seed")
    if seed is None:
        try:
            seed = int(os.environ.get("VARMULT_SEED", "0"))
        except ValueError:
            seed = 0
    kw = {"seed": seed}
    if opts.get("samples") is not None:
        kw["samples"] = opts["samples"]
    if opts.get("tol") is not None:
        kw["atol"] = opts["tol"]
    return ZeroTestConfig(**kw)


def _exit_code(*verdicts: ZeroVerdict) -> int:
    """0 when every verdict is zero, 1 when one is nonzero, else 3."""
    if all(v.is_zero for v in verdicts):
        return 0
    return 1 if any(isinstance(v, NonZero) for v in verdicts) else 3


# Each handler returns its report: the exit code, the envelope's input and
# result, its trace, and a function that gives its text in pieces.  `run`
# writes either the envelope or the text; the trace is a generator, so a
# text run does not render it, and a JSON run does not call the text.


def _run_check(args):
    n = _order(args)
    f = parse(args.expr)
    cfg = _cfg(args)
    report = check(f, n, cfg)
    o = report.outcome
    if isinstance(o, Accepted):
        result = {"outcome": "accepted", "R": render(o.R), "rho": render(o.rho),
                  "f_lower": [render(g) for g in o.f_lower], "L": render(o.L),
                  "residual": o.residual.to_obj()}
        code = 0
    elif isinstance(o, Rejected):
        result = {"outcome": "rejected", "step": o.step,
                  "witness": render(o.witness), "verdict": o.verdict.to_obj()}
        code = 1
    else:
        result = {"outcome": "inconclusive", "step": o.step,
                  "witness": render(o.witness)}
        code = 3
    trace = ({"step": t.step, "kind": t.kind, "checked": render(t.checked),
              "verdict": t.verdict.to_obj(),
              "derived": None if t.derived is None else render(t.derived),
              "note": t.note} for t in report.trace)

    def text():
        yield f"outcome: {result['outcome']}\n"
        if isinstance(o, Accepted):
            yield f"R: {result['R']}\nrho: {result['rho']}\n"
            for ell, g in enumerate(result["f_lower"]):
                yield f"f{ell}: {g}\n"
            yield f"L: {result['L']}\nresidual: {o.residual.describe()}\n"
        else:
            yield f"step: {o.step}\nwitness: {result['witness']}\n"
            if isinstance(o, Rejected):
                yield f"verdict: {o.verdict.describe()}\n"
        for t in report.trace:
            mark = t.step if t.kind == "check" else f"{t.step} [note]"
            yield f"  {mark}: {t.verdict.describe()}  checked {render(t.checked)}\n"

    return (code, {"order": n, "expr": args.expr, "seed": cfg.seed,
                   "samples": cfg.samples, "atol": cfg.atol}, result, trace, text)


def _parse_lower(args, n: int) -> tuple[Expr, ...]:
    lower = [ZERO] * n
    seen = set()
    for raw in args.f:
        label, eq, text = raw.partition("=")
        if not (eq and label.isascii() and label.isdigit()):
            raise _Usage(f"--f expects L=E with a nonnegative integer L, got {raw!r}")
        ell = int(label)
        if ell >= n:
            raise _Usage(f"--f {ell}=... given but order {n} only uses f0..f{n - 1}")
        if ell in seen:
            raise _Usage(f"--f {ell}=... given more than once")
        seen.add(ell)
        lower[ell] = parse(text)
    return tuple(lower)


def _run_construct(args):
    n = _order(args)
    m = args.lagrangian_order if args.lagrangian_order is not None else n
    params = ParamSet(n=n, R=parse(args.R), f_lower=_parse_lower(args, n),
                      N=parse(args.N), m=m)
    t = construct(params)
    result = {"f": render(t.f), "rho": render(t.rho), "L": render(t.L),
              "order": n, "lagrangian_order": m}
    return (0, {"order": n, "lagrangian_order": m, "R": args.R,
                "f_lower": [render(g) for g in params.f_lower], "N": args.N}, result, (),
            lambda: [f"f: {result['f']}\nrho: {result['rho']}\nL: {result['L']}\n"])


def _run_fels(args):
    f3 = parse(args.expr)
    cfg = _cfg(args)
    t5 = fels_T5(f3)
    i1 = fels_I1(f3)
    v5 = is_zero(t5, cfg)
    v1 = is_zero(i1, cfg)
    result = {"T5": render(t5), "T5_verdict": v5.to_obj(),
              "I1": render(i1), "I1_verdict": v1.to_obj(),
              "variational_candidate": v5.is_zero and v1.is_zero}
    return (_exit_code(v5, v1), {"expr": args.expr, "seed": cfg.seed}, result, (),
            lambda: [f"T5: {result['T5']}\nT5 verdict: {v5.describe()}\n"
                     f"I1: {result['I1']}\nI1 verdict: {v1.describe()}\n"])


def _run_verify(args):
    n = _order(args)
    try:
        triple = VariationalTriple(f=parse(args.expr), rho=parse(args.rho),
                                   L=parse(args.lagrangian), n=n, m=n)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    cfg = _cfg(args)
    v = verify_triple(triple, cfg)
    return (_exit_code(v), {"order": n, "expr": args.expr, "rho": args.rho,
                            "lagrangian": args.lagrangian, "seed": cfg.seed},
            {"verdict": v.to_obj()}, (), lambda: [f"verdict: {v.describe()}\n"])


def _run_roundtrip(args):
    # imported here, so that a process that only checks never compiles it
    from .testkit import GenConfig, gen_params

    n = _order(args)
    if args.trials < 1:
        raise _Usage("--trials must be >= 1")
    cfg = _cfg(args)
    trials = []
    all_ok = True
    for i in range(args.trials):
        params = gen_params(n, n, GenConfig(seed=cfg.seed + 7919 * i,
                                            max_degree=2, max_terms=3))
        triple = construct(params)
        report = check(triple.f, n, cfg)
        ok = isinstance(report.outcome, Accepted)
        residual = report.outcome.residual.to_obj() if ok else None
        consistent = False
        if ok:
            drift = add(report.outcome.R, mul(-1, params.R))
            consistent = is_zero(total_derivative(n + 1, drift), cfg).is_zero
            ok = ok and report.outcome.residual.is_zero and consistent
        trials.append({"trial": i, "accepted": isinstance(report.outcome, Accepted),
                       "residual": residual, "multiplier_consistent": consistent,
                       "ok": ok})
        all_ok = all_ok and ok

    def text():
        for t in trials:
            yield (f"trial {t['trial']}: accepted={t['accepted']} "
                   f"consistent={t['multiplier_consistent']} ok={t['ok']}\n")
        yield "all trials passed\n" if all_ok else "some trials failed\n"

    return (0 if all_ok else 1, {"order": n, "trials": args.trials, "seed": cfg.seed},
            {"trials": trials, "all_passed": all_ok}, (), text)


class _Usage(Exception):
    pass


#: the options whose value is an expression, which may begin with "-"
_EXPR_OPTIONS = ("--expr", "--R", "--N", "--rho", "--lagrangian")


def _attach_expr_values(argv: Sequence[str]) -> list[str]:
    """argv with each expression option given as --opt=value when its value
    begins with a single "-": argparse would read `--expr -p3^2` as an
    option missing its argument."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if (a in _EXPR_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and not argv[i + 1].startswith("--")):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def run(argv: Sequence[str], out=None, err=None) -> int:
    """Dispatch a CLI invocation, write its report to `out` as JSON or text
    (or its error to `err`), and return the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    ap = _build_parser(out, err)
    try:
        args = ap.parse_args(_attach_expr_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"check": _run_check, "construct": _run_construct,
                "fels": _run_fels, "verify": _run_verify,
                "roundtrip": _run_roundtrip}
    try:
        code, input_obj, result, trace, text = handlers[args.subcommand](args)
        if args.json:
            out.write(json.dumps({"tool": "varmult", "version": __version__,
                                  "subcommand": args.subcommand, "input": input_obj,
                                  "result": result, "trace": list(trace)},
                                 allow_nan=False) + "\n")
        else:
            out.writelines(text())
        return code
    except ParseError as exc:
        err.write(f"varmult: expression error: {exc}\n")
        return 2
    except (_Usage, ExprError, ValueError) as exc:
        err.write(f"varmult: error: {exc}\n")
        return 2
    except BrokenPipeError:
        raise  # a closed stdout is not an internal error; main() handles it
    except Exception as exc:
        detail = " ".join(str(exc).split())
        err.write(f"varmult: internal error: {type(exc).__name__}: {detail}\n")
        return 4


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (`varmult check ... | head`); point
        # stdout at devnull so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 4
    raise SystemExit(code)


if __name__ == "__main__":
    main()
