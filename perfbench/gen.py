"""Input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload {roundtrip,screen,cli_cold} --seed S [--out FILE]

writes one JSON document (sorted keys, so the same seed gives byte-identical
output) describing one round of operations.  Equations travel as varmult's
JSON expression trees (`render(e, "json")`), never as text for the timed
process to parse, except on `cli_cold`, whose operations are the text a
user would type.  On screen and cli_cold the timed process never runs
`construct` on its inputs.  Perturbed equations are built at the tree level as
f + c * term (the timed process's `add` makes the sum canonical).

The seed sets the zero-test seed of `check`, that is the sample points of
the probabilistic zero test.  The equations and their order are fixed: the
kernel's caches make one operation's cost depend on what ran before it in
the same process, and the perturbation coefficients change the kernel's
work and so the traced call counts.

Every operation carries what its oracle needs: the verdict known by hand
("accepted" for members of the solution family, "rejected" for equations
with a term that breaks a necessary condition) and, for accepted ones, the
generating exponent R_true.  Run it from the root of a checkout; it imports
varmult from `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from oracle import parse_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
sys.path.insert(0, SRC)

#: the acceptance roundtrip corpus: 50/25/5 trials at n = 2/3/4, degree 3,
#: 4 terms, parameter seed 10000*n + s
CORPUS = ([(2, s) for s in range(50)] + [(3, s) for s in range(25)]
          + [(4, s) for s in range(5)])

#: screen operations whose outcome is wrong today: both are non-variational
#: by hand (T5 is a nonzero constant, resp. a nonzero polynomial), but the
#: zero test calls the S2(k=3) check zero-numeric and check accepts
KNOWN_FALSE_ACCEPTS = ("p3^2 + 1/10000000000000*p3^3", "p3^1000")

#: the worked equations (f, n, R_true): rho = exp(-R_true)
WORKED = (("0", 2, "0"), ("p3^2", 2, "p2"), ("-p2", 2, "0"), ("0", 3, "0"))

#: the roundtrip round: corpus members with n = 2/3/4, among them n=4, s=2
#: (parameter seed 40002, whose f has 3261 terms).  A round takes 14-29 s
#: on a 2-core Xeon at 2.0 GHz, 11-12 s of it in that trial; the other n = 3
#: members are left out to keep a run well under a minute
ROUNDTRIP = [(n, s) for n, s in CORPUS if n != 3 or s < 3]

#: the screen round: every corpus member but n=4, s=2, whose S4 rejection
#: alone takes 7 s (the roundtrip round carries that trial)
SCREEN = [ns for ns in CORPUS if ns != (4, 2)]

#: corpus members the CLI workload types in, up to 374 terms of f
CLI_ACCEPTED = ([(2, s) for s in range(22)]
                + [(3, s) for s in (0, 1, 5, 7, 10, 11)] + [(4, 0), (4, 4)])
CLI_REJECTED = ((2, 22), (2, 23), (2, 24), (2, 25), (3, 12), (3, 16))

#: perturbations that each break a necessary condition of the paper's form
#: of f (checked at S1 or S2(k=3), S2(k=n+1) and S4(j=1) respectively)
KINDS = ("cubic_top", "slope_p_n+1", "exp_R_p_2n-2")


def corpus_params(n: int, s: int):
    from varmult import GenConfig, gen_params
    return gen_params(n, n, GenConfig(seed=10_000 * n + s, max_degree=3, max_terms=4))


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "varmult")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def corpus() -> dict:
    """f = construct(params).f and R for every corpus member, as trees and
    text, keyed "n:s".  Constructing them takes seconds, so the result is
    kept under .perfbench_cache/, keyed by a digest of varmult's source;
    it does not depend on the seed."""
    path = os.path.join(CACHE, f"corpus-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    from varmult import construct, render
    out = {}
    for n, s in CORPUS:
        params = corpus_params(n, s)
        f = construct(params).f
        out[f"{n}:{s}"] = {"f": _tree(f), "f_text": render(f),
                           "R": _tree(params.R), "R_text": render(params.R)}
    os.makedirs(CACHE, exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(out, fh, sort_keys=True)
    os.replace(tmp, path)
    return out


def perturbed(member: dict, n: int, s: int) -> tuple[str, str, dict]:
    """Kind, text and tree of f + c * (a necessary-condition breaker) for
    corpus member (n, s).  The breaker is chosen by s; the nonzero
    coefficient c is drawn per member, not from the run's seed, because
    the kernel's work (and so the traced call counts) depends on c."""
    rng = random.Random(f"{n}:{s}")
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
    kind = KINDS[s % 3]
    top = f"p{2 * n - 1}"
    if kind == "cubic_top":
        term = f"{top}^3"
    elif kind == "slope_p_n+1":
        term = f"p{n + 1}^2*{top}"
    else:
        term = f"exp({member['R_text']})*p{2 * n - 2}^2"
    term = f"({c})*{term}"
    return (kind, f"{member['f_text']} + {term}",
            {"op": "sum", "args": [member["f"], parse_text(term)]})


def _tree(e) -> dict:
    from varmult import render
    return json.loads(render(e, "json"))


def gen_roundtrip(zt_seed: int) -> list[dict]:
    return [{"n": n, "param_seed": 10_000 * n + s, "zero_test_seed": zt_seed,
             "expect": "accepted"} for n, s in ROUNDTRIP]


def gen_screen(zt_seed: int) -> list[dict]:
    members = corpus()
    ops = []
    for n, s in SCREEN:
        member = members[f"{n}:{s}"]
        kind, _, tree = perturbed(member, n, s)
        ops.append({"n": n, "kind": kind, "f": tree,
                    "zero_test_seed": zt_seed, "expect": "rejected"})
    # the CLI's default zero-test seed, whatever the run's seed
    for text in KNOWN_FALSE_ACCEPTS:
        ops.append({"n": 2, "kind": "known_false_accept", "f": parse_text(text),
                    "zero_test_seed": 0, "expect": "rejected"})
    return ops


def gen_cli_cold(zt_seed: int) -> list[dict]:
    members = corpus()
    ops = []
    for text, n, r_true in WORKED:
        ops.append({"n": n, "text": text, "f": parse_text(text),
                    "R_true": parse_text(r_true), "expect": "accepted"})
    for n, s in CLI_ACCEPTED:
        member = members[f"{n}:{s}"]
        ops.append({"n": n, "text": member["f_text"], "f": member["f"],
                    "R_true": member["R"], "expect": "accepted"})
    for n, s in CLI_REJECTED:
        member = members[f"{n}:{s}"]
        _, text, tree = perturbed(member, n, s)
        ops.append({"n": n, "text": text, "f": tree,
                    "expect": "rejected"})
    for op in ops:
        op["zero_test_seed"] = zt_seed
    return ops


GENERATORS = {"roundtrip": gen_roundtrip, "screen": gen_screen,
              "cli_cold": gen_cli_cold}


def generate(workload: str, seed: int) -> str:
    ops = GENERATORS[workload](seed)
    return json.dumps({"workload": workload, "seed": seed, "ops": ops},
                      sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default=None, help="output file (default stdout)")
    args = ap.parse_args(argv)
    doc = generate(args.workload, args.seed)
    if args.out is None:
        sys.stdout.write(doc + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
