"""Golden canonical output and floats.

A digest over the rendered outputs of `construct` and `check` on a slice of
the acceptance roundtrip corpus.  It pins the output the current constructors
produce, not a unique normal form: with negative powers of sums two equal
expressions can have different canonical forms (S * S^-1 folds only where S
meets its own inverse in one product).  A kernel change that keeps the
algebra but reorders terms or factors, or changes which of several equal
forms a constructor returns, changes this digest.  Update the pinned value
only for a change that means to alter canonical output.

A second digest pins the floats of evaluation and of the zero test: the full
`check` reports (witness, point and value) of perturbed corpus members that
reject at S1, S2 and S4, the reports of two members whose closing
certificate is zero-numeric, and the bits of values at seeded points of the
checked expressions and of those certificates' residuals.  A change to the
order of floating operations changes it.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from conftest import CFG
from varmult.checker import Accepted, Rejected, check
from varmult.symexpr import (DomainError, add, evaluate, exp, jet, mul,
                             pow_int, render, sort_key)
from varmult.testkit import GenConfig, gen_params
from varmult.varcore import VariationalTriple, _residual, construct

#: (n, seed) pairs of the acceptance corpus: seeds 10_000*n + s
CORPUS = [(2, s) for s in range(5)] + [(3, 0), (4, 0)]

GOLDEN_SHA256 = "82153a933f151dc53c1fbb87fb13d6ab68e1c9b87da9d7d96f3dab511fd45e06"

#: corpus members perturbed as perfbench's screen workload perturbs them, by
#: s mod 3: rejected at S1 (3, 0), S2(k=n+1) (2, 1), (3, 1) and S4(j=1)
#: (2, 2), (3, 2)
PERTURBED = [(3, 0), (2, 1), (3, 1), (2, 2), (3, 2)]
#: accepted corpus members whose closing certificate is zero-numeric
NUMERIC = [(2, 31), (4, 2)]

FLOATS_SHA256 = "ee97d745f46e9cf3cd2e5f7931cb481f138ed0e244c8e13beb82c0f783c27780"


def _opt(e) -> str:
    return "-" if e is None else render(e)


def canonical_lines():
    for n, s in CORPUS:
        params = gen_params(n, n, GenConfig(seed=10_000 * n + s,
                                            max_degree=3, max_terms=4))
        triple = construct(params)
        yield f"n={n} s={s}"
        yield render(triple.f)
        yield render(triple.L)
        report = check(triple.f, n, CFG)
        o = report.outcome
        assert isinstance(o, Accepted), f"n={n} s={s}: {o}"
        yield render(o.R)
        yield render(o.L)
        for t in report.trace:
            yield "|".join((t.step, t.kind, t.note or "-", render(t.checked),
                            t.verdict.describe(), _opt(t.derived)))


def _member(n, s):
    params = gen_params(n, n, GenConfig(seed=10_000 * n + s, max_degree=3,
                                        max_terms=4))
    return params, construct(params).f


def _perturbed(n, s):
    """f + c*t for corpus member (n, s), as `perfbench/gen.py` builds it."""
    params, f = _member(n, s)
    rng = random.Random(f"{n}:{s}")
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
    top = jet(2 * n - 1)
    t = (pow_int(top, 3), mul(pow_int(jet(n + 1), 2), top),
         mul(exp(params.R), pow_int(jet(2 * n - 2), 2)))[s % 3]
    return add(f, mul(c, t))


def _values(e, seed):
    """The bits of e at three seeded points of the box, or the failure."""
    rng = random.Random(seed)
    atoms = sorted(e.free_atoms, key=sort_key)
    out = []
    for _ in range(3):
        try:
            out.append(evaluate(e, {a: rng.uniform(-1, 1) for a in atoms}).hex())
        except DomainError as exc:
            out.append(str(exc))
    return ",".join(out)


def float_lines():
    for n, s in PERTURBED + NUMERIC:
        f = _perturbed(n, s) if (n, s) in PERTURBED else _member(n, s)[1]
        report = check(f, n, CFG)
        o = report.outcome
        yield f"n={n} s={s} {type(o).__name__}"
        if isinstance(o, Rejected):
            yield f"{o.step}|{render(o.witness)}|{o.verdict.describe()}"
        else:
            assert isinstance(o, Accepted) and o.residual.describe() == "zero-numeric {\"points\": 20}"
            triple = VariationalTriple(f=f, rho=o.rho, L=o.L, n=n, m=n)
            yield _values(_residual(triple), s)
        for t in report.trace:
            yield f"{t.step}|{t.kind}|{t.verdict.describe()}|{_values(t.checked, s)}"


def test_canonical_output_digest():
    h = hashlib.sha256()
    for line in canonical_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


def test_float_digest():
    h = hashlib.sha256()
    for line in float_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == FLOATS_SHA256
