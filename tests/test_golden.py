"""Golden canonical output.

A digest over the rendered outputs of `construct` and `check` on a slice of
the acceptance roundtrip corpus.  It pins the output the current constructors
produce, not a unique normal form: with negative powers of sums two equal
expressions can have different canonical forms (S * S^-1 folds only where S
meets its own inverse in one product).  A kernel change that keeps the
algebra but reorders terms or factors, or changes which of several equal
forms a constructor returns, changes this digest.  Update the pinned value
only for a change that means to alter canonical output.
"""

from __future__ import annotations

import hashlib

from conftest import CFG
from varmult.checker import Accepted, check
from varmult.symexpr import render
from varmult.testkit import GenConfig, gen_params
from varmult.varcore import construct

#: (n, seed) pairs of the acceptance corpus: seeds 10_000*n + s
CORPUS = [(2, s) for s in range(5)] + [(3, 0), (4, 0)]

GOLDEN_SHA256 = "221d6eb2294826cffe37dd8860179bd1ad23fede9ae576de213379734956f233"


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


def test_canonical_output_digest():
    h = hashlib.sha256()
    for line in canonical_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_SHA256
