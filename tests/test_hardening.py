"""Adversarial and robustness tests beyond the acceptance criteria:
exponential-laden inputs, bounded behavior on numerically hostile
expressions, parser fuzzing, higher orders, and thread safety."""

from __future__ import annotations

import random
import string
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import CFG
from varmult import symexpr
from varmult.checker import Accepted, Inconclusive, Rejected, check
from varmult.jetops import total_derivative
from varmult.symexpr import (
    AntiDeriv,
    BudgetExceeded,
    ExprError,
    ParseError,
    X,
    add,
    evaluate,
    exp,
    is_zero,
    jet,
    mul,
    parse,
    pow_int,
    render,
)
from varmult.symexpr import Inconclusive as InconclusiveVerdict
from varmult.testkit import GenConfig, gen_params
from varmult.varcore import construct

p1, p2 = jet(1), jet(2)


# ---------------------------------------------------------------------------
# exponential-laden roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(2, s) for s in range(12)] + [(3, s) for s in range(12)])
def test_roundtrip_soundness_with_exponential_data(n, seed):
    """With exponential summands in the free data the reconstruction chain
    may hit opaque integrals it cannot close; the checker must then either
    accept with a verified residual or abort inconclusively in bounded time.
    Rejecting a constructed equation would be unsound."""
    params = gen_params(n, n, GenConfig(seed=8800 + seed, max_degree=2,
                                        max_terms=2, allow_exp=True))
    triple = construct(params)
    t0 = time.perf_counter()
    report = check(triple.f, n, CFG)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"check took {elapsed:.1f}s"
    assert not isinstance(report.outcome, Rejected), report.outcome
    if isinstance(report.outcome, Accepted):
        assert report.outcome.residual.is_zero
        drift = add(report.outcome.R, mul(-1, params.R))
        assert is_zero(total_derivative(n + 1, drift), CFG).is_zero


def test_pruning_recovers_opaque_log_multiplier():
    """A multiplier exponent with no closed-form antiderivative leaves an
    opaque integral in the reconstruction; functionally-absent jets in the
    recovered data must be pruned (with certifying note entries), and the
    residual still verifies."""
    params = gen_params(2, 2, GenConfig(seed=8802, max_degree=2, max_terms=2,
                                        allow_exp=True))
    report = check(construct(params).f, 2, CFG)
    assert isinstance(report.outcome, Accepted)
    assert report.outcome.residual.is_zero
    notes = [t for t in report.trace if t.kind == "note"]
    assert any(t.note and "pruning" in t.note for t in notes)
    assert report.check_count == 7  # note entries stay out of the tally


def test_derivative_shaped_exponential_integrands_close():
    """Integrands of the form (slope) * exp(slope * v) arise from the chain
    rule and must integrate without leaving a symbolic quotient behind."""
    slope = add(-1, mul(-2, jet(0)))
    w = exp(mul(slope, p1))
    from varmult.symexpr import antideriv

    got = antideriv(mul(slope, w), p1)
    assert got == add(w, -1)


# ---------------------------------------------------------------------------
# bounded behavior on hostile numerics
# ---------------------------------------------------------------------------


def test_budget_bounds_nested_quadrature(monkeypatch):
    # three cross-variable irreducible integral nestings exceed the depth
    # bound: each level is exp(v^2 * previous), with no closed form
    from varmult.symexpr import DomainError, antideriv

    lvl1 = antideriv(exp(mul(X, pow_int(jet(0), 2))), jet(0))
    lvl2 = antideriv(exp(mul(pow_int(p1, 2), lvl1)), p1)
    lvl3 = antideriv(exp(mul(pow_int(p2, 2), lvl2)), p2)
    for lvl in (lvl1, lvl2, lvl3):
        assert isinstance(lvl, AntiDeriv)
    point = {X: 0.5, jet(0): 0.5, p1: 0.5, p2: 0.5}
    assert evaluate(lvl2, point) > 0  # two levels are fine
    with pytest.raises(DomainError):
        evaluate(lvl3, point)  # three exceed the depth bound
    v = is_zero(lvl3, CFG)
    assert isinstance(v, InconclusiveVerdict)
    monkeypatch.setattr(symexpr, "_EVAL_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        evaluate(lvl2, point)
    assert is_zero(lvl2, CFG) == InconclusiveVerdict("evaluation budget exceeded")


def test_budget_exhaustion_is_inconclusive_not_slow():
    # a known numerically hostile reconstruction: bounded time, honest verdict
    params = gen_params(3, 3, GenConfig(seed=8810, max_degree=2, max_terms=2,
                                        allow_exp=True))
    t0 = time.perf_counter()
    report = check(construct(params).f, 3, CFG)
    assert time.perf_counter() - t0 < 60.0
    assert isinstance(report.outcome, (Accepted, Inconclusive))


# ---------------------------------------------------------------------------
# parser fuzzing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_parser_never_crashes(seed):
    rng = random.Random(seed)
    alphabet = "xp0123456789+-*/^(), .expsinlogcInt_"
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
    try:
        e = parse(text)
    except (ParseError, ExprError):
        return
    # successful parses must round-trip
    assert parse(render(e)) == e


@pytest.mark.parametrize("seed", range(10))
def test_parser_roundtrip_fuzz_structured(seed):
    from conftest import rand_expr

    e = rand_expr(seed, max_index=4, degree=3, terms=4, allow_exp=True)
    assert parse(render(e)) == e


# ---------------------------------------------------------------------------
# higher order and concurrency
# ---------------------------------------------------------------------------


def test_roundtrip_order_ten_equation():
    params = gen_params(5, 5, GenConfig(seed=55, max_degree=2, max_terms=2))
    triple = construct(params)
    report = check(triple.f, 5, CFG)
    assert isinstance(report.outcome, Accepted)
    assert report.outcome.residual.is_zero


@pytest.mark.parametrize("seed", range(40))
def test_checker_agrees_with_fourth_order_invariants(seed):
    """Two independent routes to the same decision: the five-step
    reconstruction and the classical invariant pair must agree on random
    fourth-order equations."""
    from varmult.symexpr import ZeroTestConfig
    from varmult.testkit import gen_expr
    from varmult.varcore import fels_I1, fels_T5

    f3 = gen_expr([X, jet(0), jet(1), jet(2), jet(3)],
                  GenConfig(seed=5000 + seed, max_degree=2, max_terms=2))
    report = check(f3, 2, CFG)
    invariants_zero = (is_zero(fels_T5(f3), CFG).is_zero
                       and is_zero(fels_I1(f3), CFG).is_zero)
    assert isinstance(report.outcome, (Accepted, Rejected))
    assert isinstance(report.outcome, Accepted) == invariants_zero


def test_rational_equations_decided():
    # genuinely non-variational rational right-hand sides reject cleanly,
    # in agreement with the invariants
    from varmult.varcore import fels_I1

    for text in ("p3^2/(1 + p0^2)", "2*p2*p3/(1 + p2^2)"):
        f3 = parse(text)
        report = check(f3, 2, CFG)
        assert isinstance(report.outcome, Rejected), text
        assert not is_zero(fels_I1(f3), CFG).is_zero, text


def test_logarithmic_multiplier_roundtrip():
    """rho = 1/(1 + p2^2) comes from R = log(1 + p2^2); the reconstruction
    recovers R in opaque-integral form and the residual still cancels
    structurally."""
    from varmult.symexpr import log
    from varmult.varcore import ParamSet, verify_triple

    big_r = log(add(1, pow_int(p2, 2)))
    params = ParamSet(n=2, R=big_r, f_lower=(0, 0), N=0)
    triple = construct(params)
    assert render(triple.f) == "2*p2*p3^2*(1 + p2^2)^-1"
    assert verify_triple(triple, CFG).is_zero
    report = check(triple.f, 2, CFG)
    assert isinstance(report.outcome, Accepted)
    assert report.outcome.residual.is_zero
    drift = add(report.outcome.R, mul(-1, big_r))
    assert is_zero(total_derivative(3, drift), CFG).is_zero


def test_concurrent_use_is_consistent():
    """The library is pure apart from internal caches; concurrent calls must
    agree with serial ones."""

    def job(seed):
        params = gen_params(2, 2, GenConfig(seed=seed, max_degree=2, max_terms=3))
        report = check(construct(params).f, 2, CFG)
        assert isinstance(report.outcome, Accepted)
        return render(report.outcome.L)

    seeds = list(range(40, 52))
    serial = [job(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(job, seeds))
    assert parallel == serial
