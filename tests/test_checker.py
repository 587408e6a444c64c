"""Decision-algorithm tests: the documented examples, roundtrip soundness,
rejection stability, trace completeness, and determinism."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import CFG
from varmult.checker import (
    Accepted,
    CheckReport,
    Inconclusive,
    Rejected,
    check,
    expected_check_count,
)
from varmult.jetops import total_derivative
from varmult.symexpr import (
    Jet,
    NonZero,
    Pow,
    Prod,
    VarX,
    ZERO,
    ONE,
    add,
    cos,
    exp,
    is_zero,
    jet,
    log,
    mul,
    pow_int,
    render,
    simplify,
    sin,
)
from varmult.testkit import GenConfig, gen_params
from varmult import checker, symexpr, varcore
from varmult.varcore import ParamSet, VariationalTriple, construct, verify_triple

p0, p1, p2, p3, p4, p5 = (jet(k) for k in range(6))


# ---------------------------------------------------------------------------
# documented examples
# ---------------------------------------------------------------------------


def test_check_trivial_equation():
    report = check(ZERO, 2, CFG)
    o = report.outcome
    assert isinstance(o, Accepted)
    assert o.rho is ONE
    assert o.L == mul(Fraction(1, 2), pow_int(p2, 2))
    assert o.residual.is_zero
    assert all(t.verdict.is_zero for t in report.trace)


def test_check_rejects_cubic_top_dependence():
    report = check(pow_int(p3, 3), 2, CFG)
    o = report.outcome
    assert isinstance(o, Rejected)
    assert o.step == "S2(k=3)"
    # g_3 = (3/2) p3^2, so the failed linearity check is the constant 3
    assert o.witness == mul(3, ONE)
    assert isinstance(o.verdict, NonZero)


def test_check_exponential_multiplier():
    report = check(pow_int(p3, 2), 2, CFG)
    o = report.outcome
    assert isinstance(o, Accepted)
    assert o.R == p2
    assert o.rho == exp(mul(-1, p2))
    assert o.f_lower == (ZERO, ZERO)
    assert o.L == add(p2, -1, exp(mul(-1, p2)))
    assert o.residual.is_zero


def test_check_rejects_quadratic_top_for_higher_order():
    report = check(pow_int(p5, 2), 3, CFG)
    o = report.outcome
    assert isinstance(o, Rejected)
    assert o.step == "S1"
    assert o.witness == mul(2, ONE)  # d^2 f / dp5^2 = 2


def test_check_preconditions():
    with pytest.raises(ValueError):
        check(p4, 2, CFG)  # f may depend on jets up to p3 only
    with pytest.raises(ValueError):
        check(ZERO, 1, CFG)


@pytest.mark.parametrize("f,n,outcome,step", [
    (Pow(Jet(3), 2), 2, Accepted, None),
    (Pow(Jet(3), 3), 2, Rejected, "S2(k=3)"),
    (Pow(Jet(1), 2), 2, Rejected, "S5"),
    (Prod((VarX(), Jet(2))), 2, Rejected, "S5"),
    (Pow(Jet(5), 2), 3, Rejected, "S1"),
    # p3^3, p3^4 and p3^3 as products of powers: read as a raw product, each
    # would pass S2(k=3) as p3 does
    (Prod((Jet(3), Pow(Jet(3), 2))), 2, Rejected, "S2(k=3)"),
    (Prod((Pow(Jet(3), 2), Pow(Jet(3), 2))), 2, Rejected, "S2(k=3)"),
    (Prod((Pow(Jet(3), 2), Jet(3))), 2, Rejected, "S2(k=3)"),
])
def test_check_of_hand_built_trees(f, n, outcome, step):
    # a class call is its canonical constructor, so a tree built by calling
    # the node classes gets the verdict of the expression it stands for
    report = check(f, n, CFG)
    assert isinstance(report.outcome, outcome)
    assert getattr(report.outcome, "step", None) == step
    assert (_report_fingerprint(report)
            == _report_fingerprint(check(simplify(f), n, CFG)))


def test_check_linear_equation_reconstruction():
    report = check(mul(-1, p2), 2, CFG)
    o = report.outcome
    assert isinstance(o, Accepted)
    assert o.rho is ONE
    assert o.f_lower == (ZERO, ONE)
    assert o.L == add(mul(Fraction(1, 2), pow_int(p2, 2)),
                      mul(Fraction(-1, 2), pow_int(p1, 2)))


def test_check_sixth_order_trivial():
    report = check(ZERO, 3, CFG)
    o = report.outcome
    assert isinstance(o, Accepted)
    assert o.L == mul(Fraction(-1, 2), pow_int(p3, 2))


# ---------------------------------------------------------------------------
# roundtrip soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", ([(2, s) for s in range(8)]
                                    + [(3, s) for s in range(4)]
                                    + [(4, s) for s in range(5)]))
def test_roundtrip_accepts_constructed_equations(n, seed):
    caps = dict(max_degree=3, max_terms=4) if n < 4 else dict(max_degree=2, max_terms=3)
    params = gen_params(n, n, GenConfig(seed=1000 + seed, **caps))
    triple = construct(params)
    report = check(triple.f, n, CFG)
    o = report.outcome
    assert isinstance(o, Accepted), f"{type(o).__name__} at seed {seed}"
    assert o.residual.is_zero
    # the reconstructed multiplier exponent agrees up to data absorbed by
    # the free functions
    drift = add(o.R, mul(-1, params.R))
    assert is_zero(total_derivative(n + 1, drift), CFG).is_zero


def test_roundtrip_with_constant_offset_in_R():
    # R with a nonzero value at the origin exercises the rescaling of the
    # recovered lower functions
    params = ParamSet(n=2, R=add(p2, ONE), f_lower=(ONE, p1), N=ZERO)
    triple = construct(params)
    report = check(triple.f, 2, CFG)
    o = report.outcome
    assert isinstance(o, Accepted)
    assert o.residual.is_zero
    assert is_zero(total_derivative(3, add(o.R, mul(-1, params.R))), CFG).is_zero


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 3), (3, 1)])
def test_rejection_stability_under_cubic_corruption(n, seed):
    params = gen_params(n, n, GenConfig(seed=3000 + seed, max_degree=2, max_terms=3))
    f = add(construct(params).f, pow_int(jet(2 * n - 1), 3))
    report = check(f, n, CFG)
    o = report.outcome
    assert isinstance(o, Rejected)
    assert o.step == ("S2(k=3)" if n == 2 else "S1")


# ---------------------------------------------------------------------------
# trace contract
# ---------------------------------------------------------------------------


def test_trace_completeness_counts():
    assert expected_check_count(2) == 7  # = n^2 + n + 1 at n = 2
    assert expected_check_count(3) == 12
    assert expected_check_count(4) == 18
    for n in (2, 3):
        report = check(ZERO, n, CFG)
        assert report.check_count == expected_check_count(n)
    params = gen_params(2, 2, GenConfig(seed=77, max_degree=3, max_terms=4))
    report = check(construct(params).f, 2, CFG)
    assert report.check_count == expected_check_count(2)


def test_trace_is_ordered_and_annotated():
    report = check(pow_int(p3, 2), 2, CFG)
    steps = [t.step for t in report.trace if t.kind == "check"]
    assert steps == ["S2(k=3)", "S2(k=2)", "S2(k=1)", "S3",
                     "S4(j=1)", "S4(j=1)", "S5"]
    s3 = [t for t in report.trace if t.step == "S3" and t.kind == "check"][0]
    assert s3.derived == p2  # R is attached to the step that produced it
    assert not [t for t in report.trace if t.kind == "note"]


def _corpus_f(n, seed, **gen):
    params = gen_params(n, n, GenConfig(seed=seed, **gen))
    return construct(params).f, params


def _perturbed_s4():
    # corpus n=2 s=2 plus a term that breaks the form of f_1's coefficient
    f, params = _corpus_f(2, 20_002, max_degree=3, max_terms=4)
    return add(f, mul(exp(params.R), pow_int(p2, 2)))


#: (f, n) builders of equations that reach every kind of trace entry:
#: accepted with and without pruning notes, and rejected at S4(j=1)
TRACE_INPUTS = {
    "zero": lambda: (ZERO, 2),
    "p3^2": lambda: (pow_int(p3, 2), 2),
    "corpus n=3 s=0": lambda: (_corpus_f(3, 30_000, max_degree=3,
                                         max_terms=4)[0], 3),
    "pruning": lambda: (_corpus_f(2, 8802, max_degree=2, max_terms=2,
                                  allow_exp=True)[0], 2),
    "perturbed S4": lambda: (_perturbed_s4(), 2),
}


@pytest.mark.parametrize("name", TRACE_INPUTS)
def test_every_zero_test_is_in_the_trace(monkeypatch, name):
    f, n = TRACE_INPUTS[name]()
    calls = []

    def counting(e, cfg=None):
        calls.append(e)
        return is_zero(e, cfg)

    monkeypatch.setattr(checker, "is_zero", counting)
    report = check(f, n, CFG)
    assert len(calls) == len(report.trace)
    assert [t.checked for t in report.trace] == calls
    for t in report.trace:
        if t.kind == "note":
            assert t.note.startswith("pruning functionally-absent p"), t.note
    if name == "pruning":
        assert any(t.kind == "note" for t in report.trace)
    if name == "perturbed S4":
        assert isinstance(report.outcome, Rejected)
        assert report.outcome.step == "S4(j=1)"


def test_check_determinism():
    f = pow_int(p3, 2)
    a = check(f, 2, CFG)
    b = check(f, 2, CFG)
    assert _report_fingerprint(a) == _report_fingerprint(b)


def _report_fingerprint(report: CheckReport) -> str:
    import json

    o = report.outcome
    body = {"outcome": type(o).__name__}
    if isinstance(o, Accepted):
        body.update(R=render(o.R), L=render(o.L), rho=render(o.rho),
                    f_lower=[render(g) for g in o.f_lower],
                    residual=o.residual.to_obj())
    else:
        body.update(step=o.step, witness=render(o.witness))
    body["trace"] = [(t.step, t.kind, render(t.checked), t.verdict.to_obj())
                     for t in report.trace]
    return json.dumps(body, sort_keys=True)


# ---------------------------------------------------------------------------
# inconclusive propagation
# ---------------------------------------------------------------------------


def test_inconclusive_propagates():
    # the linearity witness is 3 log(-2 - p1^2), which no sample point can
    # evaluate; the check must abort as inconclusive, not guess
    f = mul(pow_int(p3, 3), log(add(-2, mul(-1, pow_int(p1, 2)))))
    report = check(f, 2, CFG)
    assert isinstance(report.outcome, Inconclusive)
    assert report.outcome.step == "S2(k=3)"


def test_unbindable_phantom_jet_is_inconclusive():
    # (sin(p1)^2 + cos(p1)^2 - 1)/p1 is functionally zero, so every check
    # passes, but pruning the phantom p1 from h_0 binds p1^-1 at p1 = 0;
    # restrict turns that ExprError into an inconclusive outcome
    f = add(pow_int(p3, 2),
            mul(add(pow_int(sin(p1), 2), pow_int(cos(p1), 2), -1),
                pow_int(p1, -1)))
    report = check(f, 2, CFG)
    assert isinstance(report.outcome, Inconclusive)
    assert report.outcome.step == "S5"
    assert pow_int(p1, -1) in report.outcome.witness.terms


# ---------------------------------------------------------------------------
# accepted implies verified
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_accepted_reports_carry_zero_residual(seed):
    params = gen_params(2, 2, GenConfig(seed=4242 + seed, max_degree=2, max_terms=3))
    report = check(construct(params).f, 2, CFG)
    assert isinstance(report.outcome, Accepted)
    assert report.outcome.residual.is_zero
    assert all(t.verdict.is_zero for t in report.trace if t.kind == "check")


def test_certificate_builds_only_the_lagrangian(monkeypatch):
    # check rebuilds L alone and verifies the triple once, against the
    # input f; it never builds the whole solution triple
    params = gen_params(3, 3, GenConfig(seed=4246, max_degree=3, max_terms=4))
    f = construct(params).f
    verified = []

    def no_construct(params):
        raise AssertionError("check called construct")

    def recording(t, cfg=None):
        verified.append(t)
        return verify_triple(t, cfg)

    monkeypatch.setattr(varcore, "construct", no_construct)
    monkeypatch.setattr(checker, "construct", no_construct, raising=False)
    monkeypatch.setattr(checker, "verify_triple", recording)
    report = check(f, 3, CFG)
    assert isinstance(report.outcome, Accepted)
    assert report.outcome.residual.is_zero
    assert len(verified) == 1 and verified[0].f is f
    assert verified[0].L is report.outcome.L


def test_s4_builds_only_h():
    # each S4 step sums h, -dh p_{2n-2j} and -sign E, E the operator on
    # II dh, into the accumulator of E's last D_m step: neither E, nor
    # -sign E, nor the product is in the intern table after check.  They
    # are built here, step by step from the S3 formula, after the table is
    # read, in a fresh process that parses f, so that construct has not
    # built them
    f = construct(gen_params(3, 3, GenConfig(seed=30_002, max_degree=3, max_terms=4))).f
    script = ("import sys\n"
              "from fractions import Fraction\n"
              "from varmult.checker import check\n"
              "from varmult.jetops import euler_op\n"
              "from varmult.symexpr import _INTERN, add, antideriv, diff, jet, mul, parse, pow_int\n"
              "n = 3\n"
              "f = parse(sys.stdin.read())\n"
              "report = check(f, n)\n"
              "assert report.accepted\n"
              "nodes = set(_INTERN.values())\n"
              "rho, top = report.outcome.rho, jet(2 * n - 1)\n"
              "d_top = diff(f, top)\n"
              "y = add(f, mul(-1, d_top, top), mul(Fraction(1, 2), diff(d_top, top), pow_int(top, 2)))\n"
              "h = add(mul(-(-1) ** n, euler_op(2 * n - 2, n, antideriv(rho, jet(n), 2))),\n"
              "        mul(-1, rho, y))\n"
              "built = []\n"
              "for j in range(1, n):\n"
              "    dh = diff(h, jet(2 * n - 2 * j))\n"
              "    el = euler_op(2 * n - 1 - 2 * j, n - j, antideriv(dh, jet(n - j), 2))\n"
              "    built += [el, mul(-(-1) ** (n - j), el), mul(-1, dh, jet(2 * n - 2 * j))]\n"
              "    h = add(h, *built[-2:])\n"
              "    derived = [t.derived for t in report.trace\n"
              "               if t.step == f'S4(j={j})' and t.derived is not None]\n"
              "    assert derived == [h] and h in nodes\n"
              "print(len(built), sum(b in nodes for b in built))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], input=render(f), capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "0"]


def test_zero_test_rebuilds_no_node(monkeypatch):
    # every node is canonical, so is_zero samples its input as it is: the
    # checked and derived expressions of a corpus trial give the verdicts
    # of the trace without a single rebuilt node
    params = gen_params(3, 3, GenConfig(seed=30001, max_degree=3, max_terms=4))
    report = check(construct(params).f, 3, CFG)
    assert isinstance(report.outcome, Accepted)

    def no_rebuild(e, f):
        raise AssertionError("is_zero rebuilt a node")

    monkeypatch.setattr(symexpr, "_rebuild", no_rebuild)
    assert [is_zero(t.checked, CFG) for t in report.trace] == [t.verdict for t in report.trace]
    derived = [t.derived for t in report.trace if t.derived not in (None, ZERO)]
    assert any(isinstance(is_zero(g, CFG), NonZero) for g in derived)


def test_verify_triple_rejects_a_corrupted_lagrangian():
    params = gen_params(2, 2, GenConfig(seed=4250, max_degree=2, max_terms=3))
    t = construct(params)
    assert verify_triple(t, CFG).is_zero
    # p0*p2^2 is not a null Lagrangian, so E[L] changes
    bad = add(t.L, mul(Fraction(1, 3), p0, pow_int(p2, 2)))
    corrupted = VariationalTriple(f=t.f, rho=t.rho, L=bad, n=t.n, m=t.m)
    assert isinstance(verify_triple(corrupted, CFG), NonZero)


def test_verify_triple_of_a_hand_built_lagrangian():
    # L = p1^4 + p2^2/2 with its p1^4 built by calling the node classes:
    # E(L) = p4 - 12*p1^2*p2, so f = 0 is rejected and f = 12*p1^2*p2 is not
    L = add(mul(Fraction(1, 2), pow_int(p2, 2)), Pow(Jet(1), 4))
    wrong = VariationalTriple(f=ZERO, rho=ONE, L=L, n=2, m=2)
    assert isinstance(verify_triple(wrong, CFG), NonZero)
    right = VariationalTriple(f=mul(12, pow_int(p1, 2), p2), rho=ONE, L=L,
                              n=2, m=2)
    assert verify_triple(right, CFG).is_zero


# ---------------------------------------------------------------------------
# the cyclic collector is paused in the top-level calls
# ---------------------------------------------------------------------------


def _recording_collector(monkeypatch, module, name, seen):
    # wrap module.name so that each call notes whether the collector is on
    inner = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


def test_check_construct_and_verify_triple_pause_the_collector(monkeypatch):
    params = gen_params(2, 2, GenConfig(seed=4251, max_degree=2, max_terms=3))
    seen = []
    _recording_collector(monkeypatch, checker, "_run_steps", seen)
    _recording_collector(monkeypatch, varcore, "_lagrangian", seen)
    _recording_collector(monkeypatch, varcore, "_residual", seen)
    assert gc.isenabled()
    t = construct(params)
    assert seen == [False] and gc.isenabled()
    assert verify_triple(t, CFG).is_zero
    assert seen == [False] * 2 and gc.isenabled()
    # check's steps and its own verify_triple run inside the pause that
    # check began
    assert check(t.f, 2, CFG).accepted
    assert seen == [False] * 4 and gc.isenabled()


def test_the_collector_is_on_again_after_a_call_raises(monkeypatch):
    with pytest.raises(ValueError):
        check(p3, 1)
    assert gc.isenabled()

    def failing(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(varcore, "_euler", failing)
    params = gen_params(2, 2, GenConfig(seed=4252, max_degree=2, max_terms=3))
    with pytest.raises(RuntimeError, match="kernel fault"):
        construct(params)
    assert gc.isenabled()


def test_a_caller_who_turned_the_collector_off_finds_it_off():
    params = gen_params(2, 2, GenConfig(seed=4253, max_degree=2, max_terms=3))
    gc.disable()
    try:
        t = construct(params)
        assert not gc.isenabled()
        assert verify_triple(t, CFG).is_zero
        assert not gc.isenabled()
        assert check(t.f, 2, CFG).accepted
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            check(p3, 1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_check_runs_no_collection():
    # the n=4 corpus trial with the 3261-term f ran 9 collections in check
    # before the pause; the hook is removed before anything else runs
    t = construct(gen_params(4, 4, GenConfig(seed=40_002, max_degree=3, max_terms=4)))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        report = check(t.f, 4, CFG)
    finally:
        gc.callbacks.remove(hook)
    assert report.accepted
    assert starts == []


def test_two_threads_checking_at_once_leave_the_collector_on():
    import sys
    import threading

    f = construct(gen_params(3, 3, GenConfig(seed=30_001, max_degree=3, max_terms=4))).f
    barrier = threading.Barrier(2)
    reports = []

    def work():
        barrier.wait()
        reports.append(check(f, 3, CFG))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(reports) == 2 and all(r.accepted for r in reports)
    assert gc.isenabled()
