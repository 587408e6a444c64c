"""Operator algebra tests: total derivatives, Euler-Lagrange operators,
multi-index coefficients, the closed-form power expansion, and the
operator-identity property suites."""

from __future__ import annotations

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CFG, IDENTITY_SUITES, assert_zeroish, comb0, rand_expr, to_sympy
from varmult import jetops, symexpr
from varmult.jetops import (
    MultiIndex,
    OperatorTerm,
    a_coeff,
    apply_expansion,
    apply_term,
    d_pow,
    euler_op,
    expand_d_pow,
    total_derivative,
)
from varmult.symexpr import (
    AntiDeriv,
    ExprError,
    ONE,
    X,
    ZERO,
    add,
    antideriv,
    cos,
    diff,
    evaluate,
    exp,
    jet,
    log,
    max_jet,
    mul,
    pow_int,
    render,
    sin,
    sort_key,
)

p0, p1, p2, p3, p4 = (jet(k) for k in range(5))


# ---------------------------------------------------------------------------
# total_derivative / d_pow / euler_op
# ---------------------------------------------------------------------------


def test_total_derivative_examples():
    assert total_derivative(2, p2) is ZERO  # D_2 has no d/dp2 term
    assert total_derivative(4, p3) == p4
    got = total_derivative(2, mul(X, p0, p1))
    assert got == add(mul(p0, p1), mul(X, pow_int(p1, 2)), mul(X, p0, p2))
    assert total_derivative(2, add(mul(X, p1), mul(-1, p0))) is mul(X, p2)
    assert total_derivative(0, add(X, 5)) is ONE
    # for a slope S with dS/dp0 = S, the partial-derivative form cancels
    # S * S^-1 and the derivation keeps D_m S whole: canonical forms with
    # negative powers of sums are not unique, but the two agree in value
    s = add(exp(p0), mul(X, exp(p0)))
    e = mul(p1, pow_int(s, -2))
    partials = add(diff(e, X), mul(p1, diff(e, p0)), mul(p2, diff(e, p1)))
    assert_zeroish(add(total_derivative(2, e), mul(-1, partials)))


def test_total_derivative_validates():
    with pytest.raises(ValueError):
        total_derivative(-1, p1)
    # orders are integers: 2.5 and 1.0 are rejected, not truncated or
    # left to fail inside range()
    for call in (lambda: total_derivative(2.5, pow_int(p1, 2)),
                 lambda: total_derivative(Fraction(2), p1),
                 lambda: d_pow(2.5, 1, p1),
                 lambda: d_pow(2, 1.0, p1),
                 lambda: d_pow(2.5, 0, p1),
                 lambda: euler_op(1.0, 1, p1),
                 lambda: euler_op(2, 1.5, p1),
                 lambda: euler_op(-1, 1, p1)):
        with pytest.raises(ValueError, match="integers >= 0"):
            call()
    # D_m of p_64 would be p_65, past the largest jet index
    top = jet(64)
    assert total_derivative(64, top) is ZERO
    for e in (top, mul(X, top), exp(top), add(1, pow_int(top, 2))):
        with pytest.raises(ValueError, match="exceeds the maximum jet index"):
            total_derivative(65, e)


def test_euler_op_guards_the_jet_index_on_its_steps():
    # the Horner step s_1 = -p64 is never built: its max jet is read off its
    # flat terms, the atoms of a monomial or of an other factor
    top = jet(64)
    for e in (mul(p1, top), mul(p1, exp(top)), mul(p1, X, pow_int(top, -2))):
        with pytest.raises(ExprError, match="^D_65 of p64 exceeds the maximum jet index$"):
            euler_op(65, 1, e)
    # the step's own max jet, not e's: s_1 = -p63 is in range
    assert euler_op(65, 1, add(mul(p1, jet(63)), top)) is mul(-1, top)
    assert euler_op(70, 1, mul(p1, jet(63))) is mul(-1, top)


def test_d_pow_examples():
    e = mul(Fraction(1, 2), pow_int(p2, 2))
    assert d_pow(4, 1, e) == mul(p2, p3)
    assert d_pow(4, 2, e) == add(pow_int(p3, 2), mul(p2, p4))
    assert d_pow(7, 0, e) == e
    assert d_pow(2, 3, p0) is ZERO  # D_2^3 p0 = D_2^2 p1 = D_2 p2 = 0


def test_euler_op_examples():
    e = rand_expr(3)
    assert euler_op(6, 0, e) == diff(e, p0)
    assert euler_op(4, 2, mul(Fraction(1, 2), pow_int(p2, 2))) == p4
    a2 = antideriv(exp(mul(-1, p2)), p2, times=2)
    assert euler_op(2, 2, a2) is ZERO


def _euler_op_as_sum(m, n, e):
    # the operator as written, sum_k (-1)^k D_m^k d/dp_k
    return add(*(mul((-1) ** k, d_pow(m, k, diff(e, jet(k)))) for k in range(n + 1)))


def _with_exp_and_integral(seed):
    # a random polynomial plus an exponential summand and an opaque
    # integral, with max_jet 4
    opaque = antideriv(exp(pow_int(p1, 2)), p1)
    assert isinstance(opaque, AntiDeriv)
    return add(rand_expr(seed, max_index=4, allow_exp=True), mul(p4, opaque))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (7, 2), (9, 3)])
def test_euler_op_horner_matches_sum_of_powers(seed, m, n):
    e = _with_exp_and_integral(seed)
    assert max_jet(e) == 4  # so m runs below and above max_jet(e)
    assert euler_op(m, n, e) == _euler_op_as_sum(m, n, e)


@pytest.mark.parametrize("n", range(5))
def test_euler_op_applies_total_derivative_n_times(monkeypatch, n):
    # the Horner steps run the kernel's product-rule pass once each, with an
    # int order for D_m (a partial derivative passes an atom); the first
    # call memoizes the derivatives inside the terms, whose own passes the
    # second call then skips, and the operator keeps no memo entry of its
    # own: the memo holds derivations and antiderivatives only, so once the
    # slot of the latest Horner pass is emptied, the second call runs every
    # Horner step again
    e = _with_exp_and_integral(n)
    euler_op(2 * n, n, e)
    assert all(len(k) == 2 or k[0] == "anti" for k in symexpr._DERIV_CACHE)
    calls = []
    inner = symexpr._rules

    def counting(sources):
        calls.extend(d for d, *_ in sources if d.__class__ is int)
        return inner(sources)

    monkeypatch.setattr(symexpr, "_rules", counting)
    symexpr._EULER_SLOT = None
    euler_op(2 * n, n, e)
    assert calls == [2 * n] * n


@pytest.mark.parametrize("n", range(5))
def test_a_repeated_euler_op_starts_from_the_slot(monkeypatch, n):
    # the slot keeps the latest Horner pass under (m, n, e): a second call on
    # the same operand runs no product-rule pass and returns the same node,
    # with pairs and a scale too, which enter a copy of the slot's pass; a
    # call on another order or operand runs its own pass and replaces it
    e = _with_exp_and_integral(n)
    first = euler_op(2 * n, n, e)
    a, b = mul(Fraction(2, 3), p1), add(p2, Fraction(1, 5))
    fused = symexpr._euler(2 * n, n, e, ((a, b),), exp(p1))
    slot = symexpr._EULER_SLOT
    assert slot[0] == (2 * n, n, e)
    calls = []
    inner = symexpr._rules

    def counting(sources):
        calls.append(sources)
        return inner(sources)

    monkeypatch.setattr(symexpr, "_rules", counting)
    assert euler_op(2 * n, n, e) is first
    assert symexpr._euler(2 * n, n, e, ((a, b),), exp(p1)) is fused
    assert symexpr._EULER_SLOT is slot and not calls
    assert fused is mul(exp(p1), add(first, mul(a, b)))
    euler_op(2 * n + 1, n, e)
    assert calls and symexpr._EULER_SLOT[0] == (2 * n + 1, n, e)


@pytest.mark.parametrize("scale", [ONE, -1, Fraction(5, 6), mul(Fraction(3, 4), exp(p1))])
def test_euler_op_scale_and_pairs_match_the_built_sum(scale):
    # the kernel's operator is scale * (E e + a*b): the pairs enter the
    # operator's last accumulator over denominators of their own, may cancel
    # the operator, and the scale, constant or not, multiplies the sum
    e = add(_with_exp_and_integral(1), mul(Fraction(2, 7), p1, pow_int(p3, 2)))
    scale = symexpr.as_expr(scale)
    el = euler_op(6, 3, e)
    a, b = mul(Fraction(2, 3), p1), add(p2, Fraction(1, 5))
    assert symexpr._euler(6, 3, e, ((a, b),), scale) is mul(scale, add(el, mul(a, b)))
    minus = symexpr.as_expr(-1)
    assert symexpr._euler(6, 3, e, ((a, b), (minus, el)), scale) is mul(scale, a, b)
    # the pair (-1, el) alone cancels the operator: the result is 0
    assert el is not ZERO and symexpr._euler(6, 3, e, ((minus, el),), scale) is ZERO


def test_euler_op_interns_its_result_only():
    # the operator builds its result only: its last step s_1 is not in the
    # table after it ran.  s_1 is built here, as a sum of powers, after the
    # table is read, in a fresh process, so that no other test has built it
    script = ("from varmult.jetops import d_pow, euler_op\n"
              "from varmult.symexpr import _INTERN, add, diff, jet, mul, parse\n"
              "e = parse('x*p1^2*p3 + p0*p2^2 + exp(p1)*p3^2 + 3/5*p2*p3')\n"
              "out = euler_op(6, 3, e)\n"
              "nodes = list(_INTERN.values())\n"
              "s1 = add(*(mul((-1) ** k, d_pow(6, k - 1, diff(e, jet(k)))) for k in (1, 2, 3)))\n"
              "assert add(diff(e, jet(0)), d_pow(6, 1, s1)) is out\n"
              "print(len(s1.terms), s1 in nodes, out in nodes)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    terms, s1_interned, out_interned = proc.stdout.split()
    assert int(terms) > 3 and s1_interned == "False" and out_interned == "True"


def _td_branches(seed):
    # one summand per case of the product-rule pass in symexpr._rule and
    # symexpr._derive_others
    return [
        mul(rand_expr(seed + 10, max_index=3), pow_int(p2, -2)),  # negative atom power
        mul(p4, p1, pow_int(p3, 2)),  # p_m next to lower jets
        mul(p0, exp(mul(Fraction(1, 2), X, p1, pow_int(p2, 2)))),  # exp of a monomial
        mul(X, exp(mul(p1, exp(p0)))),  # D_m of the exponent holds an exp
        antideriv(exp(add(mul(p1, p2), mul(p0, p2), p0)), p2, times=2),  # S^-1, S^-2
        antideriv(exp(add(mul(p1, p2), p0)), p2, times=2),  # p1^-1, p1^-2
        mul(p3, pow_int(add(1, exp(p1)), -1)),  # D_m of the slope holds an exp
        mul(log(p1), sin(p0), cos(mul(X, p3))),
        mul(pow_int(log(p2), 2), pow_int(sin(p1), -1)),
        antideriv(exp(mul(p0, pow_int(p1, 2))), p1),  # opaque, with a parameter
        mul(X, p1), mul(-1, p0),  # D_m: p1 + x*p2 - p1, a zero coefficient drops
        X,  # D_m x = 1, the core ONE
    ]


@pytest.mark.parametrize("seed", range(4))
def test_total_derivative_memo_returns_identical_node(seed):
    e = add(_with_exp_and_integral(seed), *_td_branches(seed))
    top = max_jet(e)
    assert top == 4
    for m in (0, 1, top - 1, top, top + 1, top + 3):
        first = total_derivative(m, e)
        assert total_derivative(m, e) is first
        # consistency check against D_m = d/dx + sum_j p_j d/dp_{j-1}: the
        # partial derivatives run the same derivation pass, so this is no
        # independent oracle (test_total_derivative_matches_sympy is one)
        assert first == add(diff(e, X),
                            *(mul(jet(j), diff(e, jet(j - 1))) for j in range(1, m + 1)))
    # past max_jet(e) + 1 every order is the same operator on e
    assert total_derivative(top + 3, e) is total_derivative(top + 1, e)
    for t in e.terms:
        assert total_derivative(top + 5, t) is total_derivative(max_jet(t) + 1, t)


def test_terms_with_equal_other_factors_share_one_derivative(monkeypatch):
    # a derivation differentiates the other factors of its terms once per
    # tuple of them, so terms that differ only in coefficient and monomial
    # share one product-rule pass over those factors, and D_m still equals
    # d/dx + sum_j p_j d/dp_{j-1} for each kind of factor
    from varmult import symexpr

    monkeypatch.setattr(symexpr, "_DERIV_CACHE", {})
    inner, passes = symexpr._derive_factor, []
    monkeypatch.setattr(symexpr, "_derive_factor",
                        lambda d, f: passes.append((d, f)) or inner(d, f))
    slope = pow_int(add(1, pow_int(p0, 2), p1), -2)
    opaque = antideriv(exp(mul(p0, pow_int(p1, 2))), p1)
    for g in (exp(mul(p1, p2)), slope, log(add(2, p1)), sin(mul(X, p0)),
              cos(p2), opaque, mul(exp(p0), slope, log(add(2, p1)), opaque)):
        others = g._flat[3]
        terms = (mul(3, p2, g), mul(Fraction(-5, 2), pow_int(X, 2), p1, g), g)
        assert {t._flat[3] for t in terms} == {others}
        e = add(*terms)
        for m in (1, 3, 5):
            passes.clear()
            got = total_derivative(m, e)
            # no factor went through the chain rule twice for one order
            assert len(passes) == len(set(passes))
            assert got == add(diff(e, X), *(mul(jet(j), diff(e, jet(j - 1)))
                                            for j in range(1, m + 1)))


def test_cold_and_warm_checks_give_the_same_nodes(monkeypatch):
    from varmult import symexpr
    from varmult.checker import check
    from varmult.testkit import GenConfig, gen_params
    from varmult.varcore import construct

    f = construct(gen_params(4, 4, GenConfig(seed=40_002, max_degree=3,
                                             max_terms=4))).f
    monkeypatch.setattr(symexpr, "_DERIV_CACHE", {})
    cold = check(f, 4, CFG)
    assert symexpr._DERIV_CACHE
    warm = check(f, 4, CFG)
    assert cold.outcome.__class__ is warm.outcome.__class__
    for field in ("R", "rho", "L"):
        assert getattr(cold.outcome, field) is getattr(warm.outcome, field)
    assert all(a is b for a, b in zip(cold.outcome.f_lower, warm.outcome.f_lower))
    assert len(cold.trace) == len(warm.trace)
    for a, b in zip(cold.trace, warm.trace):
        # nodes compare by identity
        assert (a.step, a.checked, a.derived, a.verdict) == (b.step, b.checked, b.derived, b.verdict)


@pytest.mark.parametrize("seed", range(2))
def test_diff_matches_sympy(seed):
    # differential test of the product-rule pass against an independent
    # implementation: sympy's derivative of every branch expression, in each
    # of its free atoms, compared at rational points where every log
    # argument and every negative power's base is positive
    sympy = pytest.importorskip("sympy")
    sym = {X: sympy.Symbol("x"), **{jet(k): sympy.Symbol(f"p{k}") for k in range(5)}}
    rng = random.Random(seed)
    points = [{a: Fraction(rng.randint(2, 9), 10) for a in sym} for _ in range(3)]
    for e in [_with_exp_and_integral(seed), *_td_branches(seed)]:
        theirs = to_sympy(e, sympy, sym[X], lambda k: sym[jet(k)])
        for v in sorted(e.free_atoms, key=sort_key):
            ours = diff(e, v)
            d_theirs = sympy.diff(theirs, sym[v])
            for pt in points:
                got = evaluate(ours, {a: float(c) for a, c in pt.items()})
                want = float(d_theirs.subs({sym[a]: sympy.Rational(c) for a, c in pt.items()})
                             .evalf(30))
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (e, v, pt)


@pytest.mark.parametrize("seed", range(2))
def test_total_derivative_matches_sympy(seed):
    # differential test of the int derivation D_m against sympy's
    # d/dx + sum_{j<m} p_{j+1} d/dp_j of every branch expression, at the
    # orders 0, 1, max_jet(e) and max_jet(e) + 1 (those that are >= 0),
    # compared at rational points as in test_diff_matches_sympy
    sympy = pytest.importorskip("sympy")
    sym = {X: sympy.Symbol("x"), **{jet(k): sympy.Symbol(f"p{k}") for k in range(6)}}
    rng = random.Random(seed)
    points = [{a: Fraction(rng.randint(2, 9), 10) for a in sym} for _ in range(2)]
    for e in [_with_exp_and_integral(seed), *_td_branches(seed)]:
        theirs = to_sympy(e, sympy, sym[X], lambda k: sym[jet(k)])
        top = max_jet(e)
        for m in sorted({m for m in (0, 1, top, top + 1) if m >= 0}):
            ours = total_derivative(m, e)
            d_theirs = sympy.diff(theirs, sym[X]) + sum(
                sym[jet(j + 1)] * sympy.diff(theirs, sym[jet(j)]) for j in range(m))
            for pt in points:
                got = evaluate(ours, {a: float(c) for a, c in pt.items()})
                want = float(d_theirs.subs({sym[a]: sympy.Rational(c) for a, c in pt.items()})
                             .evalf(30))
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (e, m, pt)


def test_dm_keeps_the_slope_fold():
    # D_3 T = T for T = exp(x) + p3*exp(x): S^(k-1) * S folds back to S^k
    # in the derivation, as it does in `mul`
    t = add(exp(X), mul(p3, exp(X)))
    assert render(total_derivative(3, pow_int(t, -1))) == "-(exp(x) + p3*exp(x))^-1"


def test_jetops_reaches_the_kernel_only_through_derive():
    # the derivation lives in the kernel: jetops imports no private symexpr
    # name but the derivation passes, a derivation's and an Euler operator's,
    # and both reach the product rule through the kernel's one pass
    tree = ast.parse(Path(jetops.__file__).read_text())
    private = {a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "symexpr"
               for a in node.names if a.name.startswith("_")}
    assert private == {"_derive", "_euler"}
    kernel = ast.parse(Path(symexpr.__file__).read_text())
    callers = {name: sorted(f.name for f in kernel.body if isinstance(f, ast.FunctionDef)
                            for node in ast.walk(f)
                            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name)
               for name in ("_rule", "_rules")}
    assert callers == {"_rule": ["_rules"], "_rules": ["_derive", "_euler"]}


# ---------------------------------------------------------------------------
# MultiIndex and coefficients
# ---------------------------------------------------------------------------


def test_multi_index_norms():
    i = MultiIndex((3, 1, 1))
    assert i.size == 5
    assert i.weighted_norm == 1 * 3 + 2 * 1 + 3 * 1
    assert i.multiplicative_norm == (1 ** 3) * 2 * 6
    assert i.factorial == 6
    assert a_coeff(i, 10) == Fraction(math.factorial(10), 12 * 6 * math.factorial(2))


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    i = MultiIndex((0, 2))
    assert i.try_sub(1) is None
    assert i.try_sub(2) == MultiIndex((0, 1))
    assert i.try_sub(3) is None


def test_a_coeff_examples():
    # all-zero index has coefficient 1 at any k
    assert a_coeff(MultiIndex((0, 0, 0, 0)), 7) == 1
    # single slot-2 entry at m=4, k=2 (the p4 d2 term of D_4^2)
    assert a_coeff(MultiIndex((0, 1, 0, 0)), 2) == 1
    # above the norm bound the coefficient vanishes
    assert a_coeff(MultiIndex((0, 0, 1)), 2) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_coeff_inductive_table(n):
    """The five nonzero solutions of the order-reduction inequality at
    m = 2n-2, with entries i_n, i_{n-1}, i_{n-2} sitting in slots
    n-2, n-1, n; coefficients (1, n, 1, n-1, 1)."""
    m = 2 * n - 2

    def single(slot):
        entries = [0] * m
        entries[slot - 1] = 1
        return MultiIndex(tuple(entries))

    rows = [
        (n, single(n), Fraction(1)),          # i_{n-2} = 1
        (n, single(n - 1), Fraction(n)),      # i_{n-1} = 1
        (n - 1, single(n - 1), Fraction(1)),
        (n - 1, single(n - 2), Fraction(n - 1)),  # i_n = 1
        (n - 2, single(n - 2), Fraction(1)),
    ]
    for k, index, expected in rows:
        assert a_coeff(index, k) == expected


def test_a_coeff_recurrence_exact():
    """a_I^(k+1) = a_I^(k) + sum_j C(k+j-||I||, j-1) a_{I-e_j}^(k), exactly,
    for all indices with ||I|| <= 4, lengths m <= 6, k <= 5."""
    for m in range(1, 7):
        for entries in _indices(m, 4):
            index = MultiIndex(entries)
            norm = index.weighted_norm
            for k in range(0, 6):
                rhs = a_coeff(index, k)
                for j in range(1, m + 1):
                    sub = index.try_sub(j)
                    if sub is not None:
                        rhs += comb0(k + j - norm, j - 1) * a_coeff(sub, k)
                assert a_coeff(index, k + 1) == rhs, (entries, k)


def _indices(m, max_norm):
    def rec(j, budget, prefix):
        if j > m:
            yield tuple(prefix)
            return
        for i in range(budget // j + 1):
            yield from rec(j + 1, budget - j * i, prefix + [i])

    yield from rec(1, max_norm, [])


# ---------------------------------------------------------------------------
# expand_d_pow
# ---------------------------------------------------------------------------


def test_expand_d4_squared_exact():
    """D_4^2 = D_3^2 + 2 p4 D_3 d3 + p4^2 d3^2 + p4 d2."""
    got = expand_d_pow(4, 2)
    expected = [
        OperatorTerm(Fraction(1), 0, 2, MultiIndex((0, 0, 0, 0))),
        OperatorTerm(Fraction(2), 1, 1, MultiIndex((1, 0, 0, 0))),
        OperatorTerm(Fraction(1), 1, 0, MultiIndex((0, 1, 0, 0))),
        OperatorTerm(Fraction(1), 2, 0, MultiIndex((2, 0, 0, 0))),
    ]
    assert got == expected


def test_expand_d2_once():
    # D_2 = D_1 + p2 d1
    got = expand_d_pow(2, 1)
    assert got == [
        OperatorTerm(Fraction(1), 0, 1, MultiIndex((0, 0))),
        OperatorTerm(Fraction(1), 1, 0, MultiIndex((1, 0))),
    ]


def test_expand_precondition():
    with pytest.raises(ValueError):
        expand_d_pow(2, 2)
    with pytest.raises(ValueError):
        expand_d_pow(3, 0)


@pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 8)
                                 for k in range(1, min(m, 5))])
def test_expand_matches_repeated_application(m, k):
    # every admissible pair with k <= 4, m <= 7
    terms = expand_d_pow(m, k)
    for seed in range(3):
        e = rand_expr(seed + 10 * m + k, max_index=m, degree=3, terms=3)
        assert apply_expansion(terms, e) == d_pow(m, k, e)


def test_apply_term_single():
    # the p4 d2 term of D_4^2 applied to p2^2/2 gives p4 p2
    term = OperatorTerm(Fraction(1), 1, 0, MultiIndex((0, 1, 0, 0)))
    assert apply_term(term, mul(Fraction(1, 2), pow_int(p2, 2))) == mul(p2, p4)


def test_operator_term_validation():
    with pytest.raises(ValueError):
        OperatorTerm(Fraction(0), 0, 1, MultiIndex((0,)))
    with pytest.raises(ValueError):
        OperatorTerm(Fraction(1), 0, -1, MultiIndex((0,)))


# ---------------------------------------------------------------------------
# operator-identity property suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(IDENTITY_SUITES))
@pytest.mark.parametrize("seed", range(10))
def test_operator_identity(name, seed):
    residual = IDENTITY_SUITES[name](seed)
    assert_zeroish(residual, msg=f"{name} seed={seed}")
