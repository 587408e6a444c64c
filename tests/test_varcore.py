"""Solution-family tests: constructors, Euler-Lagrange computation, the
fourth-order invariants, triple verification, and gauge properties."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from conftest import CFG, assert_zeroish, to_sympy
from varmult.jetops import euler_op, total_derivative
from varmult.symexpr import (
    NonZero,
    Sum,
    X,
    ZERO,
    ONE,
    ZeroStructural,
    add,
    antideriv,
    diff,
    evaluate,
    exp,
    is_zero,
    jet,
    max_jet,
    mul,
    pow_int,
)
from varmult.testkit import GenConfig, gen_expr, gen_params
from varmult.varcore import (
    ParamSet,
    VariationalTriple,
    construct,
    euler_lagrange,
    fels_I1,
    fels_T5,
    verify_triple,
)
from varmult.varcore import _peel, _residual

p0, p1, p2, p3, p4, p5, p6 = (jet(k) for k in range(7))


def _half(e):
    return mul(Fraction(1, 2), e)


# ---------------------------------------------------------------------------
# ParamSet / VariationalTriple validation
# ---------------------------------------------------------------------------


def test_param_set_validation():
    with pytest.raises(ValueError):
        ParamSet(n=1, R=ZERO, f_lower=(ZERO,), N=ZERO)
    with pytest.raises(ValueError):
        ParamSet(n=2, R=ZERO, f_lower=(ZERO,), N=ZERO)  # wrong count
    with pytest.raises(ValueError):
        ParamSet(n=2, R=p3, f_lower=(ZERO, ZERO), N=ZERO)  # R too deep
    with pytest.raises(ValueError):
        ParamSet(n=2, R=ZERO, f_lower=(p1, ZERO), N=ZERO)  # f0 too deep
    with pytest.raises(ValueError):
        ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=p2)  # N too deep
    with pytest.raises(ValueError):
        ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO, m=1)  # m < n
    ps = ParamSet(n=2, R=p2, f_lower=(X, p1), N=p0)
    assert ps.m == 2


def test_triple_validation():
    with pytest.raises(ValueError, match="need m >= n >= 2"):
        VariationalTriple(f=ZERO, rho=ONE, L=_half(pow_int(p1, 2)), n=1, m=1)
    with pytest.raises(ValueError):
        VariationalTriple(f=p4, rho=ONE, L=_half(pow_int(p2, 2)), n=2, m=2)
    with pytest.raises(ValueError):
        VariationalTriple(f=ZERO, rho=p1, L=_half(pow_int(p2, 2)), n=2, m=2)
    with pytest.raises(ValueError):
        VariationalTriple(f=ZERO, rho=ONE, L=pow_int(p3, 2), n=2, m=2)
    t = VariationalTriple(f=ZERO, rho=exp(mul(-1, p2)), L=_half(pow_int(p2, 2)),
                          n=2, m=2)
    assert t.m == 2


@pytest.mark.parametrize("bad", [2.0, 2.5, "2", True], ids=["float", "fraction", "str", "bool"])
def test_every_entry_point_takes_its_orders_by_one_rule(bad):
    # n and m are ints, not bools, with m >= n >= 2: a float, a string or a
    # bool is the same ValueError wherever an order enters
    from varmult.checker import check

    L = _half(pow_int(p2, 2))
    calls = [lambda: ParamSet(n=bad, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO),
             lambda: ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO, m=bad),
             lambda: VariationalTriple(f=ZERO, rho=ONE, L=L, n=bad, m=2),
             lambda: VariationalTriple(f=ZERO, rho=ONE, L=L, n=2, m=bad),
             lambda: check(p3, bad, CFG),
             lambda: gen_params(bad, 2, GenConfig()),
             lambda: gen_params(2, bad, GenConfig())]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"must be an int, got {bad!r}")):
            call()


# ---------------------------------------------------------------------------
# euler_lagrange
# ---------------------------------------------------------------------------


def test_euler_lagrange_examples():
    with pytest.raises(ValueError, match="n must be >= 0"):
        euler_lagrange(p1, -1)
    assert euler_lagrange(_half(pow_int(p2, 2)), 2) == p4
    assert euler_lagrange(mul(Fraction(-1, 2), pow_int(p3, 2)), 3) == p6
    got = euler_lagrange(add(_half(pow_int(p2, 2)), mul(Fraction(-1, 2), pow_int(p1, 2))), 2)
    assert got == add(p2, p4)


def test_euler_lagrange_dependence_violation():
    with pytest.raises(ValueError):
        euler_lagrange(pow_int(p3, 2), 2)


def test_euler_lagrange_kills_total_derivatives():
    # a gauge term D_n N contributes nothing
    n_expr = mul(X, p0, p1)
    assert euler_lagrange(total_derivative(2, n_expr), 2) is ZERO


def test_euler_operator_skips_the_steps_past_the_max_jet():
    # the Horner steps start at the max jet of the operand, every step past
    # it being 0, so an order past the largest jet index asks for no jet
    # beyond it: a construct triple with m = 100 verifies, and E_200^100
    # of p2^2 is 2 p4
    assert euler_lagrange(pow_int(p2, 2), 100) is mul(2, p4)
    t = construct(ParamSet(n=2, R=p2, f_lower=(ZERO, pow_int(p1, 2)), N=pow_int(p1, 3), m=100))
    assert isinstance(verify_triple(t, CFG), ZeroStructural)


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 6), (4, 7)])
def test_euler_lagrange_matches_sympy(n, seed):
    # differential test against an independent implementation:
    # sympy.calculus.euler.euler_equations on the same polynomial Lagrangian
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    x, z = sympy.symbols("x z")
    u = sympy.Function("u")(x)
    lagr = gen_expr([X] + [jet(k) for k in range(n + 1)],
                    GenConfig(seed=seed, max_degree=4, max_terms=6))
    # the extra z*u adds z to the Euler-Lagrange expression, so that sympy
    # keeps the equation even when the rest of it is a constant
    (eq,) = euler_equations(to_sympy(lagr, sympy, x, lambda k: u.diff(x, k)) + z * u, u, x)
    ours = to_sympy(euler_lagrange(lagr, n), sympy, x, lambda k: u.diff(x, k))
    assert sympy.expand(eq.lhs - eq.rhs - z - ours) == 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_trivial():
    t = construct(ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO))
    assert t.f is ZERO and t.rho is ONE
    assert t.L == _half(pow_int(p2, 2))


def test_construct_exponential_multiplier():
    t = construct(ParamSet(n=2, R=p2, f_lower=(ZERO, ZERO), N=ZERO))
    assert t.f == pow_int(p3, 2)
    assert t.rho == exp(mul(-1, p2))
    assert t.L == add(p2, -1, exp(mul(-1, p2)))


def test_construct_linear_term():
    t = construct(ParamSet(n=2, R=ZERO, f_lower=(ZERO, ONE), N=ZERO))
    assert t.f == mul(-1, p2)
    assert t.rho is ONE
    assert t.L == add(_half(pow_int(p2, 2)), mul(Fraction(-1, 2), pow_int(p1, 2)))


def test_construct_sixth_order_trivial():
    t = construct(ParamSet(n=3, R=ZERO, f_lower=(ZERO, ZERO, ZERO), N=ZERO))
    assert t.f is ZERO and t.rho is ONE
    assert t.L == mul(Fraction(-1, 2), pow_int(p3, 2))


@pytest.mark.parametrize("n,m,seed", [(2, 2, 0), (2, 2, 5), (2, 3, 1),
                                      (3, 3, 2), (3, 4, 3)])
def test_constructed_triples_verify(n, m, seed):
    params = gen_params(n, m, GenConfig(seed=seed, max_degree=2, max_terms=3))
    t = construct(params)
    assert verify_triple(t, CFG).is_zero
    assert max_jet(t.f) <= 2 * n - 1
    assert max_jet(t.L) <= m


@pytest.mark.parametrize("seed", range(5))
def test_multiplier_positive_at_samples(seed):
    import random

    params = gen_params(2, 2, GenConfig(seed=seed, max_degree=3, max_terms=3))
    rho = construct(params).rho
    rng = random.Random(seed)
    for _ in range(10):
        pt = {a: rng.uniform(-1, 1) for a in rho.free_atoms}
        assert evaluate(rho, pt) > 0


def test_gauge_invariance():
    base = ParamSet(n=2, R=p2, f_lower=(p0, p1), N=ZERO)
    gauged = ParamSet(n=2, R=p2, f_lower=(p0, p1), N=mul(X, p0, p1))
    t0 = construct(base)
    t1 = construct(gauged)
    assert t1.f == t0.f and t1.rho == t0.rho
    assert add(t1.L, mul(-1, t0.L)) == total_derivative(2, mul(X, p0, p1))
    assert verify_triple(t1, CFG).is_zero


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 4)])
def test_relaxed_order_degeneracy(n, m):
    params = gen_params(n, m, GenConfig(seed=31 + n + m, max_degree=2, max_terms=2))
    t = construct(params)
    base = construct(ParamSet(n=n, R=params.R, f_lower=params.f_lower,
                              N=params.N, m=n))
    # the relaxed Lagrangian differs from the order-n one by gauge terms only
    drift = add(t.L, mul(-1, base.L))
    gauge = add(total_derivative(m, params.N), mul(-1, total_derivative(n, params.N)))
    assert add(drift, mul(-1, gauge)) is ZERO
    # and it is degenerate in every order above n
    for k in range(n + 1, m + 1):
        assert diff(t.L, jet(k), times=2) is ZERO
    assert verify_triple(t, CFG).is_zero


# ---------------------------------------------------------------------------
# Fels invariants
# ---------------------------------------------------------------------------


def test_fels_T5_examples():
    assert fels_T5(pow_int(p3, 2)) is ZERO  # quadratic in p3
    assert fels_T5(pow_int(p3, 3)) is ONE
    assert fels_T5(ZERO) is ZERO


def test_fels_dependence_validation():
    with pytest.raises(ValueError):
        fels_T5(p4)
    with pytest.raises(ValueError):
        fels_I1(p4)


def test_fels_I1_examples():
    assert fels_I1(ZERO) is ZERO
    assert fels_I1(pow_int(p3, 2)) is ZERO
    params = gen_params(2, 2, GenConfig(seed=99, max_degree=3, max_terms=3))
    f3 = construct(params).f
    assert_zeroish(fels_I1(f3), msg="I1 of constructed f")


def test_fels_I1_detects_non_variational():
    # p4 = p1 has T5 = 0 but fails the second invariant (I1 = 1)
    assert fels_T5(p1) is ZERO
    v = is_zero(fels_I1(p1), CFG)
    assert isinstance(v, NonZero)


@pytest.mark.parametrize("seed", range(6))
def test_fels_conditions_on_solution_family(seed):
    params = gen_params(2, 2, GenConfig(seed=400 + seed, max_degree=3, max_terms=4))
    f3 = construct(params).f
    assert fels_T5(f3) is ZERO
    assert_zeroish(fels_I1(f3), msg=f"seed={seed}")


# ---------------------------------------------------------------------------
# verify_triple
# ---------------------------------------------------------------------------


def test_verify_examples():
    t = construct(ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO))
    assert isinstance(verify_triple(t, CFG), ZeroStructural)
    t2 = construct(ParamSet(n=2, R=p2, f_lower=(ZERO, ZERO), N=ZERO))
    assert verify_triple(t2, CFG).is_zero


def test_verify_corrupted_triple():
    t = construct(ParamSet(n=2, R=ZERO, f_lower=(ZERO, ZERO), N=ZERO))
    bad = VariationalTriple(f=t.f, rho=t.rho, L=add(t.L, pow_int(p1, 2)), n=2, m=2)
    v = verify_triple(bad, CFG)
    assert isinstance(v, NonZero)
    # while adding the null term p1 = D p0 changes nothing
    gauged = VariationalTriple(f=t.f, rho=t.rho, L=add(t.L, p1), n=2, m=2)
    assert verify_triple(gauged, CFG).is_zero


@pytest.mark.parametrize("n, seed, allow_exp", [
    (2, 20_000, False), (3, 30_002, False), (4, 40_000, False), (4, 40_002, False),
    (2, 20_002, True), (3, 30_001, True),
])
def test_residual_is_the_node_of_the_negated_f_formula(n, seed, allow_exp):
    # rho (f - p_{2n}) and -rho (p_{2n} - f) build the same interned node;
    # with allow_exp the R of these seeds holds an exponential
    cfg = GenConfig(seed=seed, max_degree=2 if allow_exp else 3,
                    max_terms=2 if allow_exp else 4, allow_exp=allow_exp)
    t = construct(gen_params(n, n, cfg))
    negated = add(euler_op(2 * t.m, t.m, t.L),
                  mul(-1, t.rho, add(jet(2 * t.n), mul(-1, t.f))))
    assert _residual(t) is negated


@pytest.mark.parametrize("n, seed, allow_exp", [
    (2, 20_000, False), (3, 30_002, False), (4, 40_000, False), (4, 40_002, False),
    (2, 20_002, True), (3, 30_001, True),
])
def test_fused_residual_is_the_node_of_the_unfused_sum(n, seed, allow_exp):
    # the residual sums rho f and rho p_{2n} into the last D_m step of E L;
    # it is the node of E L + rho (f - p_{2n}) built in full, also for a
    # corrupted Lagrangian, whose verdict (point and value) is unchanged
    cfg = GenConfig(seed=seed, max_degree=2 if allow_exp else 3,
                    max_terms=2 if allow_exp else 4, allow_exp=allow_exp)
    t = construct(gen_params(n, n, cfg))
    bad = VariationalTriple(f=t.f, rho=t.rho, n=t.n, m=t.m,
                            L=add(t.L, mul(Fraction(1, 3), p0, pow_int(jet(t.m), 2))))
    for triple in (t, bad):
        unfused = add(euler_op(2 * triple.m, triple.m, triple.L),
                      mul(triple.rho, add(triple.f, mul(-1, jet(2 * triple.n)))))
        assert _residual(triple) is unfused
    assert verify_triple(t, CFG).is_zero
    assert verify_triple(bad, CFG) == is_zero(unfused, CFG)
    assert isinstance(verify_triple(bad, CFG), NonZero)


def _unfused_rest(params):
    # f0 + sum_l (f_l p_{2l} + (-1)^l E_{2l-1}^l II f_l), each a full sum
    rest = [params.f_lower[0]]
    for ell in range(1, params.n):
        fl = params.f_lower[ell]
        rest.append(mul(fl, jet(2 * ell)))
        rest.append(mul((-1) ** ell, euler_op(2 * ell - 1, ell, antideriv(fl, jet(ell), 2))))
    return add(*rest)


def _unfused_f(params):
    # the f of `construct` built step by step: E, the bracket, its product
    # with e^R and the sum with the lead are each a full sum
    n, R = params.n, params.R
    sign_n = (-1) ** n
    if n == 2:
        lead = add(mul(diff(R, p2), pow_int(p3, 2)), mul(2, total_derivative(2, R), p3))
    else:
        lead = mul(n, total_derivative(n + 1, R), jet(2 * n - 1))
    E = euler_op(2 * n - 2, n, antideriv(exp(mul(-1, R)), jet(n), 2))
    return add(lead, mul(-sign_n, exp(R), add(E, mul(sign_n, _unfused_rest(params)))))


_FAMILY = [
    *(gen_params(n, n, GenConfig(seed=seed, max_degree=2 if allow_exp else 3,
                                 max_terms=2 if allow_exp else 4, allow_exp=allow_exp))
      for n, seed, allow_exp in [(2, 20_000, False), (3, 30_002, False),
                                 (4, 40_000, False), (4, 40_002, False),
                                 (2, 20_002, True), (3, 30_001, True)]),
    gen_params(3, 5, GenConfig(seed=35_001, max_degree=3, max_terms=4)),
    # exponentials in R, which is quadratic in p3: II e^{-R} is opaque
    ParamSet(n=3, R=add(mul(p1, exp(p0)), mul(X, p2, pow_int(p3, 2))),
             f_lower=(mul(X, p0), pow_int(p1, 2), mul(p1, p2)), N=p1),
]
_FAMILY_IDS = ["n2-20000", "n3-30002", "n4-40000", "n4-40002", "n2-20002-exp",
               "n3-30001-exp", "m5-n3", "exp-R-quadratic-in-p3"]


@pytest.mark.parametrize("params", _FAMILY, ids=_FAMILY_IDS)
def test_fused_f_is_the_node_of_the_unfused_formula(params):
    # construct sums the signed E, minus the rest and rho times the lead in
    # the accumulator of E's last D_m step, which e^R then scales; that is
    # the node of the formula built sum by sum
    t = construct(params)
    assert t.f is _unfused_f(params)
    assert verify_triple(t, CFG).is_zero


@pytest.mark.parametrize("params", _FAMILY, ids=_FAMILY_IDS)
def test_s4_peels_off_what_construct_peeled_on(params, monkeypatch):
    # construct's chain of peels from -f0 ends at the node -rest, rest built
    # sum by sum; peeling f_{n-1}, ..., f_1 off rest, as S4 does, leaves f0
    # itself
    from varmult import varcore

    chain = []

    def recording(h, ell, g):
        chain.append(_peel(h, ell, g))
        return chain[-1]

    monkeypatch.setattr(varcore, "_peel", recording)
    construct(params)
    rest = _unfused_rest(params)
    assert len(chain) == params.n - 1 and chain[-1] is mul(-1, rest)
    h = rest
    for ell in range(params.n - 1, 0, -1):
        h = _peel(h, ell, params.f_lower[ell])
    assert h is params.f_lower[0]


def test_construct_and_check_build_each_large_sum_once(monkeypatch):
    # with a cold derivation memo, the n=4 corpus trial with the 3261-term f
    # interns one sum of 1000 terms or more (f) in construct, and none in
    # the check of that f (new or not: every call of _intern counts)
    from varmult import symexpr
    from varmult.checker import check

    calls = []
    inner = symexpr._intern

    def counting(key, cls, *args):
        if cls is Sum and len(args[0]) >= 1000:
            calls.append(len(args[0]))
        return inner(key, cls, *args)

    monkeypatch.setattr(symexpr, "_DERIV_CACHE", {})
    monkeypatch.setattr(symexpr, "_intern", counting)
    t = construct(gen_params(4, 4, GenConfig(seed=40_002, max_degree=3, max_terms=4)))
    assert calls == [len(t.f.terms)] == [3261]
    calls.clear()
    assert check(t.f, 4, CFG).accepted
    assert calls == []


def test_a_residual_that_cancels_builds_no_euler_lagrange_sum():
    from varmult.symexpr import _INTERN

    # a parameter seed no other test uses, so E L is not interned already
    t = construct(gen_params(3, 3, GenConfig(seed=30_917, max_degree=3, max_terms=4)))
    assert _residual(t) is ZERO
    before = set(_INTERN.values())
    el = euler_op(2 * t.m, t.m, t.L)
    assert len(el.terms) > 10 and el not in before
