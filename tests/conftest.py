"""Shared helpers for the test suite: a pinned zero-test configuration,
assertion helpers, and the operator-identity suites reused by both the
granular tests and the acceptance module."""

from __future__ import annotations

from varmult.symexpr import (
    AntiDeriv,
    Cos,
    Exp,
    Jet,
    Log,
    Pow,
    Prod,
    Rat,
    Sin,
    Sum,
    X,
    ZeroNumeric,
    ZeroStructural,
    ZeroTestConfig,
    add,
    diff,
    is_zero,
    jet,
    mul,
    pow_int,
)
from varmult.jetops import d_pow, euler_op, total_derivative
from varmult.testkit import GenConfig, gen_expr

# tolerances pinned by the acceptance criteria
CFG = ZeroTestConfig(atol=1e-9, seed=20260810)


def assert_zeroish(e, cfg=CFG, msg=""):
    """The expression must test zero, structurally or numerically."""
    v = is_zero(e, cfg)
    assert isinstance(v, (ZeroStructural, ZeroNumeric)), f"{msg}: {v.describe()}"
    return v


def rand_expr(seed, max_index=6, degree=3, terms=3, allow_exp=False):
    vars_ = [X] + [jet(k) for k in range(max_index + 1)]
    return gen_expr(vars_, GenConfig(seed=seed, max_degree=degree,
                                     max_terms=terms, allow_exp=allow_exp))


def to_sympy(e, sympy, x, jet_image):
    """The jet expression e as a sympy expression, with x read as `x` and
    p_k as `jet_image(k)` (say a symbol, or the k-th derivative of u(x)).
    An opaque integral becomes `sympy.Integral` from 0."""
    def rec(e):
        if isinstance(e, Rat):
            return sympy.Rational(e.value.numerator, e.value.denominator)
        if e is X:
            return x
        if isinstance(e, Jet):
            return jet_image(e.index)
        if isinstance(e, Sum):
            return sympy.Add(*(rec(t) for t in e.terms))
        if isinstance(e, Prod):
            return sympy.Mul(*(rec(f) for f in e.factors))
        if isinstance(e, Pow):
            return rec(e.base) ** e.exponent
        if isinstance(e, AntiDeriv):
            var, t = rec(e.var), sympy.Dummy("t")
            return sympy.Integral(rec(e.integrand).subs(var, t), (t, 0, var))
        funcs = {Exp: sympy.exp, Log: sympy.log, Sin: sympy.sin, Cos: sympy.cos}
        return funcs[type(e)](rec(e.arg))

    return rec(e)


def comb0(n: int, r: int) -> int:
    """Binomial coefficient with the combinatorial convention C(n, r) = 0
    unless 0 <= r <= n."""
    if r < 0 or n < 0 or r > n:
        return 0
    import math

    return math.comb(n, r)


# ---------------------------------------------------------------------------
# Operator-identity suites.  Each function checks one identity on one random
# expression; the acceptance module runs every suite over >= 10 seeds.
# ---------------------------------------------------------------------------


def identity_extraction(e, m=4):
    # D_m = D_{m-1} + p_m d_{m-1}
    lhs = total_derivative(m, e)
    rhs = add(total_derivative(m - 1, e), mul(jet(m), diff(e, jet(m - 1))))
    return add(lhs, mul(-1, rhs))


def identity_commutator(e, m=4, n=2):
    # d_n D_m = D_m d_n + d_{n-1}
    lhs = diff(total_derivative(m, e), jet(n))
    rhs = add(total_derivative(m, diff(e, jet(n))), diff(e, jet(n - 1)))
    return add(lhs, mul(-1, rhs))


def identity_reduction_4(e):
    # E_4^2 = E_3^2 + (2 p4 D_3 - p4 d_1 + p4^2 d_3) d_3 + p4 d_2^2,
    # on expressions with jets up to p2
    d3e = diff(e, jet(3))
    mid = add(mul(2, jet(4), total_derivative(3, d3e)),
              mul(-1, jet(4), diff(d3e, jet(1))),
              mul(pow_int(jet(4), 2), diff(d3e, jet(3))))
    rhs = add(euler_op(3, 2, e), mid, mul(jet(4), diff(e, jet(2), times=2)))
    return add(euler_op(4, 2, e), mul(-1, rhs))


def identity_reduction_3(e):
    # E_3^2 = E_2^2 + 2 p3 D_2 d_2^2 + p3^2 d_2^3, jets of e up to p2
    rhs = add(euler_op(2, 2, e),
              mul(2, jet(3), total_derivative(2, diff(e, jet(2), times=2))),
              mul(pow_int(jet(3), 2), diff(e, jet(2), times=3)))
    return add(euler_op(3, 2, e), mul(-1, rhs))


def identity_binomial_commutation(e, m=4, n=3, k=4):
    # d_n D_m^k = sum_j C(k,j) D_m^{k-j} d_{n-j}
    lhs = diff(d_pow(m, k, e), jet(n))
    parts = []
    for j in range(min(n, k) + 1):
        parts.append(mul(comb0(k, j), d_pow(m, k - j, diff(e, jet(n - j)))))
    return add(lhs, mul(-1, add(*parts)))


def identity_second_derivative_commutation(e, m=3, n=2):
    # d_n^2 D_m = (D_m d_n + 2 d_{n-1}) d_n
    lhs = diff(total_derivative(m, e), jet(n), times=2)
    dne = diff(e, jet(n))
    rhs = add(total_derivative(m, diff(dne, jet(n))), mul(2, diff(dne, jet(n - 1))))
    return add(lhs, mul(-1, rhs))


def identity_telescoping(e, m=4, n=2):
    # E_m^n D_m = (-1)^n D_m^{n+1} d_n
    lhs = euler_op(m, n, total_derivative(m, e))
    sign = 1 if n % 2 == 0 else -1
    rhs = mul(sign, d_pow(m, n + 1, diff(e, jet(n))))
    return add(lhs, mul(-1, rhs))


def identity_mixed_el_a(e):
    # d_2^2 E_2^2 = (D_2^2 d_2 + 3 D_2 d_1 + 3 d_0) d_2^2
    lhs = diff(euler_op(2, 2, e), jet(2), times=2)
    d22 = diff(e, jet(2), times=2)
    rhs = add(d_pow(2, 2, diff(d22, jet(2))),
              mul(3, total_derivative(2, diff(d22, jet(1)))),
              mul(3, diff(d22, jet(0))))
    return add(lhs, mul(-1, rhs))


def identity_mixed_el_b(e):
    # d_1 E_1^1 = -D_1 d_1^2
    lhs = diff(euler_op(1, 1, e), jet(1))
    rhs = mul(-1, total_derivative(1, diff(e, jet(1), times=2)))
    return add(lhs, mul(-1, rhs))


def identity_mixed_el_c(e):
    # (D_2 d_2 - d_1) E_2^2 = D_2^3 d_2^2
    el = euler_op(2, 2, e)
    lhs = add(total_derivative(2, diff(el, jet(2))), mul(-1, diff(el, jet(1))))
    rhs = d_pow(2, 3, diff(e, jet(2), times=2))
    return add(lhs, mul(-1, rhs))


#: name -> (residual builder taking a seed, number of identity instances)
IDENTITY_SUITES = {
    "extraction": lambda s: identity_extraction(rand_expr(s)),
    "commutator": lambda s: identity_commutator(rand_expr(s), m=4 + s % 3, n=1 + s % 3),
    "reduction_E4_to_E3": lambda s: identity_reduction_4(rand_expr(s, max_index=2)),
    "reduction_E3_to_E2": lambda s: identity_reduction_3(rand_expr(s, max_index=2)),
    "binomial_commutation": lambda s: identity_binomial_commutation(
        rand_expr(s, degree=3, terms=2), m=4 + s % 2, n=2 + s % 2, k=3 + s % 4),
    "second_derivative_commutation": lambda s: identity_second_derivative_commutation(
        rand_expr(s), m=3 + s % 3, n=1 + s % 3),
    "telescoping_E21": lambda s: identity_telescoping(rand_expr(s, max_index=2), m=2, n=1),
    "telescoping_general": lambda s: identity_telescoping(
        rand_expr(s, degree=2, terms=2), m=4 + s % 2, n=1 + s % 4),
    "mixed_el_a": lambda s: identity_mixed_el_a(rand_expr(s)),
    "mixed_el_b": lambda s: identity_mixed_el_b(rand_expr(s)),
    "mixed_el_c": lambda s: identity_mixed_el_c(rand_expr(s)),
}
