"""Solution family of the variational multiplier problem.

For the equation u^(2n) = f(x, u, ..., u^(2n-1)) a multiplier rho > 0 and a
Lagrangian L solve

    rho * (p_{2n} - f) = E_{2n}^n L.

This module builds the full solution family (f, rho, L) from the free data
(R, f_0..f_{n-1}, N), computes Euler-Lagrange expressions, evaluates the
classical fourth-order invariants T5 and I1, and verifies candidate triples
against the defining identity.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .jetops import euler_op, total_derivative
from .symexpr import (
    Expr,
    ExprLike,
    Exp,
    Prod,
    Rat,
    ZeroTestConfig,
    ZeroVerdict,
    _collector_paused,
    _euler,
    add,
    antideriv,
    as_expr,
    diff,
    exp,
    is_zero,
    jet,
    max_jet,
    mul,
    pow_int,
)

__all__ = [
    "ParamSet",
    "VariationalTriple",
    "euler_lagrange",
    "construct",
    "fels_T5",
    "fels_I1",
    "verify_triple",
]


class ParamSet(Record):
    """Free data parameterizing the solution family for half-order n:
    R with jets up to p_n, the sequence (f_0, ..., f_{n-1}) with jets of f_l
    up to p_l, the gauge N with jets up to p_{n-1}, and the Lagrangian order
    m >= n (m = n is the non-degenerate case)."""

    n: int
    R: Expr
    f_lower: tuple[Expr, ...]
    N: Expr
    m: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("half-order n must be >= 2")
        object.__setattr__(self, "R", as_expr(self.R))
        object.__setattr__(self, "N", as_expr(self.N))
        object.__setattr__(self, "f_lower", tuple(as_expr(f) for f in self.f_lower))
        m = self.n if self.m is None else self.m
        object.__setattr__(self, "m", m)
        if m < self.n:
            raise ValueError("Lagrangian order m must be >= n")
        if len(self.f_lower) != self.n:
            raise ValueError(f"expected {self.n} lower functions f_0..f_{self.n - 1}")
        if max_jet(self.R) > self.n:
            raise ValueError(f"R may depend on jets up to p{self.n} only")
        for ell, f in enumerate(self.f_lower):
            if max_jet(f) > ell:
                raise ValueError(f"f_{ell} may depend on jets up to p{ell} only")
        if max_jet(self.N) > self.n - 1:
            raise ValueError(f"N may depend on jets up to p{self.n - 1} only")


class VariationalTriple(Record):
    """A candidate solution (f, rho, L) of the multiplier identity for the
    equation p_{2n} = f with a Lagrangian of order m."""

    f: Expr
    rho: Expr
    L: Expr
    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < self.n:
            raise ValueError("need m >= n >= 2")
        if max_jet(self.f) > 2 * self.n - 1:
            raise ValueError(f"f may depend on jets up to p{2 * self.n - 1} only")
        if max_jet(self.L) > self.m:
            raise ValueError(f"L may depend on jets up to p{self.m} only")
        if not _is_exp_form(self.rho):
            raise ValueError("rho must be a (product of) exponentials, hence positive")


def _is_exp_form(rho: Expr) -> bool:
    # exp(-R) in canonical form: an Exp node, a product of Exp nodes, or the
    # constant 1 (when R = 0)
    if isinstance(rho, Exp):
        return True
    if isinstance(rho, Rat):
        return rho.value > 0
    if isinstance(rho, Prod):
        return all(isinstance(f, Exp) or (isinstance(f, Rat) and f.value > 0)
                   for f in rho.factors)
    return False


def euler_lagrange(L: ExprLike, n: int) -> Expr:
    """Euler-Lagrange expression E_{2n}^n L of an order-n Lagrangian, in jet
    variables up to p_{2n}."""
    L = as_expr(L)
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_jet(L) > n:
        raise ValueError(f"Lagrangian may depend on jets up to p{n} only")
    return euler_op(2 * n, n, L)


@_collector_paused
def construct(params: ParamSet) -> VariationalTriple:
    """Build the solution triple (f, rho, L) from free data:

        f = lead - e^R [ (-1)^n E_{2n-2}^n II e^{-R}
            + sum_{l=1..n-1} (f_l p_{2l} + (-1)^l E_{2l-1}^l II f_l) + f0 ]
        L = (-1)^n II e^{-R} + sum_l (-1)^l II f_l + I f0 + D_m N

    with lead = d2R p3^2 + 2 D2R p3 for n = 2 and n D_{n+1}R p_{2n-1} for
    n >= 3, where II is the double antiderivative from 0 in the matching jet
    variable (p_n for e^{-R}, p_l for f_l) and I f0 is taken in p_0.
    """
    n, m, R = params.n, params.m, params.R
    rho = exp(mul(-1, R))
    sign_n = 1 if n % 2 == 0 else -1
    rest = [params.f_lower[0]]
    for ell in range(1, n):
        fl = params.f_lower[ell]
        sign = 1 if ell % 2 == 0 else -1
        rest.append(mul(fl, jet(2 * ell)))
        rest.append(mul(sign, euler_op(2 * ell - 1, ell, antideriv(fl, jet(ell), 2))))
    if n == 2:
        lead = add(mul(diff(R, jet(2)), pow_int(jet(3), 2)),
                   mul(2, total_derivative(2, R), jet(3)))
    else:
        lead = mul(n, total_derivative(n + 1, R), jet(2 * n - 1))
    # f = e^R (E - rest + rho lead), E the operator on -(-1)^n II rho: rest
    # and rho lead enter the accumulator of E's last D_m step, whose merged
    # terms e^R then scales once: only f is built
    f = _euler(2 * n - 2, n, mul(-sign_n, antideriv(rho, jet(n), 2)),
               ((as_expr(-1), add(*rest)), (rho, lead)), exp(R))
    return VariationalTriple(f=f, rho=rho, L=_lagrangian(params), n=n, m=m)


def _lagrangian(params: ParamSet) -> Expr:
    """The L of `construct`, without building f."""
    n = params.n
    f0 = params.f_lower[0]
    sign_n = 1 if n % 2 == 0 else -1
    parts = [mul(sign_n, antideriv(exp(mul(-1, params.R)), jet(n), 2)),
             antideriv(f0, jet(0), 1), total_derivative(params.m, params.N)]
    for ell in range(1, n):
        sign = 1 if ell % 2 == 0 else -1
        parts.append(mul(sign, antideriv(params.f_lower[ell], jet(ell), 2)))
    return add(*parts)


def fels_T5(f3: ExprLike) -> Expr:
    """First fourth-order invariant: (1/6) d^3 f3 / dp3^3."""
    f3 = as_expr(f3)
    if max_jet(f3) > 3:
        raise ValueError("f3 may depend on jets up to p3 only")
    return mul(Fraction(1, 6), diff(f3, jet(3), times=3))


def fels_I1(f3: ExprLike) -> Expr:
    """Second fourth-order invariant,

        I1 = d1 f3 + 1/2 (d/dx)^2 d3 f3 - (d/dx) d2 f3
             - 3/4 d3 f3 (d/dx) d3 f3 + 1/2 d2 f3 d3 f3 + 1/8 (d3 f3)^3

    with d/dx realized along solutions of p4 = f3 as e -> D_3 e + f3 * d3 e,
    the total x-derivative on functions of (x, p0..p3)."""
    f3 = as_expr(f3)
    if max_jet(f3) > 3:
        raise ValueError("f3 may depend on jets up to p3 only")
    p3 = jet(3)

    def ddx(e: Expr) -> Expr:
        return add(total_derivative(3, e), mul(f3, diff(e, p3)))

    d3 = diff(f3, p3)
    d2 = diff(f3, jet(2))
    d1 = diff(f3, jet(1))
    dd3 = ddx(d3)
    return add(d1,
               mul(Fraction(1, 2), ddx(dd3)),
               mul(-1, ddx(d2)),
               mul(Fraction(-3, 4), d3, dd3),
               mul(Fraction(1, 2), d2, d3),
               mul(Fraction(1, 8), pow_int(d3, 3)))


@_collector_paused
def verify_triple(t: VariationalTriple, cfg: ZeroTestConfig | None = None) -> ZeroVerdict:
    """Check the defining identity E_{2m}^m L - rho (p_{2n} - f) = 0."""
    return is_zero(_residual(t), cfg)


def _residual(t: VariationalTriple) -> Expr:
    # E L + rho f - rho p_{2n}, summed in the accumulator of the last D_m step
    # of E L: a certificate that cancels builds neither E L nor rho f
    return _euler(2 * t.m, t.m, t.L, ((t.rho, t.f), (t.rho, mul(-1, jet(2 * t.n)))))
