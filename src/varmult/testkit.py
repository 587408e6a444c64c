"""Random generators and independent oracles for the property suites.

The generators produce degree-bounded polynomials with exact rational
coefficients (optionally with one exponential summand), deterministically in
the seed.  The oracle deliberately avoids the code path it checks:
`el_path_oracle` computes Euler-Lagrange values along a fixed polynomial
path by plain one-variable calculus, to be compared against the
jet-operator route.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record
from .jetops import euler_op
from .symexpr import (
    Expr,
    ExprLike,
    X,
    ZERO,
    add,
    as_expr,
    diff,
    evaluate,
    exp,
    jet,
    max_jet,
    mul,
    pow_int,
    sort_key,
    substitute,
)
from .varcore import ParamSet

__all__ = [
    "GenConfig",
    "PolynomialPath",
    "gen_expr",
    "gen_params",
    "el_path_oracle",
]


class GenConfig(Record):
    """Shape of generated random expressions."""

    seed: int = 0
    max_degree: int = 3
    max_terms: int = 4
    allow_exp: bool = False

    def __post_init__(self):
        if self.max_degree < 1 or self.max_terms < 1:
            raise ValueError("max_degree and max_terms must be >= 1")


#: numerators and denominators of generated coefficients lie in 1..6
_COEFF_RANGE = 6


def _rand_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(1, _COEFF_RANGE) * rng.choice((1, -1))
    den = rng.randint(1, _COEFF_RANGE)
    return Fraction(num, den)


def _rand_poly(rng: random.Random, atoms: Sequence[Expr], cfg: GenConfig) -> Expr:
    terms = []
    for _ in range(rng.randint(1, cfg.max_terms)):
        factors = [as_expr(_rand_coeff(rng))]
        for _ in range(rng.randint(1, cfg.max_degree)):
            factors.append(rng.choice(atoms))
        terms.append(mul(*factors))
    return add(*terms)


def gen_expr(vars: Iterable[Expr], cfg: GenConfig) -> Expr:
    """Random polynomial over the given variables (optionally plus one
    exponential of a smaller polynomial), deterministic in cfg.seed."""
    atoms = sorted(vars, key=sort_key)
    if not atoms:
        raise ValueError("need at least one variable")
    rng = random.Random(cfg.seed)
    e = _rand_poly(rng, atoms, cfg)
    if cfg.allow_exp and rng.random() < 0.5:
        inner_cfg = GenConfig(seed=cfg.seed, max_degree=min(2, cfg.max_degree),
                              max_terms=min(2, cfg.max_terms))
        e = add(e, exp(_rand_poly(rng, atoms, inner_cfg)))
    return e


def gen_params(n: int, m: int, cfg: GenConfig) -> ParamSet:
    """Random parameter set for the solution-family constructor: R over
    {x, p0..pn}, f_l over {x, p0..pl}, N over {x, p0..p_{n-1}}."""
    if not m >= n >= 2:
        raise ValueError("need m >= n >= 2")
    rng = random.Random(cfg.seed)

    def sub(atoms):
        sub_cfg = GenConfig(seed=rng.getrandbits(63), max_degree=cfg.max_degree,
                            max_terms=cfg.max_terms, allow_exp=cfg.allow_exp)
        return gen_expr(atoms, sub_cfg)

    r_expr = sub([X] + [jet(k) for k in range(n + 1)])
    f_lower = tuple(sub([X] + [jet(k) for k in range(ell + 1)]) for ell in range(n))
    gauge = sub([X] + [jet(k) for k in range(n)])
    return ParamSet(n=n, R=r_expr, f_lower=f_lower, N=gauge, m=m)


class PolynomialPath(Record):
    """A fixed polynomial u(x) = sum coeffs[i] x^i with exact rational
    coefficients, used to compare Euler-Lagrange routes along u."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(c) for c in self.coeffs))

    def derivative(self, times: int = 1) -> "PolynomialPath":
        cs = self.coeffs
        for _ in range(times):
            cs = tuple(cs[i] * i for i in range(1, len(cs))) or (Fraction(0),)
        return PolynomialPath(cs)

    def as_expr(self) -> Expr:
        return add(*(mul(c, pow_int(X, i)) for i, c in enumerate(self.coeffs)))

    def __call__(self, x: Fraction) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def el_path_oracle(L: ExprLike, n: int, u: PolynomialPath,
                   xs: Sequence[Fraction]) -> list[tuple[float, float]]:
    """For each sample x, return (lhs, rhs) where lhs is
    sum_k (-1)^k (d/dx)^k [dL/dp_k along u] computed by univariate calculus
    after substituting p_j -> u^(j)(x), and rhs is the jet-operator
    Euler-Lagrange expression evaluated at the jet of u.  The two must agree
    for a correct operator implementation."""
    L = as_expr(L)
    if max_jet(L) > n:
        raise ValueError(f"Lagrangian may depend on jets up to p{n} only")
    path_exprs = {jet(j): u.derivative(j).as_expr() for j in range(n + 1)}
    lhs_expr = ZERO
    sign = 1
    for k in range(n + 1):
        along = substitute(diff(L, jet(k)), path_exprs)
        lhs_expr = add(lhs_expr, mul(sign, diff(along, X, times=k)))
        sign = -sign
    el = euler_op(2 * n, n, L)
    pairs = []
    for x0 in xs:
        xf = float(x0)
        lhs = evaluate(lhs_expr, {X: xf})
        point = {X: xf}
        for j in range(2 * n + 1):
            point[jet(j)] = float(u.derivative(j)(Fraction(x0)))
        rhs = evaluate(el, point)
        pairs.append((lhs, rhs))
    return pairs
