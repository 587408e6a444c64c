"""Seeded random generators for the property suites, the CLI's
`roundtrip` and the benchmark.

The generators produce degree-bounded polynomials with exact rational
coefficients (optionally with one exponential summand), deterministically in
the seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record
from .symexpr import Expr, X, add, as_expr, exp, jet, mul, sort_key
from .varcore import ParamSet

__all__ = ["GenConfig", "gen_expr", "gen_params"]


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
