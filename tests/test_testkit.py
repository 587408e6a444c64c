"""Generator tests, and the Euler-Lagrange expression directly and along a path."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import CFG, el_routes
from varmult.jetops import d_pow, expand_d_pow, apply_expansion
from varmult.symexpr import (
    Prod,
    Rat,
    X,
    ZERO,
    add,
    jet,
    max_jet,
    mul,
    pow_int,
)
from varmult.testkit import GenConfig, gen_expr, gen_params
from varmult.varcore import euler_lagrange

p0, p1, p2, p4 = jet(0), jet(1), jet(2), jet(4)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_expr_smallest_case():
    e = gen_expr([p1], GenConfig(seed=7, max_terms=1, max_degree=1))
    assert isinstance(e, Prod) and len(e.factors) == 2
    assert isinstance(e.factors[0], Rat) and e.factors[1] is p1


def test_gen_expr_deterministic():
    cfg = GenConfig(seed=42, allow_exp=True)
    assert gen_expr([p1, X], cfg) == gen_expr([p1, X], cfg)
    assert gen_expr([p1, X], cfg) != gen_expr([p1, X], GenConfig(seed=43, allow_exp=True))


@pytest.mark.parametrize("seed", range(8))
def test_gen_expr_respects_variable_set(seed):
    e = gen_expr([X, p0, p1, p2], GenConfig(seed=seed, allow_exp=True))
    assert max_jet(e) <= 2


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_degree=0)
    with pytest.raises(ValueError):
        GenConfig(max_terms=0)
    with pytest.raises(ValueError, match="need at least one variable"):
        gen_expr([], GenConfig())


def test_gen_params_shapes_and_determinism():
    ps = gen_params(3, 4, GenConfig(seed=5))
    assert ps.n == 3 and ps.m == 4
    assert max_jet(ps.R) <= 3 and max_jet(ps.N) <= 2
    for ell, f in enumerate(ps.f_lower):
        assert max_jet(f) <= ell
    assert gen_params(3, 4, GenConfig(seed=5)) == ps
    with pytest.raises(ValueError):
        gen_params(3, 2, GenConfig(seed=5))


# ---------------------------------------------------------------------------
# literal k-fold total derivative against the closed-form expansion
# ---------------------------------------------------------------------------


def test_d_pow_identity_and_example():
    e = mul(X, p2)
    assert d_pow(4, 0, e) == e
    terms = expand_d_pow(4, 2)
    assert d_pow(4, 2, p2) == apply_expansion(terms, p2)


@pytest.mark.parametrize("m", range(2, 8))
def test_brute_matches_expansion(m):
    # d_pow iterates D_m literally; apply_expansion uses the multi-index
    # coefficients.  Every admissible power k < m up to m = 7, ten random
    # expressions each
    from conftest import rand_expr

    for k in range(1, m):
        terms = expand_d_pow(m, k)
        for seed in range(10):
            e = rand_expr(seed + 100 * m + k, max_index=m, degree=2, terms=3)
            assert d_pow(m, k, e) == apply_expansion(terms, e), (m, k, seed)


# ---------------------------------------------------------------------------
# the Euler-Lagrange expression, directly and along a polynomial path
# ---------------------------------------------------------------------------


def test_euler_lagrange_quartic():
    # L = p2^2/2 gives E = p4
    assert euler_lagrange(mul(Fraction(1, 2), pow_int(p2, 2)), 2) is p4


def test_euler_lagrange_harmonic():
    # L = p2^2/2 - p1^2/2 gives E = p4 + p2
    lagr = add(mul(Fraction(1, 2), pow_int(p2, 2)),
               mul(Fraction(-1, 2), pow_int(p1, 2)))
    assert euler_lagrange(lagr, 2) == add(p4, p2)


def test_euler_lagrange_null_lagrangian():
    # L = p1 is a total derivative
    assert euler_lagrange(p1, 1) is ZERO


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 5)])
def test_el_path_oracle_agreement_random(n, seed):
    # sympy's calculus along a random polynomial path u against the jet
    # operator at the jet of u, at four points
    import random

    from conftest import rand_expr

    rng = random.Random(seed)
    lagr = rand_expr(seed, max_index=n, degree=2, terms=3, allow_exp=True)
    u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n + 3)]
    xs = [Fraction(rng.randint(-8, 8), 9) for _ in range(4)]
    for lhs, rhs in el_routes(lagr, n, u, xs):
        assert abs(lhs - rhs) <= CFG.atol + 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_the_package_reads_the_test_kit_names_on_each_access(monkeypatch):
    # `varmult` imports the test kit only when one of its names is asked
    # for, and reads the name from the module each time, so that a wrapper
    # installed in `varmult.testkit` (as perfbench's tracer does) is seen
    import varmult
    from varmult import testkit

    assert all(getattr(varmult, n) is getattr(testkit, n) for n in testkit.__all__)
    monkeypatch.setattr(testkit, "gen_params", lambda *a: "wrapped")
    assert varmult.gen_params() == "wrapped"
    with pytest.raises(AttributeError, match="no attribute 'gen_param'"):
        varmult.gen_param
