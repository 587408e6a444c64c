"""Acceptance suite.

One test per release criterion; each prints a single PASS line with its
measured runtime.  Tolerances are pinned here: atol 1e-9, rtol 1e-8,
20 sample points for every probabilistic zero test.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from conftest import CFG, IDENTITY_SUITES, comb0, el_routes, rand_expr
from test_cli import invoke, validate
from varmult.checker import Accepted, Rejected, check
from varmult.jetops import (
    MultiIndex,
    OperatorTerm,
    a_coeff,
    expand_d_pow,
    total_derivative,
)
from varmult.symexpr import (
    ZERO,
    ONE,
    ZeroNumeric,
    ZeroStructural,
    add,
    exp,
    is_zero,
    jet,
    mul,
    pow_int,
)
from varmult.testkit import GenConfig, gen_params
from varmult.varcore import (
    VariationalTriple,
    construct,
    euler_lagrange,
    fels_I1,
    fels_T5,
    verify_triple,
)

p1, p2, p3 = jet(1), jet(2), jet(3)


def _timed(budget_s: float, label: str, fn):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{label}: {elapsed:.3f}s exceeds {budget_s}s"
    print(f"PASS {label} ({elapsed:.3f}s)")
    return result


def test_criterion_1_concrete_power_expansion():
    """D_4^2 = D_3^2 + 2 p4 D_3 d3 + p4^2 d3^2 + p4 d2, exactly, in < 1 ms."""
    expected = [
        OperatorTerm(Fraction(1), 0, 2, MultiIndex((0, 0, 0, 0))),
        OperatorTerm(Fraction(2), 1, 1, MultiIndex((1, 0, 0, 0))),
        OperatorTerm(Fraction(1), 1, 0, MultiIndex((0, 1, 0, 0))),
        OperatorTerm(Fraction(1), 2, 0, MultiIndex((2, 0, 0, 0))),
    ]
    assert expand_d_pow(4, 2) == expected  # warm-up + correctness
    best = min(_time_once() for _ in range(5))
    assert best < 1e-3, f"expansion took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: four-term expansion of D_4^2 ({best * 1e6:.0f} us)")


def _time_once():
    t0 = time.perf_counter()
    expand_d_pow(4, 2)
    return time.perf_counter() - t0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_2_coefficient_table(n):
    """The five tabulated reduction coefficients (1, n, 1, n-1, 1)."""
    m = 2 * n - 2

    def single(slot):
        entries = [0] * m
        entries[slot - 1] = 1
        return MultiIndex(tuple(entries))

    got = [a_coeff(single(n), n),
           a_coeff(single(n - 1), n),
           a_coeff(single(n - 1), n - 1),
           a_coeff(single(n - 2), n - 1),
           a_coeff(single(n - 2), n - 2)]
    assert got == [1, n, 1, n - 1, 1]
    print(f"PASS criterion 2: coefficient table at n={n} -> {got}")


def test_criterion_3_operator_identity_suite():
    """Every operator identity on >= 10 random expressions (degree <= 3,
    jets <= p6), all structural or numeric zero, < 60 s."""

    def body():
        for name, build in sorted(IDENTITY_SUITES.items()):
            for seed in range(10):
                v = is_zero(build(seed), CFG)
                assert isinstance(v, (ZeroStructural, ZeroNumeric)), \
                    f"{name} seed={seed}: {v.describe()}"

    _timed(60.0, "criterion 3: operator-identity suite "
                 f"({len(IDENTITY_SUITES)} identities x 10)", body)


def test_criterion_4_coefficient_recurrence():
    """a_I^(k+1) = a_I^(k) + sum_j C(k+j-||I||, j-1) a_{I-e_j}^(k) exactly
    for all ||I|| <= 4, m <= 6, k <= 5, in < 1 s."""

    def body():
        checked = 0
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
                    assert a_coeff(index, k + 1) == rhs
                    checked += 1
        return checked

    checked = _timed(1.0, "criterion 4: coefficient recurrence", body)
    assert checked == 366  # the full enumeration, 61 indices x 6 values of k


def _indices(m, max_norm):
    def rec(j, budget, prefix):
        if j > m:
            yield tuple(prefix)
            return
        for i in range(budget // j + 1):
            yield from rec(j + 1, budget - j * i, prefix + [i])

    yield from rec(1, max_norm, [])


def test_criterion_5_fourth_order_invariants():
    """25 random parameter sets: T5 structurally zero and I1 zero under the
    pinned tolerances, < 120 s."""

    def body():
        for seed in range(25):
            params = gen_params(2, 2, GenConfig(seed=900 + seed,
                                                max_degree=3, max_terms=4))
            f3 = construct(params).f
            assert fels_T5(f3) is ZERO, f"seed {seed}"
            v = is_zero(fels_I1(f3), CFG)
            assert isinstance(v, (ZeroStructural, ZeroNumeric)), \
                f"seed {seed}: {v.describe()}"

    _timed(120.0, "criterion 5: invariants of 25 constructed equations", body)


def test_criterion_6_roundtrip():
    """construct -> check -> verify: 50 trials at n=2, 25 at n=3, 5 at n=4,
    all accepted with zero residual and consistent multiplier, < 10 min."""

    def body():
        for n, trials in ((2, 50), (3, 25), (4, 5)):
            for seed in range(trials):
                params = gen_params(n, n, GenConfig(seed=10_000 * n + seed,
                                                    max_degree=3, max_terms=4))
                triple = construct(params)
                report = check(triple.f, n, CFG)
                o = report.outcome
                assert isinstance(o, Accepted), f"n={n} seed={seed}: {o}"
                assert o.residual.is_zero, f"n={n} seed={seed}"
                drift = add(o.R, mul(-1, params.R))
                assert is_zero(total_derivative(n + 1, drift), CFG).is_zero, \
                    f"n={n} seed={seed}: multiplier drift"

    _timed(600.0, "criterion 6: roundtrip 50/25/5 at n=2/3/4", body)


def test_criterion_7_negative_controls():
    """Cubic top-order dependence is rejected at the documented steps, < 60 s."""

    def body():
        r = check(pow_int(p3, 3), 2, CFG)
        assert isinstance(r.outcome, Rejected) and r.outcome.step == "S2(k=3)"
        r = check(pow_int(jet(5), 2), 3, CFG)
        assert isinstance(r.outcome, Rejected) and r.outcome.step == "S1"
        for i in range(10):
            n = 2 if i % 2 == 0 else 3
            params = gen_params(n, n, GenConfig(seed=600 + i,
                                                max_degree=2, max_terms=3))
            f = add(construct(params).f, pow_int(jet(2 * n - 1), 3))
            r = check(f, n, CFG)
            assert isinstance(r.outcome, Rejected), f"trial {i}"
            assert r.outcome.step == ("S2(k=3)" if n == 2 else "S1"), f"trial {i}"

    _timed(60.0, "criterion 7: negative controls", body)


def test_criterion_8_worked_equations():
    """The four worked equations reproduce their closed-form multiplier and
    Lagrangian, each verified, < 5 s."""

    def body():
        half_p2sq = mul(Fraction(1, 2), pow_int(p2, 2))
        cases = [
            # (f, n, expected rho, expected L)
            (ZERO, 2, ONE, half_p2sq),
            (pow_int(p3, 2), 2, exp(mul(-1, p2)), add(p2, -1, exp(mul(-1, p2)))),
            (mul(-1, p2), 2, ONE,
             add(half_p2sq, mul(Fraction(-1, 2), pow_int(p1, 2)))),
            (ZERO, 3, ONE, mul(Fraction(-1, 2), pow_int(jet(3), 2))),
        ]
        for f, n, rho, lagr in cases:
            report = check(f, n, CFG)
            o = report.outcome
            assert isinstance(o, Accepted), f"f={f!r}"
            assert o.rho == rho and o.L == lagr, f"f={f!r}"
            triple = VariationalTriple(f=f, rho=rho, L=lagr, n=n, m=n)
            v = verify_triple(triple, CFG)
            assert isinstance(v, (ZeroStructural, ZeroNumeric)), f"f={f!r}"
            # confirmed through the Euler-Lagrange expression itself
            el = euler_lagrange(lagr, n)
            assert el == mul(rho, add(jet(2 * n), mul(-1, f))), f"f={f!r}"

    _timed(5.0, "criterion 8: four worked equations", body)


def test_criterion_9_path_oracle():
    """Two independent Euler-Lagrange routes agree on 20 random
    (L, u, x) triples with n <= 3, < 30 s: sympy's calculus along the path
    u and the jet operator at the jet of u."""

    def body():
        import random

        count = 0
        for seed in range(20):
            n = 1 + seed % 3
            rng = random.Random(seed)
            lagr = rand_expr(7_000 + seed, max_index=n, degree=2, terms=3,
                             allow_exp=True)
            u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n + 3)]
            x0 = Fraction(rng.randint(-8, 8), 9)
            ((lhs, rhs),) = el_routes(lagr, n, u, [x0])
            assert abs(lhs - rhs) <= 1e-9 + 1e-8 * max(abs(lhs), abs(rhs), 1.0), \
                f"seed={seed}: {lhs} vs {rhs}"
            count += 1
        assert count == 20

    _timed(30.0, "criterion 9: Euler-Lagrange path oracle x20", body)


def test_criterion_10_cli_contract():
    """Documented invocations: exit codes, schema-valid JSON, and
    byte-identical reruns under a fixed seed."""

    def body():
        code, out, _ = invoke("check", "--order", "2", "--expr", "p3^2", "--json")
        assert code == 0
        obj = validate(out)
        assert obj["result"]["rho"] == "exp(-p2)"
        code, out2, _ = invoke("check", "--order", "2", "--expr", "p3^3", "--json")
        assert code == 1
        validate(out2)
        code, out3, _ = invoke("fels", "--expr", "0", "--json")
        assert code == 0
        validate(out3)
        for args in (("check", "--order", "2", "--expr", "p3^2", "--json",
                      "--seed", "41"),
                     ("fels", "--expr", "0", "--json"),
                     ("roundtrip", "--order", "2", "--trials", "2",
                      "--seed", "41", "--json")):
            assert invoke(*args) == invoke(*args), args

    _timed(60.0, "criterion 10: CLI contract", body)
