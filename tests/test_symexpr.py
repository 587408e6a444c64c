"""Kernel tests: parsing, printing, calculus, substitution, canonical form,
numeric evaluation and the zero test."""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CFG, assert_zeroish, rand_expr, to_sympy
from varmult.symexpr import (
    AntiDeriv,
    ExprError,
    Inconclusive,
    Jet,
    Log,
    NonZero,
    ParseError,
    Pow,
    Prod,
    Rat,
    Sum,
    VarX,
    X,
    ZERO,
    ONE,
    ZeroNumeric,
    ZeroStructural,
    ZeroTestConfig,
    add,
    antideriv,
    cos,
    diff,
    evaluate,
    exp,
    free_jets,
    is_zero,
    jet,
    log,
    max_jet,
    mul,
    parse,
    pow_int,
    rational,
    render,
    simplify,
    sin,
    sort_key,
    substitute,
)
from varmult import symexpr
from varmult.checker import check
from varmult.jetops import total_derivative
from varmult.symexpr import MAX_PARSE_DEPTH, DomainError
from varmult.testkit import GenConfig, gen_params
from varmult.varcore import construct

p0, p1, p2, p3 = jet(0), jet(1), jet(2), jet(3)
p5, p6 = jet(5), jet(6)


# ---------------------------------------------------------------------------
# parse / render
# ---------------------------------------------------------------------------


def test_parse_power_literal():
    e = parse("p3^2")
    assert isinstance(e, Pow) and e.base is p3 and e.exponent == 2


def test_parse_unknown_identifier_with_offset():
    with pytest.raises(ParseError) as exc:
        parse("2*D is invalid")
    assert exc.value.offset == 2
    assert "unknown identifier" in str(exc.value)


def test_parse_exp_plus_rational():
    e = parse("exp(-p2) + 1/2")
    assert e == add(exp(mul(-1, p2)), Fraction(1, 2))
    assert isinstance(e, Sum)


def test_parse_decimals_are_exact():
    assert parse("0.5") == rational(Fraction(1, 2))
    assert parse("2.25*x") == mul(Fraction(9, 4), X)


#: text -> (message, offset) of its ParseError; the offset counts bytes,
#: and the first non-ASCII character ends the tokens, so it is its index
_PARSE_ERRORS = {
    "": ("unexpected 'end of input'", 0),
    "p2^x": ("exponent must be an integer literal", 3),
    "p2^1.5": ("exponent must be an integer literal", 3),
    "p2^-x": ("exponent must be an integer literal", 4),
    "sin(": ("unexpected 'end of input'", 4),
    "(p1": ("expected ')', found 'end of input'", 3),
    "p1 p2": ("unexpected trailing 'p2'", 3),
    "p1)": ("unexpected trailing ')'", 2),
    "p1 +": ("unexpected 'end of input'", 4),
    "* p1": ("unexpected '*'", 0),
    "foo(x)": ("unknown identifier 'foo'", 0),
    "exp p1": ("expected '(', found 'p1'", 4),
    "p200": ("jet index 200 exceeds the maximum 64", 0),
    "p65": ("jet index 65 exceeds the maximum 64", 0),
    "1.": ("unexpected character '.'", 1),
    "1 ! 2": ("unexpected character '!'", 2),
    "Int(p1, 2)": ("expected a variable (x or p<k>), found '2'", 8),
    "Int(p1; p2)": ("unexpected character ';'", 6),
    "x + \u00e9": ("non-ASCII character '\u00e9'", 4),
    # an identifier is ASCII: it ends before the first non-ASCII character
    "x\u00e9 + \u00fc": ("non-ASCII character '\u00e9'", 1),
    "p1\xa0+ p2": ("non-ASCII character '\\xa0'", 2),
    # numbers and jet indices take ASCII digits only
    "1\u0663": ("non-ASCII character '\u0663'", 1),
    "p1\u0663": ("non-ASCII character '\u0663'", 2),
    "p1\u00b2": ("non-ASCII character '\u00b2'", 2),
    "p\u00b2": ("non-ASCII character '\u00b2'", 1),
}


def test_parse_error_cases():
    for text, (message, offset) in _PARSE_ERRORS.items():
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (byte {offset})", text
        assert info.value.offset == offset, text


def test_parse_skips_every_ascii_space():
    # str.isspace accepts \x1c-\x1f as well as \t\n\v\f\r and the space
    spaces = [chr(i) for i in range(128) if chr(i).isspace()]
    assert len(spaces) == 10
    assert parse("p1\x1c+ p2") is add(p1, p2)
    for c in spaces:
        assert parse(f"{c}p1{c}*{c}2{c}+{c}p2{c}") is add(mul(2, p1), p2), repr(c)


def test_parse_reports_the_first_fault_it_reaches():
    # the text is read once, left to right, one token ahead of the parse: a
    # character that starts no token is a fault once it is that token, and
    # a fault that the parse finds first ends the reading
    for text, (message, offset) in {
        "p1 p2 \u00e9": ("unexpected trailing 'p2'", 3),
        "* p1 !": ("unexpected '*'", 0),
        "* \u00e9": ("non-ASCII character '\u00e9'", 2),
        "p1 + (p2 !": ("unexpected character '!'", 9),
    }.items():
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (byte {offset})", text
    with pytest.raises(ExprError, match="nonpositive constant"):
        parse("log(-1) + \u00e9")


def test_parse_holds_no_token_list():
    # the tokens are read as the parse goes, so the text of 100,001 terms
    # is parsed without a list of its 200,002 tokens
    text = "p1" + " + p1" * 100_000
    tracemalloc.start()
    try:
        e = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e is mul(100001, jet(1))
    assert peak < 10 * 2**20, f"parse peaked at {peak / 2**20:.1f} MiB"


def test_tokens_carry_exact_values():
    # an iterator, which yields each token as the parser asks for it
    tokens = symexpr._tokenize("12*0.25")
    assert iter(tokens) is tokens
    toks = list(tokens)
    assert [t[0] for t in toks] == ["num", "*", "num", "eof"]
    assert toks[0][3] == 12 and toks[0][3].__class__ is int
    assert toks[2][3] == Fraction(1, 4) and toks[2][3].__class__ is Fraction
    assert [t[2] for t in toks] == [0, 2, 3, 7]


def test_parse_builds_one_product_per_term():
    # the partial products of a term are not interned: one new Prod for k
    # factors (the intern table keeps insertion order, so the nodes past
    # `before` are the ones parse made)
    before = len(symexpr._INTERN)
    e = parse("7/11*p40*p41^3*exp(p42)*x^-2*sin(p43)")
    made = list(symexpr._INTERN.values())[before:]
    assert [n for n in made if n.__class__ is Prod] == [e]
    assert e is mul(Fraction(7, 11), jet(40), pow_int(jet(41), 3), exp(jet(42)),
                    pow_int(X, -2), sin(jet(43)))


def test_parse_pauses_the_collector_and_restores_it(monkeypatch):
    # the collector is off while the text is read, and on again after parse
    # returns or raises; a caller who turned it off finds it off
    seen = []
    tokenize = symexpr._tokenize

    def recording(text):
        seen.append(gc.isenabled())
        return tokenize(text)

    monkeypatch.setattr(symexpr, "_tokenize", recording)
    assert gc.isenabled()
    assert parse("p1*p2 + exp(p3)") is add(mul(p1, p2), exp(p3))
    assert seen == [False] and gc.isenabled()
    with pytest.raises(ParseError):
        parse("p1 +* p2")
    assert seen == [False] * 2 and gc.isenabled()
    gc.disable()
    try:
        assert parse("p1*p2") is mul(p1, p2)
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            parse("(p1")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 4


def test_parse_builds_no_positive_twin_of_a_negative_term(monkeypatch):
    # a subtracted term takes its sign in its own product, so the positive
    # product is never asked of `_term`, which interns a product on its flat
    # term
    f = construct(gen_params(4, 4, GenConfig(seed=40003, max_degree=3, max_terms=4))).f
    text = render(f)
    asked = set()
    term = symexpr._term

    def recording(*flat):
        asked.add(flat)
        return term(*flat)

    monkeypatch.setattr(symexpr, "_term", recording)
    assert parse(text) is f
    monkeypatch.undo()
    twins = [mul(-1, t) for t in f.terms if t._flat[0] < 0]
    twins = [t for t in twins if t.__class__ is Prod]
    assert len(twins) > 100
    assert len(asked) > len(twins)
    assert not any(t._flat in asked for t in twins)


def test_parse_multiplies_a_product_with_a_sum_left_to_right():
    s = add(p1, 1)
    cases = {
        # one call would cancel the sum to x
        "(p1+1)*x/(p1+1)": ([s, X, pow_int(s, -1)], "x*p1*(1 + p1)^-1 + x*(1 + p1)^-1"),
        "x/(p1+1)*(p1+1)": ([X, pow_int(s, -1), s], "x"),
        "-(p1+1)*p2/(p1+1)": ([mul(-1, s), p2, pow_int(s, -1)],
                              "-p1*p2*(1 + p1)^-1 - p2*(1 + p1)^-1"),
        # the sign stays inside the divisor
        "x/-(p1+1)": ([X, pow_int(mul(-1, s), -1)], "x*(-1 - p1)^-1"),
    }
    for text, (factors, plain) in cases.items():
        e = parse(text)
        assert e is functools.reduce(mul, factors), text
        assert render(e) == plain, text


def test_fuzzed_product_texts_parse_to_the_left_fold_of_their_factors():
    import random

    pool = ["x", "p1", "p2^2", "p1^-1", "3", "0.5", "-p2", "exp(p1)", "exp(-p1)",
            "exp(2*p1)", "log(p1)", "log(p1)^-2", "sin(p2)", "Int(exp(p2^2), p2)",
            "(1 + p1)", "(1 + p1)^-1", "(1 + exp(p0))^-2", "-(1 + p1)", "(x - p2)"]
    for seed in range(300):
        rng = random.Random(seed)
        texts = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
        ops = [rng.choice("**/") for _ in texts[1:]]
        factors = [parse(texts[0])]
        for op, t in zip(ops, texts[1:]):
            factors.append(parse(t) if op == "*" else pow_int(parse(t), -1))
        text = texts[0] + "".join(op + t for op, t in zip(ops, texts[1:]))
        assert parse(text) is functools.reduce(mul, factors), text


def test_render_builds_no_node():
    # negative terms print as " - " and the rest of their own rendering
    s = add(p1, mul(-7, p5), mul(Fraction(-3, 13), X, exp(p5), pow_int(p6, 3)),
            mul(-1, pow_int(add(1, p5), -1), p6), rational(Fraction(-5, 17)))
    before = len(symexpr._INTERN)
    assert render(s) == "-5/17 + p1 - 7*p5 - p6*(1 + p5)^-1 - 3/13*x*p6^3*exp(p5)"
    assert repr(s) == render(s)
    assert len(symexpr._INTERN) == before


def test_render_calls_no_kernel_constructor():
    import ast
    from pathlib import Path

    tree = ast.parse(Path(symexpr.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the per-node printers and the walk that hands them their nodes
    roots = ["_plain", "_json", "_walk", "_children"]
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in funcs and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)]
    assert set(roots) <= reached
    assert not reached & {"add", "mul", "pow_int", "_term", "_intern"}
    # and render prints through them
    names = {node.id for node in ast.walk(funcs["render"]) if isinstance(node, ast.Name)}
    assert {"_plain", "_json", "_walk", "_children"} <= names


# The recursive printers and compiler that the one walk (`symexpr._walk`)
# replaced, kept as references: each recurses once per tree level, and the
# printers revisit a shared node at each of its occurrences.


def _ref_atomish(e):
    # a rational is bracketed unless it prints as digits alone
    s = _ref_render(e)
    return f"({s})" if e.__class__ in (Sum, Prod) or (e.__class__ is Rat and not s.isdigit()) else s


def _ref_render(e):
    cls = e.__class__
    if cls is Rat:
        return str(e.value)
    if cls is VarX:
        return "x"
    if cls is Jet:
        return f"p{e.index}"
    if cls is Sum:
        parts = [_ref_render(e.terms[0])]
        for t in e.terms[1:]:
            s = _ref_render(t)
            parts.append(" - " + s[1:] if s[0] == "-" else " + " + s)
        return "".join(parts)
    if cls is Prod:
        fs = e.factors
        prefix = ""
        if fs[0].__class__ is Rat:
            c = fs[0].value
            fs = fs[1:]
            prefix = "-" if c == -1 else f"{c}*"
        return prefix + "*".join(_ref_atomish(f) for f in fs)
    if cls is Pow:
        return f"{_ref_atomish(e.base)}^{e.exponent}"
    if cls is AntiDeriv:
        return f"Int({_ref_render(e.integrand)}, {_ref_render(e.var)})"
    return f"{e._tag}({_ref_render(e.arg)})"


def _ref_to_obj(e):
    cls = e.__class__
    if cls is Rat:
        return {"const": str(e.value)}
    if cls is VarX:
        return {"var": "x"}
    if cls is Jet:
        return {"jet": e.index}
    if cls is Sum:
        return {"op": "sum", "args": [_ref_to_obj(t) for t in e.terms]}
    if cls is Prod:
        return {"op": "prod", "args": [_ref_to_obj(f) for f in e.factors]}
    if cls is Pow:
        return {"op": "pow", "args": [_ref_to_obj(e.base), {"const": str(e.exponent)}]}
    if cls is AntiDeriv:
        return {"op": "int", "args": [_ref_to_obj(e.integrand), _ref_to_obj(e.var)]}
    return {"op": e._tag, "args": [_ref_to_obj(e.arg)]}


def _ref_compile(e, depth=0):
    slots, prog = {}, []

    def visit(n):
        i = slots.get(n)
        if i is not None:
            return i
        op = n.__class__
        if op is Sum or op is Prod:
            arg = tuple(map(visit, n.terms if op is Sum else n.factors))
        elif op is Pow:
            arg = (visit(n.base), n.exponent)
        elif op is Rat:
            arg = symexpr._float(n.value)
        elif op is VarX or op is Jet:
            op, arg = Jet, n
        elif op is AntiDeriv:
            g = n.integrand
            kernel = g.__class__ is AntiDeriv and g.var is n.var
            inner = g.integrand if kernel else g
            arg = (n.var, _ref_compile(inner, depth + 1)
                   if depth < len(symexpr._QUAD_LEVELS) else None, kernel)
        else:
            op, arg = (op if op is Log else getattr(math, n._tag)), visit(n.arg)
        i = slots[n] = len(prog)
        prog.append((op, arg))
        return i

    visit(e)
    return prog


def _in_a_fresh_process(call: str) -> str:
    """Evaluate `call`, a call of a function of this module, in a fresh
    process, and give what it prints.  A check that walks the whole intern table sees there
    only the nodes it builds: in a table the suite has filled it would also
    walk the deep chains and shared trees other tests build, which costs
    minutes, or a RecursionError in the comparison of their nested keys."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(symexpr.__file__)), os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", f"import test_symexpr as t; print(t.{call})"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _nodes_against_the_references() -> int:
    """After n=3 seed 30001, n=4 seed 40002 and n=7 seed 70001 construct +
    check, every interned node prints and compiles as the references do; the
    node count."""
    for n, seed in ((3, 30001), (4, 40002), (7, 70001)):
        t = construct(gen_params(n, n, GenConfig(seed=seed, max_degree=3, max_terms=4)))
        assert check(t.f, n, CFG).accepted
    nodes = [*_EACH_CLASS, *symexpr._INTERN.values()]
    assert {type(e) for e in nodes} == set(_RANK)
    for e in nodes:
        assert render(e) == _ref_render(e)
        assert render(e, "json") == json.dumps(_ref_to_obj(e))
        assert symexpr._compile(e) == _ref_compile(e), render(e)
    return len(nodes)


def test_every_node_prints_and_compiles_as_the_recursive_reference():
    assert int(_in_a_fresh_process("_nodes_against_the_references()")) > 5_000


# `at`: where in the opener the error points (the parenthesis or the name)
@pytest.mark.parametrize("opener,closer,at", [("(", ")", 0), ("exp(", ")", 0),
                                              ("-(", ")", 1),
                                              ("Int(", ", p3)", 0)])
def test_parse_nesting_depth_limit(opener, closer, at):
    d = MAX_PARSE_DEPTH
    e = parse(opener * d + "p3" + closer * d)
    # the walkers below the parser handle the deepest accepted input
    assert parse(render(e)) is e
    diff(e, p3)
    try:
        evaluate(e, {p3: 0.5})
    except DomainError:
        pass  # exp(exp(...)) overflows; only a RecursionError would fail
    with pytest.raises(ParseError) as info:
        parse(opener * (d + 1) + "p3" + closer * (d + 1))
    assert info.value.offset == len(opener) * d + at


def test_parse_long_unary_minus_run():
    assert parse("-" * 5000 + "p3") is p3
    assert parse("-" * 5001 + "p3^2") is mul(-1, pow_int(p3, 2))


def test_render_plain_examples():
    assert render(pow_int(p3, 2)) == "p3^2"
    assert render(p0) == "p0"
    opaque = antideriv(exp(mul(-1, pow_int(p2, 2))), p2)
    assert render(opaque) == "Int(exp(-p2^2), p2)"


def test_render_json_shapes():
    import json

    assert json.loads(render(pow_int(p3, 2), "json")) == {
        "op": "pow", "args": [{"jet": 3}, {"const": "2"}]}
    assert json.loads(render(X, "json")) == {"var": "x"}
    assert json.loads(render(rational(Fraction(-3, 2)), "json")) == {"const": "-3/2"}
    obj = json.loads(render(add(X, mul(2, p1)), "json"))
    assert obj["op"] == "sum" and len(obj["args"]) == 2
    opaque = antideriv(exp(mul(-1, pow_int(p2, 2))), p2)
    assert json.loads(render(opaque, "json")) == {
        "op": "int",
        "args": [{"op": "exp", "args": [{"op": "prod", "args": [
            {"const": "-1"}, {"op": "pow", "args": [{"jet": 2}, {"const": "2"}]}]}]},
            {"jet": 2}]}
    with pytest.raises(ExprError, match="unknown render format 'xml'"):
        render(p1, "xml")


@pytest.mark.parametrize("seed", range(12))
def test_parse_render_roundtrip_random(seed):
    e = rand_expr(seed, allow_exp=True)
    assert parse(render(e)) == simplify(e) == e


def test_parse_render_roundtrip_handpicked():
    cases = [
        mul(Fraction(-3, 2), X, pow_int(p1, -2)),
        add(mul(-1, X), p1),
        pow_int(add(X, 1), -2),
        antideriv(mul(p2, exp(pow_int(p2, 2))), p2),
        cos(add(X, mul(-1, p0))),
        log(add(ONE, pow_int(X, 2))),
        sin(mul(Fraction(1, 3), p1)),
        # acceptance-corpus member n=3 seed 30002: f has 222 terms
        construct(gen_params(3, 3, GenConfig(seed=30_002, max_degree=3,
                                             max_terms=4))).f,
    ]
    for e in cases:
        assert parse(render(e)) == e, render(e)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_diff_examples():
    assert diff(pow_int(p3, 2), p3) == mul(2, p3)
    gauss = exp(mul(-1, pow_int(p2, 2)))
    assert diff(antideriv(gauss, p2), p2) == gauss
    assert diff(mul(X, p0, p1), X) == mul(p0, p1)


def test_diff_rules():
    assert diff(sin(X), X) == cos(X)
    assert diff(cos(X), X) == mul(-1, sin(X))
    assert diff(log(p1), p1) == pow_int(p1, -1)
    assert diff(exp(mul(3, X)), X) == mul(3, exp(mul(3, X)))
    # product and power rules combined
    e = mul(pow_int(X, 2), p1)
    assert diff(e, X) == mul(2, X, p1)
    # differentiation under the integral sign
    node = antideriv(mul(p1, exp(pow_int(p2, 2))), p2)
    assert diff(node, p1) == antideriv(exp(pow_int(p2, 2)), p2)


def test_diff_requires_variable():
    with pytest.raises(ExprError):
        diff(p1, add(X, p1))


@pytest.mark.parametrize("times", [-1, 2.5, Fraction(1)])
def test_diff_validates_times(times):
    # a negative count is not the identity and a non-integer one is not a
    # bare TypeError from range()
    with pytest.raises(ExprError, match="integer >= 0"):
        diff(pow_int(p1, 3), p1, times=times)
    assert diff(pow_int(p1, 3), p1, times=0) is pow_int(p1, 3)


def test_diff_keeps_the_slope_fold():
    # dS/dp1 = S for S = exp(p1) + x*exp(p1), and S^-2 * S folds back to
    # S^-1 in the derivation, as it does in `mul`
    s = add(exp(p1), mul(X, exp(p1)))
    assert render(diff(pow_int(s, -1), p1)) == "-(exp(p1) + x*exp(p1))^-1"


# ---------------------------------------------------------------------------
# antideriv
# ---------------------------------------------------------------------------


def test_antideriv_power_rule():
    assert antideriv(ONE, p2, times=2) == mul(Fraction(1, 2), pow_int(p2, 2))
    assert antideriv(pow_int(p2, 3), p2) == mul(Fraction(1, 4), pow_int(p2, 4))
    assert antideriv(mul(X, p1), p1) == mul(Fraction(1, 2), X, pow_int(p1, 2))


def test_antideriv_exponential_closed_form():
    got = antideriv(exp(mul(-1, p2)), p2, times=2)
    expected = add(p2, -1, exp(mul(-1, p2)))
    assert got == expected
    # oracle: differentiate twice and compare, and evaluate at 0
    assert diff(got, p2, times=2) == exp(mul(-1, p2))
    assert substitute(got, {p2: 0}) is ZERO


def test_antideriv_symbolic_linear_coefficient():
    got = antideriv(exp(mul(X, p2)), p2)
    # (exp(x p2) - 1) / x
    assert assert_zeroish(add(mul(got, X), 1, mul(-1, exp(mul(X, p2)))))
    assert diff(got, p2) == exp(mul(X, p2))


def test_antideriv_opaque_fallback():
    gauss = exp(mul(-1, pow_int(p2, 2)))
    got = antideriv(gauss, p2)
    assert isinstance(got, AntiDeriv) and got.integrand == gauss and got.var is p2
    # independent factors are pulled out of the node
    got2 = antideriv(mul(3, X, gauss), p2)
    assert got2 == mul(3, X, got)
    # negative powers have no antiderivative from 0; they stay opaque
    assert isinstance(antideriv(pow_int(p2, -2), p2), AntiDeriv)


@pytest.mark.parametrize("text,times,expected", [
    # u * v^k: the power rule for k >= 0, an opaque integral for k < 0
    ("x*p1*p2^-2", 1, "x*p1*Int(p2^-2, p2)"),
    ("x*p1*p2^-1", 1, "x*p1*Int(p2^-1, p2)"),
    ("x*p1", 1, "x*p1*p2"),
    ("x*p1*p2", 1, "1/2*x*p1*p2^2"),
    ("x*p1*p2^2", 1, "1/3*x*p1*p2^3"),
    ("x*p1*p2^3", 1, "1/4*x*p1*p2^4"),
    # exponentials linear in v: a rational ratio of u to the slope ...
    ("2*exp(3*p2)", 1, "-2/3 + 2/3*exp(3*p2)"),
    ("(x + p1)*exp(x*p2 + p1*p2)", 1, "-1 + exp(x*p2)*exp(p1*p2)"),
    ("p1/2*exp(-p2/3)", 2, "-9/2*p1 + 3/2*p1*p2 + 9/2*p1*exp(-1/3*p2)"),
    # ... and a symbolic one
    ("p1*exp(x*p2)", 1, "-p1*x^-1 + p1*x^-1*exp(x*p2)"),
    ("x*exp(x*p2)*exp(p1*p2)", 1,
     "-x*(x + p1)^-1 + x*(x + p1)^-1*exp(x*p2)*exp(p1*p2)"),
    # an exponential not linear in v, or v-dependent factors that are not
    # all exponentials, stay opaque
    ("x*exp(p2^2)", 1, "x*Int(exp(p2^2), p2)"),
    ("x*exp(x*p2)*exp(p2^2)", 1, "x*Int(exp(p2^2)*exp(x*p2), p2)"),
    ("p2*exp(p2)", 1, "Int(p2*exp(p2), p2)"),
    ("exp(p2*p1)*log(p2 + 1)", 1, "Int(exp(p1*p2)*log(1 + p2), p2)"),
    ("1 + p2 - 3*x*p2^2 + p1*exp(-p2) + exp(p2^2) + (x + 1)^-1*p2^-2", 1,
     "p1 + p2 + Int(exp(p2^2), p2) - x*p2^3 - p1*exp(-p2) + 1/2*p2^2"
     " + (1 + x)^-1*Int(p2^-2, p2)"),
])
def test_antideriv_branches(text, times, expected):
    assert render(antideriv(parse(text), p2, times)) == expected


def test_antideriv_times_validation():
    with pytest.raises(ExprError):
        antideriv(p1, p1, times=3)


@pytest.mark.parametrize("times", [1.0, Fraction(1), 3, "1"])
def test_antideriv_times_must_be_the_int_1_or_2(times):
    # like diff, a count that is not an int is an ExprError, not a
    # TypeError from range
    with pytest.raises(ExprError, match="times = 1 or 2"):
        antideriv(jet(1), jet(1), times=times)


def test_antideriv_is_memoized_in_the_derivation_memo(monkeypatch):
    # an integrand no other test builds, so the first call integrates
    e = add(mul(7, p1, exp(mul(3, p2))), mul(Fraction(5, 11), X, pow_int(p2, 3)),
            exp(mul(-1, pow_int(p2, 2))))
    first = antideriv(e, p2, 2)
    once = antideriv(e, p2)
    assert symexpr._DERIV_CACHE[("anti", e, p2)] is once
    assert symexpr._DERIV_CACHE[("anti", once, p2)] is first

    def fail(*args):
        raise AssertionError("antideriv integrated a memoized integrand again")

    monkeypatch.setattr(symexpr, "_anti_group", fail)
    assert antideriv(e, p2, 2) is first


@pytest.mark.parametrize("seed", range(10))
def test_antideriv_diff_inverse(seed):
    e = rand_expr(seed, max_index=3, allow_exp=True)
    k = jet(seed % 4)
    assert_zeroish(add(diff(antideriv(e, k), k), mul(-1, e)),
                   msg=f"seed={seed}")


@pytest.mark.parametrize("seed", range(10))
def test_antideriv_vanishes_at_zero(seed):
    e = rand_expr(seed, max_index=3, allow_exp=True)
    k = jet(seed % 4)
    a = antideriv(e, k)
    if any(isinstance(n, AntiDeriv) and n.var is k for n in _walk(a)):
        val = evaluate(a, _zero_point(a))
        assert abs(val) <= CFG.atol
    else:
        assert substitute(a, {k: 0}) is ZERO


def _walk(e):
    yield e
    for attr in ("terms", "factors"):
        for c in getattr(e, attr, ()):
            yield from _walk(c)
    if hasattr(e, "base"):
        yield from _walk(e.base)
    if hasattr(e, "arg"):
        yield from _walk(e.arg)
    if isinstance(e, AntiDeriv):
        yield from _walk(e.integrand)


def _zero_point(e):
    return {a: 0.0 for a in e.free_atoms}


def test_opaque_double_integral_vanishes_at_zero():
    gauss = exp(mul(-1, pow_int(p2, 2)))
    a2 = antideriv(gauss, p2, times=2)
    assert abs(evaluate(a2, {p2: 0.0})) <= 1e-12


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------


def test_log_of_a_nonpositive_constant_is_an_error():
    # log of a rational <= 0 is no real constant
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ExprError, match="nonpositive"):
            log(bad)
    with pytest.raises(ExprError, match="nonpositive"):
        substitute(log(p0), {p0: 0})
    with pytest.raises(ExprError, match="nonpositive"):
        parse("log(-1)*p3^2")
    assert log(1) is ZERO and isinstance(log(Fraction(1, 2)), symexpr.Log)
    # a sum that is negative everywhere is not a constant: it stays a node
    assert isinstance(log(add(-2, mul(-1, pow_int(p1, 2)))), symexpr.Log)


def test_log_of_a_negative_constant_is_an_error():
    # a constant with no free atoms is evaluated: a negative value is an error
    for bad in ("-exp(1)", "1 - exp(1)", "cos(4)", "-exp(1)*log(2)", "-exp(1000)"):
        with pytest.raises(ExprError, match="negative constant"):
            parse(f"log({bad})")
    with pytest.raises(ExprError, match="negative constant"):
        substitute(log(add(p1, exp(1))), {p1: -3})
    # positive or within rounding of 0: a node as before (a coefficient
    # times exponentials, such as -exp(1000), has the coefficient's sign)
    for ok in ("1 + exp(1)", "exp(1/10^20) - 1", "exp(-1)"):
        assert isinstance(parse(f"log({ok})"), symexpr.Log), ok


def test_substitute_examples():
    assert substitute(mul(p1, p2), {p1: X}) == mul(X, p2)
    assert substitute(pow_int(p2, 2), {p2: 0}) is ZERO
    node = antideriv(exp(mul(-1, pow_int(p2, 2))), p2)
    assert substitute(node, {p2: p2}) == node


def test_substitute_rejects_bound_integration_variable():
    node = antideriv(exp(mul(-1, pow_int(p2, 2))), p2)
    # binding it to 0 makes the integral run from 0 to 0
    assert substitute(node, {p2: 0}) is ZERO
    with pytest.raises(ExprError):
        substitute(node, {p2: X})


def test_substitute_rejects_variable_capture():
    # exp(x p2^2) has no closed antiderivative over p2; replacing x by an
    # expression in p2 would capture the bound dummy
    node = antideriv(exp(mul(X, pow_int(p2, 2))), p2)
    with pytest.raises(ExprError):
        substitute(node, {X: p2})
    # replacements not involving the integration variable stay fine
    assert substitute(node, {X: p1}) == antideriv(exp(mul(p1, pow_int(p2, 2))), p2)


def test_substitute_simultaneous():
    e = add(p1, p2)
    assert substitute(e, {p1: p2, p2: p1}) == add(p1, p2)
    assert substitute(e, {p1: p2}) == mul(2, p2)


def test_substitute_refolds_integrals():
    # once the obstruction is substituted away, the integral closes
    node = antideriv(exp(mul(X, pow_int(p2, 2))), p2)
    assert isinstance(node, AntiDeriv)
    assert substitute(node, {X: 0}) == p2


# ---------------------------------------------------------------------------
# substitute(e, {v: 0}) (restriction to the slice p_k = 0)
# ---------------------------------------------------------------------------


def test_bind_zero_collapses_integral_over_the_variable():
    node = antideriv(exp(mul(-1, pow_int(p2, 2))), p2)
    assert isinstance(node, AntiDeriv)
    assert substitute(node, {p2: 0}) is ZERO
    assert substitute(add(mul(X, node), p1), {p2: 0}) is p1


def test_bind_zero_keeps_free_subterms_interned():
    free = add(exp(mul(X, p1)), sin(p0))
    assert substitute(free, {p2: 0}) is free
    e = add(mul(free, add(p2, 1)), pow_int(p2, 3))
    assert substitute(e, {p2: 0}) is free


def test_bind_zero_negative_power_raises():
    with pytest.raises(ExprError, match="division by zero"):
        substitute(pow_int(p2, -1), {p2: 0})
    with pytest.raises(ExprError, match="division by zero"):
        substitute(add(X, mul(p1, pow_int(p2, -1))), {p2: 0})


# ---------------------------------------------------------------------------
# simplify / canonical form
# ---------------------------------------------------------------------------


def test_simplify_examples():
    assert add(p1, p1) == mul(2, p1)
    assert add(p3, mul(-1, p3)) is ZERO
    assert exp(0) is ONE
    assert sin(0) is ZERO and cos(0) is ONE


def test_simplify_of_raw_nodes():
    raw = Sum((p1, p1, Rat(Fraction(0))))
    assert simplify(raw) == mul(2, p1)
    raw2 = Prod((p2, p1, Rat(Fraction(2)), p1))
    assert simplify(raw2) == mul(2, pow_int(p1, 2), p2)
    raw3 = Pow(Prod((p1, p1)), 2)
    assert simplify(raw3) == pow_int(p1, 4)
    # calling a node class is calling its canonical constructor
    assert Jet(3) is jet(3) and VarX() is X
    assert Rat(Fraction(2)) is rational(2) and Rat(Fraction(0)) is ZERO
    assert Pow(Jet(1), 4) is pow_int(p1, 4)
    # ... so it may return a node of another class
    assert Sum((p1, p1)) is mul(2, p1) and isinstance(Sum((p1, p1)), Prod)
    assert diff(Prod((p1, p1)), p1) is mul(2, p1)
    assert diff(pow_int(jet(3), 2), Jet(3)) is mul(2, jet(3))
    assert substitute(Pow(Jet(3), 2), {Jet(3): 2}) is rational(4)
    assert copy.copy(raw2) is raw2 and copy.deepcopy([raw3])[0] is raw3
    assert simplify(Jet(3)) is jet(3)
    assert simplify(Sum((Jet(3), jet(3)))) is mul(2, jet(3))
    assert simplify(AntiDeriv(Jet(1), Jet(1))) is mul(Fraction(1, 2), pow_int(p1, 2))
    assert isinstance(is_zero(Rat(Fraction(0))), ZeroStructural)


#: one node of every class, the last a product holding all of them
_EACH_CLASS = (rational(Fraction(-3, 4)), X, p2, add(p1, X), pow_int(p1, -2),
               exp(p1), log(p0), sin(p1), cos(p2), antideriv(exp(pow_int(p1, 2)), p1),
               parse("3/4*x*p1^-2*exp(p1)*log(p0)*sin(p1)*cos(p2)*Int(exp(p1^2), p1)"
                     "*(1 + p3)^-1"))


def test_every_node_survives_pickling():
    assert {type(e) for e in _EACH_CLASS} == set(symexpr._MAKE)
    # unpickling goes through the class call, so it returns the interned node
    for e in _EACH_CLASS:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(e, protocol)) is e
    assert pickle.loads(pickle.dumps(Sum((p1, p1)))) is mul(2, p1)


def test_pickled_node_rebuilds_in_a_fresh_process():
    e = add(*_EACH_CLASS)
    script = ("import pickle, sys\n"
              "from varmult import render\n"
              "e = pickle.loads(sys.stdin.buffer.read())\n"
              "print(render(e))\n"
              "print(render(e, 'json'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(e),
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == f"{render(e)}\n{render(e, 'json')}\n"


def test_every_interned_node_is_a_fixed_point_of_its_class_call():
    # unpickling and the identity `simplify` rely on it; in a fresh process,
    # so that the table holds the nodes of the heaviest corpus trial and of
    # the n=7 seed 70001 trial only
    script = ("from varmult import GenConfig, check, construct, gen_params\n"
              "from varmult.symexpr import _INTERN\n"
              "for n, seed in ((4, 40002), (7, 70001)):\n"
              "    t = construct(gen_params(n, n, GenConfig(seed=seed, max_degree=3,"
              " max_terms=4)))\n"
              "    assert check(t.f, n).accepted\n"
              "nodes = list(_INTERN.values())\n"
              "print(len(nodes), sum(type(v)(*(getattr(v, a) for a in v._args)) is not v"
              " for v in nodes))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    interned, moved = map(int, proc.stdout.split())
    assert interned > 5_000 and moved == 0


def test_canonical_invariants():
    e = mul(add(X, p1), add(X, mul(-1, p1)))
    assert e == add(pow_int(X, 2), mul(-1, pow_int(p1, 2)))  # products expand
    assert exp(add(X, p1)) == mul(exp(X), exp(p1))  # exponentials split
    assert mul(exp(X), exp(mul(-1, X))) is ONE
    assert pow_int(exp(p1), 3) == exp(mul(3, p1))
    for node in (add(p1, X, 1), mul(2, X, p1)):
        args = node.terms if isinstance(node, Sum) else node.factors
        assert len(args) >= 2


@pytest.mark.parametrize("seed", range(8))
def test_simplify_idempotent_and_value_preserving(seed):
    e = rand_expr(seed, allow_exp=True)
    s = simplify(e)
    assert simplify(s) == s
    import random

    rng = random.Random(seed)
    for _ in range(10):
        pt = {a: rng.uniform(-1, 1) for a in e.free_atoms | s.free_atoms}
        va = evaluate(e, pt)
        vb = evaluate(s, pt)
        assert abs(va - vb) <= CFG.atol + 1e-8 * max(abs(va), abs(vb))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_simplify_value_preserving_hypothesis(seed):
    e = rand_expr(seed % 997, max_index=2, degree=2, terms=3, allow_exp=True)
    import random

    rng = random.Random(seed)
    pt = {a: rng.uniform(-1, 1) for a in e.free_atoms}
    assert math.isclose(evaluate(e, pt), evaluate(simplify(e), pt),
                        rel_tol=1e-8, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(pow_int(p2, 2), {p2: 3.0}) == 9.0
    assert abs(evaluate(symexpr._ad_raw(ONE, p2), {p2: 2.0}) - 2.0) <= 1e-12
    got = evaluate(antideriv(exp(mul(-1, pow_int(p2, 2))), p2), {p2: 1.0})
    # reference: erf-based closed form
    expected = math.sqrt(math.pi) / 2 * math.erf(1.0)
    assert abs(got - expected) <= 1e-10


def test_evaluate_exponential_integral_quadrature():
    # force the opaque path for an integrand with a known closed form
    node = symexpr._ad_raw(exp(mul(-1, p2)), p2)
    assert isinstance(node, AntiDeriv)
    got = evaluate(node, {p2: 1.0})
    assert abs(got - (1 - math.exp(-1))) <= 1e-10


def test_evaluate_linear_integrand_exact():
    node = symexpr._ad_raw(ONE, p2)
    assert isinstance(node, AntiDeriv)
    for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert abs(evaluate(node, {p2: t}) - t) <= 1e-12


def test_evaluate_nested_double_integral():
    # II exp(-p2^2): compare against one-dimensional reduction
    # int_0^t (t-s) exp(-s^2) ds at t = 1
    inner = symexpr._ad_raw(exp(mul(-1, pow_int(p2, 2))), p2)
    outer = symexpr._ad_raw(inner, p2)
    got = evaluate(outer, {p2: 1.0})
    expected = math.sqrt(math.pi) / 2 * math.erf(1.0) - (1 - math.exp(-1.0)) / 2
    assert abs(got - expected) <= 1e-10


def test_evaluate_domain_errors():
    from varmult.symexpr import DomainError

    with pytest.raises(DomainError):
        evaluate(log(mul(-1, pow_int(X, 2))), {X: 0.5})
    with pytest.raises(DomainError):
        evaluate(pow_int(X, -1), {X: 0.0})
    with pytest.raises(ExprError):
        evaluate(p1, {})  # unassigned variable
    with pytest.raises(DomainError):
        evaluate(mul(rational(10 ** 400), p1), {p1: 0.5})  # constant overflows
    with pytest.raises(DomainError, match="non-finite intermediate value"):
        evaluate(mul(pow_int(p1, 150), pow_int(p2, 150)), {p1: 100.0, p2: 100.0})
    with pytest.raises(ExprError, match="unassigned variable p2"):
        evaluate(antideriv(exp(mul(-1, pow_int(p2, 2))), p2), {p1: 1.0})
    # the values of a point are floats, so an int one cannot grow exactly
    assert type(evaluate(p1, {p1: 2})) is float
    with pytest.raises(DomainError, match="overflow"):
        evaluate(pow_int(p1, 3000), {p1: 10})
    # a float overflow in a sum of finite terms is a domain error too
    with pytest.raises(DomainError, match="overflow"):
        evaluate(add(mul(rational(10 ** 308), X), mul(rational(10 ** 308), p1)),
                 {X: 1.0, p1: 1.0})


def test_a_log_whose_constant_argument_overflows_is_kept():
    # a constant whose terms are coefficients of one sign times exponentials
    # has the coefficients' sign, so it is kept as a node although its
    # value overflows a float
    e = parse("log(1 + exp(1000))")
    assert isinstance(e, Log) and e.arg is add(1, exp(1000))


def test_a_log_of_a_constant_whose_sign_cannot_be_decided_is_an_error():
    # coefficients of both signs leave the sign to evaluation; when that
    # overflows the sign is unknown, and the log is refused, not kept
    for bad in ("1 - exp(1000)", "exp(1000) - 1", "2*exp(3) - exp(1000)*exp(2)"):
        with pytest.raises(ExprError, match="log of a constant whose sign cannot be decided"):
            parse(f"log({bad})")
    with pytest.raises(ExprError, match="negative constant"):
        parse("log(-exp(1000))")
    with pytest.raises(ExprError, match="negative constant"):
        parse("log(-1 - 2*exp(1000))")
    for ok in ("1 + exp(1000)", "exp(1/10^20) - 1", "2*exp(1000) + exp(-1000)"):
        assert isinstance(parse(f"log({ok})"), Log), ok


def test_evaluate_refuses_a_non_finite_input():
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite intermediate value"):
            evaluate(jet(1), {jet(1): v})


def _rand_transcendental(seed):
    # a random polynomial times, plus and inside exp, log, sin, cos and a
    # slope (a negative power of a sum), with every log argument positive
    rng = random.Random(seed)

    def poly(k):
        return rand_expr(seed * 7 + k, max_index=3, degree=2, terms=2)

    parts = [mul(poly(0), exp(mul(Fraction(1, 2), poly(1)))),
             mul(poly(2), log(add(1, pow_int(poly(3), 2)))),
             mul(sin(poly(4)), cos(poly(5))),
             mul(poly(6), pow_int(add(2, pow_int(poly(7), 2)), -rng.randint(1, 3))),
             exp(sin(poly(8)))]
    return add(*rng.sample(parts, 3), poly(9))


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_matches_sympy(seed):
    # the compiled evaluator against sympy's evaluation of the printed text,
    # at 40 digits, at seeded points of the box
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    e = _rand_transcendental(seed)
    assert {type(f) for t in e.terms for f in t._flat[3]} & {
        symexpr.Exp, symexpr.Log, symexpr.Sin, symexpr.Cos, Pow}
    atoms = sorted(e.free_atoms, key=sort_key)
    names = {render(a): sympy.Symbol(render(a)) for a in atoms}
    theirs = parse_expr(render(e).replace("^", "**"), local_dict=names)
    rng = random.Random(seed)
    for _ in range(5):
        point = {a: rng.uniform(-1, 1) for a in atoms}
        ours = evaluate(e, point)
        ref = theirs.evalf(40, subs={names[render(a)]: sympy.Float(v, 40)
                                     for a, v in point.items()})
        assert math.isclose(ours, float(ref), rel_tol=1e-12, abs_tol=1e-12), (render(e), point)


@pytest.mark.parametrize("level", [0, 1])
def test_quadrature_rules_match_numpy(level):
    np = pytest.importorskip("numpy")
    from varmult.symexpr import _QUAD_LEVELS, _gauss_legendre

    order, _ = _QUAD_LEVELS[level]
    rule = _gauss_legendre(order)
    xs, ws = np.polynomial.legendre.leggauss(len(rule))
    assert len(rule) == (32, 16)[level]
    for (x, w), x_ref, w_ref in zip(rule, xs, ws):
        assert abs(x - x_ref) <= 1e-13 * abs(x_ref)
        assert abs(w - w_ref) <= 1e-13 * w_ref


# ---------------------------------------------------------------------------
# is_zero
# ---------------------------------------------------------------------------


def test_is_zero_examples():
    assert isinstance(is_zero(add(p1, mul(-1, p1))), ZeroStructural)
    gauss = exp(mul(-1, pow_int(p2, 2)))
    residual = add(diff(antideriv(gauss, p2), p2), mul(-1, gauss))
    assert isinstance(is_zero(residual), ZeroStructural)
    v = is_zero(mul(p1, p2), CFG)
    assert isinstance(v, NonZero)
    assert abs(v.value) > CFG.atol
    # the witness point reproduces the witness value
    assert abs(evaluate(mul(p1, p2), v.point) - v.value) <= 1e-12


def test_is_zero_exact_constants():
    # a nonzero rational is nonzero however small or large, without sampling
    tiny = rational(Fraction(3, 10 ** 13))
    assert is_zero(tiny, CFG) == NonZero(point={}, value=3e-13)
    assert is_zero(rational(-(10 ** 400)), CFG) == NonZero(point={}, value=-math.inf)


def test_is_zero_decides_laurent_polynomials_exactly():
    # at the default seed every sample of these is within atol of 0 (the
    # first underflows), but a Laurent polynomial whose canonical form is not
    # 0 is nonzero
    e = mul(498501000, pow_int(p3, 997))
    v = is_zero(e)
    # the witness is found along the ray through the first sample, outside
    # the box, where the value clears the tolerance
    assert isinstance(v, NonZero) and set(v.point) == {p3}
    assert abs(v.point[p3]) > 1 and abs(v.value) > ZeroTestConfig().atol
    assert evaluate(e, v.point) == v.value
    # a tiny coefficient stays below the relative tolerance all along the
    # ray: the first sample is the witness
    e = mul(Fraction(1, 10 ** 20), pow_int(p3, 997))
    v = is_zero(e)
    assert isinstance(v, NonZero) and set(v.point) == {p3}
    assert -1 <= v.point[p3] <= 1 and evaluate(e, v.point) == v.value
    # a constant exponential form reads 0 in floats everywhere: the first
    # sample is the witness, and its value is 0
    tiny = rational(Fraction(1, 10 ** 20))
    assert is_zero(add(mul(6, exp(tiny)), -6)) == NonZero(point={}, value=0.0)
    by_form = symexpr._nonzero_by_form
    # (ii) a Laurent polynomial, or a sum of them times exponentials of
    # Laurent monomials
    assert by_form(add(3, mul(X, pow_int(p1, -2))))
    assert by_form(add(mul(6, exp(tiny)), -6))
    assert by_form(add(exp(X), mul(-1, exp(add(X, tiny)))))
    assert by_form(add(p1, mul(X, exp(mul(p2, pow_int(p1, -1)))), exp(p2)))
    # (i) one term whose other factors do not vanish
    assert by_form(mul(X, pow_int(add(1, p1), -1)))
    assert by_form(mul(p3, exp(sin(p1)), pow_int(log(p1), -2)))
    assert by_form(mul(3, sin(tiny), cos(rational(5)), pow_int(log(rational(2)), 2)))
    # a sum with a slope, a cosine that can be 1, and factors that vanish
    # somewhere are left to the samples
    assert not by_form(add(mul(X, pow_int(add(1, p1), -1)), p2))
    assert not by_form(add(cos(rational(Fraction(1, 10 ** 10))), -1))
    assert not by_form(log(p1))
    assert not by_form(sin(p1))
    assert not by_form(add(p1, exp(sin(p2))))


def _laurent(rng):
    """A seeded Laurent polynomial in x, p1 and p2 with two or three terms."""
    return add(*(mul(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)),
                     *(pow_int(rng.choice((X, p1, p2)), rng.choice((-2, -1, 1, 2)))
                       for _ in range(rng.randint(0, 2))))
                 for _ in range(rng.randint(2, 3))))


@pytest.mark.parametrize("seed", range(10))
def test_exp_laurent_forms_built_two_ways_are_one_node(seed):
    # the exact fragment (ii) of `_nonzero_by_form` rests on one canonical
    # form per sum of Laurent polynomials times exponentials of Laurent
    # polynomials, however it is built
    rng = random.Random(seed)
    a, b = _laurent(rng), _laurent(rng)
    assert exp(add(a, b)) is mul(exp(a), exp(b))
    s1 = add(*(mul(_laurent(rng), exp(_laurent(rng))) for _ in range(2)))
    s2 = add(_laurent(rng), mul(_laurent(rng), exp(a)))
    prod = mul(s1, s2)
    assert prod is add(*(mul(t, u) for t in s1.terms for u in s2.terms))
    assert prod is ZERO or symexpr._nonzero_by_form(prod)


def test_a_constant_nonzero_form_tries_no_ray_step(monkeypatch):
    # a constant has one value at every point, so no step along the ray
    # through its empty first sample is tried
    run = symexpr._run
    calls = []

    def counting(*args):
        calls.append(args)
        return run(*args)

    e = add(mul(6, exp(rational(Fraction(1, 10 ** 20)))), -6)
    monkeypatch.setattr(symexpr, "_run", counting)
    assert is_zero(e) == NonZero(point={}, value=0.0)
    assert 0 < len(calls) <= ZeroTestConfig().samples


def test_a_ray_out_of_budget_leaves_the_first_sample_the_witness(monkeypatch):
    # 1/10^20*p3^997 reads as zero at every sample, since its value is
    # 1e-20 times its largest intermediate; the budget fits the 20 samples
    # of its 4 instructions and no more, so the first ray step runs out of
    # it, the ray stops there, and the first sample is the witness
    e = parse("1/10^20*p3^997")
    assert len(symexpr._compile(e)) == 4
    run, calls = symexpr._run, []

    def counting(*args):
        calls.append(args)
        return run(*args)

    first = random.Random(0).uniform(-1.0, 1.0)
    witness = NonZero(point={p3: first}, value=evaluate(e, {p3: first}))
    monkeypatch.setattr(symexpr, "_EVAL_BUDGET", 4 * 20)
    monkeypatch.setattr(symexpr, "_run", counting)
    assert is_zero(e) == witness
    assert len(calls) == 20 + 1


def test_a_non_finite_integral_is_a_domain_error():
    # each quadrature node of exp(709*cos(p1)) is finite, below e^709, but
    # their weighted sum over [0, 1e4] overflows to inf: the integral, not
    # one of its nodes, leaves the domain
    with pytest.raises(DomainError, match="non-finite intermediate value") as info:
        evaluate(parse("Int(exp(709*cos(p1)), p1)"), {p1: 1e4})
    assert info.traceback[-1].name == "_eval_quad"


def test_is_zero_numeric_path():
    # exp(x)*exp(-x) - 1 cancels structurally; sin^2 + cos^2 - 1 does not,
    # the numeric path must accept it
    e = add(pow_int(sin(X), 2), pow_int(cos(X), 2), -1)
    v = is_zero(e, CFG)
    assert isinstance(v, ZeroNumeric) and v.points == CFG.samples


def test_is_zero_inconclusive():
    e = log(add(-2, mul(-1, pow_int(X, 2))))  # domain-error everywhere
    v = is_zero(e, CFG)
    assert isinstance(v, Inconclusive)


def test_is_zero_deterministic():
    a = is_zero(mul(p1, p2), CFG)
    b = is_zero(mul(p1, p2), CFG)
    assert a == b and a.point == b.point


def test_is_zero_point_does_not_depend_on_the_process():
    # the atoms are drawn in position order (x, p0, p1, ...), which no
    # object address decides: two fresh processes print the same witness
    # point as an in-process run, and the JSON point's keys are sorted, so
    # its values carry the check
    from varmult.cli import run

    argv = ["check", "--order", "2", "--expr", "(x + p0 + p1 + p2)*p3^3", "--json"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "varmult.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    buf = io.StringIO()
    assert run(argv, out=buf, err=io.StringIO()) == 1
    assert outs[0] == outs[1] == buf.getvalue()
    result = json.loads(outs[0])["result"]
    assert result["step"] == "S2(k=3)" and len(result["verdict"]["point"]) == 4
    assert list(is_zero(parse(result["witness"])).point) == [X, p0, p1, p2]


def test_is_zero_retries_domain_errors():
    # log(x + 2) is fine on half the box only after retries widen the draw;
    # log(x) fails for x <= 0 but retries find positive samples
    v = is_zero(add(log(pow_int(X, 2)), mul(-2, log(X)), ZERO),
                ZeroTestConfig(seed=5))
    assert v.is_zero


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_max_jet_examples():
    assert max_jet(add(p0, X)) == 0
    assert max_jet(pow_int(X, 2)) == -1
    assert max_jet(antideriv(exp(mul(-1, p2)), p2, times=2)) == 2
    assert free_jets(mul(p1, p3)) == frozenset({1, 3})


def test_jet_bound():
    with pytest.raises(ExprError):
        jet(65)
    with pytest.raises(ExprError):
        jet(-1)


def test_a_bool_jet_index_is_rejected():
    # in a fresh process, so that no p1 is interned yet: jet(True) would
    # take the key of p1, and every later p1 would print as pTrue
    script = ("from varmult.symexpr import ExprError, jet, parse, render\n"
              "for k in (True, False):\n"
              "    try:\n"
              "        jet(k)\n"
              "    except ExprError:\n"
              "        pass\n"
              "    else:\n"
              "        raise SystemExit(f'jet({k}) was accepted')\n"
              "print(render(parse('p1^2 + p1')), render(jet(0)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symexpr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "p1 + p1^2 p0\n"


def test_config_validation():
    with pytest.raises(ValueError):
        ZeroTestConfig(samples=0)
    with pytest.raises(ValueError):
        ZeroTestConfig(atol=0.0)


@pytest.mark.parametrize("samples", [2.5, 2.0, "3", None])
def test_config_rejects_non_integer_samples(samples):
    # rejected at construction, not as a TypeError from range() in the
    # first is_zero
    with pytest.raises(ValueError, match="integer >= 1"):
        ZeroTestConfig(samples=samples)


@pytest.mark.parametrize("atol", [math.inf, math.nan])
def test_config_rejects_non_finite_atol(atol):
    with pytest.raises(ValueError):
        ZeroTestConfig(atol=atol)


def test_as_expr_rejects_floats():
    with pytest.raises(TypeError):
        add(X, 0.5)


def test_arithmetic_sugar():
    assert (p1 + p1) == mul(2, p1)
    assert (p1 - p1) is ZERO
    assert (p2 ** 2 / 2) == mul(Fraction(1, 2), pow_int(p2, 2))
    assert (-p1) == mul(-1, p1)
    assert (1 / p1) == pow_int(p1, -1)
    assert (1 - p1) is add(1, mul(-1, p1))
    assert (p1 * p2) is mul(p1, p2)


def test_pow_int_takes_an_integral_exponent_only():
    for bad in (Fraction(3, 2), 2.0):
        with pytest.raises(ExprError, match="exponent must be an integer"):
            pow_int(p1, bad)
    assert pow_int(p1, Fraction(4, 2)) is pow_int(p1, 2)


def test_pow_int_exponents_that_are_not_plain_ints():
    # a plain int takes a fast path; every other exponent keeps its meaning:
    # an integral Fraction is its int, a bool is an int, anything else fails
    assert pow_int(p1, Fraction(2)) is pow_int(p1, 2)
    assert pow_int(add(p1, 1), True) is add(p1, 1)
    assert pow_int(p1, False) is ONE
    with pytest.raises(ExprError, match="exponent must be an integer, got 1/2"):
        pow_int(p1, Fraction(1, 2))
    with pytest.raises(ExprError, match="exponent must be an integer, got 2.0"):
        pow_int(p1, 2.0)


def test_power_of_a_sum_is_one_product():
    # the partial powers stay flat terms in the accumulator of one `mul`,
    # so none of them is interned (a product per partial power interns
    # about 30,000 nodes here)
    b = add(p1, 1)
    before = len(symexpr._INTERN)
    got = pow_int(b, 200)
    assert len(symexpr._INTERN) - before < 1000
    assert got is mul(*[b] * 200)
    assert got is add(*(mul(math.comb(200, k), pow_int(p1, k)) for k in range(201)))
    assert pow_int(b, 1) is b
    assert pow_int(b, 2) is add(pow_int(p1, 2), mul(2, p1), 1)
    for k in (-1, -3):
        neg = pow_int(b, k)
        assert neg.__class__ is Pow and neg.base is b and neg.exponent == k


@pytest.mark.parametrize("c", [-1, Fraction(1, 2), 3, 1])
def test_rational_times_sum_matches_distribution(c):
    s = add(3, mul(Fraction(-2, 3), p1, p2), pow_int(p2, 2), exp(p1), mul(5, X))
    assert isinstance(s, Sum) and any(isinstance(t, Rat) for t in s.terms)
    got = mul(c, s)
    assert got is add(*(mul(c, t) for t in s.terms))
    assert mul(s, rational(c)) is got
    # a constant term stays a rational, never Prod(c, Rat)
    assert rational(3 * c) in got.terms
    if c == 1:
        assert got is s


def test_interning_is_thread_safe(monkeypatch):
    # four threads build the same fresh corpus f, and the total derivative,
    # the partial derivatives and a double antiderivative of each of its
    # terms at once, so that both kinds of derivation and the antiderivatives
    # race on the one memo; each node must come out as
    # one shared object (with a plain store in _intern, most runs give
    # distinct but equal results on one of the two inputs)
    import sys
    import threading

    from varmult.jetops import total_derivative

    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]
    # the memos are caches, safe to empty: the threads fill them again
    symexpr._MERGES.clear()
    symexpr._DERIV_CACHE.clear()
    # the intern table keeps insertion order: the nodes past `before` are
    # the ones the threads made
    before = len(symexpr._INTERN)

    def work(i):
        barrier.wait()
        for seed in (2, 3):
            f = construct(gen_params(3, 3, GenConfig(seed=seed, max_degree=3,
                                                      max_terms=4))).f
            results[i].append((f, [d for t in f.terms
                                   for d in (total_derivative(6, t),
                                             *(diff(t, jet(k)) for k in range(6)),
                                             antideriv(t, jet(seed), 2))]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(symexpr._MERGES) > 50
    # a node is complete when it is published: each non-Sum node carries
    # its flat term
    made = list(symexpr._INTERN.values())[before:]
    assert len(made) > 1000
    assert all((e._flat is None) == (e.__class__ is Sum) for e in made)
    for k, (f, dts) in enumerate(results[0]):
        assert isinstance(f, Sum) and len(dts) == 8 * len(f.terms)
        for other in results[1:]:
            g, others = other[k]
            assert g is f
            assert all(a is b for a, b in zip(others, dts))

    # eight threads build products of one monomial new to the index at
    # once, each reading the index while the others register in it: each
    # flat term gives one node, and the index holds the monomial's atom
    # factors, which every product holds
    monkeypatch.setattr(symexpr, "_MONOS", {})
    barrier = threading.Barrier(8)
    ks = [Fraction(k, 7) for k in range(1, 41)]
    made = [[] for _ in range(8)]

    def build(i):
        barrier.wait()
        made[i] += [mul(k, X**3, jet(3)**-2, exp(jet(1))) for k in ks[i % 2::2] + ks]

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    mono = _pack((3, 0, 0, 0, -2))
    nodes = {k: mul(k, X**3, jet(3)**-2, exp(jet(1))) for k in ks}
    for i in range(8):
        assert all(e is nodes[k] for e, k in zip(made[i], ks[i % 2::2] + ks))
    assert symexpr._MONOS == {mono: (X**3, jet(3)**-2)}
    for e in nodes.values():
        assert _atom_factors(e) == symexpr._MONOS[mono] and mul(*e.factors) is e
        assert e._flat == _reference_flat(e), render(e)


def test_the_euler_slot_is_thread_safe():
    # four threads alternate construct -> check on two corpus equations,
    # starting on different ones, so that each check's S3 may find the slot
    # holding its own construct's last Horner pass, the other equation's, or
    # one another thread stored meanwhile: every report must be the serial
    # run's, node for node
    import sys
    import threading

    cases = [(n, gen_params(n, n, GenConfig(seed=seed, max_degree=3, max_terms=4)))
             for n, seed in ((2, 20003), (3, 30001))]

    def trial(n, params):
        t = construct(params)
        return t.f, check(t.f, n, CFG)

    serial = [trial(*c) for c in cases]
    assert all(r.accepted for _, r in serial)
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def work(i):
        barrier.wait()
        for k in range(4):
            j = (i + k) % 2
            results[i].append((j, trial(*cases[j])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == 4
        for j, (f, report) in out:
            assert f is serial[j][0] and report == serial[j][1]


# ---------------------------------------------------------------------------
# canonicalization fast paths
# ---------------------------------------------------------------------------

#: rationals whose floats tie (10^17 and 10^17 + 1; 1/3 and its 16-digit
#: decimal) or overflow a float
_FLOAT_HARD_RATIONALS = [Fraction(10**17), Fraction(10**17 + 1), Fraction(1, 3),
                         Fraction(3333333333333333, 10**16), Fraction(10**400),
                         Fraction(-10**400), Fraction(10**401),
                         Fraction(10**400 + 1, 3)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.fractions(),
                          st.integers(-10**420, 10**420).map(Fraction),
                          st.sampled_from(_FLOAT_HARD_RATIONALS)), max_size=12))
def test_rational_sort_key_orders_by_value(values):
    nodes = [rational(v) for v in values]
    assert [n.value for n in sorted(nodes, key=sort_key)] == sorted(values)


def test_rational_sort_key_breaks_float_ties_exactly():
    for a in _FLOAT_HARD_RATIONALS:
        for b in _FLOAT_HARD_RATIONALS:
            assert (sort_key(rational(a)) < sort_key(rational(b))) == (a < b)
    # the key orders a constant before every other node, as before
    assert sort_key(rational(10**401)) < sort_key(X) < sort_key(p0)


#: the rank of each class in the sort order
_RANK = {Rat: 0, VarX: 1, Jet: 2, Pow: 3, symexpr.Exp: 4, symexpr.Log: 5, symexpr.Sin: 6,
         symexpr.Cos: 7, AntiDeriv: 8, Prod: 9, Sum: 10}


def _reference_key(e, memo, nested=False):
    """The sort key of e, by recursion over its children, memoized: a
    product's key is (9, *factor keys), or (9, (factor keys)) when `nested`,
    as products were keyed before their key was one flat tuple."""
    k = memo.get(e)
    if k is None:
        cls = e.__class__
        if cls is Rat:
            k = (0, symexpr._float(e.value), e.value)
        elif cls is VarX:
            k = (1,)
        elif cls is Jet:
            k = (2, e.index)
        elif cls is Pow:
            k = (3, _reference_key(e.base, memo, nested), e.exponent)
        elif cls is AntiDeriv:
            k = (8, _reference_key(e.integrand, memo, nested),
                 _reference_key(e.var, memo, nested))
        elif cls is Prod and not nested:
            k = (9, *(_reference_key(c, memo, nested) for c in e.factors))
        elif cls is Prod or cls is Sum:
            k = (_RANK[cls], tuple(_reference_key(c, memo, nested)
                                   for c in (e.factors if cls is Prod else e.terms)))
        else:
            k = (_RANK[cls], _reference_key(e.arg, memo, nested))
        memo[e] = k
    return k


def _keys_against_the_reference():
    t = construct(gen_params(3, 3, GenConfig(seed=30001, max_degree=2, max_terms=3,
                                             allow_exp=True)))
    assert check(t.f, 3, CFG).accepted
    # a node's children are interned before it, so the memoized reference
    # recurses one level per node of the table
    nodes = [*_EACH_CLASS, *symexpr._INTERN.values()]
    assert {type(e) for e in nodes} == set(_RANK)
    memo = {}
    for e in nodes:
        assert (e._key is None) == (e.__class__ is Sum), render(e)
        assert sort_key(e) == _reference_key(e, memo), render(e)
    # asking for a sum's key writes nothing into the sum
    s = add(p1, X)
    assert sort_key(s) == (10, (X._key, p1._key)) and s._key is None


def test_every_node_but_a_sum_holds_its_sort_key_from_construction():
    _in_a_fresh_process("_keys_against_the_reference()")


def _heavy_trials():
    """construct + check of the heaviest corpus trial, n=4 seed 40002, and of
    n=7 seed 70001, so that a whole-table check walks over 5,000 nodes."""
    for n, seed in ((4, 40002), (7, 70001)):
        t = construct(gen_params(n, n, GenConfig(seed=seed, max_degree=3, max_terms=4)))
        assert check(t.f, n, CFG).accepted


def _flat_keys_against_the_nested():
    # a product's key is one flat tuple, (9, *factor keys), where it was
    # (9, (factor keys)): a tuple orders item by item and then by length,
    # so every node sorts where it sorted before, and so does every sum
    _heavy_trials()
    nodes = list(symexpr._INTERN.values())
    assert sum(e.__class__ is Prod for e in nodes) > 4000
    memo = {}
    by_key = sorted(nodes, key=sort_key)
    by_nested = sorted(nodes, key=lambda e: _reference_key(e, memo, nested=True))
    assert all(a is b for a, b in zip(by_key, by_nested))
    assert len(by_key) == len(by_nested) == len(nodes)


def test_flat_product_keys_sort_as_the_nested_ones():
    _in_a_fresh_process("_flat_keys_against_the_nested()")


def test_a_deep_exponential_chain_sorts_without_recursion():
    # every key beside a sum's is read off the node, so sorting a
    # 3000-deep chain beside p2 reads two keys
    e = p2
    for _ in range(3000):
        e = exp(e)
    assert add(e, p2).terms == (p2, e)
    assert mul(e, log(p2)).factors == (e, log(p2))


def test_deep_chain_renders_compiles_and_substitutes_without_recursion():
    # a 3000-deep chain built through the API, under the default recursion
    # limit: only the parser caps nesting (MAX_PARSE_DEPTH)
    assert sys.getrecursionlimit() <= 3000
    e = p2
    for _ in range(3000):
        e = exp(e)
    assert render(e) == "exp(" * 3000 + "p2" + ")" * 3000
    # json.loads would recurse: the text is checked as written
    assert render(e, "json") == ('{"op": "exp", "args": [' * 3000 + '{"jet": 2}'
                                 + "]}" * 3000)
    assert isinstance(is_zero(e, CFG), (NonZero, Inconclusive))
    try:
        evaluate(e, {p2: 0.5})
    except DomainError:
        pass  # exp(exp(...)) overflows; only a RecursionError would fail
    assert max_jet(substitute(e, {p2: p1})) == 1
    assert substitute(mul(p1, e), {p2: 0}).factors[0] is p1


def test_rational_interning_normalizes():
    assert rational(Fraction(2, 4)) is rational(Fraction(1, 2))
    assert rational(Fraction(6, 3)) is rational(2)


def test_rational_digits_are_bounded():
    # MAX_RATIONAL_DIGITS bounds numerators, denominators and exponents; a
    # power is refused before it is computed, a literal before it is read
    import time

    top = 10 ** symexpr.MAX_RATIONAL_DIGITS
    assert rational(top - 1).value == top - 1
    assert rational(Fraction(-1, top - 1)).value == Fraction(-1, top - 1)
    assert pow_int(10, symexpr.MAX_RATIONAL_DIGITS - 1).value == top // 10
    assert pow_int(-1, 10**400 + 1) is rational(-1) and pow_int(1, -10**400) is ONE
    start = time.perf_counter()
    for make in (lambda: rational(top), lambda: rational(-top), lambda: rational(Fraction(1, top)),
                 lambda: pow_int(2, 10**10), lambda: pow_int(Fraction(2, 3), -10**10),
                 lambda: pow_int(2, 10**400), lambda: pow_int(Fraction(-1, 2), 3 * 10**3999),
                 lambda: pow_int(10, symexpr.MAX_RATIONAL_DIGITS), lambda: mul(top - 1, 10),
                 lambda: pow_int(X, top), lambda: pow_int(pow_int(add(X, 1), -(top - 1)), 10)):
        with pytest.raises(ExprError, match="more than 4000 digits"):
            make()
    assert time.perf_counter() - start < 5
    digits = "9" * symexpr.MAX_RATIONAL_DIGITS
    assert parse(digits + "*p1").factors[0].value == top - 1
    assert parse("0." + digits[1:]).value == Fraction(top // 10 - 1, top // 10)
    for text, offset in (("p1 + 1" + digits, 5), ("p1 + 1." + digits, 5), ("x^1" + digits, 2)):
        with pytest.raises(ParseError, match="number with more than 4000 digits") as info:
            parse(text)
        assert info.value.offset == offset


def test_product_merges_exponentials_of_a_common_core():
    assert mul(exp(p1), exp(mul(2, p1))) is exp(mul(3, p1))
    assert mul(exp(p1), exp(mul(-1, p1))) is ONE
    assert mul(exp(2), exp(3)) is exp(5)
    assert mul(exp(p1), exp(p2), exp(-p1), X) is mul(X, exp(p2))
    assert mul(exp(p1), exp(p1)) is exp(mul(2, p1))


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(symexpr, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(symexpr, name, counting)
    return calls


def test_product_of_distinct_exponentials_does_not_add(monkeypatch):
    factors = [exp(p1), exp(mul(2, p2)), exp(3), exp(mul(p1, p2)), X, 5]
    expected = mul(*factors)
    calls = _counting(monkeypatch, "add")
    assert mul(*factors) is expected
    assert mul(expected, p3) is mul(p3, *factors)
    assert calls == []


#: the kernel's packing base, and a monomial packed from its exponents of x,
#: p0, p1, ... the way the kernel packs it, for the white-box tests
_BASE = (1 << 64) + 0x9E3779B97F4A7C15


def _pack(exps):
    return sum(e * _BASE**i for i, e in enumerate(exps))


def test_packed_monomials_hash_apart():
    # Python hashes an int mod 2^61 - 1: with a base of 2^64 (8 there) every
    # x^(8a) * p0^(1000-a) would share one hash, and the 16^4 grid would
    # take 8,776 hashes, so a power of a sum would crowd its accumulator
    unit = symexpr._UNIT
    assert mul(pow_int(X, 16), pow_int(p0, 998))._flat[2] == _pack((16, 998))
    line = {hash(8 * a * unit[0] + (1000 - a) * unit[1]) for a in range(1001)}
    assert len(line) == 1001
    grid = {hash(a * unit[0] + b * unit[1] + c * unit[2] + d * unit[3])
            for a in range(16) for b in range(16) for c in range(16) for d in range(16)}
    assert len(grid) == 16**4


def test_atom_exponents_are_bounded():
    # monomials pack exactly while every exponent is below MAX_ATOM_EXPONENT
    top = symexpr.MAX_ATOM_EXPONENT
    assert top == 2**31
    assert pow_int(p1, top - 1)._flat[2] == _pack((0, 0, top - 1))
    e = mul(pow_int(p1, top - 2), p1, X)
    assert e._flat[2] == _pack((1, 0, top - 1)) and e.factors == (X, pow_int(p1, top - 1))
    assert pow_int(p1, 1 - top)._flat[2] == _pack((0, 0, 1 - top))
    for make in (lambda: pow_int(p1, top), lambda: pow_int(X, -top),
                 lambda: mul(pow_int(p1, 2**30), pow_int(p1, 2**30)),
                 lambda: pow_int(pow_int(p1, 2**16), 2**15), lambda: parse("p1^2147483647*p1")):
        with pytest.raises(ExprError, match="atom power with an exponent of magnitude 2147483648"):
            make()


def test_add_keeps_terms_with_distinct_cores():
    terms = [mul(3, p1, p2), pow_int(p2, 2), exp(p1), mul(Fraction(-1, 2), X),
             mul(-7, exp(p2), p1)]

    def kept(total, *left):
        return all(any(t is u for u in total.terms) for t in left)

    def term_of(total, mono):
        # the term of `total` with the monomial `mono` and no other factor
        [t] = [t for t in total.terms if t._flat[2:] == (mono, ())]
        return t

    # a term that nothing merges with comes back as the same node
    expected = add(*terms)
    s = add(*terms)
    assert s is expected and isinstance(s, Sum)
    assert len(s.terms) == len(terms) and kept(s, *terms)
    # only a core that occurs twice merges, and a zero sum drops it; p1*p2
    # is the monomial with exponent 1 at the positions of p1 and p2
    merged = add(s, mul(2, p1, p2))
    assert merged is add(mul(5, p1, p2), *terms[1:]) and kept(merged, *terms[1:])
    five = term_of(merged, _pack((0, 0, 1, 1)))
    assert five._flat[:2] == (5, 1) and five.factors[0] is rational(5)
    assert add(s, mul(-3, p1, p2)) is add(*terms[1:])
    # -1/2*x + 1/3*x and -1/2*x + 1/6*x: the numerators meet over the common
    # denominator 6, and the merged term gets the coprime pair (numerator,
    # denominator), -1/6 as it is and -2/6 reduced to -1/3
    for other, n, d in ((Fraction(1, 3), -1, 6), (Fraction(1, 6), -1, 3)):
        total = add(s, mul(other, X))
        assert total is add(*terms[:3], mul(Fraction(n, d), X), terms[4])
        assert kept(total, *terms[:3], terms[4])
        x_term = term_of(total, _pack((1,)))
        assert x_term._flat[:2] == (n, d)
        assert x_term.factors[0] is rational(Fraction(n, d))


# ---------------------------------------------------------------------------
# distribution of a product over sums
# ---------------------------------------------------------------------------

_SLOPE = add(1, exp(p0))

#: factors of the random terms below: atom powers that cancel against each
#: other, exponentials whose cores collide and cancel (rational exponents
#: too), 1/S and 1/S^2 for a sum S, and log powers, whose exponents add
_FACTORS = [X, p1, p2, pow_int(p1, -1), pow_int(p2, 2), pow_int(X, -2),
            exp(p1), exp(mul(-1, p1)), exp(mul(2, p1)), exp(mul(Fraction(1, 2), p1)),
            exp(3), exp(-3), exp(rational(Fraction(1, 2))),
            exp(mul(p1, p2)), exp(mul(-1, p1, p2)),
            pow_int(_SLOPE, -1), pow_int(_SLOPE, -2),
            log(p1), pow_int(log(p1), 2), pow_int(log(p1), -1)]


def _random_term(rng, pool=_FACTORS):
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    if rng.random() < 0.2:
        return rational(c)  # a constant term
    return mul(c, *rng.sample(pool, rng.randint(1, 3)))


def _random_sum(rng, pool=_FACTORS):
    # a draw whose terms cancel to one term gets x added; one that is still
    # not a sum (the terms cancel to 0, or to a multiple of x) is redrawn
    while True:
        s = add(*(_random_term(rng, pool) for _ in range(rng.randint(2, 6))))
        s = s if isinstance(s, Sum) else add(s, X)
        if isinstance(s, Sum):
            return s


@pytest.mark.parametrize("seed", range(40))
def test_product_over_sums_matches_term_by_term_products(seed):
    import random

    rng = random.Random(seed)
    a = _random_term(rng)
    s1, s2 = _random_sum(rng), _random_sum(rng)
    assert mul(a, s1) is add(*(mul(a, t) for t in s1.terms))
    assert mul(a, s1, s2) is add(*(mul(a, t, u) for t in s1.terms for u in s2.terms))


def test_product_over_a_sum_hand_picked_cases():
    s = add(3, mul(2, exp(mul(-1, p1)), exp(-3), p1), mul(log(p1), exp(mul(p1, p2))),
            mul(Fraction(1, 2), pow_int(_SLOPE, -1), X),
            mul(p2, exp(mul(2, p1)), exp(rational(Fraction(1, 2)))))
    a = mul(-2, exp(p1), exp(3), pow_int(p1, -1), log(p1), pow_int(_SLOPE, -2))
    got = mul(a, s)
    assert got is add(*(mul(a, t) for t in s.terms))
    assert set(got.terms) == {
        mul(-6, exp(p1), exp(3), pow_int(p1, -1), log(p1), pow_int(_SLOPE, -2)),
        # both exponentials cancel, and p1^-1 against p1
        mul(-4, log(p1), pow_int(_SLOPE, -2)),
        # a shared log and a shared slope merge into powers
        mul(-2, exp(p1), exp(3), exp(mul(p1, p2)), pow_int(p1, -1),
            pow_int(log(p1), 2), pow_int(_SLOPE, -2)),
        mul(-1, X, exp(p1), exp(3), pow_int(p1, -1), log(p1), pow_int(_SLOPE, -3)),
        # exponentials of a common core merge without cancelling
        mul(-2, p2, exp(mul(3, p1)), exp(rational(Fraction(7, 2))), pow_int(p1, -1),
            log(p1), pow_int(_SLOPE, -2)),
    }


#: the factors above plus sin, cos and their powers, and opaque integrals
#: (one with a parameter), whose exponents add too
_FUZZ_FACTORS = _FACTORS + [
    sin(p1), pow_int(sin(p1), 2), cos(mul(X, p2)), pow_int(cos(mul(X, p2)), -1),
    antideriv(exp(mul(p0, pow_int(p1, 2))), p1), antideriv(exp(pow_int(p2, 2)), p2),
    exp(mul(2, p1, p2)), pow_int(p2, -1)]


def test_fuzzed_products_and_sums_render_as_the_term_by_term_reference():
    # the reference multiplies single terms only and sums the products with
    # `add`, so it never takes the accumulator path of a product over a sum;
    # it multiplies through the same routine, so the test below checks the
    # products against floats
    import functools
    import random

    assert all(isinstance(f, AntiDeriv) for f in _FUZZ_FACTORS[-4:-2])
    for seed in range(300):
        rng = random.Random(seed)
        a = _random_term(rng, _FUZZ_FACTORS)
        s1, s2 = _random_sum(rng, _FUZZ_FACTORS), _random_sum(rng, _FUZZ_FACTORS)
        got = mul(a, s1, s2)
        ref = add(*(mul(a, t, u) for t in s1.terms for u in s2.terms))
        assert render(got) == render(ref), seed
        assert got is ref, seed
        terms = [_random_term(rng, _FUZZ_FACTORS) for _ in range(rng.randint(2, 8))]
        assert render(add(*terms)) == render(functools.reduce(add, terms, ZERO)), seed


def test_fuzzed_products_match_the_product_of_the_values():
    # an oracle that shares no code with the product: the value of
    # mul(a, s1, s2) is the product of the three values, at points with
    # p1 > 1 so that log(p1) is defined and not 0, and x, p2 away from 0
    import random

    for seed in range(300):
        rng = random.Random(seed)
        a = _random_term(rng, _FUZZ_FACTORS)
        s1, s2 = _random_sum(rng, _FUZZ_FACTORS), _random_sum(rng, _FUZZ_FACTORS)
        got = mul(a, s1, s2)
        for _ in range(2):
            pt = {X: rng.uniform(0.5, 1), p0: rng.uniform(-1, 1),
                  p1: rng.uniform(1.5, 2.5), p2: rng.uniform(0.5, 1)}
            want = evaluate(a, pt) * evaluate(s1, pt) * evaluate(s2, pt)
            # the sums may cancel: measure the error against the product of
            # the sums of the terms' magnitudes
            size = abs(evaluate(a, pt))
            for s in (s1, s2):
                size *= sum(abs(evaluate(t, pt)) for t in s.terms)
            assert abs(evaluate(got, pt) - want) <= 1e-9 * size, seed


def test_products_merge_the_powers_of_each_kind_of_base():
    integral = antideriv(exp(pow_int(p2, 2)), p2)
    assert isinstance(integral, AntiDeriv)
    # a sin, a cos and a slope cancel against their own inverse powers
    assert mul(pow_int(sin(p1), 2), pow_int(sin(p1), -2)) is ONE
    assert mul(pow_int(cos(mul(X, p2)), -1), cos(mul(X, p2))) is ONE
    assert mul(pow_int(_SLOPE, -1), _SLOPE) is ONE
    # two powers of one opaque integral merge
    cube = mul(integral, pow_int(integral, 2))
    assert cube is pow_int(integral, 3) and render(cube) == "Int(exp(p2^2), p2)^3"
    # S * S^-2 is S^-1
    assert mul(_SLOPE, pow_int(_SLOPE, -2)) is pow_int(_SLOPE, -1)
    # exponentials of a common core merge
    half = exp(mul(Fraction(1, 2), p1))
    assert mul(half, half) is exp(p1)
    assert mul(exp(p1), exp(mul(-1, p1))) is ONE
    # the same merges in a product over a sum
    assert mul(pow_int(sin(p1), -2), add(p2, pow_int(sin(p1), 2))) is add(
        1, mul(p2, pow_int(sin(p1), -2)))
    assert mul(half, add(X, half)) is add(exp(p1), mul(X, half))
    assert mul(integral, add(1, pow_int(integral, -1))) is add(1, integral)


def test_times_sum_calls_neither_mul_nor_add():
    # `_times_sum` is the kernel's one product of terms: it builds what it
    # needs itself, so `mul` (which calls it) is never called back, nor
    # `add`, by it or by any module function it reaches
    import ast
    from pathlib import Path

    tree = ast.parse(Path(symexpr.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_times_sum"]
    while todo:
        name = todo.pop()
        if name in funcs and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)]
    assert {"_times_sum", "_term", "_exp_raw"} <= reached
    assert not reached & {"mul", "add"}


# ---------------------------------------------------------------------------
# flat terms: exact coefficients, atom masks
# ---------------------------------------------------------------------------


def _walk_atoms(e):
    """The atoms of e, by a walk over its children."""
    if isinstance(e, (VarX, Jet)):
        return {e}
    kids = [*getattr(e, "terms", ()), *getattr(e, "factors", ())]
    kids += [getattr(e, f) for f in ("base", "arg", "integrand", "var") if hasattr(e, f)]
    return set().union(*map(_walk_atoms, kids))


@pytest.mark.parametrize("seed", range(8))
def test_atom_masks_agree_with_a_walk_of_the_tree(seed):
    # every node's atom set, top jet and jet set against an independent
    # walk, on exponentials, logs, sines, cosines, slopes and opaque
    # integrals; a derivation in an atom the node lacks is 0
    inner = mul(rand_expr(seed, max_index=4, degree=2, terms=2), pow_int(p2, 2))
    e = add(_rand_transcendental(seed), antideriv(exp(add(inner, pow_int(p2, 2))), p2))
    nodes = set(_walk(e))
    assert any(isinstance(n, AntiDeriv) for n in nodes)
    atoms = [X, *(jet(k) for k in range(7))]
    for n in nodes:
        walked = _walk_atoms(n)
        jets = {a.index for a in walked if isinstance(a, Jet)}
        assert n.free_atoms == walked, render(n)
        assert max_jet(n) == max(jets, default=-1) and free_jets(n) == jets
        for v in atoms:
            if v not in walked:
                assert diff(n, v) is ZERO, (render(n), render(v))


def test_interned_rationals_stay_fractions_after_the_heaviest_corpus_trial():
    from varmult.checker import check
    from varmult.varcore import construct

    t = construct(gen_params(4, 4, GenConfig(seed=40002, max_degree=3, max_terms=4)))
    assert len(t.f.terms) == 3261
    assert check(t.f, 4, CFG).outcome.residual.is_zero
    rats = [e for e in list(symexpr._INTERN.values()) if e.__class__ is Rat]
    assert len(rats) > 100
    assert all(type(e.value) is Fraction for e in rats)
    # a node's flat coefficient is the coprime int pair (numerator,
    # denominator), denominator >= 1, equal to the value of its Rat factor
    pairs = [u._flat[:2] for u in t.f.terms]
    assert all(type(n) is int and type(d) is int and d >= 1 and math.gcd(n, d) == 1
               for n, d in pairs)
    assert any(d == 1 for _, d in pairs) and any(d > 1 for _, d in pairs)
    heads = [u.factors[0].value if u.factors[0].__class__ is Rat else 1 for u in t.f.terms]
    assert heads == [Fraction(n, d) for n, d in pairs]
    # a list of flat terms (den, ft, ...) holds terms over its one
    # denominator, and no factor is common to it and all the numerators: a
    # sum's lists, one per denominator of its terms, and the derivatives of
    # f's other-factor tuples under D_m and d/dv, where sums of fractions can
    # come out integral
    lists = symexpr._flats(t.f)
    assert sorted(lst[0] for lst in lists) == sorted({d for _, d in pairs})
    others = {u._flat[3] for u in t.f.terms if u._flat[3]}
    assert len(others) > 10
    lists += [symexpr._derive_others(d, o) for o in others
              for d in (1, 2, 3, 4, 5, X, p0, p1, p2, p3)]
    assert any(lst[0] > 1 for lst in lists)
    for den, *fts in lists:
        assert type(den) is int and den >= 1 and all(type(c) is int for c, _, _, _ in fts)
        assert all(d == den for _, d, _, _ in fts)
        assert math.gcd(den, *[c for c, _, _, _ in fts]) == 1


def test_the_derivation_memo_holds_nodes_only(monkeypatch):
    # a derivation adds each term's product rule straight into its one
    # accumulator, and derives each tuple of other factors once per call, so
    # the memo holds the result node of each derivation, Euler operator and
    # antiderivative and nothing per term or per tuple (1,311 entries when
    # each term kept its own)
    monkeypatch.setattr(symexpr, "_DERIV_CACHE", {})
    t = construct(gen_params(4, 4, GenConfig(seed=40002, max_degree=3, max_terms=4)))
    assert check(t.f, 4, CFG).accepted
    memo = symexpr._DERIV_CACHE
    assert memo
    for key, v in memo.items():
        assert isinstance(v, symexpr.Expr) and key[0] != "others", key
    assert len(memo) < 200


def test_products_are_interned_on_their_flat_terms_and_the_memos_are_caches():
    # a rational's and a product's one key is its flat term, without the
    # class, and the very tuple the node keeps as `_flat`, which holds its
    # denominator: no node keeps one apart, no rational has a key of its
    # own, and no two products have the same factors; the merge memo and the
    # derivation memo hold functions of interned nodes, so emptying them
    # between `construct` and `check` changes no node of the report
    t = construct(gen_params(4, 4, GenConfig(seed=40002, max_degree=3, max_terms=4)))
    symexpr._MERGES.clear()
    symexpr._DERIV_CACHE.clear()
    symexpr._EULER_SLOT = None
    cold = check(t.f, 4, CFG)
    assert symexpr._MERGES and symexpr._DERIV_CACHE
    warm = check(t.f, 4, CFG)
    assert cold.accepted and warm == cold
    assert all(getattr(warm.outcome, k) is getattr(cold.outcome, k) for k in ("R", "rho", "L"))
    assert all(a is b for a, b in zip(warm.outcome.f_lower, cold.outcome.f_lower))
    items = list(symexpr._INTERN.items())
    terms = [(k, e) for k, e in items if e.__class__ in (Rat, Prod)]
    prods = [e for _, e in terms if e.__class__ is Prod]
    assert len(prods) > 1000 and len(terms) > len(prods)
    for key, e in terms:
        assert key is e._flat, render(e)
    assert all(mul(*e.factors) is e for e in prods)
    assert len({e.factors for e in prods}) == len(prods)
    assert not any(len(k) == 3 and k[0] == "r" for k, _ in items)
    assert "_den" not in symexpr.Expr.__slots__


def test_check_after_construct_starts_s3_from_the_slot(monkeypatch):
    # construct's last operator call and S3 of the check right after it
    # apply E_6^4 to one node, so S3 starts from the slot of the latest
    # Horner pass and runs no product-rule pass; the S4 steps and the
    # certificate run their own.  The report, every node of its outcome
    # and trace, is the one of a check with the slot and the memos emptied
    from varmult import checker, varcore

    passes = []
    rules = symexpr._rules

    def counting(sources):
        passes.append(sources)
        return rules(sources)

    calls = []

    def recording(inner):
        def operator(m, n, e, *args):
            slot = symexpr._EULER_SLOT
            before = len(passes)
            out = inner(m, n, e, *args)
            calls.append((m, n, slot is not None and slot[0] == (m, n, e), len(passes) - before))
            return out
        return operator

    monkeypatch.setattr(symexpr, "_rules", counting)
    monkeypatch.setattr(checker, "_euler", recording(checker._euler))
    monkeypatch.setattr(varcore, "_euler", recording(varcore._euler))
    t = construct(gen_params(4, 4, GenConfig(seed=40002, max_degree=3, max_terms=4)))
    assert calls[-1][:2] == (6, 4) and symexpr._EULER_SLOT[0][:2] == (6, 4)
    calls.clear()
    warm = check(t.f, 4, CFG)
    # S3, S4 at j = 1, 2, 3, and the certificate E_8^4 L
    assert [c[:3] for c in calls] == [(6, 4, True), (5, 3, False), (3, 2, False),
                                      (1, 1, False), (8, 4, False)]
    assert calls[0][3] == 0 and all(c[3] for c in calls[1:])
    symexpr._EULER_SLOT = None
    symexpr._MERGES.clear()
    symexpr._DERIV_CACHE.clear()
    calls.clear()
    cold = check(t.f, 4, CFG)
    assert not any(hit for _, _, hit, _ in calls)
    assert cold.accepted and warm == cold and len(warm.trace) == len(cold.trace) > 10
    for a, b in zip(warm.trace, cold.trace):
        assert a.checked is b.checked and a.derived is b.derived and a.verdict == b.verdict
    assert all(getattr(warm.outcome, k) is getattr(cold.outcome, k) for k in ("R", "rho", "L"))


def _reference_flat(e):
    """The flat term (n, d, mono, others) of a non-Sum node, read off its
    factors without the kernel."""
    n, d, powers, others = 1, 1, {}, []
    for f in (e.factors if e.__class__ is Prod else (e,)):
        if f.__class__ is Rat:
            n, d = f.value.numerator, f.value.denominator
        elif f.__class__ in (VarX, Jet):
            powers[0 if f is X else f.index + 1] = 1
        elif f.__class__ is Pow and f.base.__class__ in (VarX, Jet):
            powers[0 if f.base is X else f.base.index + 1] = f.exponent
        else:
            others.append(f)
    mono = [0] * (max(powers, default=-1) + 1)
    for i, k in powers.items():
        mono[i] = k
    return n, d, _pack(mono), tuple(others)


def _is_atom_factor(f):
    return f.__class__ in (VarX, Jet) or f.__class__ is Pow and f.base.__class__ in (VarX, Jet)


def _atom_factors(e):
    """The factors of a non-Sum node that are x, a jet or a power of one, in
    the order the node holds them."""
    return tuple(filter(_is_atom_factor, e.factors if e.__class__ is Prod else (e,)))


def _flat_terms_against_the_reference():
    _heavy_trials()
    nodes = list(symexpr._INTERN.values())
    assert len(nodes) > 5000
    for e in nodes:
        if e.__class__ is Sum:
            assert e._flat is None
            continue
        assert e._flat == _reference_flat(e), render(e)
        if e.__class__ is Prod:
            # the atom factors follow the coefficient, if there is one, and
            # precede the other factors, where the product rule stops
            fs = e.factors[e.factors[0].__class__ is Rat:]
            assert fs == _atom_factors(e) + e._flat[3], render(e)


def test_every_node_carries_its_flat_term_from_birth():
    _in_a_fresh_process("_flat_terms_against_the_reference()")


def _products_against_the_index():
    # only a new monomial is decoded: the index holds the atom factors of
    # each monomial as one tuple, and no product, and every product of the
    # monomial holds those atoms; the products of one atom set share one mask
    _heavy_trials()
    prods = [e for e in symexpr._INTERN.values() if e.__class__ is Prod]
    monos = {e._flat[2] for e in prods}
    assert len(prods) > 4000 and len(monos) < len(prods)
    index = symexpr._MONOS
    assert monos <= index.keys()
    assert all(type(v) is tuple and all(map(_is_atom_factor, v)) for v in index.values())
    assert all(index[e._flat[2]] == _atom_factors(e) for e in prods)
    assert len({id(e._atoms) for e in prods}) == len({e._atoms for e in prods})


def test_products_of_one_monomial_share_its_atom_factors():
    _in_a_fresh_process("_products_against_the_index()")


@pytest.mark.parametrize("case, exemplar_coeff, coeff",
                         [(0, 3, 1), (1, 1, -5), (2, Fraction(-2, 7), 4)])
def test_a_new_product_takes_its_atoms_from_one_of_its_monomial(monkeypatch, case,
                                                                exemplar_coeff, coeff):
    # an empty index, so that the first product of x^-2*p3 made here, the
    # exemplar, decodes the monomial; a factor no other case or test builds
    # makes each product new
    monkeypatch.setattr(symexpr, "_MONOS", {})
    odd = log(add(jet(7), 12345 + case))
    ex = mul(exemplar_coeff, pow_int(X, -2), p3, odd)
    mono = _pack((-2, 0, 0, 0, 1))
    atoms = (p3, pow_int(X, -2))
    held = symexpr._MONOS[mono]
    assert held == atoms
    assert isinstance(ex.factors[0], Rat) == (exemplar_coeff != 1)
    made = [mul(coeff, pow_int(X, -2), p3, f) for f in (exp(odd), sin(odd), cos(odd))]
    assert symexpr._MONOS[mono] is held
    for e in (ex, *made):
        assert isinstance(e, Prod) and e._flat[2] == mono
        # the atom factors follow the coefficient, if there is one
        assert e.factors[isinstance(e.factors[0], Rat):][:2] == atoms == _atom_factors(e)
        assert mul(*e.factors) is e
        assert e._flat == _reference_flat(e), render(e)
        assert e._atoms == X._atoms | p3._atoms | jet(7)._atoms


def _report_digest(clear_index: bool) -> str:
    """The sha256 of the renders of an n=3 `construct` and of the `check` of
    its f, with the monomial index emptied between the two or not."""
    t = construct(gen_params(3, 3, GenConfig(seed=30002, max_degree=3, max_terms=4)))
    if clear_index:
        symexpr._MONOS.clear()
    report = check(t.f, 3, CFG)
    assert report.accepted
    # after the index is emptied, the check decodes 59 monomials again
    assert len(symexpr._MONOS) > 50
    return hashlib.sha256(f"{t!r}\n{report!r}".encode()).hexdigest()


def test_clearing_the_monomial_index_changes_no_output():
    # the index is a cache: a product made after it is emptied decodes its
    # monomial again and takes the same atom factors
    kept, cleared = (_in_a_fresh_process(f"_report_digest({c})") for c in (False, True))
    assert kept == cleared


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__neg__", "__truediv__")


def test_construct_and_check_do_no_fraction_arithmetic(monkeypatch):
    # coefficients are int pairs in the kernel: a Fraction is only made, for
    # a new Rat node, never added, multiplied or negated
    params = [(n, gen_params(n, n, GenConfig(seed=seed, max_degree=3, max_terms=4)))
              for n, seed in ((3, 30002), (4, 40003))]
    calls = []
    for name in _FRACTION_ARITHMETIC:
        def counting(*args, _inner=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(Fraction, name, counting)
    assert -Fraction(1, 3) * 3 + 1 == 0 and calls == ["__neg__", "__mul__", "__add__"]
    del calls[:]
    for n, p in params:
        t = construct(p)
        assert check(t.f, n, CFG).accepted
    assert calls == []


def test_rational_multiple_of_integral_coefficients_is_exact():
    u = add(mul(6, p1), mul(4, X))
    a = add(mul(3, p1), mul(2, X))
    for num, den, want in ((u, a, 2), (a, u, Fraction(1, 2))):
        r = symexpr._rat_multiple(num, den)
        assert type(r) is Fraction and r == want
    # a float quotient would round 10^30 + 1
    big = 10 ** 30 + 1
    assert symexpr._rat_multiple(mul(big, p1), mul(3, p1)) == Fraction(big, 3)
    assert symexpr._rat_multiple(u, add(mul(3, p1), X)) is None
    # the antiderivative that uses it: 4 exp(2 p1) integrates to 2 (exp(2 p1) - 1)
    got = antideriv(mul(4, exp(mul(2, p1))), p1)
    assert got is mul(2, add(exp(mul(2, p1)), -1))
    assert render(got) == "-2 + 2*exp(2*p1)"


#: factors of the sympy oracle's terms: atom powers that cancel, and
#: exponentials whose exponents add as rationals; `sympy.expand` brings
#: products and derivatives of them to one normal form
_ORACLE_FACTORS = [X, p1, p2, pow_int(p1, 2), pow_int(p2, -1), exp(p1), exp(mul(-1, p1)),
                   exp(mul(Fraction(1, 2), p1)), exp(mul(Fraction(-5, 6), p1)),
                   exp(mul(Fraction(3, 4), p1, p2))]


def _oracle_coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 12))


def _oracle_terms(rng):
    """Random terms, with a like term over a new denominator, like terms
    that sum to an integral coefficient, or a term and its negative."""
    terms = [mul(_oracle_coeff(rng), *rng.sample(_ORACLE_FACTORS, rng.randint(0, 3)))
             for _ in range(rng.randint(1, 4))]
    core = mul(*rng.sample(_ORACLE_FACTORS, rng.randint(0, 2)))
    kind = rng.randrange(4)
    if kind == 1:
        terms += [mul(Fraction(1, 7), core), mul(Fraction(5, 11), core)]
    elif kind == 2:
        c = _oracle_coeff(rng)
        terms += [mul(c, core), mul(rng.randint(-3, 3) - c, core)]
    elif kind == 3:
        terms.append(mul(-1, terms[0]))
    rng.shuffle(terms)
    return terms


@pytest.mark.parametrize("seed", range(30))
def test_add_mul_diff_match_sympy_exactly(seed):
    sympy = pytest.importorskip("sympy")
    sym = {X: sympy.Symbol("x"), p0: sympy.Symbol("p0"), p1: sympy.Symbol("p1"),
           p2: sympy.Symbol("p2"), p3: sympy.Symbol("p3")}

    def ours(e):
        return to_sympy(e, sympy, sym[X], lambda k: sym[jet(k)])

    def same(e, expected):
        assert sympy.expand(ours(e) - expected) == 0, (render(e), expected)
        assert (e is ZERO) == (sympy.expand(expected) == 0), render(e)

    rng = random.Random(seed)
    a, b = _oracle_terms(rng), _oracle_terms(rng)
    sa, sb = add(*a), add(*b)
    same(sa, sympy.Add(*map(ours, a)))
    same(add(sa, mul(-1, sa)), 0)
    same(mul(sa, sb), ours(sa) * ours(sb))
    c = _oracle_coeff(rng)
    same(mul(c, sa, b[0]), sympy.Rational(c.numerator, c.denominator) * ours(sa) * ours(b[0]))
    for v in (X, p1, p2):
        same(diff(sa, v, 2), sympy.diff(ours(sa), sym[v], 2))
        same(diff(mul(sa, sb), v), sympy.diff(ours(sa) * ours(sb), sym[v]))
    for e in (sa, mul(sa, sb)):
        for t in (e.terms if isinstance(e, Sum) else (e,)):
            n, d = t._flat[:2]
            assert d >= 1 and math.gcd(n, d) == 1

    def d_m(m, expr):
        # D_m = d/dx + sum_{j=1..m} p_j d/dp_{j-1}, built in sympy
        return sympy.diff(expr, sym[X]) + sum(
            sym[jet(j)] * sympy.diff(expr, sym[jet(j - 1)]) for j in range(1, m + 1))

    # the Euler operator's accumulators, with a pair (a, sb) in the last and
    # a scale, whose coefficient is a fraction, over both: terms over mixed
    # denominators, steps and pairs that cancel and terms that share their
    # other factors meet in them
    a = mul(c, p2)
    scale = mul(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), 12),
                rng.choice(_ORACLE_FACTORS))

    def e_mn(m, n, expr):
        # E_m^n = sum_{k=0..n} (-1)^k D_m^k d/dp_k, built in sympy
        out = 0
        for k in range(n + 1):
            term = sympy.diff(expr, sym[jet(k)])
            for _ in range(k):
                term = d_m(m, term)
            out += (-1) ** k * term
        return out

    for m in range(4):
        same(total_derivative(m, sa), d_m(m, ours(sa)))
        for n in range(3):
            same(symexpr._euler(m, n, sa, ((a, sb),), scale),
                 ours(scale) * (e_mn(m, n, ours(sa)) + ours(a) * ours(sb)))


def test_fraction_coefficients_that_cancel_to_integers():
    s = add(mul(Fraction(1, 2), p1), mul(Fraction(3, 2), p1))
    assert s is mul(2, p1) and render(s) == "2*p1"
    prod = mul(Fraction(2, 3), add(mul(Fraction(3, 2), p1), mul(Fraction(3, 4), X)))
    assert render(prod) == "p1 + 1/2*x"
    # each term's coprime pair, and the terms as one list per denominator
    assert [u._flat[:2] for u in prod.terms] == [(1, 1), (1, 2)]
    assert symexpr._flats(prod) == [[1, (1, 1, _pack((0, 0, 1)), ())], [2, (1, 2, _pack((1,)), ())]]
    # a sum of fractions that comes out integral: the built term caches the
    # pair (2, 1)
    u = add(mul(Fraction(1, 2), X, jet(9), jet(11)), mul(Fraction(3, 2), X, jet(9), jet(11)))
    assert u is mul(2, X, jet(9), jet(11))
    assert u._flat[:2] == (2, 1)
    assert all(type(v) is Fraction for v in (symexpr._term(2, 1, 0, ()).value, Rat(Fraction(7, 3)).value))
    # 2 * 1/2 drops the head: the derivative is the bare atom
    assert diff(mul(Fraction(1, 2), pow_int(p1, 2)), p1) is p1
    assert render(mul(Fraction(3, 7), Fraction(14, 3), exp(p1))) == "2*exp(p1)"


def test_substitute_rebuilds_each_shared_node_once(monkeypatch):
    # e_k = sin(e_(k-1)) + cos(e_(k-1)) has 2^k paths to p2 but 3k + 1
    # distinct nodes, 3k of them composite
    e, want = p2, p1
    for _ in range(24):
        e, want = add(sin(e), cos(e)), add(sin(want), cos(want))
    nodes = 3 * 24 + 1
    calls = []
    rebuild = symexpr._rebuild

    def counting(n, f):
        calls.append(n)
        if len(calls) > 10 * nodes:
            raise AssertionError("substitute rebuilt a shared node again")
        return rebuild(n, f)

    monkeypatch.setattr(symexpr, "_rebuild", counting)
    assert substitute(e, {p2: p1}) is want
    assert len(calls) == len(set(calls)) == nodes - 1
