"""Correctness oracles that share no code with varmult.

Expressions arrive as varmult's JSON trees ({"op": ..., "args": [...]} with
{"const"|"var"|"jet"} leaves) or as the plain text the CLI prints, which
`parse_text` reads into the same trees.  This module differentiates trees
itself and evaluates them in mpmath at 40 digits over truncated power
series, with Gauss-Legendre quadrature for opaque integrals; nothing goes
through varmult's kernel, `jetops` or its float evaluator, and f is
evaluated from its tree (sympy cannot even parse the 150 kB text of the
largest f).

* `r_is_constant`: the recovered exponent R differs from the generating
  exponent R_true by a constant (same value of R - R_true at three points);
* `el_identity_holds`: E[L] = rho * (u^(2n) - f) along a rational polynomial
  path u at a rational point, with E[L] = sum_k (-1)^k (d/dx)^k (dL/dp_k
  along u);
* `witness_is_nonzero`: a rejection's witness, re-evaluated at its reported
  point, is not zero.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40
#: Gauss-Legendre nodes for opaque integrals (exact to degree 2*QUAD_NODES-1)
QUAD_NODES = 40
#: relative size below which a high-precision value counts as zero
ZERO_REL = mpmath.mpf("1e-20")

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d*)?)|(Int|exp|log|sin|cos|x|p\d+)|(.))")


# ---------------------------------------------------------------------------
# Text -> tree
# ---------------------------------------------------------------------------


def parse_text(text: str) -> dict:
    """Read varmult's plain expression syntax into a JSON tree."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            break
        pos = m.end()
        num, ident, sym = m.groups()
        if num is not None:
            toks.append(("num", num))
        elif ident is not None:
            toks.append(("id", ident))
        elif sym.strip():
            toks.append(("sym", sym))
    if text[pos:].strip():
        raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
    toks.append(("end", ""))
    p = _TextParser(toks)
    tree = p.expr()
    if p.peek() != ("end", ""):
        raise ValueError(f"trailing {p.peek()[1]!r}")
    return tree


def _const(v: Fraction) -> dict:
    return {"const": str(v)}


class _TextParser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, sym=None):
        t = self.toks[self.i]
        if sym is not None and t != ("sym", sym):
            raise ValueError(f"expected {sym!r}, got {t[1]!r}")
        self.i += 1
        return t

    def expr(self) -> dict:
        terms = [self.term()]
        while self.peek() in (("sym", "+"), ("sym", "-")):
            if self.take()[1] == "-":
                terms.append({"op": "prod", "args": [_const(-1), self.term()]})
            else:
                terms.append(self.term())
        return terms[0] if len(terms) == 1 else {"op": "sum", "args": terms}

    def term(self) -> dict:
        factors = [self.factor()]
        while self.peek() in (("sym", "*"), ("sym", "/")):
            if self.take()[1] == "/":
                factors.append({"op": "pow", "args": [self.factor(), _const(-1)]})
            else:
                factors.append(self.factor())
        return factors[0] if len(factors) == 1 else {"op": "prod", "args": factors}

    def factor(self) -> dict:
        if self.peek() == ("sym", "-"):
            self.take()
            return {"op": "prod", "args": [_const(-1), self.factor()]}
        base = self.atom()
        if self.peek() == ("sym", "^"):
            self.take()
            sign = -1 if self.peek() == ("sym", "-") else 1
            if sign < 0:
                self.take()
            kind, digits = self.take()
            if kind != "num" or not digits.isdigit():
                raise ValueError("exponent must be an integer")
            return {"op": "pow", "args": [base, _const(sign * int(digits))]}
        return base

    def atom(self) -> dict:
        kind, text = self.take()
        if kind == "num":
            return _const(Fraction(text))
        if kind == "sym" and text == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind == "id":
            if text == "x":
                return {"var": "x"}
            if text[0] == "p":
                return {"jet": int(text[1:])}
            self.take("(")
            arg = self.expr()
            if text == "Int":
                self.take(",")
                var = self.atom()
                self.take(")")
                return {"op": "int", "args": [arg, var]}
            self.take(")")
            return {"op": text, "args": [arg]}
        raise ValueError(f"unexpected {text!r}")


# ---------------------------------------------------------------------------
# Trees: derivative, and evaluation over truncated power series
# ---------------------------------------------------------------------------


def _leaf_name(t: dict) -> str:
    return "x" if "var" in t else f"p{t['jet']}"


def _names(t: dict) -> set:
    if "const" in t:
        return set()
    if "var" in t or "jet" in t:
        return {_leaf_name(t)}
    return set().union(*(_names(a) for a in t["args"]))


def _sum(args: list) -> dict:
    args = [a for a in args if a != _ZERO]
    if not args:
        return _ZERO
    return args[0] if len(args) == 1 else {"op": "sum", "args": args}


def _prod(args: list) -> dict:
    if _ZERO in args:
        return _ZERO
    return args[0] if len(args) == 1 else {"op": "prod", "args": args}


_ZERO = {"const": "0"}


def derivative(t: dict, v: str) -> dict:
    """Partial derivative of a tree by the variable named v.  Int(g, w) is
    the integral over w from 0, so d/dw Int(g, w) = g and, for v != w,
    d/dv Int(g, w) = Int(dg/dv, w)."""
    if "const" in t or v not in _names(t):
        return _ZERO
    if "var" in t or "jet" in t:
        return {"const": "1"}
    op, args = t["op"], t["args"]
    if op == "sum":
        return _sum([derivative(a, v) for a in args])
    if op == "prod":
        return _sum([_prod(args[:i] + [derivative(a, v)] + args[i + 1:])
                     for i, a in enumerate(args)])
    if op == "pow":
        m = int(Fraction(args[1]["const"]))
        return _prod([{"const": str(m)},
                      {"op": "pow", "args": [args[0], {"const": str(m - 1)}]},
                      derivative(args[0], v)])
    if op == "int":
        if _leaf_name(args[1]) == v:
            return args[0]
        return {"op": "int", "args": [derivative(args[0], v), args[1]]}
    inner = derivative(args[0], v)
    outer = {"exp": t,
             "log": {"op": "pow", "args": [args[0], {"const": "-1"}]},
             "sin": {"op": "cos", "args": args},
             "cos": {"op": "prod", "args": [{"const": "-1"},
                                            {"op": "sin", "args": args}]}}[op]
    return _prod([outer, inner])


# A series is a list [a_0, ..., a_K] of mpf: a_0 + a_1 h + ... + a_K h^K.

def _s_mul(a: list, b: list) -> list:
    return [mpmath.fsum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _s_inv(a: list) -> list:
    if a[0] == 0:
        raise ZeroDivisionError("division by zero")
    c = [1 / a[0]]
    for m in range(1, len(a)):
        c.append(-mpmath.fsum(a[i] * c[m - i] for i in range(1, m + 1)) / a[0])
    return c


def _s_pow(a: list, m: int) -> list:
    base = _s_inv(a) if m < 0 else a
    out = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(a) - 1)
    for _ in range(abs(m)):
        out = _s_mul(out, base)
    return out


def _s_exp(a: list) -> list:
    b = [mpmath.exp(a[0])]
    for m in range(1, len(a)):
        b.append(mpmath.fsum(i * a[i] * b[m - i] for i in range(1, m + 1)) / m)
    return b


def _s_log(a: list) -> list:
    if a[0] <= 0:
        raise ValueError("log of a nonpositive value")
    b = [mpmath.log(a[0])]
    for m in range(1, len(a)):
        b.append((a[m] - mpmath.fsum(i * b[i] * a[m - i] for i in range(1, m)) / m) / a[0])
    return b


def _s_sincos(a: list) -> tuple[list, list]:
    s, c = [mpmath.sin(a[0])], [mpmath.cos(a[0])]
    for m in range(1, len(a)):
        s.append(mpmath.fsum(i * a[i] * c[m - i] for i in range(1, m + 1)) / m)
        c.append(-mpmath.fsum(i * a[i] * s[m - i] for i in range(1, m + 1)) / m)
    return s, c


_GL: dict = {}


def _gauss_legendre() -> list:
    """Gauss-Legendre nodes and weights on [0, 1] at the working precision."""
    key = mpmath.mp.prec
    if key not in _GL:
        xs, ws = mpmath.mp.gauss_quadrature(QUAD_NODES, "legendre")
        _GL[key] = [((x + 1) / 2, w / 2) for x, w in zip(xs, ws)]
    return _GL[key]


def evaluate_series(tree: dict, env: dict, order: int) -> tuple[list, mpmath.mpf]:
    """Truncated power series (`order` coefficients) of `tree` when each
    variable is the series env[name], and the largest |constant
    coefficient| of any subterm.

    Int(g, v) = V * integral over s in [0, 1] of g(v = V s), and
    Int(Int(g, v), v) = V^2 * integral of (1 - s) g(v = V s), with V the
    series of v; the integral over s is Gauss-Legendre quadrature of the
    series-valued integrand, coefficient by coefficient."""
    scale = [mpmath.mpf(0)]

    def ev(t, env):
        if "const" in t:
            c = Fraction(t["const"])
            v = [mpmath.mpf(c.numerator) / c.denominator] + [mpmath.mpf(0)] * (order - 1)
        elif "var" in t or "jet" in t:
            v = env[_leaf_name(t)]
        else:
            op, args = t["op"], t["args"]
            if op == "sum":
                parts = [ev(a, env) for a in args]
                v = [mpmath.fsum(p[m] for p in parts) for m in range(order)]
            elif op == "prod":
                v = ev(args[0], env)
                for a in args[1:]:
                    v = _s_mul(v, ev(a, env))
            elif op == "pow":
                v = _s_pow(ev(args[0], env), int(Fraction(args[1]["const"])))
            elif op == "int":
                v = _s_integral(args[0], _leaf_name(args[1]), env)
            elif op == "exp":
                v = _s_exp(ev(args[0], env))
            elif op == "log":
                v = _s_log(ev(args[0], env))
            else:
                v = _s_sincos(ev(args[0], env))[op == "cos"]
        if abs(v[0]) > scale[0]:
            scale[0] = abs(v[0])
        return v

    def _s_integral(g, var, env):
        upper = env[var]
        kernel = "op" in g and g["op"] == "int" and _leaf_name(g["args"][1]) == var
        if kernel:
            g = g["args"][0]
        total = [mpmath.mpf(0)] * order
        for s, w in _gauss_legendre():
            inner = dict(env)
            inner[var] = [s * c for c in upper]
            val = ev(g, inner)
            weight = w * (1 - s) if kernel else w
            total = [t + weight * c for t, c in zip(total, val)]
        factor = _s_mul(upper, upper) if kernel else upper
        return _s_mul(factor, total)

    return ev(tree, env), scale[0]


def evaluate(tree: dict, point: dict) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Value of `tree` at a point (name -> number) and its scale."""
    value, scale = evaluate_series(tree, {k: [_mp(v)] for k, v in point.items()}, 1)
    return value[0], scale


def _mp(v) -> mpmath.mpf:
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def _is_zero_rel(v, *scales) -> bool:
    return abs(v) <= ZERO_REL * max([mpmath.mpf(1)] + [abs(s) for s in scales])


def r_is_constant(r: dict, r_true: dict, n: int) -> bool:
    """R - R_true takes the same value at three rational points."""
    diff = _sum([r, _prod([{"const": "-1"}, r_true])])
    rng = random.Random(1)
    values = []
    for _ in range(3):
        point = {name: Fraction(rng.randint(-9, 9), 10) for name in
                 ["x"] + [f"p{k}" for k in range(n + 1)]}
        values.append(evaluate(diff, point))
    v0, s0 = values[0]
    return all(_is_zero_rel(v - v0, s, s0) for v, s in values[1:])


def _path(n: int) -> tuple[list[Fraction], Fraction]:
    """A fixed rational polynomial path u = sum_i a_i x^i / i! of degree
    2n + 1 with |a_i| <= 1/2, as its coefficients, and a rational point
    x0 in (0, 1/2]: every jet of u at x0 is of order one, so exp(-R) and
    f stay of moderate size there."""
    rng = random.Random(n)
    coeffs = [Fraction(rng.randint(-4, 4), 8 * math.factorial(i)) for i in range(2 * n + 2)]
    return coeffs, Fraction(rng.randint(1, 4), 8)


def el_identity_holds(L: dict, rho: dict, f: dict, n: int) -> bool:
    """E[L] = rho * (u^(2n) - f) along a rational polynomial path u.

    E[L] = sum_k (-1)^k (d/dx)^k (dL/dp_k along u): dL/dp_k is taken on the
    tree, and its Taylor coefficients at x0 along u by series arithmetic
    (coefficient k times k! is the k-th derivative)."""
    coeffs, x0 = _path(n)
    h = path_series(coeffs, x0, 2 * n, n)
    terms = []
    for k in range(n + 1):
        series, _ = evaluate_series(derivative(L, f"p{k}"), h, n + 1)
        terms.append((-1) ** k * series[k] * math.factorial(k))
    lhs = mpmath.fsum(terms)
    point = {name: s[0] for name, s in h.items()}
    f_value, f_scale = evaluate(f, point)
    rho_value, rho_scale = evaluate(rho, point)
    rhs = rho_value * (point[f"p{2 * n}"] - f_value)
    return _is_zero_rel(lhs - rhs, rhs, rho_value * f_scale, *terms)


def path_series(coeffs: list[Fraction], x0: Fraction, jets: int,
                      order: int) -> dict:
    """Series in h of x0 + h and of u^(j)(x0 + h), j <= jets, to h^order."""
    poly = [_mp(c) for c in coeffs]
    out = {"x": [_mp(x0), mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)}
    for j in range(jets + 1):
        # u^(j)(x0 + h) = sum_i u^(j+i)(x0) h^i / i!
        out[f"p{j}"] = [_poly_derivative_at(poly, j + i, x0) / math.factorial(i)
                        for i in range(order + 1)]
    return out


def _poly_derivative_at(poly: list, j: int, x0: Fraction) -> mpmath.mpf:
    x = _mp(x0)
    out = mpmath.mpf(0)
    for i in range(len(poly) - 1, j - 1, -1):
        out = out * x + poly[i] * math.perm(i, j)
    return out


def witness_is_nonzero(witness: dict, point: dict) -> bool:
    """The witness is not zero at its reported point (names -> floats)."""
    value, scale = evaluate(witness, {name: Fraction(v) for name, v in point.items()})
    return not _is_zero_rel(value, scale)


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def check_op(op: dict, rec: dict) -> tuple[bool, list[str]]:
    """Judge one operation's output against its oracles.

    Returns (failed, problems): `failed` when the verdict differs from the
    one known by hand; `problems` lists every oracle the output did not
    satisfy, for operations whose verdict is right."""
    expect, got = op["expect"], rec["outcome"]
    if got != expect:
        return True, []
    problems = []
    n = op["n"]
    if "code" in rec and rec["code"] != (0 if got == "accepted" else 1):
        problems.append(f"exit code {rec['code']} for {got}")

    def tree(key):
        v = rec[key]
        return parse_text(v) if isinstance(v, str) else v

    f = rec.get("f", op.get("f"))
    if got == "accepted":
        r_true = rec.get("R_true", op.get("R_true"))
        if not r_is_constant(tree("R"), r_true, n):
            problems.append("R - R_true is not constant")
        if not el_identity_holds(tree("L"), tree("rho"), f, n):
            problems.append("E[L] != rho * (u^(2n) - f) along the path")
    else:
        try:
            nonzero = witness_is_nonzero(tree("witness"), rec["point"])
        except KeyError as exc:
            nonzero = False
            problems.append(f"witness has a variable the point lacks: {exc}")
        if not nonzero:
            problems.append(f"witness at {rec['step']} is zero at its point")
    if "fels" in rec and rec["fels"] != (got == "accepted"):
        problems.append(f"fels says variational_candidate={rec['fels']}, "
                        f"check says {got}")
    return False, problems
