"""Exact symbolic kernel for jet-space expressions.

The coordinates are ``x`` and the jet variables ``p0, p1, p2, ...``, all
treated as mutually independent.  Expressions are immutable, interned and
canonical by construction: sums and products are flattened, constants are
folded into exact rationals, products are fully distributed over sums, and
exponentials are kept split so that ``exp(a)*exp(b)`` and ``exp(a + b)``
reach the same normal form.  On top of the algebra the module provides
derivations and the Euler-Lagrange operators built from them, definite
antiderivatives from 0 (with an opaque integral node as fallback),
parsing/printing, floating evaluation with Gauss-Legendre quadrature for
opaque integrals, and a probabilistic zero test, exact on the forms that
the canonical form shows to be nonzero (`_nonzero_by_form`).

Sums, products, derivations and antiderivatives compute on flat terms, one
tuple (n, d, mono, others): an int numerator over an int denominator, a
monomial, other factors.  Every node but a sum carries its flat term from
construction, and a rational or a product is interned under it, so its term
and its intern key are one tuple; the kernel builds a node only for each
term that survives.  A monomial is one int, the packed exponent vector
m = sum of e_i * B^i over the positions i (x at 0, p_k at k + 1), so that
multiplying two monomials is one integer add.  A term's exponents are
otherwise read from its atom factors (x, the jets and their powers), which
`_term` places right after the coefficient.  A monomial is decoded only the
first time it is met (`_mono_atoms`): an index (`_MONOS`) keeps its atom
factors as one tuple, which every later product of the monomial and the
product rule on a flat term (`_rule`) take, and holds no product.
B = 2^64 + 0x9E3779B97F4A7C15 is odd:
Python hashes an int as its value mod 2^61 - 1, where 2^64 is 8, so with
B = 2^64 all of x^(8a) * p0^(1000-a) would share one hash.  The digits e_i
are balanced, so negative exponents pack, and the packing is one-to-one
while every |e_i| < B/2, about 2^63.6.  A node's exponents are below
`MAX_ATOM_EXPONENT` = 2^31 (`pow_int` and `_term` refuse more), and an
accumulator's monomial is the sum of the node monomials of one product: the
factors of one `mul` call (1000 for a power of a sum), or a few terms and a
derivation's steps of 1 (`_rule`), one per Horner step of an Euler operator
(`_euler`), so at most MAX_JET_INDEX + 1 of them, and then a pair's product
and a scale.  So no monomial's digit nears B/2.

Work that many terms share is done once per structure.  A set of terms is
either the nodes' own flat terms or an accumulator, which maps each
other-factor tuple to a dict from packed monomial to numerator over one
denominator, so that no (mono, others) pair is built or hashed per term;
`_gather` turns flat terms into an accumulator and `_finish` an accumulator
into a node.  The kernel's one product of terms (`_times_sum`) multiplies
an accumulator by flat terms, each over its own denominator: it merges two
other-factor tuples once (`_times`, memoized per pair) and multiplies all
the terms of the one by a term of the other in one loop on int keys.  The
one product-rule pass (`_rules`), which `diff` and
`jetops.total_derivative` (`_derive`) and the Euler-Lagrange operators
(`_euler`) share, takes accumulators, differentiates the other factors of
the terms it derives once per tuple of them into flat terms
(`_derive_others`), adds the product rule on their monomials (`_rule`)
into that tuple's terms and multiplies them all by each term of the
tuple's derivative, so the derivation memo holds result nodes only,
nothing per term or per tuple.  An Euler operator keeps its Horner steps
and partial derivatives in that pass, each step's accumulator the next
one's input, keeps the last one in a slot (`_EULER_SLOT`) from which a call
on the same operand starts, sums the products of its pairs into a copy of
it, which a scale multiplies once per tuple, and builds only its result.
Evaluation compiles an expression once into an instruction list
(`_compile`) that each point runs in one loop (`_run`).
The atoms (x and the jets) a node holds are one int bit mask (`_atoms`),
the OR of its children's, so that no table keeps atom sets; the products of
one atom set share one int (`_MASKS`).  Every node but a sum holds its sort
key (`sort_key`) from construction, made from its children's keys, and a
sum's is built from its terms' keys when asked for: nothing writes a node
after it is published.

Text is read in one pass: a recursive-descent parser takes each token from
one regular expression (`_TOKEN`) as it goes, with one token of lookahead
and no token list, and multiplies the factors of a term with one `mul` call
unless one of them is a sum.  Printing, compiling and substituting loop
once over each distinct node, children first, on an explicit stack
(`_walk`); printing builds no node, and a negative term of a sum prints as
" - " and its text past the sign.

Nodes are hash-consed: every node is interned on construction, so two
structurally equal trees are the same object, and node equality and hashing
are object identity.  Every node is canonical: a node-class call is its
canonical constructor (`Sum(terms)` is `add(*terms)`, `Pow(b, n)` is
`pow_int(b, n)`, `AntiDeriv(g, v)` is `antideriv(g, v)`; see `_MAKE`), so it
may return another class (`Sum((p1, p1))` is `2*p1`, a `Prod`).  Every
interned node is a fixed point of its own class call, so unpickling, which
calls the class, returns it.

The top-level calls (`parse` here, `construct` and `verify_triple` in
`varcore`, `check` in `checker`) pause the cyclic garbage collector while
they run (`_collector_paused`), and the building blocks (`add`, `mul`,
`diff`, ...) do not, since around calls that short the pause costs more
than the collections it saves.  The pause is safe: the kernel makes no
cyclic garbage, since every node it builds is held by the intern table and
its temporaries are freed by reference counting, so a collection during
such a call frees nothing and only rescans nodes that never die.  The one
cycle it makes, a node whose flat term holds the node itself (an
exponential, log, sine, cosine, integral or power of a non-atom), is never
garbage: it lives as long as the intern table.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache, reduce, wraps
from operator import attrgetter

from ._record import Record

__all__ = [
    "MAX_ATOM_EXPONENT",
    "MAX_JET_INDEX",
    "MAX_PARSE_DEPTH",
    "MAX_RATIONAL_DIGITS",
    "MAX_SUM_POWER",
    "ExprError",
    "ParseError",
    "DomainError",
    "Expr",
    "Rat",
    "VarX",
    "Jet",
    "Sum",
    "Prod",
    "Pow",
    "Exp",
    "Log",
    "Sin",
    "Cos",
    "AntiDeriv",
    "X",
    "ZERO",
    "ONE",
    "jet",
    "rational",
    "as_expr",
    "add",
    "mul",
    "pow_int",
    "exp",
    "log",
    "sin",
    "cos",
    "diff",
    "antideriv",
    "substitute",
    "simplify",
    "max_jet",
    "free_jets",
    "parse",
    "render",
    "evaluate",
    "is_zero",
    "sort_key",
    "ZeroTestConfig",
    "BudgetExceeded",
    "ZeroVerdict",
    "ZeroStructural",
    "ZeroNumeric",
    "NonZero",
    "Inconclusive",
]

#: Largest admissible jet index.  High enough for any reasonable equation
#: order while catching runaway index arithmetic early.
MAX_JET_INDEX = 64

#: Most decimal digits in the numerator or the denominator of a rational
#: constant, and in an exponent: a longer one is an `ExprError` (a
#: `ParseError` in text), raised by `pow_int` before it computes a power.
#: Python converts an int of up to 4300 digits to text by default, so every
#: constant prints.
MAX_RATIONAL_DIGITS = 4000
_RAT_BOUND = 10 ** MAX_RATIONAL_DIGITS

#: Largest exponent of a positive power of a sum, which `pow_int` expands: a
#: larger one is an `ExprError` (exit 2), raised before any work is done.
MAX_SUM_POWER = 1000

#: Bound on the exponent of x or a jet in a term: a power at or past it in
#: absolute value is an `ExprError` (exit 2), so that monomials pack exactly.
MAX_ATOM_EXPONENT = 2**31

class ExprError(ValueError):
    """Invalid expression construction or operation."""


class ParseError(ExprError):
    """Syntax error in expression text, with the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Floating evaluation left the domain (log of a nonpositive value,
    division by zero, overflow)."""


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes.  Immutable and interned, so
    equality and hashing are identity.  Build nodes with the module-level
    constructors (`add`, `mul`, `exp`, ...), the arithmetic operators, or a
    class call, which is the class's canonical constructor (`_MAKE`); the
    fields are filled once, by `_init`, when the node is first made."""

    # _flat: a non-Sum node as a flat term (n, d, mono, others), set by
    # `_init` (a Sum's is None; `_term`, the only maker of rationals and
    # products, hands each the key it interns the node under, so that key
    # and term are one tuple); _key: a non-Sum node's
    # sort key, set by `_init` from its children's (a Sum's is None and
    # `sort_key` builds it; a product's is one flat tuple, (9, *factor
    # keys)); _atoms: the atoms the node holds, as a bit mask with bit i for
    # the atom at monomial position i (`_POS`), so that the bit order is the
    # `sort_key` order
    __slots__ = ("_key", "_atoms", "_flat")
    #: the attributes that are the arguments of a class call, in order
    _args: tuple = ()

    def __new__(cls, *args):
        return _MAKE[cls](*args)

    # a node is immutable and unique, so a copy is the node itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # unpickling calls the class, whose canonical constructor has every node
    # as a fixed point: in one process pickle.loads(pickle.dumps(e)) is e
    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._args)

    def __repr__(self) -> str:
        return render(self)

    @property
    def free_atoms(self) -> frozenset:
        """The atoms (x and the jets) occurring syntactically."""
        return frozenset(_atom_list(self._atoms))

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "Expr":
        return add(self, mul(-1, other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return add(other, mul(-1, self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ExprLike) -> "Expr":
        return mul(self, pow_int(other, -1))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return mul(other, pow_int(self, -1))

    def __pow__(self, n: int) -> "Expr":
        return pow_int(self, n)

    def __neg__(self) -> "Expr":
        return mul(-1, self)


ExprLike = Expr | int | Fraction


class Rat(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)
    _args = __slots__

    def _init(self, flat: tuple):
        self.value = value = Fraction(flat[0], flat[1])
        self._atoms = 0
        # the float settles almost every comparison in C; float rounding is
        # monotone, so only a float tie falls through to the exact value
        self._key = (0, _float(value), value)
        self._flat = flat


class VarX(Expr):
    """The independent variable x."""

    __slots__ = ()

    def _init(self):
        self._atoms = 1
        self._key = (1,)
        self._flat = (1, 1, 1, ())


class Jet(Expr):
    """The jet variable p_k, standing for the k-th derivative of the unknown."""

    __slots__ = ("index",)
    _args = __slots__

    def _init(self, index: int):
        self.index = index
        self._atoms = 2 << index
        self._key = (2, index)
        self._flat = (1, 1, _UNIT[index + 1], ())


class Sum(Expr):
    __slots__ = ("terms",)
    _args = __slots__

    def _init(self, terms: tuple):
        self.terms = terms
        m = 0
        for t in terms:
            m |= t._atoms
        self._atoms = m
        self._key = None
        self._flat = None


class Prod(Expr):
    __slots__ = ("factors",)
    _args = __slots__

    def _init(self, factors: tuple, flat: tuple):
        self.factors = factors
        atoms = 0
        for f in factors:
            atoms |= f._atoms
        self._atoms = _MASKS.setdefault(atoms, atoms)
        # a product's factors are never sums, so each holds its key; the key
        # is one flat tuple, which orders as (9, tuple of the factor keys)
        self._key = (9, *map(_key_of, factors))
        self._flat = flat


class Pow(Expr):
    """Integer power with exponent outside {0, 1}."""

    __slots__ = ("base", "exponent")
    _args = __slots__

    def _init(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent
        self._atoms = base._atoms
        self._key = (3, sort_key(base), exponent)
        i = _POS.get(base)
        self._flat = (1, 1, 0, (self,)) if i is None else (1, 1, exponent * _UNIT[i], ())


class _Unary(Expr):
    __slots__ = ("arg",)
    _args = __slots__
    _tag = "?"

    def _init(self, arg: Expr):
        self.arg = arg
        self._atoms = arg._atoms
        self._key = (self._rank, sort_key(arg))
        self._flat = (1, 1, 0, (self,))


class Exp(_Unary):
    __slots__ = ()
    _tag, _rank = "exp", 4


class Log(_Unary):
    __slots__ = ()
    _tag, _rank = "log", 5


class Sin(_Unary):
    __slots__ = ()
    _tag, _rank = "sin", 6


class Cos(_Unary):
    __slots__ = ()
    _tag, _rank = "cos", 7


class AntiDeriv(Expr):
    """Opaque definite integral of `integrand` over `var` from 0 to the
    current value of `var`.  Only built when no closed-form antiderivative
    rule applies; differentiates by the fundamental theorem and evaluates by
    quadrature."""

    __slots__ = ("integrand", "var")
    _args = __slots__

    def _init(self, integrand: Expr, var: Expr):
        self.integrand = integrand
        self.var = var
        self._atoms = integrand._atoms | var._atoms
        self._key = (8, sort_key(integrand), var._key)
        self._flat = (1, 1, 0, (self,))


def _float(q: Fraction) -> float:
    """The float of q, an infinity of q's sign where that overflows."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


#: a node's sort key, for a node that is not a sum
_key_of = attrgetter("_key")


def sort_key(e: Expr):
    """Deterministic total order on canonical expressions: the key that every
    node but a sum holds from construction, or a sum's, built from its terms'
    keys on each call (once per slope, function argument or integrand made
    from the sum), so that no node is written after it is published."""
    k = e._key
    return (10, tuple(map(_key_of, e.terms))) if k is None else k


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

_INTERN: dict = {}


def _collector_paused(fn):
    """`fn` with the cyclic garbage collector paused for the call, for the
    top-level calls (`parse`, `construct`, `check`, `verify_triple`): the
    kernel makes no cyclic garbage, so each pass over the nodes they build,
    which never die, frees nothing.  A call made while the collector is off
    (a nested call, or a caller who turned it off) leaves it alone."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _intern(key, cls, *args) -> Expr:
    """The one node of `key`, for the canonical constructors only: a new
    node is made past the class's `__new__`, so `args` must already be
    canonical.  A composite's key is `(cls,) + args`; a rational's and a
    product's is its flat term, and `_term` makes a new one itself, with
    the one lookup it already did."""
    node = _INTERN.get(key)
    if node is None:
        # setdefault, not a store: of two threads building the same node,
        # both get the one that was inserted first, which `_init` completed
        node = object.__new__(cls)
        node._init(*args)
        node = _INTERN.setdefault(key, node)
    return node


def rational(value) -> Expr:
    """Exact rational constant node."""
    if value.__class__ is int:
        return _term(value, 1, 0, ())
    v = value if isinstance(value, Fraction) else Fraction(value)
    return _term(v.numerator, v.denominator, 0, ())


X = _intern(("x",), VarX)


def jet(k: int) -> Expr:
    """The jet variable p_k."""
    # a bool is an int that would be interned under the key of p0 or p1
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ExprError(f"jet index must be a nonnegative integer, got {k!r}")
    if k > MAX_JET_INDEX:
        raise ExprError(f"jet index {k} exceeds the maximum {MAX_JET_INDEX}")
    return _ATOMS[k + 1]


#: the packed monomial B^i of the atom at each position i, and the step that
#: D_m adds to a monomial for each: x^k -> x^(k-1), p_j^k -> p_j^(k-1) p_(j+1)
_BASE = (1 << 64) + 0x9E3779B97F4A7C15
_UNIT = tuple(_BASE**i for i in range(MAX_JET_INDEX + 2))
_STEP = (-1, *[_UNIT[i + 1] - _UNIT[i] for i in range(1, MAX_JET_INDEX + 1)])

#: the atom at each monomial position: x, then p_0 to p_MAX_JET_INDEX, and
#: the position of each atom
_ATOMS = (X, *[_intern(("j", k), Jet, k) for k in range(MAX_JET_INDEX + 1)])
_POS = {a: i for i, a in enumerate(_ATOMS)}


def _atom_list(m: int) -> list:
    """The atoms of the bit mask m, in position order."""
    return [_ATOMS[i] for i in range(m.bit_length()) if m >> i & 1]


def as_expr(v: ExprLike) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rational(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr (use Fraction for exactness)")


# ---------------------------------------------------------------------------
# Canonical constructors
# ---------------------------------------------------------------------------


# A canonical non-Sum term is handled as one flat term, the tuple
# (n, d, mono, others): its rational coefficient n/d, as coprime ints with
# d > 0; its monomial, the exponents of x, p0, p1, ... packed into one int
# (see the module docstring), so that multiplying monomials adds ints; and
# its other factors in canonical order.  Every non-Sum node carries its flat
# term from construction (`_flat`, set by `_init`), so no routine walks a
# product's factors to recover it, and a node is complete before it is
# published in the intern table.  A rational or a product is interned under
# its flat term, its only key, which is the node's `_flat` itself, so
# building a term, new or not, is one lookup (`_term`).  No other key is a
# 4-tuple, so the key needs no class; without one, a key of ints and ()
# holds nothing the cyclic collector tracks, and the collector stops
# tracking it.  An integral coefficient is one int.  A set of terms is in
# one of two forms: the nodes' own flat terms, each over its own
# denominator, so that no flat term is copied, or an accumulator, which
# holds like terms summed over one denominator, as a dict from other-factor
# tuple to a dict from monomial to numerator, so that the terms of one tuple
# are read, multiplied and added on int keys, and no (mono, others) pair is
# built per term; the terms a derivation or a product takes are in the same
# form.  Its denominator is the lcm of the denominators of everything that
# enters it, fixed before the first term does, so it is never rescaled, save
# a copy of an Euler operator's Horner pass that its pairs enter (`_euler`).
# There is one conversion each way: `_gather` sums flat terms into an
# accumulator, and `_finish` reduces each surviving numerator once and
# builds only the terms that survive.  `_term` makes a Fraction only for a
# new Rat node: the kernel does no Fraction arithmetic.


#: the atom factors of each monomial `_mono_atoms` has decoded, as one tuple
#: (x and the jets, then their powers, in position order), so that a new
#: product of that monomial (`_term`), or the product rule on a flat term
#: (`_rule`), takes them instead of decoding the monomial again.  It holds
#: no product; like the mask table below, it is safe to clear, at the cost
#: of decoding each monomial once more.
_MONOS: dict[int, tuple] = {}

#: each atom bit mask a product holds, so that products of one atom set share
#: one int: past 256 each mask is an int object of its own, and a few
#: thousand masks serve tens of thousands of products
_MASKS: dict[int, int] = {}


def _mono_atoms(mono: int) -> tuple:
    """The atom factors of the monomial `mono` (x and the jets, then their
    powers, in position order), decoded the first time it is met and read
    from the index (`_MONOS`) after that."""
    atoms = _MONOS.get(mono)
    if atoms is None:
        # the balanced base-B digits of mono are its exponents in position
        # order: a digit k of mono mod B past B - MAX_ATOM_EXPONENT is the
        # exponent k - B
        fs = []
        pows = []
        i, m = 0, mono
        while m:
            m, k = divmod(m, _BASE)
            if k:
                if k >= MAX_ATOM_EXPONENT:
                    if k <= _BASE - MAX_ATOM_EXPONENT:
                        raise ExprError(f"atom power with an exponent of magnitude {MAX_ATOM_EXPONENT} or more")
                    m, k = m + 1, k - _BASE
                a = _ATOMS[i]
                if k == 1:
                    fs.append(a)
                else:
                    pows.append(_intern((Pow, a, k), Pow, a, k))
            i += 1
        # threads racing on one monomial store equal tuples
        atoms = _MONOS.setdefault(mono, (*fs, *pows))
    return atoms


def _term(n: int, d: int, mono: int, others: tuple) -> Expr:
    """The canonical term of the flat term (n, d, mono, others), for coprime
    ints n and d > 0 (n = 0 only for the constant 0); inverts the node's
    `_flat`.  A rational or a product is interned under its flat term, the
    very tuple it keeps as `_flat`, so an existing one is one lookup, and a
    new one is published under the key that missed, with no second lookup.
    A new rational's digits are bounded (`MAX_RATIONAL_DIGITS`), and only
    it makes a Fraction; a new product holds the coefficient, then x and the
    jets, then their powers, then the others, which is the `sort_key` order,
    and takes its atom factors from the index of monomials (`_mono_atoms`)."""
    key = (n, d, mono, others)
    t = _INTERN.get(key)
    if t is not None:
        return t
    if mono or others:
        atoms = _mono_atoms(mono)
        fs = (_term(n, d, 0, ()), *atoms, *others) if n != 1 or d != 1 else atoms + others
        if len(fs) < 2:
            return fs[0]
        t = object.__new__(Prod)
        t._init(fs, key)
    else:
        if not -_RAT_BOUND < n < _RAT_BOUND or d >= _RAT_BOUND:
            raise ExprError(f"rational constant with more than {MAX_RATIONAL_DIGITS} digits")
        t = object.__new__(Rat)
        t._init(key)
    # of two threads making this node, both get the first one published
    return _INTERN.setdefault(key, t)


ZERO = rational(0)
ONE = rational(1)
_MINUS_ONE = rational(-1)


def _flat_terms(e: Expr) -> list:
    """The flat terms of the canonical `e`: its terms' own `_flat` tuples."""
    return [t._flat for t in e.terms] if e.__class__ is Sum else [e._flat]


def _gather(fts, sign: int = 1) -> tuple[int, dict]:
    """The flat terms `fts`, times `sign`, as (den, {others: {mono:
    numerator}}) over den, the lcm of their denominators, with like terms
    summed: the one conversion of flat terms to an accumulator, which
    `_finish` inverts."""
    den = math.lcm(*[ft[1] for ft in fts])
    acc: dict = {}
    for c, d, m, o in fts:
        if d != den or sign != 1:
            c *= sign * den // d
        monos = acc.get(o)
        if monos is None:
            acc[o] = {m: c}
        else:
            monos[m] = monos.get(m, 0) + c
    return den, acc


def _finish(den: int, acc: dict) -> Expr:
    """The canonical sum of an accumulator {others: {mono: numerator}} over
    `den`: zero numerators drop, and the surviving terms are reduced, built,
    sorted and interned once.  A term that exists, such as an input term of
    `add` that nothing merged with, is found again by `_term`."""
    out = []
    for o, monos in acc.items():
        for m, c in monos.items():
            if not c:
                continue
            if den == 1:
                out.append(_term(c, 1, m, o))
            else:
                g = math.gcd(c, den)
                out.append(_term(c // g, den // g, m, o))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_key_of)
    fs = tuple(out)
    return _intern((Sum, fs), Sum, fs)


def add(*terms: ExprLike) -> Expr:
    """Canonical sum: flattens, folds constants, combines like terms.  Every
    term enters one accumulator by its flat term, and `_finish` builds the
    sum; a term that nothing merged with comes back as the same node."""
    # a canonical sum holds no sum and no 0, so one level flattens it
    fts = []
    for t in terms:
        if not isinstance(t, Expr):
            t = as_expr(t)
        if t.__class__ is Sum:
            fts += [u._flat for u in t.terms]
        elif t is not ZERO:
            fts.append(t._flat)
    return _finish(*_gather(fts))


def _exp_raw(arg: Expr) -> Expr:
    # arg is a canonical nonzero non-Sum term: `exp` passes the terms of a
    # sum or a term other than 0, `_times` a merged exponent that is not 0
    return _intern((Exp, arg), Exp, arg)


def mul(*factors: ExprLike) -> Expr:
    """Canonical product: flattens, folds constants, merges powers and
    exponentials, and distributes over sums.  The factors other than sums
    multiply into one flat term: coefficients and monomials directly, other
    factors through `_times_sum`, the kernel's one product of terms.  A sum
    cancels against a negative power of itself (S * S^-k = S^(1-k)); the
    term is then multiplied by the terms of each remaining sum in turn
    (`_times_sum`), the products are summed as flat terms in one
    accumulator, and only the terms that survive are built."""
    n, d, m, o = 1, 1, 0, ()
    sums = []
    for f in factors:
        if not isinstance(f, Expr):
            f = as_expr(f)
        if f.__class__ is Sum:
            sums.append(f)
            continue
        n1, d1, m1, o1 = f._flat
        if n1 != 1:
            if not n1:
                return ZERO
            n *= n1
        if d1 != 1:
            d *= d1
        m += m1
        if o1:
            o = _times(o, o1) if o else o1
    if d != 1:
        g = math.gcd(n, d)
        n //= g
        d //= g
    if o and sums:
        rest = []
        for s in sums:
            if any(f.__class__ is Pow and f.base is s for f in o):
                # as a factor, s is its own base with exponent 1
                o = _times(o, (s,))
            else:
                rest.append(s)
        sums = rest
    if not sums:
        return _term(n, d, m, o)
    if len(sums) == 1 and n == 1 and d == 1 and not m and not o:
        return sums[0]
    q, acc = d, {o: {m: n}}
    for i, s in enumerate(sums):
        if i:
            # the partial product, its cancelled terms dropped
            acc = {o: {m: c for m, c in monos.items() if c} for o, monos in acc.items()}
        fts = _flat_terms(s)
        den = q * math.lcm(*[ft[1] for ft in fts])
        terms, acc = acc, {}
        _times_sum(acc, den, q, terms, fts)
        q = den
    return _finish(q, acc)


def _times(o0: tuple, o1: tuple) -> tuple:
    """The other factors of the product of two terms with the other factors
    o0 and o1, memoized on the pair (`_MERGES`): factors of a common base
    merge, the integer exponents of a log, sin, cos, integral or slope (a
    power of a sum) add, and so do the coefficients of exponentials of a
    common core, exp(a*k) * exp(b*k) = exp((a + b)*k), as int pairs.  A
    factor whose exponent adds up to 0 drops."""
    key = (o0, o1)
    out = _MERGES.get(key)
    if out is not None:
        return out
    # base -> (exponent numerator, denominator, factor); the base of an
    # exponential is the key (mono, others) of its exponent, which no node
    # equals
    bases: dict = {}
    for f in o0:
        cls = f.__class__
        if cls is Exp:
            a, da, em, eo = f.arg._flat
            bases[em, eo] = (a, da, f)
        elif cls is Pow:
            bases[f.base] = (f.exponent, 1, f)
        else:
            bases[f] = (1, 1, f)
    pieces = []
    for f in o1:
        cls = f.__class__
        if cls is Exp:
            a, da, em, eo = f.arg._flat
            b = (em, eo)
        elif cls is Pow:
            b, a = f.base, f.exponent
        else:
            b, a = f, 1
        hit = bases.pop(b, None)
        if hit is None:
            pieces.append(f)
        elif cls is Exp:
            # a/da + hit: the exponent coefficients add as pairs
            a = a * hit[1] + hit[0] * da
            if a:
                da *= hit[1]
                g = math.gcd(a, da)
                pieces.append(_exp_raw(_term(a // g, da // g, em, eo)))
        else:
            a += hit[0]
            if a:
                pieces.append(b if a == 1 else _intern((Pow, b, a), Pow, b, a))
    pieces.extend(h[2] for h in bases.values())
    pieces.sort(key=_key_of)
    # threads racing on one pair store equal tuples
    return _MERGES.setdefault(key, tuple(pieces))


def _times_sum(acc: dict, den: int, q: int, groups: dict, fts) -> None:
    """Add the product of the terms `groups` {others: {mono: numerator}}
    over `q` with each flat term (n, d, mono, others) of `fts`, each over
    its own denominator d, to the accumulator `acc` over `den`, a multiple
    of q*d for every d: the kernel's one product of terms.  The other
    factors merge (`_times`) once per other-factor tuple of `groups` and
    flat term, and the monomials and numerators of that tuple's terms then
    multiply in one loop on int keys."""
    r = den // q
    for c1, d1, m1, o1 in fts:
        c1 *= r if d1 == 1 else r // d1
        for o0, monos in groups.items():
            others = _times(o0, o1) if o0 and o1 else o0 or o1
            out = acc.get(others)
            if out is None:
                out = acc[others] = {}
            if not m1:
                # a constant monomial: the products share the monomial
                # objects, not a copy of each int
                for m, c in monos.items():
                    out[m] = out.get(m, 0) + c * c1
                continue
            for m, c in monos.items():
                m += m1
                out[m] = out.get(m, 0) + c * c1


def pow_int(base: ExprLike, n: int) -> Expr:
    """Canonical integer power."""
    b = as_expr(base)
    # a plain int skips the ABC check of isinstance(n, Fraction)
    if n.__class__ is not int:
        if isinstance(n, Fraction):
            if n.denominator != 1:
                raise ExprError(f"exponent must be an integer, got {n}")
            n = int(n)
        elif not isinstance(n, int):
            raise ExprError(f"exponent must be an integer, got {n!r}")
    if not -_RAT_BOUND < n < _RAT_BOUND:
        raise ExprError(f"exponent with more than {MAX_RATIONAL_DIGITS} digits")
    if n == 0:
        return ONE
    if n == 1:
        return b
    if isinstance(b, Rat):
        if b.value == 0:
            if n < 0:
                raise ExprError("division by zero")
            return ZERO
        p, q = b.value.numerator, b.value.denominator
        if n < 0:
            p, q, n = (-q, -p, -n) if p < 0 else (q, p, -n)
        # the digits of p^n and q^n, bounded before they are computed (an
        # int compares exactly with a float, however large it is)
        top = max(-p, p, q)
        if top > 1 and n > MAX_RATIONAL_DIGITS / math.log10(top):
            raise ExprError(f"power of {b.value} with more than {MAX_RATIONAL_DIGITS} digits")
        return _term(p ** n, q ** n, 0, ())
    if isinstance(b, Prod):
        return mul(*(pow_int(f, n) for f in b.factors))
    if isinstance(b, Pow):
        return pow_int(b.base, b.exponent * n)
    if isinstance(b, Exp):
        return exp(mul(n, b.arg))
    if isinstance(b, Sum) and n > 0:
        if n > MAX_SUM_POWER:
            raise ExprError(f"power of a sum with an exponent above {MAX_SUM_POWER}")
        # one product: the partial powers stay flat terms in its accumulator
        return mul(*(b,) * n)
    if b.__class__ in (VarX, Jet) and not -MAX_ATOM_EXPONENT < n < MAX_ATOM_EXPONENT:
        raise ExprError(f"atom power with an exponent of magnitude {MAX_ATOM_EXPONENT} or more")
    return _intern((Pow, b, n), Pow, b, n)


def exp(arg: ExprLike) -> Expr:
    """Canonical exponential; a sum in the argument splits into a product of
    single-term exponentials so that products of exponentials stay confluent."""
    a = as_expr(arg)
    if a is ZERO:
        return ONE
    if isinstance(a, Sum):
        return mul(*(_exp_raw(t) for t in a.terms))
    return _exp_raw(a)


def log(arg: ExprLike) -> Expr:
    a = as_expr(arg)
    if a is ONE:
        return ZERO
    if a.__class__ is Rat and a.value <= 0:
        raise ExprError(f"log of the nonpositive constant {a.value}")
    if not a._atoms and a.__class__ is not Rat:
        # a constant such as -exp(1)
        ts = a.terms if a.__class__ is Sum else (a,)
        if (all(f.__class__ is Exp for t in ts for f in t._flat[3])
                and len({t._flat[0] < 0 for t in ts}) == 1):
            # coefficients of one sign times exponentials: the sum has that
            # sign, which evaluation cannot tell once exp overflows
            negative = ts[0]._flat[0] < 0
        else:
            # the value decides, unless it is within rounding of 0; a value
            # that cannot be evaluated, such as an overflow, decides nothing
            scale = _Scale(_EVAL_BUDGET)
            try:
                negative = _run(_compile(a), {}, scale) < -_RTOL * scale.value
            except DomainError:
                raise ExprError(f"log of a constant whose sign cannot be decided: {render(a)}") from None
        if negative:
            raise ExprError(f"log of the negative constant {render(a)}")
    return _intern((Log, a), Log, a)


def sin(arg: ExprLike) -> Expr:
    a = as_expr(arg)
    if a is ZERO:
        return ZERO
    return _intern((Sin, a), Sin, a)


def cos(arg: ExprLike) -> Expr:
    a = as_expr(arg)
    if a is ZERO:
        return ONE
    return _intern((Cos, a), Cos, a)


def _ad_raw(integrand: Expr, var: Expr) -> Expr:
    # var is x or a jet: `antideriv` and the parser check the variable they
    # pass to `_anti1`, and the kernel passes an integral's own
    return _intern((AntiDeriv, integrand, var), AntiDeriv, integrand, var)


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------

# The kernel's two memos, and the slot of `_euler`'s latest Horner pass
# (`_EULER_SLOT`, below `_derive`).  All three hold only values that are
# functions of interned nodes, which are equal exactly when they are the
# same object, so each is always safe to clear (the next call recomputes
# the same nodes); the intern table itself is not.

#: the merged other factors of two terms (`_times`), keyed on the pair of
#: their other-factor tuples.
_MERGES: dict[tuple, tuple] = {}

#: derivation results keyed on (d, interned node), each a canonical node.
#: `d` is an atom for a partial derivative and an int m for D_m, so the two
#: kinds of key never collide.  An antiderivative of e in v is keyed on
#: ("anti", e, v), which meets no 2-tuple key.  Every value is a node.
#: Threads racing on one key store equal values.
_DERIV_CACHE: dict[tuple, Expr] = {}


def _require_atom(v: Expr) -> Expr:
    if not isinstance(v, (VarX, Jet)):
        raise ExprError(f"expected a variable (x or p_k), got {v!r}")
    return v


def diff(e: ExprLike, v: Expr, times: int = 1) -> Expr:
    """Exact partial derivative of `e` with respect to `v`, applied `times`
    times.  x and all jet variables are mutually independent."""
    _require_atom(v)
    if not isinstance(times, int) or times < 0:
        raise ExprError(f"times must be an integer >= 0, got {times!r}")
    out = as_expr(e)
    for _ in range(times):
        out = _derive(v, out)
    return out


def _order(m: int, atoms: int) -> int:
    """The order at which D_m applies to an expression with the atom mask
    `atoms`: D_m and D_j agree on it once both orders exceed its max jet, so
    the lesser of m and that max jet + 1, which must be a jet index."""
    d = min(m, max(atoms.bit_length() - 1, 0))
    if d > MAX_JET_INDEX:
        raise ExprError(f"D_{d} of p{MAX_JET_INDEX} exceeds the maximum jet index")
    return d


def _derive(d, e: Expr) -> Expr:
    """The derivation `d` applied to the canonical `e`: the partial
    derivative d/dv for an atom `d` = v, the truncated total derivative
    D_m = d/dx + p_1 d/dp_0 + ... + p_m d/dp_{m-1} for an int `d` = m.  The
    terms of e that hold an atom d acts on go through the product-rule pass
    (`_rules`), so only terms that survive the sum are built, and the result
    node is memoized on (d, e)."""
    if d.__class__ is int:
        d = _order(d, e._atoms)
        # D_m acts on x and p_0 ... p_{m-1}, bits 0 to m of a mask
        mask = (2 << d) - 1
    else:
        mask = d._atoms
    if not mask & e._atoms:
        return ZERO
    key = (d, e)
    out = _DERIV_CACHE.get(key)
    if out is None:
        out = _finish(*_rules([(d, *_group(e, mask))]))
        _DERIV_CACHE[key] = out
    return out


def _group(e: Expr, mask: int, sign: int = 1) -> tuple[int, dict]:
    """The terms of the canonical `e` that hold an atom of the bit mask
    `mask`, times `sign`, as an accumulator (`_gather`): the form in which
    `_rules` takes them."""
    ts = e.terms if e.__class__ is Sum else (e,)
    return _gather([t._flat for t in ts if mask & t._atoms], sign)


#: the latest Horner pass of `_euler`, (key (m, n, e), den, its merged
#: accumulator), or None.  A call with the same key starts from it: S3 of a
#: `check` right after `construct` applies the operator that `construct`
#: applied last.  It is replaced by one store and never mutated, so a
#: thread reads a whole entry or the one before it, and it is a cache, safe
#: to empty (set to None), like the two memos above.
_EULER_SLOT: tuple | None = None


def _euler(m: int, n: int, e: Expr, plus: tuple = (), scale: Expr = ONE) -> Expr:
    """`scale` * (E_m^n e + the products a*b of the pairs (a, b) of `plus`),
    for the Euler-Lagrange operator E_m^n e = sum_{k=0..n} (-1)^k D_m^k
    d/dp_k e, a canonical term `scale` and each a a canonical term that
    holds no power of b.  In Horner form, s_n = (-1)^n d/dp_n e,
    s_k = (-1)^k d/dp_k e + D_m s_{k+1}, and the result is s_0; every step
    past e's max jet is 0, so the first is at the lesser of n and that max
    jet.  Each step is one product-rule pass (`_rules`) over the terms of
    s_{k+1} and of e, whose partial d/dp_k enters the same accumulator, so
    no step and no partial is built.  The last pass's accumulator, the
    merged E_m^n e, is kept in the slot `_EULER_SLOT`, and a call on the same
    (m, n, e) starts from it and runs no step.  The pairs enter a copy of
    it, rescaled to their denominators, and `scale` multiplies the merged
    terms of each other-factor tuple at once, into a second accumulator; E
    is linear over constants, so a constant factor belongs in e.  A result
    that cancels builds neither s_0 nor the products: only the result node
    is built."""
    global _EULER_SLOT
    key = (m, n, e)
    last = _EULER_SLOT
    if last is not None and last[0] == key:
        _, den, acc = last
    else:
        # the terms of s_{k+1}, over their one denominator q
        s = None
        for k in range(max(min(n, max_jet(e)), 0), -1, -1):
            p = jet(k)
            # the sign (-1)^k rides on the numerators
            sources = [(p, *_group(e, p._atoms, -1 if k % 2 else 1))]
            if s is not None:
                d = m
                if m > MAX_JET_INDEX:
                    # D_m applies at s's max jet + 1, which must be a jet index
                    atoms = 0
                    for o, monos in s.items():
                        for f in o:
                            atoms |= f._atoms
                        for mono in monos:
                            for f in _mono_atoms(mono):
                                atoms |= f._atoms
                    d = _order(m, atoms)
                sources.append((d, q, s))
            den, acc = _rules(sources)
            if k:
                g = math.gcd(den, *[c for monos in acc.values() for c in monos.values()]) if den != 1 else 1
                q, s = den // g, {}
                for o, monos in acc.items():
                    monos = {mo: c // g for mo, c in monos.items() if c}
                    if monos:
                        s[o] = monos
        _EULER_SLOT = (key, den, acc)
    if plus:
        pairs = [(a._flat, _flat_terms(b)) for a, b in plus]
        full = math.lcm(den, *[aft[1] * ft[1] for aft, fts in pairs for ft in fts])
        # a copy, rescaled to the pairs' denominators: the slot's stays as it is
        r = full // den
        acc = {o: {mo: c * r for mo, c in monos.items()} if r != 1 else dict(monos)
               for o, monos in acc.items()}
        den = full
        for (c, q, mo, o), fts in pairs:
            _times_sum(acc, den, q, {o: {mo: c}}, fts)
    if scale is not ONE:
        # the merged terms of each tuple that did not cancel, times the scale
        sft = scale._flat
        out, sd = {}, den * sft[1]
        _times_sum(out, sd, den, {o: monos for o, monos in acc.items() if any(monos.values())},
                   (sft,))
        acc, den = out, sd
    return _finish(den, acc)


#: the flat terms of 0 and of 1
_NO_TERMS = ()
_ONE_TERMS = ((1, 1, 0, ()),)


def _rules(sources: list) -> tuple[int, dict]:
    """The kernel's one product-rule pass: for each source (d, q, terms),
    the derivation d of the accumulator `terms` {others: {mono: numerator}}
    over q, summed in one accumulator, which is returned after its
    denominator, the lcm of the denominators of all that enters it, fixed
    first so that it is never rescaled.  The other factors of the terms of a
    source are derived once per tuple of them (`_derive_others`), into flat
    terms over one denominator; the product rule on the monomials of the
    terms of one tuple (`_rule`) adds into that tuple's terms of the
    accumulator, and all of them are multiplied by each flat term of the
    tuple's derivative in one loop on int keys (`_times_sum`)."""
    work = []
    for d, q, groups in sources:
        for o, monos in groups.items():
            work.append((d, q, o, monos, _derive_others(d, o) if o else _NO_TERMS))
    den = math.lcm(*[q * ds[0][1] if ds else q for _, q, _, _, ds in work])
    acc: dict = {}
    for d, q, o, monos, ds in work:
        out = acc.get(o)
        if out is None:
            out = acc[o] = {}
        _rule(out, den // q, d, monos)
        if ds:
            _times_sum(acc, den, q, {(): monos}, ds)
    return den, acc


def _rule(out: dict, r: int, d, monos: dict) -> None:
    """Add the product rule for `d` on the monomials of the terms `monos`
    {mono: numerator}, each numerator times r, to `out` {mono: numerator},
    the accumulator's terms with the same other factors: one term per atom
    factor of each monomial (`_mono_atoms`)."""
    at = None if d.__class__ is int else _POS[d]
    for mono, c in monos.items():
        if not mono:
            continue
        c *= r
        for f in _mono_atoms(mono):
            i = _POS.get(f)
            if i is None:
                # a power a^k of an atom a
                i, k = _POS[f.base], f.exponent
            else:
                k = 1
            # a^k goes to k a^(k-1) times the image of a: 1 for v under d/dv
            # and for x under D_m, p_{j+1} for p_j under D_m when j < m, else 0
            if i > d if at is None else i != at:
                continue
            mk = mono + _STEP[i] if at is None else mono - _UNIT[i]
            out[mk] = out.get(mk, 0) + k * c


def _derive_others(d, others: tuple) -> tuple:
    """The derivation `d` of the product of the other factors of a term, as
    flat terms over one denominator, with no factor common to it and all
    their numerators: per factor, the other factors times each term of the
    derivative of that factor's argument (an exponent, a slope, or the
    argument of a log, sin, cos or opaque integral).  `_rules` calls it
    once per tuple of other factors in what it derives; the derivatives of
    the arguments come from the derivation memo."""
    if d.__class__ is not int and not any(d._atoms & f._atoms for f in others):
        return _NO_TERMS
    # each part is a term {others: {0: k}} times flat terms, collected first
    # so that the denominator of the accumulator is their lcm from the start
    parts = []
    for i, f in enumerate(others):
        if f.__class__ is Exp:
            # d exp(a) = exp(a) d a
            da = _derive(d, f.arg)
            if da is not ZERO:
                parts.append(({others: {0: 1}}, _flat_terms(da)))
        elif f.__class__ is Pow and f.base.__class__ is Sum:
            # d S^k = k S^(k-1) d S; canonical terms hold only k < 0
            k = f.exponent
            ds = _derive(d, f.base)
            if ds is f.base:
                # S^(k-1) * S folds back to S^k, as in `mul`
                parts.append(({others: {0: k}}, _ONE_TERMS))
            elif ds is not ZERO:
                # S^(k-1) takes the place of S^k in the canonical order
                lower = others[:i] + (pow_int(f.base, k - 1),) + others[i + 1:]
                parts.append(({lower: {0: k}}, _flat_terms(ds)))
        else:
            dg = _derive_factor(d, f)
            if dg is not ZERO:
                left = {others[:i] + others[i + 1:]: {0: 1}}
                parts.append((left, _flat_terms(dg)))
    den = math.lcm(*[ft[1] for _, fts in parts for ft in fts])
    acc: dict = {}
    for left, fts in parts:
        _times_sum(acc, den, 1, left, fts)
    g = math.gcd(den, *[c for monos in acc.values() for c in monos.values()]) if den != 1 else 1
    den //= g
    return tuple((c // g, den, m, o) for o, monos in acc.items() for m, c in monos.items() if c)


def _derive_factor(d, f: Expr) -> Expr:
    """The derivation `d` of a factor g^k of a canonical term, g a log, sin,
    cos or opaque integral: the chain rule, and for an opaque integral the
    sum over its atoms a of d(a) times its partial derivative in a."""
    g, k = (f.base, f.exponent) if f.__class__ is Pow else (f, 1)
    cls = g.__class__
    if cls is AntiDeriv:
        parts = []
        for a in _atom_list(g._atoms):
            img = _derive(d, a)
            if img is ZERO:
                continue
            # differentiation under the integral sign is valid because the
            # lower limit is the constant 0
            da = g.integrand if a is g.var else _anti1(_derive(a, g.integrand), g.var)
            parts.append(mul(img, da))
        dg = add(*parts)
    else:
        da = _derive(d, g.arg)
        if da is ZERO:
            return ZERO
        if cls is Log:
            dg = mul(da, pow_int(g.arg, -1))
        elif cls is Cos:
            dg = mul(_MINUS_ONE, sin(g.arg), da)
        else:  # Sin
            dg = mul(cos(g.arg), da)
    return dg if k == 1 or dg is ZERO else mul(k, pow_int(g, k - 1), dg)


def antideriv(e: ExprLike, v: Expr, times: int = 1) -> Expr:
    """Definite antiderivative of `e` over `v` from 0, applied once or twice.
    Closed forms cover linearity, powers of `v`, factors free of `v`, and
    exponentials linear in `v`; anything else becomes an opaque integral
    node.  The result always vanishes at v = 0."""
    _require_atom(v)
    if not isinstance(times, int) or times not in (1, 2):
        raise ExprError(f"antideriv supports times = 1 or 2, got {times!r}")
    out = as_expr(e)
    for _ in range(times):
        out = _anti1(out, v)
    return out


#: the canonical constructor that a call of each node class stands for
_MAKE = {Rat: rational, VarX: lambda: X, Jet: jet, Sum: lambda terms: add(*terms),
         Prod: lambda factors: mul(*factors), Pow: pow_int, Exp: exp, Log: log,
         Sin: sin, Cos: cos, AntiDeriv: antideriv}


def _rat_multiple(u: Expr, a: Expr) -> Fraction | None:
    """The rational c with u == c * a structurally, or None, for a != 0."""
    um = {(m, o): (c, d) for c, d, m, o in _flat_terms(u)}
    am = {(m, o): (c, d) for c, d, m, o in _flat_terms(a)}
    if um.keys() != am.keys():
        return None
    ratios = {Fraction(um[key][0] * da, um[key][1] * ca) for key, (ca, da) in am.items()}
    return ratios.pop() if len(ratios) == 1 else None


def _anti1(e: Expr, v: Expr) -> Expr:
    """The antiderivative of e over v from 0, memoized.  The terms are
    grouped by their v-dependent part (`_split`), so that derivative-shaped
    integrands like (a + b) * exp((a + b) v) integrate without a symbolic
    division."""
    key = ("anti", e, v)
    out = _DERIV_CACHE.get(key)
    if out is None:
        if not v._atoms & e._atoms:
            out = mul(e, v)
        else:
            groups: dict[tuple, list[Expr]] = {}
            for t in (e.terms if e.__class__ is Sum else (e,)):
                k, dep, u = _split(t, v)
                groups.setdefault((k, dep), []).append(u)
            out = add(*(_anti_group(add(*us), k, dep, v)
                        for (k, dep), us in groups.items()))
        _DERIV_CACHE[key] = out
    return out


def _split(t: Expr, v: Expr) -> tuple:
    """A canonical non-Sum term t as u * v^k * dep: the exponent k, the
    tuple dep of its other factors that hold v, and the term u free of v."""
    c, d, m, o = t._flat
    fs = t.factors if t.__class__ is Prod else (t,)
    k = 1 if v in fs else next((f.exponent for f in fs if f.__class__ is Pow and f.base is v), 0)
    dep = tuple(f for f in o if v._atoms & f._atoms)
    rest = tuple(f for f in o if not v._atoms & f._atoms)
    return k, dep, _term(c, d, m - k * _UNIT[_POS[v]], rest)


def _anti_group(u: Expr, k: int, dep: tuple, v: Expr) -> Expr:
    """Antiderivative over v of u * v^k * dep, for u free of v and dep the
    other factors of a canonical term that hold v: a power rule, a product
    of exponentials linear in v, or an opaque integral."""
    if not dep and k >= 0:
        return mul(u, _term(1, k + 1, 0, ()), pow_int(v, k + 1))
    core = _term(1, 1, k * _UNIT[_POS[v]], dep)
    if not k and all(f.__class__ is Exp for f in dep):
        # each exponent as slope * v^j * (factors that hold v)
        parts = [_split(f.arg, v) for f in dep]
        if all(j == 1 and not fdep for j, fdep, _ in parts):
            slope = add(*[p[2] for p in parts])
            if slope is not ZERO:
                ratio = _rat_multiple(u, slope)
                if ratio is not None:
                    return mul(ratio, add(core, _MINUS_ONE))
                return mul(u, pow_int(slope, -1), add(core, _MINUS_ONE))
    return mul(u, _ad_raw(core, v))


def _children(e: Expr) -> tuple:
    """The child nodes of e, in order; an integral's variable comes last."""
    cls = e.__class__
    if cls is Sum or cls is Prod:
        return e.terms if cls is Sum else e.factors
    if cls is AntiDeriv:
        return (e.integrand, e.var)
    return (e.base,) if cls is Pow else (e.arg,) if isinstance(e, _Unary) else ()


def _walk(e: Expr, enter: Callable[[Expr], tuple]):
    """Each distinct node under e once, children first, in depth-first
    left-to-right order, so e last, on an explicit stack: `enter(n)`, called
    as n is first reached, gives the children of n to walk."""
    seen = {e}
    stack = [(e, iter(enter(e)))]
    while stack:
        n, kids = stack[-1]
        for c in kids:
            if c not in seen:
                seen.add(c)
                ks = enter(c)
                if ks:
                    stack.append((c, iter(ks)))
                    break
                yield c
        else:
            stack.pop()
            yield n


def substitute(e: ExprLike, bindings: Mapping[Expr, ExprLike]) -> Expr:
    """Simultaneous substitution of variables by expressions, re-canonicalized,
    each distinct node once.  Binding the integration variable of an opaque
    integral is rejected (it is bound, not free), except to itself or to 0:
    bound to 0, the integral runs from 0 to 0, and is 0."""
    # an identity binding changes nothing, inside an integral or out
    b = {k: as_expr(v) for k, v in bindings.items() if as_expr(v) is not _require_atom(k)}
    keys = sum(k._atoms for k in b)

    def enter(n: Expr) -> tuple:
        if not n._atoms & keys:
            return ()
        if n.__class__ is not AntiDeriv:
            return _children(n)
        v = n.var
        if v in b:
            if b[v] is not ZERO:
                raise ExprError(f"cannot substitute the integration variable {render(v)} of an opaque integral")
            return ()
        for k, val in b.items():
            # a replacement that mentions the bound variable would be captured
            if k._atoms & n.integrand._atoms and v._atoms & val._atoms:
                raise ExprError(f"substituting {render(k)} -> {render(val)} inside an integral over "
                                f"{render(v)} would capture the integration variable")
        return (n.integrand,)

    out: dict = {}
    for n in _walk(as_expr(e), enter):
        if n._atoms & keys and n not in b:
            out[n] = ZERO if n.__class__ is AntiDeriv and n.var in b else _rebuild(n, lambda c: out.get(c, c))
        else:
            out[n] = b.get(n, n)
    return out[n]


def _rebuild(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """The class call of the composite `e` with `f` applied to each child,
    once per node `substitute` changes; an int exponent passes unchanged."""
    args = (getattr(e, a) for a in e._args)
    return e.__class__(*(tuple(map(f, a)) if a.__class__ is tuple else
                         f(a) if isinstance(a, Expr) else a for a in args))


def simplify(e: ExprLike) -> Expr:
    """Canonical form of `e`: every node is canonical already, so this is
    `as_expr`, and walks nothing."""
    return as_expr(e)


def max_jet(e: ExprLike) -> int:
    """Largest jet index occurring syntactically, -1 if none.  A conservative
    over-approximation of true dependence."""
    return max(as_expr(e)._atoms.bit_length() - 2, -1)


def free_jets(e: ExprLike) -> frozenset:
    """Set of jet indices occurring syntactically."""
    return frozenset(a.index for a in _atom_list(as_expr(e)._atoms & ~1))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: the calls of the grammar; Int(g, v) takes a variable as well
_FUNCS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "Int": _anti1}

#: one token per match, after a run of the ASCII characters that
#: `str.isspace` accepts: a number (ASCII digits and an optional fraction
#: part), an identifier (ASCII letters, digits and underscores), an
#: operator, any other character (an error), or the end
_TOKEN = re.compile(r"""[\t-\r\x1c-\x1f ]*(?:
    (?P<num>[0-9]+(?:\.[0-9]+)?)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<op>[-+*/^(),])
    |(?P<bad>.)
    |(?P<eof>\Z))""", re.S | re.X)


def _tokenize(text: str):
    """The tokens (kind, text, offset, value) of `text`, one match at a time,
    as the parser reads them: kind "num" with an int value (a Fraction for a
    decimal), "ident", an operator character as its own kind, and a closing
    "eof"."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        s = m[kind]
        i = m.start(kind)
        if kind == "num":
            if len(s) > MAX_RATIONAL_DIGITS + ("." in s):
                raise ParseError(f"number with more than {MAX_RATIONAL_DIGITS} digits", i)
            yield kind, s, i, Fraction(s) if "." in s else int(s)
        elif kind == "bad":
            if s.isascii():
                raise ParseError(f"unexpected character {s!r}", i)
            # every token before it is ASCII, so its index is its byte offset
            raise ParseError(f"non-ASCII character {s!r}", i)
        else:
            yield s if kind == "op" else kind, s, i, None


#: deepest nesting of parentheses and calls that `parse` accepts; the parser
#: and `diff` recurse once per level, the other walks do not (`_walk`)
MAX_PARSE_DEPTH = 100


class _Parser:
    # recursive descent with one token of lookahead, `tok`, which is read
    # from the text as the parse goes
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)
        self.depth = 0

    def next(self) -> tuple:
        # the end token stays current once it is reached
        t = self.tok
        self.tok = next(self.tokens, t)
        return t

    def expect(self, kind: str) -> None:
        found, text, offset, _ = self.next()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", offset)

    def expr(self) -> Expr:
        # one add over all terms: adding term by term would re-flatten and
        # re-sort the partial sum at every step
        terms = [self.term()]
        while self.tok[0] in "+-":
            terms.append(self.term(self.next()[0] == "-"))
        return add(*terms)

    def term(self, negate: bool = False) -> Expr:
        """A product of factors, negated for a subtracted term."""
        factors = [self.factor()]
        while self.tok[0] in "*/":
            op = self.next()[0]
            rhs = self.factor()
            factors.append(rhs if op == "*" else pow_int(rhs, -1))
        if not any(f.__class__ is Sum for f in factors):
            # one product, not one per partial product, which takes the sign
            # of a subtracted term, so that its positive twin is not built:
            # `mul` multiplies non-sum factors left to right already
            if negate:
                return mul(-1, *factors)
            return mul(*factors) if len(factors) > 1 else factors[0]
        # a product with a sum goes left to right: one call would cancel
        # (p1+1)*x/(p1+1) to x, which parses to two terms
        out = reduce(mul, factors)
        return mul(-1, out) if negate else out

    def nested(self, opener: tuple) -> Expr:
        """The expression after an opening parenthesis or call."""
        if self.depth == MAX_PARSE_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_PARSE_DEPTH} levels", opener[2])
        self.depth += 1
        out = self.expr()
        self.depth -= 1
        return out

    def factor(self) -> Expr:
        # a run of unary minuses is folded by parity, not by recursion
        neg = False
        while self.tok[0] == "-":
            self.next()
            neg = not neg
        out = self.atom()
        if self.tok[0] == "^":
            self.next()
            out = pow_int(out, self.integer())
        return mul(-1, out) if neg else out

    def integer(self) -> int:
        kind, _, offset, value = self.next()
        neg = kind == "-"
        if neg:
            kind, _, offset, value = self.next()
        if kind != "num" or value.__class__ is not int:
            raise ParseError("exponent must be an integer literal", offset)
        return -value if neg else value

    def _ident_to_var(self, t: tuple) -> Expr | None:
        kind, text, offset, _ = t
        if kind != "ident":
            return None
        if text == "x":
            return X
        if text[0] == "p" and text[1:].isascii() and text[1:].isdecimal():
            k = int(text[1:])
            if k > MAX_JET_INDEX:
                raise ParseError(f"jet index {k} exceeds the maximum {MAX_JET_INDEX}", offset)
            return jet(k)
        return None

    def atom(self) -> Expr:
        t = self.next()
        kind, text, offset, value = t
        if kind == "num":
            return rational(value)
        if kind == "(":
            out = self.nested(t)
            self.expect(")")
            return out
        if kind == "ident":
            v = self._ident_to_var(t)
            if v is not None:
                return v
            if text not in _FUNCS:
                raise ParseError(f"unknown identifier {text!r}", offset)
            self.expect("(")
            args = [self.nested(t)]
            if text == "Int":
                self.expect(",")
                t = self.next()
                args.append(self._ident_to_var(t))
                if args[1] is None:
                    raise ParseError(f"expected a variable (x or p<k>), found {t[1]!r}", t[2])
            self.expect(")")
            return _FUNCS[text](*args)
        raise ParseError(f"unexpected {text or 'end of input'!r}", offset)


@_collector_paused
def parse(text: str) -> Expr:
    """Parse expression text into a canonical Expr.

    Grammar: sums/differences of terms, terms of factors with * and /,
    factors are atoms with an optional integer exponent after ^ or a unary
    minus; atoms are rationals, decimals, x, p<k>, exp/log/sin/cos calls,
    Int(g, v) opaque integrals, and parenthesized expressions.  Parentheses
    and calls nest at most MAX_PARSE_DEPTH deep.
    """
    p = _Parser(text)
    out = p.expr()
    kind, text, offset, _ = p.tok
    if kind != "eof":
        raise ParseError(f"unexpected trailing {text!r}", offset)
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _plain(e: Expr, text: dict) -> str:
    """The plain text of e from its children's.  A canonical product's
    factors past its coefficient and a power's base are no constant or
    product, so only a base that is a sum is bracketed."""
    cls = e.__class__
    if cls is Rat:
        return str(e.value)
    if cls is VarX or cls is Jet:
        return "x" if cls is VarX else f"p{e.index}"
    if cls is Sum:
        # a term renders with a leading "-" exactly when its coefficient is
        # negative, so its negation is the rest of its rendering
        parts = [text[e.terms[0]]]
        for t in e.terms[1:]:
            s = text[t]
            parts.append(" - " + s[1:] if s[0] == "-" else " + " + s)
        return "".join(parts)
    if cls is Prod:
        fs = e.factors
        if fs[0].__class__ is not Rat:
            return "*".join(map(text.__getitem__, fs))
        c = fs[0].value
        return ("-" if c == -1 else f"{c}*") + "*".join(map(text.__getitem__, fs[1:]))
    if cls is Pow:
        base = text[e.base]
        return f"({base})^{e.exponent}" if e.base.__class__ is Sum else f"{base}^{e.exponent}"
    if cls is AntiDeriv:
        return f"Int({text[e.integrand]}, {text[e.var]})"
    return f"{e._tag}({text[e.arg]})"


def _json(e: Expr, text: dict) -> str:
    """The JSON text of e from its children's, as `json.dumps` prints the
    object: {"op": ..., "args": [...]}, or a {"const"|"var"|"jet"} leaf."""
    cls = e.__class__
    if cls is Rat:
        return f'{{"const": "{e.value}"}}'
    if cls is VarX or cls is Jet:
        return '{"var": "x"}' if cls is VarX else f'{{"jet": {e.index}}}'
    args = [text[c] for c in _children(e)]
    if cls is Pow:
        args.append(f'{{"const": "{e.exponent}"}}')
    tag = {Sum: "sum", Prod: "prod", Pow: "pow", AntiDeriv: "int"}.get(cls) or e._tag
    return f'{{"op": "{tag}", "args": [{", ".join(args)}]}}'


def render(e: ExprLike, format: str = "plain") -> str:
    """Print an expression, each distinct node once, building no node.  The
    plain format round-trips through `parse`; the json format nests
    {"op": ..., "args": [...]} objects with {"const"|"var"|"jet"} leaves."""
    put = {"plain": _plain, "json": _json}.get(format)
    if put is None:
        raise ExprError(f"unknown render format {format!r}")
    text: dict = {}
    for n in _walk(as_expr(e), _children):
        text[n] = put(n, text)
    return text[n]


# ---------------------------------------------------------------------------
# Numeric evaluation and zero testing
# ---------------------------------------------------------------------------


class ZeroTestConfig(Record):
    """Configuration of the probabilistic zero test: the number of sample
    points, the absolute tolerance and the seed of the sampler."""

    samples: int = 20
    atol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not 0 < self.atol < math.inf:
            raise ValueError("tolerances must be positive and finite")


#: every free variable is sampled uniformly from this interval
_BOX = (-1.0, 1.0)
#: relative tolerance, against the largest intermediate magnitude
_RTOL = 1e-8
#: fresh points drawn for one sample before it is given up on domain errors
_MAX_RETRIES_PER_POINT = 50
#: total budget of ticks for one evaluation or zero-test call: a tick is one
#: instruction of a compiled program (one distinct node) run at one sample
#: point or quadrature node, charged before the program runs and refunded
#: for what a domain error leaves unrun; exceeding it fails the call
#: (inconclusive for the zero test), so nested quadrature stays bounded
_EVAL_BUDGET = 2_000_000


class ZeroVerdict(Record):
    """Outcome of the zero decision procedure."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return isinstance(self, (ZeroStructural, ZeroNumeric))

    def to_obj(self) -> dict:
        """JSON form; RFC 8259 has no infinity, so a non-finite value is null."""
        o = self._fields()
        if not math.isfinite(o.get("value", 0.0)):
            o["value"] = None
        return o

    def _fields(self) -> dict:
        if isinstance(self, ZeroStructural):
            return {"kind": "zero-structural"}
        if isinstance(self, ZeroNumeric):
            return {"kind": "zero-numeric", "points": self.points}
        if isinstance(self, NonZero):
            return {"kind": "nonzero",
                    "point": {render(a): v for a, v in sorted(self.point.items(), key=lambda kv: sort_key(kv[0]))},
                    "value": self.value}
        return {"kind": "inconclusive", "reason": self.reason}

    def describe(self) -> str:
        o = self._fields()
        kind = o.pop("kind")
        if not o:
            return kind
        return kind + " " + json.dumps(o, sort_keys=True)


class ZeroStructural(ZeroVerdict):
    """The expression is the literal 0."""


class ZeroNumeric(ZeroVerdict):
    """Within tolerance of 0 at every sampled point."""

    points: int


class NonZero(ZeroVerdict):
    """A witness point where the magnitude exceeds the tolerance, where it
    could be found: an expression nonzero by its form (`_nonzero_by_form`)
    may have none, and then its witness value can read 0."""

    point: dict
    value: float


class Inconclusive(ZeroVerdict):
    """No sample point could be evaluated."""

    reason: str


_DEFAULT_CFG = ZeroTestConfig()


@cache
def _gauss_legendre(order: int) -> tuple[tuple[float, float], ...]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on
    [-1, 1], ascending, by Newton iteration on the three-term recurrence;
    computed on first use, since only evaluating an opaque integral needs
    one."""
    rule = []
    for i in range(order):
        x = -math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(20):
            p_prev, p = 1.0, x
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = order * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


#: (order, panels) of the rule per nesting level of opaque integrals: order
#: 32 on 4 panels outside, 16 on 2 inside, since full-order recursion would
#: cost order^depth per point.  Integrals nested deeper than this table
#: (after same-variable flattening) fail evaluation.
_QUAD_LEVELS = ((32, 4), (16, 2))


class BudgetExceeded(DomainError):
    """A single-point evaluation ran past the node-visit budget."""


class _Scale:
    __slots__ = ("value", "remaining")

    def __init__(self, budget: int):
        self.value = 0.0
        self.remaining = budget


def _compile(e: Expr, depth: int = 0) -> list:
    """The program that evaluates `e` at the nesting level `depth` of opaque
    integrals: one instruction (op, operand) per node in `_walk` order, named
    by index.  The op is the node's class (Jet for x too) or the `math`
    function of an exp, sin or cos; an opaque integral's operand is its
    variable, its integrand's program (None at depth len(_QUAD_LEVELS),
    whose integrals `_eval_quad` refuses) and whether it folded a double
    integral over that variable."""
    slots: dict = {}
    prog: list = []
    for n in _walk(e, lambda n: () if n.__class__ is AntiDeriv else _children(n)):
        op = n.__class__
        if op is Sum or op is Prod:
            arg = tuple(map(slots.__getitem__, n.terms if op is Sum else n.factors))
        elif op is Pow:
            arg = (slots[n.base], n.exponent)
        elif op is Rat:
            arg = _float(n.value)
        elif op is VarX or op is Jet:
            op, arg = Jet, n
        elif op is AntiDeriv:
            g = n.integrand
            kernel = g.__class__ is AntiDeriv and g.var is n.var
            arg = (n.var, _compile(g.integrand if kernel else g, depth + 1)
                   if depth < len(_QUAD_LEVELS) else None, kernel)
        else:
            op, arg = (op if op is Log else getattr(math, n._tag)), slots[n.arg]
        slots[n] = len(prog)
        prog.append((op, arg))
    return prog


def _run(prog: list, env: dict, scale: _Scale, depth: int = 0) -> float:
    """The value of a compiled program at the point `env`, in one loop: a
    product multiplies its factors in order, a sum is an `fsum`, and a value
    out of the domain or not finite is a DomainError.  Raises `scale.value`
    to the largest magnitude."""
    scale.remaining -= len(prog)
    if scale.remaining < 0:
        raise BudgetExceeded("evaluation budget exceeded")
    vals: list = []
    push = vals.append
    try:
        for op, arg in prog:
            if op is Prod:
                v = 1.0
                for i in arg:
                    v *= vals[i]
                if not math.isfinite(v):
                    raise DomainError("non-finite intermediate value")
            elif op is Sum:
                v = math.fsum(map(vals.__getitem__, arg))
            elif op is Jet:
                v = env.get(arg)
                if v is None:
                    raise ExprError(f"unassigned variable {render(arg)}")
                if not math.isfinite(v):
                    raise DomainError("non-finite intermediate value")
            elif op is Rat:
                v = arg
                if not math.isfinite(v):
                    raise DomainError("overflow in constant")
            elif op is Pow:
                v = vals[arg[0]]
                if v == 0.0 and arg[1] < 0:
                    raise DomainError("division by zero")
                v **= arg[1]
            elif op is Log:
                v = vals[arg]
                if v <= 0.0:
                    raise DomainError("log of a nonpositive value")
                v = math.log(v)
            elif op is AntiDeriv:
                v = _eval_quad(*arg, env, scale, depth)
            else:  # exp, sin or cos
                v = op(vals[arg])
            push(v)
    except (DomainError, OverflowError) as exc:
        # refund the instructions after the failing one
        scale.remaining += len(prog) - len(vals) - 1
        if exc.__class__ is OverflowError:
            raise DomainError(f"overflow in {op.__name__.lower()}") from None
        raise
    top = max(map(abs, vals))
    if top > scale.value:
        scale.value = top
    return v


def _eval_quad(var: Expr, prog: list, kernel: bool, env: dict, scale: _Scale,
               depth: int) -> float:
    """The integral over `var` from 0 whose integrand compiles to `prog`,
    times the kernel (t - s) for a collapsed double integral."""
    upper = env.get(var)
    if upper is None:
        raise ExprError(f"unassigned variable {render(var)}")
    if upper == 0.0:
        return 0.0
    if depth >= len(_QUAD_LEVELS):
        raise DomainError("opaque integrals nested deeper than "
                          f"{len(_QUAD_LEVELS)} levels")
    order, panels = _QUAD_LEVELS[depth]
    rule = _gauss_legendre(order)
    env = dict(env)
    total = 0.0
    for p in range(panels):
        a = upper * p / panels
        b = upper * (p + 1) / panels
        half = (b - a) / 2.0
        mid = (a + b) / 2.0
        for xi, wi in rule:
            s = env[var] = mid + half * xi
            val = _run(prog, env, scale, depth + 1)
            if kernel:
                val *= upper - s
            total += wi * half * val
    if not math.isfinite(total):
        raise DomainError("non-finite intermediate value")
    return total


def evaluate(e: ExprLike, point: Mapping[Expr, float]) -> float:
    """Floating evaluation at a point assigning every free variable, whose
    values are taken as floats.  Opaque integrals are evaluated by composite
    Gauss-Legendre quadrature over [0, upper limit], recursively for nested
    nodes."""
    env = {a: float(v) for a, v in point.items()}
    return _run(_compile(as_expr(e)), env, _Scale(_EVAL_BUDGET))


def is_zero(e: ExprLike, cfg: ZeroTestConfig | None = None) -> ZeroVerdict:
    """Decide whether `e` is identically zero.

    Every node is canonical, so nothing is simplified first.  Structural
    fast path: `e` is the literal 0, and any other rational constant is
    nonzero.  Otherwise `e` is sampled at `cfg.samples` uniform points of the
    box [-1, 1] (resampling on domain errors); the verdict is zero-numeric
    when every sampled magnitude is within atol + 1e-8 * scale, where scale
    is the largest intermediate magnitude at that point.  A zero-numeric
    verdict is probabilistic; nonzero verdicts carry an explicit witness.  A
    canonical form that is nonzero by its shape (`_nonzero_by_form`: a
    Laurent polynomial in x and the jets, a sum of such polynomials times
    exponentials of Laurent monomials, or one term whose other factors
    cannot vanish) is decided exactly: when every sample is within tolerance
    (say, it underflows), the verdict is nonzero, with a witness found along
    the ray through the first sample (`_ray_witness`), which may lie outside
    the box, or else the first sample itself, whose value can read 0."""
    cfg = cfg or _DEFAULT_CFG
    s = as_expr(e)
    if s is ZERO:
        return ZeroStructural()
    if s.__class__ is Rat:
        return NonZero(point={}, value=_float(s.value))
    atoms = _atom_list(s._atoms)
    rng = random.Random(cfg.seed)
    lo, hi = _BOX
    evaluated = 0
    first = None
    scale = _Scale(_EVAL_BUDGET)  # one budget for the whole call
    prog = _compile(s)
    for _ in range(cfg.samples):
        for _ in range(_MAX_RETRIES_PER_POINT):
            pt = {a: rng.uniform(lo, hi) for a in atoms}
            scale.value = 0.0
            try:
                val = _run(prog, pt, scale)
                break
            except BudgetExceeded:
                return Inconclusive("evaluation budget exceeded")
            except DomainError:
                continue
        else:
            continue
        evaluated += 1
        if abs(val) > cfg.atol + _RTOL * scale.value:
            return NonZero(point=pt, value=val)
        if first is None:
            first = (pt, val)
    if evaluated == 0:
        return Inconclusive("no sample point could be evaluated")
    if _nonzero_by_form(s):
        return _ray_witness(prog, first, cfg, scale)
    return ZeroNumeric(points=evaluated)


#: steps of 2^(1/8) outward and inward along the ray through a sample point
#: that `_ray_witness` tries
_RAY_STEPS = 64


def _ray_witness(prog: list, first: tuple[dict, float], cfg: ZeroTestConfig,
                 scale: _Scale) -> NonZero:
    """The witness for an expression s, compiled to `prog`, that is nonzero
    by its form (`_nonzero_by_form`) but within tolerance at every sample
    point: the first point t*p, for p the first sample and t = 2^(k/8),
    2^(-k/8), k = 1, 2, ..., where the value clears the tolerance.  Along the
    ray a Laurent polynomial s is a Laurent polynomial in t, so unless it is
    constant there its highest or lowest power takes over far enough out or
    in; an exponential's s is not, and may stay below the tolerance.  When
    s is constant (the sample is empty), or no step clears it (or the budget
    runs out), the first sample is the witness, and its value may read 0."""
    p, value = first
    if not p:
        # a constant has one value all along the ray
        return NonZero(point=p, value=value)
    for t in (2.0 ** (sign * k / 8) for k in range(1, _RAY_STEPS + 1) for sign in (1, -1)):
        pt = {a: v * t for a, v in p.items()}
        scale.value = 0.0
        try:
            val = _run(prog, pt, scale)
        except BudgetExceeded:
            break
        except DomainError:
            continue
        if abs(val) > cfg.atol + _RTOL * scale.value:
            return NonZero(point=pt, value=val)
    return NonZero(point=p, value=value)


def _nonzero_by_form(s: Expr) -> bool:
    """Whether the canonical s, not 0, is nonzero by its form
    alone, however small its samples are.  It is when either holds:

    (i) s is one term, and each of its other factors, or that factor's base,
    is an exponential, a negative power, or the sine, cosine or log of a
    rational.  e^a is never 0, nor is a negative power where it is defined.
    sin q = 0 or cos q = 0 at a rational q would make pi rational (sin(0)
    and cos(0) fold), and `log` folds log(1) and refuses q <= 0.  So s is a
    nonzero coefficient times a monomial times factors that do not vanish.

    (ii) every other factor of every term is the exponential of a Laurent
    monomial (an argument with no other factors).  Like terms merge on
    (monomial, others), exponentials of one core merge (`_times`), and `exp`
    splits a sum, so s = sum_P e^P Q_P over distinct Laurent polynomials P,
    each Q_P a nonzero Laurent polynomial.  Exponentials whose exponents
    differ by a non-constant are linearly independent over the rational
    functions, and where the exponents differ by rationals c != 0, the e^c
    are linearly independent over Q (Lindemann-Weierstrass).  So s is not
    0.  With no exponential, s is a Laurent polynomial, whose canonical form
    is unique."""
    if s.__class__ is not Sum:
        return all(map(_never_zero, s._flat[3]))
    return all(f.__class__ is Exp and not f.arg._flat[3]
               for t in s.terms for f in t._flat[3])


def _never_zero(f: Expr) -> bool:
    """Whether the other factor f of a term is nonzero wherever it is
    defined, as (i) of `_nonzero_by_form` takes it."""
    if f.__class__ is Pow:
        if f.exponent < 0:
            return True
        f = f.base
    return f.__class__ is Exp or (f.__class__ in (Sin, Cos, Log) and f.arg.__class__ is Rat)
