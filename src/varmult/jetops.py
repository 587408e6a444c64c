"""Jet-space operator algebra.

Implements the truncated total derivative
``D_m = d/dx + p_1 d/dp_0 + ... + p_m d/dp_{m-1}``, its powers, the
Euler-Lagrange operators ``E_m^n = sum_{k=0..n} (-1)^k D_m^k d/dp_k``, and
the closed-form expansion of ``D_m^k`` over ``D_{m-1}`` in terms of
multi-indices with exact rational coefficients.

D_m is a derivation of the jet ring, like a partial derivative: both are
applied by the kernel's one product-rule pass, which differs between them
only in the image of an atom.  A derivation's result is a node
(`symexpr._derive`); an Euler-Lagrange operator keeps its Horner steps and
partial derivatives as the accumulators of that pass and builds only its
result (`symexpr._euler`), and a call on the operand of the latest call
starts from that call's last accumulator.  The kernel's operator also takes
the sums that `varcore` fuses with it, scale * (E_m^n e + sum a*b), and
`varcore` calls it directly: its rho step and peel, which `construct` and
`checker` share, and the closing certificate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .symexpr import Expr, ExprLike, _derive, _euler, add, as_expr, diff, jet, mul, pow_int

__all__ = [
    "MultiIndex",
    "OperatorTerm",
    "total_derivative",
    "d_pow",
    "euler_op",
    "a_coeff",
    "expand_d_pow",
    "apply_term",
    "apply_expansion",
]


def _check_orders(*orders) -> None:
    for k in orders:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"operator orders must be integers >= 0, got {k!r}")


def total_derivative(m: int, e: ExprLike) -> Expr:
    """Apply the truncated total derivative D_m.  D_0 is d/dx; note D_m has
    no d/dp_m term, so D_m annihilates functions of p_m alone."""
    _check_orders(m)
    # int(m): the kernel tells D_m from d/dv by the class int, not bool
    return _derive(int(m), as_expr(e))


def d_pow(m: int, k: int, e: ExprLike) -> Expr:
    """k-fold application of D_m."""
    _check_orders(m, k)
    out = as_expr(e)
    for _ in range(k):
        out = total_derivative(m, out)
    return out


def euler_op(m: int, n: int, e: ExprLike) -> Expr:
    """The m-th order Euler-Lagrange operator with n+1 terms,
    sum_{k=0..n} (-1)^k D_m^k d/dp_k, in Horner form with the signs on the
    partial derivatives: s_n = (-1)^n d/dp_n e, s_k = (-1)^k d/dp_k e +
    D_m s_{k+1}, and the result is s_0; n applications of D_m, of which
    those past e's max jet are 0 and skipped."""
    _check_orders(m, n)
    return _euler(int(m), int(n), as_expr(e))


class MultiIndex(Record):
    """Multi-index I = (i_{m-1}, ..., i_0) with the descending labeling:
    entry j (1-based from the left) is the exponent of d/dp_{m-j}."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(i) for i in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("multi-index needs at least one entry")
        if any(i < 0 for i in entries):
            raise ValueError("multi-index entries must be nonnegative")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        """|I|: total number of partials."""
        return sum(self.entries)

    @property
    def weighted_norm(self) -> int:
        """||I||: sum of j * i_{m-j}."""
        return sum(j * i for j, i in enumerate(self.entries, start=1))

    @property
    def multiplicative_norm(self) -> int:
        """||I||*: product of (j!)^{i_{m-j}}."""
        out = 1
        for j, i in enumerate(self.entries, start=1):
            if i:
                out *= math.factorial(j) ** i
        return out

    @property
    def factorial(self) -> int:
        """I!: product of the entry factorials."""
        out = 1
        for i in self.entries:
            out *= math.factorial(i)
        return out

    def try_sub(self, j: int) -> "MultiIndex | None":
        """I - e_j (slot j, 1-based from the left), or None if that entry
        would go negative."""
        if not 1 <= j <= len(self.entries):
            return None
        if self.entries[j - 1] == 0:
            return None
        e = list(self.entries)
        e[j - 1] -= 1
        return MultiIndex(tuple(e))


class OperatorTerm(Record):
    """One term a * p_m^{pm_power} * D_{m-1}^{d_power} * d^I of the expansion
    of D_m^k, with m = len(index)."""

    coeff: Fraction
    pm_power: int
    d_power: int
    index: MultiIndex

    def __post_init__(self):
        if self.coeff <= 0:
            raise ValueError("expansion coefficients are positive")
        if self.d_power < 0:
            raise ValueError("derivative power must be >= 0")


def a_coeff(index: MultiIndex, k: int) -> Fraction:
    """Expansion coefficient k! / (||I||* I! (k - ||I||)!) when ||I|| <= k,
    else 0."""
    norm = index.weighted_norm
    if k < 0 or norm > k:
        return Fraction(0)
    return Fraction(math.factorial(k),
                    index.multiplicative_norm * index.factorial * math.factorial(k - norm))


def _indices_with_norm_at_most(m: int, k: int):
    """All multi-indices of length m with weighted norm <= k.  Only the k
    leading slots can be nonzero since slot j contributes weight j."""
    slots = min(m, k)
    pad = (0,) * (m - slots)
    for head in itertools.product(*(range(k // j + 1) for j in range(1, slots + 1))):
        if sum(j * i for j, i in enumerate(head, start=1)) <= k:
            yield head + pad


def expand_d_pow(m: int, k: int) -> list[OperatorTerm]:
    """Expansion of D_m^k over D_{m-1}:

        D_m^k = sum over ||I|| <= k of a_I^(k) p_m^|I| D_{m-1}^{k-||I||} d^I,

    valid for m > k >= 1.  Terms are returned in a deterministic order
    (by weighted norm, then entries)."""
    if not (m > k >= 1):
        raise ValueError(f"expansion requires m > k >= 1, got m={m}, k={k}")
    terms = []
    for entries in _indices_with_norm_at_most(m, k):
        index = MultiIndex(entries)
        terms.append(OperatorTerm(coeff=a_coeff(index, k),
                                  pm_power=index.size,
                                  d_power=k - index.weighted_norm,
                                  index=index))
    terms.sort(key=lambda t: (t.index.weighted_norm, t.index.entries))
    return terms


def apply_term(term: OperatorTerm, e: ExprLike) -> Expr:
    """Apply one expansion term to an expression: the partials d^I first,
    then D_{m-1}^{d_power}, then the p_m power and coefficient."""
    m = len(term.index)
    out = as_expr(e)
    for j, i in enumerate(term.index.entries, start=1):
        if i:
            out = diff(out, jet(m - j), times=i)
    out = d_pow(m - 1, term.d_power, out)
    return mul(term.coeff, pow_int(jet(m), term.pm_power), out)


def apply_expansion(terms: list[OperatorTerm], e: ExprLike) -> Expr:
    """Apply a full expansion (as returned by `expand_d_pow`) to an
    expression; agrees with `d_pow` on the expanded operator."""
    return add(*(apply_term(t, e) for t in terms))
