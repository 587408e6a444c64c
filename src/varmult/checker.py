"""Decision procedure for variationality of u^(2n) = f(x, u, ..., u^(2n-1)).

The check runs five steps, each verifying that certain partial derivatives
vanish and deriving the next quantity:

  S1  the top coefficient d f / d p_{2n-1} depends on jets up to p_{n+1}
      only (for n >= 3); seeds g_{n+1} = (1/n) df/dp_{2n-1}
      (g_3 = (1/2) df/dp_3 for n = 2).
  S2  for k = n+1 down to 1: g_k is linear in p_k; peel the slope into the
      log-multiplier accumulator and descend to g_{k-1}.
  S3  g_0 is a function of x alone; assemble R and the order-(2n-2)
      remainder h by the rho step of `varcore`.
  S4  for j = 1..n-1: strip f_{n-j} from h by the peel of `varcore` that
      `construct` added it with, and descend two orders.
  S5  h_0 depends on (x, p_0) only; it is f_0.

On success the multiplier is rho = e^{-R}, a Lagrangian is rebuilt from the
recovered data with gauge N = 0, and the defining identity is re-verified.
Every vanishing check goes through the probabilistic zero test; the first
nonzero witness rejects, and an undecidable check aborts as inconclusive.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, replace
from .jetops import total_derivative
from .symexpr import (
    Expr,
    ExprError,
    ExprLike,
    NonZero,
    X,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    _collector_paused,
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
    substitute,
)
from .varcore import (ParamSet, VariationalTriple, _lagrangian, _orders, _peel, _rho_step,
                      verify_triple)

__all__ = [
    "TraceEntry",
    "Accepted",
    "Rejected",
    "Inconclusive",
    "CheckReport",
    "check",
    "expected_check_count",
]


class TraceEntry(Record):
    """One recorded event: a vanishing check (kind "check") or the
    certified pruning of a functionally absent jet (kind "note")."""

    step: str
    checked: Expr
    verdict: ZeroVerdict
    derived: Expr | None = None
    kind: str = "check"
    note: str | None = None


class Accepted(Record):
    R: Expr
    rho: Expr
    f_lower: tuple[Expr, ...]
    L: Expr
    residual: ZeroVerdict


class Rejected(Record):
    step: str
    witness: Expr
    verdict: ZeroVerdict


class Inconclusive(Record):
    step: str
    witness: Expr


class CheckReport(Record):
    outcome: Accepted | Rejected | Inconclusive
    trace: tuple[TraceEntry, ...]

    @property
    def accepted(self) -> bool:
        return isinstance(self.outcome, Accepted)

    @property
    def check_count(self) -> int:
        return sum(1 for t in self.trace if t.kind == "check")


def expected_check_count(n: int) -> int:
    """Number of vanishing checks recorded for an input that reaches the
    final step: (n-2) + (n+1) + 1 + (n(n+1)/2 - 1) + 1."""
    return (n - 2) + (n + 1) + 1 + (n * (n + 1)) // 2 - 1 + 1


class _Stop(Exception):
    """Ends a check early; its one argument is the outcome."""


def _settle(step: str, witness: Expr, verdict: ZeroVerdict) -> None:
    """Return if `verdict` is zero; reject on a nonzero witness, else stop."""
    if verdict.is_zero:
        return
    if isinstance(verdict, NonZero):
        raise _Stop(Rejected(step=step, witness=witness, verdict=verdict))
    raise _Stop(Inconclusive(step=step, witness=witness))


class _Run:
    def __init__(self, cfg: ZeroTestConfig):
        self.cfg = cfg
        self.trace: list[TraceEntry] = []
        self.verdicts: dict[Expr, ZeroVerdict] = {}  # is_zero depends on node and cfg
        self.last_check = -1  # the trace index of the latest check, if any

    def probe(self, step: str, e: Expr, note: str | None = None) -> None:
        # a check with a note is recorded as a note: a refinement check
        # outside the algorithm's own tally; a node probed before keeps its verdict
        if e not in self.verdicts:
            self.verdicts[e] = is_zero(e, self.cfg)
        if not note:
            self.last_check = len(self.trace)
        self.trace.append(TraceEntry(step=step, checked=e, verdict=self.verdicts[e],
                                     kind="note" if note else "check", note=note))
        _settle(step, e, self.verdicts[e])

    def attach(self, derived: Expr) -> None:
        # record the quantity derived after the most recent vanishing check
        if (i := self.last_check) >= 0:
            self.trace[i] = replace(self.trace[i], derived=derived)

    def restrict(self, step: str, out: Expr, cap: int) -> Expr:
        """Remove jets above `cap` that occur syntactically but not
        functionally (possible after merely-numeric zero verdicts upstream),
        certifying each removal.  Sound: binding a functionally absent
        variable to 0 leaves the function unchanged."""
        while (k := max_jet(out)) > cap:
            self.probe(step, diff(out, jet(k)),
                       f"pruning functionally-absent p{k} from a derived quantity")
            try:
                out = substitute(out, {jet(k): 0})
            except ExprError:
                raise _Stop(Inconclusive(step=step, witness=out)) from None
        return out


@_collector_paused
def check(f: ExprLike, n: int, cfg: ZeroTestConfig | None = None) -> CheckReport:
    """Decide whether p_{2n} = f admits a variational multiplier and, if so,
    reconstruct (R, rho, f_0..f_{n-1}, L) with a step-level audit trail."""
    f = as_expr(f)
    _orders(n)
    if max_jet(f) > 2 * n - 1:
        raise ValueError(f"f may depend on jets up to p{2 * n - 1} only")
    cfg = cfg or ZeroTestConfig()
    run = _Run(cfg)
    try:
        outcome = _run_steps(f, n, run)
    except _Stop as stop:
        outcome = stop.args[0]
    return CheckReport(outcome=outcome, trace=tuple(run.trace))


def _run_steps(f: Expr, n: int, run: _Run) -> Accepted:
    top = jet(2 * n - 1)
    d_top = diff(f, top)

    # S1: top-slope dependence bound, and the seed g_{n+1} (no checks at
    # n = 2, where the bound is p_3 itself)
    for k in range(n + 2, 2 * n):
        run.probe("S1", diff(d_top, jet(k)))
    g = mul(Fraction(1, n), d_top)
    run.attach(g)

    # S2: peel the multiplier exponent order by order
    r_parts: list[Expr] = []
    for k in range(n + 1, 0, -1):
        pk = jet(k)
        alpha = diff(g, pk)
        run.probe(f"S2(k={k})", diff(alpha, pk))
        a1 = antideriv(alpha, jet(k - 1), 1)
        r_parts.append(a1)
        g = add(g, mul(-1, alpha, pk), mul(-1, total_derivative(k - 1, a1)))
        run.attach(g)

    # S3: g_0 is pure x; assemble R and the first remainder
    run.probe("S3", diff(g, jet(0)))
    big_r = run.restrict("S3", add(*r_parts, antideriv(g, X, 1)), n)
    run.attach(big_r)

    rho = exp(mul(-1, big_r))
    d2_top = diff(d_top, top)
    # h = the rho step with -rho (f - d_top p_top + 1/2 d2_top p_top^2) as
    # three pairs; right after `construct`, whose last operator call is this
    # one, it starts from that call's Horner pass and runs no Horner step
    a = mul(-1, rho)
    h = _rho_step(n, rho, ((a, f), (mul(-1, a, top), d_top),
                           (mul(Fraction(1, 2), a, pow_int(top, 2)), d2_top)))

    # S4: strip f_{n-1}, ..., f_1, each by the peel that `construct` added
    # it with
    f_rec: dict[int, Expr] = {}
    for j in range(1, n):
        step = f"S4(j={j})"
        run.probe(step, diff(h, jet(2 * n + 1 - 2 * j)))
        dh = diff(h, jet(2 * n - 2 * j))
        for k in range(n + 1 - j, 2 * n - 2 * j + 1):
            run.probe(step, diff(dh, jet(k)))
        f_rec[n - j] = run.restrict(step, dh, n - j)
        h = _peel(h, n - j, dh)
        run.attach(h)

    # S5: what is left is f_0(x, p_0)
    run.probe("S5", diff(h, jet(1)))
    for k in range(2, max_jet(h) + 1):
        run.probe("S5", diff(h, jet(k)))
    f_rec[0] = run.restrict("S5", h, 0)

    params = ParamSet(n=n, R=big_r,
                      f_lower=tuple(f_rec[ell] for ell in range(n)),
                      N=ZERO)
    lagrangian = _lagrangian(params)
    triple = VariationalTriple(f=f, rho=rho, L=lagrangian, n=n, m=n)
    residual = verify_triple(triple, run.cfg)
    _settle("S5", triple.L, residual)
    return Accepted(R=big_r, rho=rho, f_lower=params.f_lower, L=lagrangian,
                    residual=residual)

