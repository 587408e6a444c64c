"""varmult: variational multiplier toolkit for scalar equations u^(2n) = f.

Decides whether a scalar ODE of even order admits a variational multiplier,
reconstructs the multiplier rho = e^{-R} and a Lagrangian when it does, and
machine-checks the jet-space operator identities the construction rests on.
"""

__version__ = "0.1.0"

from .symexpr import (
    MAX_JET_INDEX,
    AntiDeriv,
    Cos,
    DomainError,
    Exp,
    Expr,
    ExprError,
    Inconclusive,
    Jet,
    Log,
    NonZero,
    ParseError,
    Pow,
    Prod,
    Rat,
    Sin,
    Sum,
    VarX,
    X,
    ZERO,
    ONE,
    ZeroNumeric,
    ZeroStructural,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    antideriv,
    as_expr,
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
    substitute,
)
from .jetops import (
    MultiIndex,
    OperatorTerm,
    a_coeff,
    apply_expansion,
    apply_term,
    d_pow,
    euler_op,
    expand_d_pow,
    total_derivative,
)
from .varcore import (
    ParamSet,
    VariationalTriple,
    construct,
    euler_lagrange,
    fels_I1,
    fels_T5,
    verify_triple,
)
from .checker import CheckReport, check, expected_check_count

#: the test-kit names the package re-exports; `varmult.testkit` is imported
#: on the first access to one of them, so that `import varmult.cli` does not
#: compile it
_TESTKIT = frozenset({"GenConfig", "PolynomialPath", "el_path_oracle", "gen_expr", "gen_params"})


def __getattr__(name: str):
    # read from the module on each access, so that a wrapper installed in
    # `varmult.testkit` is what `varmult.gen_params` returns
    if name in _TESTKIT:
        from . import testkit
        return getattr(testkit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
