"""padicsat: exact satisfiability of linear systems over Q with p-adic
valuation constraints and rational order constraints."""

from .certify import verify_witness
from .combiner import solve_combined
from .complete import solve_complete
from .dispatch import solve_instance, solve_single_prime
from .errors import InputError, InternalError, OverflowGuardError, ParseError
from .model import (
    Equation,
    Fragment,
    FragmentClass,
    ImmediateUnsat,
    Instance,
    NormalizedInstance,
    OrderConstraint,
    Status,
    ValConstraint,
    VarProfile,
    Verdict,
    classify,
    instance_size,
    normalize,
)
from .parser import parse_instance, serialize_instance
from .rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    NEG_INF,
    PowerSum,
    leading_digit,
    valuation,
)
from .solver_geq import GeqProblem, solve_geq
from .solver_leq import LeqProblem, solve_leq

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EXPONENT_GUARD",
    "Equation",
    "Fragment",
    "FragmentClass",
    "GeqProblem",
    "INF",
    "ImmediateUnsat",
    "InputError",
    "Instance",
    "InternalError",
    "LeqProblem",
    "NEG_INF",
    "NormalizedInstance",
    "OrderConstraint",
    "OverflowGuardError",
    "ParseError",
    "PowerSum",
    "Status",
    "ValConstraint",
    "VarProfile",
    "Verdict",
    "classify",
    "instance_size",
    "leading_digit",
    "normalize",
    "parse_instance",
    "serialize_instance",
    "solve_combined",
    "solve_complete",
    "solve_geq",
    "solve_instance",
    "solve_leq",
    "solve_single_prime",
    "valuation",
    "verify_witness",
]
