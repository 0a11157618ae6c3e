"""Exact mode calculus for the rank-ell free boson, its sign-involution
orbifold, the twisted sector, and the associated associative quotient.

The package computes with states and operators over exact rationals (and
polynomials in the highest-weight parameters), reduces modulo the span of
circle elements with certificates, evaluates zero modes on the five known
irreducible top levels, and ships a small assertion language plus built-in
verification suites behind the ``orbifock`` command.
"""

from .coeffs import LPoly
from .fock import FockVector, SYMBOLIC, apply_mode, basis, make_monomial, theta
from .twisted import DeltaTable, apply_delta, delta_coefficients, twisted_zero_mode
from .vertex import mode_operator, virasoro, zero_mode
from .zhu import (GeneratorPolicy, OSpanEchelon, Verdict, build_ospan, circ_n,
                  e_t, e_t_bar, e_u, e_u_bar, hgen, jgen, lam, omega,
                  s_alpha, s_pair, star, star_fold, star_power)
from .toplevel import (FAMILIES, TopLevelAction, conformal_shift, disprove_equiv,
                       evaluate, evaluate_word, independence_rank)
from .script import ScriptError, parse_expr, parse_script, realize
from .runner import Report, RunConfig, Runner, run_text
from .suites import run_suite
from .tables import emit_tables, parse_tables

__version__ = "0.1.0"

__all__ = [
    "LPoly", "FockVector", "SYMBOLIC", "apply_mode", "basis",
    "make_monomial", "theta", "DeltaTable", "apply_delta",
    "delta_coefficients", "twisted_zero_mode", "mode_operator", "virasoro",
    "zero_mode", "GeneratorPolicy", "OSpanEchelon", "Verdict", "build_ospan",
    "circ_n", "e_t", "e_t_bar", "e_u", "e_u_bar", "hgen", "jgen", "lam",
    "omega", "s_alpha", "s_pair", "star", "star_fold",
    "star_power", "FAMILIES", "TopLevelAction", "conformal_shift",
    "disprove_equiv", "evaluate", "evaluate_word", "independence_rank",
    "ScriptError", "parse_expr", "parse_script", "realize", "Report",
    "RunConfig", "Runner", "run_text", "run_suite",
    "emit_tables", "parse_tables", "__version__",
]
