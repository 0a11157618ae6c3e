"""Exact mode calculus for the rank-ell free boson, its sign-involution
orbifold, the twisted sector, and the associated associative quotient.

The package computes with states and operators over exact rationals (and
polynomials in the highest-weight parameters), reduces modulo the span of
circle elements with certificates, evaluates zero modes on the five known
irreducible top levels, and ships a small assertion language plus built-in
verification suites behind the ``orbifock`` command.
"""

from .coeffs import LPoly
from .fock import FockVector, basis, make_monomial
from .twisted import apply_delta, delta_coefficients, twisted_zero_mode
from .zhu import (GeneratorPolicy, OSpanEchelon, build_ospan, circ_n,
                  e_t, e_t_bar, e_u, e_u_bar, hgen, jgen, lam, omega,
                  s_pair, star)
from .toplevel import (FAMILIES, Matrix, disprove_equiv, evaluate,
                       evaluate_word, independence_rank)
from .script import ScriptError, parse_expr, parse_script, realize
from .runner import Report, RunConfig, Runner, Session
from .suites import run_suite
from .tables import emit_tables

__version__ = "0.1.0"

__all__ = [
    "LPoly", "FockVector", "basis", "make_monomial", "apply_delta",
    "delta_coefficients", "twisted_zero_mode", "GeneratorPolicy",
    "OSpanEchelon", "build_ospan", "circ_n", "e_t", "e_t_bar",
    "e_u", "e_u_bar", "hgen", "jgen", "lam", "omega", "s_pair", "star",
    "FAMILIES", "Matrix", "disprove_equiv", "evaluate", "evaluate_word",
    "independence_rank", "ScriptError", "parse_expr",
    "parse_script", "realize", "Report", "RunConfig", "Runner", "Session",
    "run_suite", "emit_tables", "__version__",
]
