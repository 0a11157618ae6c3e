"""Exact mode calculus for the rank-ell free boson, its sign-involution
orbifold, the twisted sector, and the associated associative quotient.

The package computes with states and operators over exact rationals (and
polynomials in the highest-weight parameters), reduces modulo the span of
circle elements with certificates, evaluates zero modes on the five known
irreducible top levels, and ships a small assertion language plus built-in
verification suites behind the ``orbifock`` command.
"""

from .zhu import GeneratorPolicy
from .script import parse_script
from .runner import Report, RunConfig, Runner
from .suites import run_suite

__version__ = "0.1.0"

__all__ = ["GeneratorPolicy", "Report", "RunConfig", "Runner", "parse_script",
           "run_suite", "__version__"]
