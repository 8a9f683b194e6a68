"""Exact Igusa p-adic local zeta functions via Newton polyhedra.

Computes Z(s) as an exact rational function in t = p^(-s) for a
monomial ideal, a single polynomial or a polynomial mapping, each with a
polynomial integration measure |g(x)||dx|, and verifies the results with
brute-force truncated p-adic integration.
"""

from .cones import ConePartition, RationalCone, partition_pair, partition_single
from .counting import CountTriple, DegeneracyReport, count_triple
from .errors import (DegeneracyError, IgusaError, InternalConsistencyError,
                     PoleEvaluationError, PolynomialParseError,
                     SizeGuardError)
from .newton import Face, NewtonPolyhedron, face_restriction
from .oracle import Bracket, truncated_integral
from .polynomials import (IntegerPolynomial, MonomialIdealSpec,
                          PolynomialMapping, parse_polynomial)
from .problem import ProblemSpec, compute, parse_problem_file
from .ratfun import Poly, RationalFunction
from .zeta import CandidatePole, candidate_poles

__version__ = "0.1.0"

__all__ = [
    "Bracket", "CandidatePole", "ConePartition", "CountTriple",
    "DegeneracyError", "DegeneracyReport", "Face", "IgusaError",
    "IntegerPolynomial", "InternalConsistencyError", "MonomialIdealSpec",
    "NewtonPolyhedron", "PoleEvaluationError", "Poly", "PolynomialMapping",
    "PolynomialParseError", "ProblemSpec", "RationalCone",
    "RationalFunction", "SizeGuardError", "candidate_poles", "compute",
    "count_triple", "face_restriction", "parse_polynomial",
    "parse_problem_file", "partition_pair", "partition_single",
    "truncated_integral",
]
