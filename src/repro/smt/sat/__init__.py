"""Pure-Python CDCL SAT solver.

``SatSolver`` is the production flat-arena solver; ``ReferenceSatSolver``
is the list-based baseline kept for differential testing.
"""

from .reference import ReferenceSatSolver
from .solver import SatSolver

__all__ = ["SatSolver", "ReferenceSatSolver"]
