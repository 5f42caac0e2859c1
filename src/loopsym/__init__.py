"""Exact-arithmetic toolkit for geometric crystals, geometric RSK, loop
(skew and cylindric) Schur functions, and the energy/cocharge statistics
attached to them.

Everything is computed over one of three value domains: exact rationals,
the integer min-plus semiring, or sparse multivariate polynomials (with
formal quotients).  There is no floating point anywhere; all identity
checks are exact equalities.
"""

from loopsym.semifield import (
    DegeneratePoint,
    NeedsSubtraction,
    PolyFraction,
    Rational,
    SemifieldError,
    SparseLoopPoly,
    TropNumber,
)
from loopsym.points import VarMatrix

__all__ = [
    "DegeneratePoint",
    "NeedsSubtraction",
    "PolyFraction",
    "Rational",
    "SemifieldError",
    "SparseLoopPoly",
    "TropNumber",
    "VarMatrix",
]

__version__ = "0.1.0"
