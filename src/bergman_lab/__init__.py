"""Weighted harmonic Bergman spaces on the ball and the half-space.

Numerical kernels, norms, integral representations, Whitney
decompositions, and boundary-distance functionals, at desk scale and
with deterministic quadrature throughout.
"""

from . import distance, kernels, quadrature, spaces, verify, whitney
from .errors import (
    BergmanLabError,
    DivergenceDetected,
    DivergentSeriesError,
    DomainError,
    EvaluationError,
    UnboundedNormError,
)
from .geometry import BallPoint, HalfPoint

__version__ = "0.1.0"

__all__ = [
    "distance",
    "kernels",
    "quadrature",
    "spaces",
    "verify",
    "whitney",
    "BergmanLabError",
    "DivergenceDetected",
    "DivergentSeriesError",
    "DomainError",
    "EvaluationError",
    "UnboundedNormError",
    "BallPoint",
    "HalfPoint",
    "__version__",
]
