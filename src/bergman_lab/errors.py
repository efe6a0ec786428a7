"""Exception types shared across the package.

The hierarchy is shallow on purpose: callers that want to treat every
library failure alike can catch :class:`BergmanLabError`; callers that
need to distinguish a refused hypothesis from a divergent quantity can
catch the specific type.
"""

from __future__ import annotations


class BergmanLabError(Exception):
    """Base class for all library errors."""


class DomainError(BergmanLabError, ValueError):
    """A point or parameter lies outside the documented domain."""


class DivergentSeriesError(BergmanLabError):
    """A series evaluation was requested where it cannot converge."""


class EvaluationError(BergmanLabError):
    """An integrand returned a non-finite value at a quadrature node."""


class DivergenceDetected(BergmanLabError):
    """A truncated integral was classified as divergent.

    Carries the :class:`~bergman_lab.distance.DivergenceProfile` that
    triggered the signal when one is available.
    """

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


class UnboundedNormError(BergmanLabError):
    """A weighted sup norm kept growing at the finest boundary shell."""
