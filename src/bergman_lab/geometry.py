"""Point types for the two domains.

The unit ball ``B`` in ``R^n`` is parametrized by a radius and a unit
direction; the upper half-space ``R^{n+1}_+`` by a lateral coordinate
``y`` in ``R^n`` and a height ``s > 0``.  Batch code works on plain
arrays; these wrappers exist so scalar entry points can validate their
inputs once and pass them around unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["BallPoint", "HalfPoint", "tangent_frame"]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class BallPoint:
    """Point ``r * direction`` of the open unit ball in ``R^n``.

    Parameters
    ----------
    r : float
        Radius, ``0 <= r < 1``.
    direction : ndarray
        Unit vector of shape ``(n,)``.  Stored normalized.
    """

    r: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.ndim != 1 or d.size < 2:
            raise DomainError("direction must be a vector in R^n, n >= 2")
        norm = float(np.linalg.norm(d))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-8:
            raise DomainError("direction must have unit length")
        if norm != 1.0:
            d = d / norm
        object.__setattr__(self, "direction", d)
        r = float(self.r)
        if not (0.0 <= r < 1.0):
            raise DomainError(f"radius {r!r} outside [0, 1)")
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.direction.size

    @property
    def x(self) -> np.ndarray:
        """Cartesian coordinates ``r * direction``."""
        return self.r * self.direction

    @classmethod
    def from_cartesian(cls, x) -> "BallPoint":
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            e = np.zeros(x.size)
            e[0] = 1.0
            return cls(0.0, e)
        return cls(r, x / r)


@dataclass(frozen=True)
class HalfPoint:
    """Point ``(y, s)`` of the upper half-space, ``y`` in ``R^n``, ``s > 0``."""

    y: np.ndarray
    s: float

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        object.__setattr__(self, "y", y)
        s = float(self.s)
        if not (np.isfinite(s) and s > 0.0):
            raise DomainError(f"height {s!r} must be positive")
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.y.size


def tangent_frame(direction):
    """``n - 1`` unit tangent vectors at a unit ``direction``.

    They are the coordinate axes with their ``direction`` component
    removed, normalized, skipping axes nearly parallel to it; they are
    not mutually orthogonal.
    """
    n = direction.size
    frame = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        v = v - np.dot(v, direction) * direction
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            frame.append(v / nrm)
        if len(frame) == n - 1:
            break
    return frame
