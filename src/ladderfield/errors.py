"""Shared exception types.

Everything derives from ValueError so callers that only care about
"bad input somewhere" can catch one base class, while tests and the
CLI can still distinguish the interesting failure modes.
"""

from __future__ import annotations


class SccViolation(ValueError):
    """Raised when link values are not the gradient of any vertex assignment."""

    def __init__(self, message: str, max_residual: float | None = None):
        super().__init__(message)
        self.max_residual = max_residual


class RowSpaceError(ValueError):
    """Raised when a source has a component along a zero mode of the operator.

    The restricted Gaussian integral is only defined for sources in the
    row space; a gauge-direction component makes the mode integral diverge.
    """


class GaugeObstruction(ValueError):
    """Raised when the continued operator is singular along a mode the source excites.

    ``mode_index`` is j = N/4, the antisymmetric mode the continuation puts at eigenvalue zero.
    """

    def __init__(self, message: str, mode_index: int):
        super().__init__(message)
        self.mode_index = mode_index
