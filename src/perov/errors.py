"""Exception types shared across the library."""

from __future__ import annotations


class UsageError(ValueError):
    """The caller violated a precondition (bad dimensions, invalid values)."""


class NotCertifiedError(Exception):
    """Contraction certification failed.

    Carries the spectral radius estimate so callers can report how far the
    matrix is from being certifiable; the message names the check that
    failed (a singular 1 - k, a residual over the cap, a negative entry of
    (1 - k)^-1, or a spectral radius bound not below 1 - tol).
    """

    def __init__(self, estimate: float, message: str):
        self.estimate = float(estimate)
        super().__init__(message)


class PreimageError(Exception):
    """A supplied preimage oracle failed its residual check."""


class EvaluationError(Exception):
    """A map evaluation produced a non-finite value."""
