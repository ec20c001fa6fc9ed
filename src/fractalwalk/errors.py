"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigurationError", "SequenceFormatError", "SamplingBudgetError"]


class ConfigurationError(ValueError):
    """A parameter object or CLI flag violates a documented invariant."""


class SequenceFormatError(ValueError):
    """A serialized sequence file is malformed or has the wrong magic/version."""


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its trial budget before producing a sample."""
