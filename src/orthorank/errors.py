"""Exception types shared across the package, and its numeric-argument check."""

import numbers


class OrthoRankError(Exception):
    """Base class for all package errors."""


class ShapeError(OrthoRankError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(OrthoRankError):
    """A model or run configuration violates a structural constraint."""


class CheckpointError(OrthoRankError):
    """A checkpoint directory is malformed, inconsistent, or truncated."""


class StateError(OrthoRankError):
    """A mutable runtime object (e.g. a KV cache) is in an invalid state."""


class UsageError(OrthoRankError):
    """An operation was invoked with unusable inputs (empty sequence, short corpus, ...)."""


class DomainError(OrthoRankError):
    """A numeric input lies outside the mathematical domain of the operation."""


def _is_number(value, kinds=numbers.Real) -> bool:
    """A real scalar (numpy scalars included) that is not a bool."""
    return isinstance(value, kinds) and not isinstance(value, bool)
