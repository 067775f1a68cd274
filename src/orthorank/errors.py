"""Exception types shared across the package, and its numeric-argument check."""

import abc
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


_NUMBER_TYPES: dict[tuple[type, type, object], bool] = {}


def _is_number(value, kinds=numbers.Real) -> bool:
    """A real scalar (numpy scalars included) that is not a bool.

    The answer depends only on the value's type, so it is cached per
    (type, kinds): the ABC ``isinstance`` check runs once per pair. The key
    also holds ``abc.get_cache_token()``, which every ABC registration
    changes, so a type registered later is not answered from the cache.
    """
    key = (type(value), kinds, abc.get_cache_token())
    answer = _NUMBER_TYPES.get(key)
    if answer is None:
        answer = _NUMBER_TYPES[key] = isinstance(value, kinds) and not isinstance(value, bool)
    return answer
