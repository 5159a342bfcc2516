"""Exception types shared across the package, and the count and real-number checks."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration, CLI arguments, or input files."""


class ConditionError(ValueError):
    """A kernel fails a structural condition required by the caller."""


class DivergenceError(RuntimeError):
    """A gradient flow produced non-finite values."""

    def __init__(self, message, state=None, trace=None):
        super().__init__(message)
        self.state = state
        self.trace = trace


class InvariantViolation(RuntimeError):
    """An output violated a bound that the theory guarantees."""


def check_count(name: str, value, least: int = 0) -> None:
    """Reject a count that is not an integer (a bool included) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


def is_real(value) -> bool:
    """A real number that is not a bool: what every real-valued input must be."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
