"""Exception types shared across the package, and the checks every input goes through.

Each check names the input it rejects and raises ConfigError, so an invalid
value fails before any work with a message that says which field is wrong.
"""

import math
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


def check_count(name: str, value, least: int = 0, most: int | None = None) -> None:
    """Reject a count that is not an integer (a bool included) of at least
    ``least``, and of at most ``most`` when it is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{name} = {value} exceeds the limit {most}")


def is_real(value) -> bool:
    """A real number that is not a bool: what every real-valued input must be."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_real(name: str, value, least: float | None = None, positive: bool = False) -> float:
    """A finite real number that is not a bool, as a float: at least ``least``
    when it is given, and above 0 when ``positive``."""
    try:
        x = float(value) if is_real(value) else math.nan
    except OverflowError:  # an integer beyond float range
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite and a real number, got {value!r}")
    if positive and not x > 0 or least is not None and x < least:
        raise ConfigError(f"{name} must be {'positive' if positive else f'at least {least}'}, got {value!r}")
    return x


def check_keys(name: str, cfg, required, optional) -> dict:
    """``cfg`` itself, when it is an object with every key of ``required`` and
    no key outside ``required`` and ``optional``."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{name} must be an object, got {cfg!r}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{name} needs {key!r}")
    unknown = [key for key in cfg if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    return cfg
