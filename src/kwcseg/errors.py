"""Exception types shared across the package, and the checks every input goes through.

Each check names the input it rejects and raises ConfigError, so an invalid
value fails before any work with a message that says which field is wrong.
Every real input lies in one magnitude envelope (``EXPONENT``).
"""

import math
import numbers

import numpy as np

# The magnitude envelope: every real input has |x| <= 2**EXPONENT, and every
# scale that the code divides by (an input that ``check_real`` takes with
# ``positive``, a grid's spacing h and a sine's |omega|) also x >= 2**-EXPONENT.  At the size
# caps (10**6 nodes, 2000 cells, 400 levels, 10**7 steps) every term that
# kwcseg forms from such inputs then stays finite with room to spare:
# * a flow has s = (lam + 1/dt) h <= 2**202 and a span R of u and g near
#   2**101, so its largest term, the certificate's n (s R + 3 sigma)**2, is
#   near 2**628;
# * an oracle cost (lam / 2)(w (v - mu)**2 + Q) is near 2**403 at most, with
#   every value and level within 2**100, and a DP sum over 2000 cells and 10
#   jumps near 2**415;
# * a closed form divides by L / m >= 2**-200, and every closed form, kernel
#   constant, verdict term and jump-bound ratio lies within 2**+-710.
# All are far inside the float range 2**+-1022, so no module needs a rule
# of its own for overflow or underflow of these terms.
EXPONENT = 100
LARGEST = 2.0**EXPONENT
SMALLEST = 2.0**-EXPONENT


class ConfigError(ValueError):
    """Invalid configuration, CLI arguments, or input files."""


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
    when it is given, and above 0 when ``positive``; within the envelope,
    |x| <= ``LARGEST``, and x >= ``SMALLEST`` when ``positive``."""
    try:
        x = float(value) if is_real(value) else math.nan
    except OverflowError:  # an integer beyond float range
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite and a real number, got {value!r}")
    if positive and not x > 0 or least is not None and x < least:
        raise ConfigError(f"{name} must be {'positive' if positive else f'at least {least}'}, got {value!r}")
    if not abs(x) <= LARGEST or positive and x < SMALLEST:
        raise ConfigError(f"{name} = {x!r} is outside the magnitude envelope {_envelope(positive)}")
    return x


def _envelope(positive: bool) -> str:
    return f"[2**-{EXPONENT}, 2**{EXPONENT}]" if positive else f"|x| <= 2**{EXPONENT}"


def check_reals(name: str, values: np.ndarray) -> None:
    """Reject a float array with an entry that is not finite or lies outside
    the envelope |x| <= ``LARGEST``."""
    outside = ~(np.abs(values) <= LARGEST)
    if outside.any():
        first = float(values[outside][0])
        raise ConfigError(f"{name} must be finite, within the magnitude envelope {_envelope(False)}, got {first!r}")


def check_keys(name: str, cfg, required, optional) -> dict:
    """``cfg`` itself, when it is an object with no key outside ``required``
    and ``optional`` and every key of ``required``.  Unknown keys are named
    first, so a misspelt required key is named as it was written."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{name} must be an object, got {cfg!r}")
    unknown = [key for key in cfg if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{name} needs {key!r}")
    return cfg
