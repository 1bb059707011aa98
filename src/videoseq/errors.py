"""Exception types shared across the library, and its three value rules: ``check_int`` for
integer settings, ``check_real`` for float settings and ``check_each`` for array values.

Each class maps to one failure category so callers can distinguish bad
shapes from bad files from bad training state without string matching.
"""

import numbers

import numpy as np


class VideoseqError(Exception):
    """Base class for all library errors."""


class DimensionError(VideoseqError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class ConfigurationError(VideoseqError, ValueError):
    """A configuration value is out of its legal range."""


class PreconditionError(VideoseqError, ValueError):
    """A documented precondition does not hold for the given inputs."""


class StateError(VideoseqError, RuntimeError):
    """An object is in the wrong state for the requested operation."""


class ContractError(VideoseqError, ValueError):
    """A call violates an interface contract (e.g. non-scalar loss)."""


class FormatError(VideoseqError, ValueError):
    """A file does not match its declared binary or text format."""


class CorruptionError(VideoseqError, ValueError):
    """A file matches its format header but ends or breaks mid-stream."""


class ValidationError(VideoseqError, ValueError):
    """A record violates bounds declared by its container."""


class InputError(VideoseqError, ValueError):
    """Inputs that are individually valid do not fit together."""


class TrainingError(VideoseqError, RuntimeError):
    """Optimization cannot proceed (e.g. non-finite gradients)."""


def check_int(name: str, value, least: int, most: float = float("inf")) -> int:
    """``value`` as an int in [least, most], or a ConfigurationError naming ``name``."""
    if not isinstance(value, numbers.Integral):  # a float, a string or None
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        bound = f">= {least}" if value < least else f"<= {most}"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return int(value)


def check_real(name: str, value, positive: bool) -> float:
    """``value`` as a finite float, > 0 if ``positive`` else >= 0, or a ConfigurationError."""
    if not isinstance(value, numbers.Real):  # a string or None
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int or a fraction beyond the float range
        value = np.inf
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be finite and {bound}, got {value}")
    return value


def check_each(rule: str, ok, values, error=ValidationError) -> None:
    """Raise ``error`` unless all of the boolean array ``ok`` holds, naming how many of
    ``values`` (the array it was computed from) fail ``rule`` and the first of them."""
    if not np.all(ok):
        bad = np.argwhere(~ok)
        first = tuple(int(i) for i in bad[0])
        raise error(f"{rule}: {len(bad)} of {values.size} are not, "
                    f"the first {values[first]} at index {first}")
