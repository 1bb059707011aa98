"""Exception types shared across the library, and its four rules: ``check_int`` for
integer settings, ``check_real`` for float settings, ``check_each`` for array values and
``check_shape`` for array shapes.

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
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # True is an Integral
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        bound = f">= {least}" if value < least else f"<= {most}"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return int(value)


def check_real(name: str, value, positive: bool) -> float:
    """``value`` as a finite float, > 0 if ``positive`` else >= 0, or a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # True is a Real
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


def check_shape(what: str, shape, expected: tuple) -> tuple:
    """``shape`` as a tuple, or a DimensionError naming ``what`` unless it has the rank of
    ``expected`` and each size ``expected`` gives (``None`` matches any) is the same there."""
    shape = tuple(shape)
    if len(shape) != len(expected) or any(e is not None and e != s for s, e in zip(shape, expected)):
        sizes = " x ".join("*" if e is None else str(e) for e in expected)
        raise DimensionError(f"{what} has shape {shape}, expected [{sizes}]")
    return shape
