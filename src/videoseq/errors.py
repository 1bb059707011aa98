"""Exception types shared across the library, and ``check_int``, the one integer rule.

Each class maps to one failure category so callers can distinguish bad
shapes from bad files from bad training state without string matching.
"""

import numbers


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
