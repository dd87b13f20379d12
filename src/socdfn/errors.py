"""Exception types shared across the package.

The CLI maps these onto distinct exit codes through its table
cli._EXIT_CODES. check_range and check_choice hold the one rule for a
setting's allowed type and values.
"""

import math
from numbers import Integral, Real


class SocdfnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SocdfnError, ValueError):
    """Invalid run configuration: bad fractions, fold counts, layer sizes."""


class ShapeError(SocdfnError, ValueError):
    """Dimension mismatch between arrays, layers, or gradients."""


class DataError(SocdfnError, ValueError):
    """Malformed or invalid input data (CSV schema, parse, bounds)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateFeatureError(DataError):
    """A feature is constant on the fit set, so it cannot be normalized."""


class ModelFormatError(DataError):
    """Model file is corrupt, truncated, or has an unsupported version."""


class ContractError(SocdfnError, RuntimeError):
    """An API precondition was violated (stale cache, unfitted normalizer)."""


class NumericError(SocdfnError, ArithmeticError):
    """Training produced a non-finite loss or otherwise diverged."""


# The words of each range a setting may be in, the number type its values
# take, and the test of a value against it; NaN, +inf and -inf fail every test.
_RANGES = {
    "positive": (Real, lambda x: 0.0 < x < math.inf),
    "non-negative": (Real, lambda x: 0.0 <= x < math.inf),
    "finite": (Real, lambda x: -math.inf < x < math.inf),
    "in [0, 1)": (Real, lambda x: 0.0 <= x < 1.0),
    "in (0, 100]": (Real, lambda x: 0.0 < x <= 100.0),
    ">= 1": (Integral, lambda x: 1 <= x < math.inf),
    ">= 2": (Integral, lambda x: 2 <= x < math.inf),
    "in [0, 2^64)": (Integral, lambda x: 0 <= x <= 2**64 - 1),
}


def check_range(name: str, value, kind: str) -> None:
    """Raise ConfigError unless value is of kind's type, never a bool, and in its range."""
    cls, in_range = _RANGES[kind]
    number = isinstance(value, Real) and not isinstance(value, bool)
    if number and not in_range(value):
        raise ConfigError(f"{name} must be {kind}, got {value}")
    if not number or not isinstance(value, cls):
        what = "an integer" if cls is Integral else "a number"
        raise ConfigError(f"{name} {value!r} is not {what}")


def check_choice(what: str, value, choices: tuple) -> None:
    """Raise ConfigError unless value is a string among choices."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} {value!r} is not a string")
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r}, expected one of {choices}")
