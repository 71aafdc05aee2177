"""Exception types shared across the package, and the field checks that raise them."""

import math
import numbers


class SkeceError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SkeceError, ValueError):
    """Invalid parameter or configuration value."""


def check_integer(name, value, low, high=None) -> None:
    """Refuse ``value`` unless it is an integer, not a bool, in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        within = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ConfigError(f"{name} must {within}, got {value}")


def check_real(name, value, low, high=None, low_open=False, high_open=False) -> None:
    """Refuse ``value`` unless it is a real number, not a bool, within the bounds.

    Each end is closed unless marked open; with no ``high`` the top end is
    open at infinity, so ``inf`` fails. Every comparison is written so that
    a NaN, which compares false, fails it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    top = math.inf if high is None else high
    above = value > low if low_open else value >= low
    below = value < top if high_open or high is None else value <= top
    if not (above and below):
        if high is None:
            within = f"be finite and {'>' if low_open else '>='} {low}"
        else:
            within = f"lie in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
        raise ConfigError(f"{name} must {within}, got {value}")


class TraceFormatError(SkeceError, ValueError):
    """A trace file violates the CSV trace format.

    Carries the offending 1-based line number when one can be named.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DesyncError(SkeceError, RuntimeError):
    """The two parties' shared state diverged (drop lists, plans, positions)."""


class WireFormatError(SkeceError, ValueError):
    """A wire frame or payload cannot be encoded or decoded."""


class ProtocolError(SkeceError, RuntimeError):
    """Parameter disagreement or an illegal protocol state."""


class InsufficientBitsError(SkeceError, RuntimeError):
    """Not enough extracted bits to build a key of the requested length."""
