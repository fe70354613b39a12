"""Exception types shared across the package, and the check that a
setting is a finite number.

They report faults only.  How a descent stopped (converged, stall or
iteration budget) is not an error: ``mountain_pass.solve`` returns its
SolveResult for every stop and names the stop in ``stop_reason``."""

import math


class NonlocalMPError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(NonlocalMPError):
    """Requested mesh interval is too short for the requested spacing."""


class SingularExteriorBlock(NonlocalMPError):
    """Exterior-exterior block of the Neumann operator is numerically singular."""


class ZeroDirection(NonlocalMPError):
    """Ray maximizer is undefined: the direction has no energy content."""


class SingularSystem(NonlocalMPError):
    """Linear solve failed even after grounding."""


class InvariantViolation(NonlocalMPError):
    """A guarantee of the descent scheme failed at an iteration.

    Raised by the in-loop checks; ``iteration`` is the 1-based iteration.
    """

    def __init__(self, message, iteration):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


class ConfigError(NonlocalMPError):
    """A configuration could not be parsed or a setting is out of range.

    ``line`` is the 1-based line number when known, ``key`` the offending key.
    """

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key


def check_finite(pairs, error=None):
    """Raise for the first (name, value) of ``pairs`` whose value is not a
    finite number: a ConfigError keyed by the name, or ``error`` (an
    exception class taking the message) when one is given."""
    for name, value in pairs:
        try:
            finite = math.isfinite(value)
        except OverflowError:       # an integer too large for a float
            finite = False
        if not finite:
            message = f"{name} must be a finite number, got {value!r}"
            raise error(message) if error else ConfigError(message, key=name)


class ExtensionMarginWarning(UserWarning):
    """Neumann extension margin is smaller than the kernel truncation radius."""
