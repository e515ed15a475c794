"""Exception hierarchy.

CLI exit-code mapping: ConfigError / ModelValidationError -> 2,
NumericsError (and subclasses) and OSError -> 3, usage errors and
ValueError -> 64.
"""


class DividendOptError(Exception):
    """Base class for all package errors."""


class ConfigError(DividendOptError):
    """Malformed configuration document or structurally invalid model."""


class ModelValidationError(DividendOptError):
    """Model instance rejected by the standing-assumption checks."""


class NumericsError(DividendOptError):
    """A numerical procedure failed or its result is unusable."""


class DomainTooShortError(NumericsError):
    """Truncation domain too short for the requested computation."""

    def __init__(self, message, suggested_x_max=None):
        super().__init__(message)
        self.suggested_x_max = suggested_x_max


class OverflowDomainError(NumericsError):
    """Scale function exceeds float range."""

    def __init__(self, message, largest_safe_x_max=None):
        super().__init__(message)
        self.largest_safe_x_max = largest_safe_x_max


class HorizonError(NumericsError):
    """Simulation horizon too short for the target truncation bound."""

    def __init__(self, message, required_horizon=None):
        super().__init__(message)
        self.required_horizon = required_horizon
