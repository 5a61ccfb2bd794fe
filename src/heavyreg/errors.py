"""Exception types shared across the package, one per cause.

``ConfigError`` means the caller's arguments are invalid; ``ConvergenceError``
means the arguments are valid but a numerical method missed its own
tolerance.  The command line maps them to exit codes 2 and 1.
"""


class HeavyRegError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(HeavyRegError, ValueError):
    """An argument, constructor field or configuration value is invalid."""


class ConvergenceError(HeavyRegError):
    """A numerical method (solver, quadrature, decomposition) missed its own tolerance."""
