"""Exception types shared across the package."""


class NetskelError(ValueError):
    """Base class for all domain errors raised by this package."""


class ParseError(NetskelError):
    """Malformed input text (edge lists, input that is not UTF-8)."""


class ValidationError(NetskelError):
    """Structurally invalid data (self-loops, multilinks, empty graphs, bad group indices)."""


class ConnectivityError(NetskelError):
    """An operation that requires a connected graph received a disconnected one."""


class UnreachableError(NetskelError):
    """The requested destination cannot be reached from the source."""


class DegenerateFitError(NetskelError):
    """Regression input does not determine a power-law fit."""
