"""Exception hierarchy shared across the package."""


class ZonolatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ZonolatError, ValueError):
    """Vector or matrix shapes do not match."""


class InvalidInputError(ZonolatError, ValueError):
    """Caller-supplied data violates a documented precondition."""


class SizeCapError(ZonolatError, ValueError):
    """An exhaustive routine was asked to run beyond its configured cap."""


class InternalInvariantError(ZonolatError, RuntimeError):
    """A runtime self-check failed; indicates a bug, never bad input."""


class OracleFailureError(ZonolatError, RuntimeError):
    """The brute-force oracle could not certify its own answer."""
