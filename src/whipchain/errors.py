"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configuration files."""


class NumericError(RuntimeError):
    """Raised when integration or a linear solve fails: NaN/Inf state, a
    tension system that is not positive definite, or a broken solve check.

    ``chain`` is the index of the failing chain within its batch, when the
    failure belongs to one chain."""

    def __init__(self, message: str, chain: int | None = None):
        super().__init__(message)
        self.chain = chain


class FitRejected(Exception):
    """Signal that a blowup fit was not attempted (non-monotone or short tail)."""
