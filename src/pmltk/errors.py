"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes through ``EXIT_CODES``: configuration
problems exit with 1, data problems with 2, numeric failures with 3.
"""


class PmltkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PmltkError):
    """Invalid configuration or usage (bad flag value, k >= n, ...)."""


class DataError(PmltkError):
    """Problem with dataset content or files."""


class ParseError(DataError):
    """Malformed input file. Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RangeError(ParseError):
    """Feature or label index outside the dimensions declared in the header."""


class ValidationError(DataError):
    """Data violates an invariant (empty label set, non-binary labels, ...)."""


class StateError(DataError):
    """Operation needs state the object does not carry (e.g. ground truth)."""


class ShapeError(DataError):
    """Matrix dimensions do not line up."""


class NumericError(PmltkError):
    """Numerical failure: non-finite input, factorization or SVD breakdown."""


EXIT_CODES = {ConfigError: 1, DataError: 2, NumericError: 3}
