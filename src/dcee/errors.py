"""Exception types shared across the package."""

__all__ = ["ConfigError", "DomainError", "RegulationError", "NumericalError"]


class ConfigError(ValueError):
    """Scenario configuration is malformed or internally inconsistent."""


class DomainError(ValueError):
    """The polynomial optimum map was given non-finite coefficients; ``rows``
    marks the rows it refused."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class RegulationError(ValueError):
    """The servo gain equations are unsolvable for the given plant."""


class NumericalError(RuntimeError):
    """A simulation produced non-finite values mid-run.

    Carries the step index at which the failure was detected and the
    failing seed's rows before it, a ``Trace``; the caller decides whether
    to write them.
    """

    def __init__(self, message, step=None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace
