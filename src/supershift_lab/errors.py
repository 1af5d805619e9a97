"""Exception types shared across the library."""


class SupershiftError(Exception):
    """Base class for all library-specific failures."""


class EvaluationOverflow(SupershiftError):
    """An intermediate exponential left the representable double range."""


class DomainMarginError(SupershiftError):
    """An evaluation point came closer to an excluded pole than allowed."""


class PanelExhausted(SupershiftError):
    """Adaptive quadrature hit the panel budget before reaching tolerance.

    Carries the best value and error estimate obtained so far (arrays with
    one entry per signal for a stack of signals).
    """

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class HorizonExceeded(SupershiftError):
    """A time outside the kernel's solved span was requested."""


class PrecisionExhausted(SupershiftError):
    """The working precision cannot absorb the cancellation."""
