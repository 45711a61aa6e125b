"""Exception hierarchy shared by all bellhv modules.

Every failure the package raises deliberately derives from
:class:`BellhvError`, so callers can catch one type at the boundary (the
command line tool does exactly that).  Each subclass also inherits the
closest builtin so generic handlers keep working.
"""

from __future__ import annotations


class BellhvError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BellhvError, ValueError):
    """A configuration value is outside its documented domain."""


class AngleDomainError(BellhvError, ValueError):
    """An angle argument lies outside the domain required by the operation."""


class DimensionError(BellhvError, ValueError):
    """A matrix or scenario dimension is unsupported or inconsistent."""


class HermiticityError(BellhvError, ValueError):
    """A matrix that must be Hermitian is not, within tolerance."""


class RegimeError(BellhvError, ValueError):
    """Operators violate the algebraic constraints of the selected regime."""


class DegenerateModelError(BellhvError, ArithmeticError):
    """A transmission model is unusable (e.g. vanishing pair transmission)."""


class QuadratureConvergenceError(BellhvError, ArithmeticError):
    """Adaptive refinement exhausted its budget before reaching the target.

    Carries the best value seen so far plus its error estimate so callers can
    decide whether the partial answer is still useful.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate

    def __reduce__(self):
        # pickling calls the class with `args`, which hold only the message;
        # the fit's restart workers send errors back pickled
        return type(self), (self.args[0], self.value, self.error_estimate)
