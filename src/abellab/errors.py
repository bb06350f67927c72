"""Exception types shared across the package."""


class AbelLabError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(AbelLabError, ValueError):
    """Two scalars live in distinct quadratic extensions."""


class ZeroDivisorError(AbelLabError, ZeroDivisionError):
    """Division by the zero scalar."""


class ConstantFactorError(AbelLabError, ValueError):
    """A composition factor of degree zero was supplied."""


class PreconditionError(AbelLabError, ValueError):
    """An operation was called outside its stated domain."""


class NotClosedError(PreconditionError):
    """Polynomial does not take equal values at the interval endpoints."""


class KernelNotStabilizedError(AbelLabError, RuntimeError):
    """Moment kernel still shrinking; a larger moment count is needed."""

    def __init__(self, dim_at_imax, dim_of_span, i_max):
        self.dim_at_imax = dim_at_imax
        self.dim_of_span = dim_of_span
        self.i_max = i_max
        super().__init__(
            "kernel not stabilized: dimension %d at moments i <= %d vs %d for the "
            "composition span; increase the moment count" % (dim_at_imax, i_max, dim_of_span)
        )


class FactorBoundError(AbelLabError, AssertionError):
    """More than three indecomposable factor classes were found.

    This should be impossible; an instance is either an implementation bug
    or a genuine counterexample worth reporting.
    """
