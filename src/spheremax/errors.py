"""Exception hierarchy shared by all solver modules."""


class SphereMaxError(Exception):
    """Base class for all solver errors."""


class DimensionMismatchError(SphereMaxError):
    pass


class NoConvergenceError(SphereMaxError):
    pass


class ZeroGradientError(SphereMaxError):
    pass


class NotZeroDimensionalError(SphereMaxError):
    pass


class BudgetExceededError(SphereMaxError):
    pass


class PreconditionViolatedError(SphereMaxError):
    pass


class NotAStateError(SphereMaxError):
    pass
