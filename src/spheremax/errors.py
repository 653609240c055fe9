"""Exception hierarchy shared by all solver modules, and the one check of
integral dimensions that every library type runs on its input."""


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


class NotAStateError(SphereMaxError):
    pass


def integers(values, what: str, error=DimensionMismatchError) -> tuple:
    """The values as a tuple of ints.  ints, numpy ints and integral floats
    pass; anything else (2.7, NaN, infinity) raises ``error``, so no
    dimension is ever truncated."""
    given = tuple(values)
    try:
        out = tuple(int(v) for v in given)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != given:
        raise error(f"{what} must be integers, got {given}")
    return out
