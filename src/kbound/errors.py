"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed or inconsistent input (shapes, signs, missing fields).

    Raised before any numerics run.  The message names the offending
    argument or field.
    """


class NumericalError(RuntimeError):
    """A computation ran but left its tolerance regime.

    Examples: an evolution window outgrew its memory limit, a cut chain
    ran out of listed coefficients, a requested quantity is undefined for
    the given data.
    """
