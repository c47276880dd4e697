"""Shared exception types, which the CLI maps onto exit codes, and the
whole-number rule for counts and seeds read from input."""


class ModelDefinitionError(ValueError):
    """Invalid model data: dimension mismatch or malformed terms."""


class InputError(ValueError):
    """Invalid operation input (degenerate region, bad sizes, short series)."""


class ManifestError(InputError):
    """Malformed or incomplete run manifest."""


class NumericalStateError(RuntimeError):
    """Non-finite state or a failed numerical contract during a run."""


class NewtonConvergenceError(NumericalStateError):
    """Newton iteration failed to meet its residual contract."""


def whole_number(value, what):
    """value as an int when it is a whole number: 2 and 2.0 count; 2.5,
    True and non-finite values raise InputError.  Converting with int()
    would truncate 2.9 to 2 and run a different computation."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)
