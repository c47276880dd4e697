"""Shared exception types, which the CLI maps onto exit codes, and the
number rule for values read from input: a number is a real number, a
list of numbers a list, tuple or 1-D array of them, and a count or seed
a whole number."""

import numbers

import numpy as np


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


def number(value, what):
    """value as a float when it is a real number (an int, a float or a
    NumPy scalar); a bool, a string, None or anything else raises
    InputError.  float() would read True as 1.0 and "0.5" as 0.5."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def number_list(values, what):
    """values as a tuple of floats, each a number(): from a list, a tuple
    or a 1-D array.  A string is not a list: tuple("12") would read the
    numbers 1 and 2."""
    if not (isinstance(values, (list, tuple))
            or isinstance(values, np.ndarray) and values.ndim == 1):
        raise InputError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(number(v, f"every entry of {what}") for v in values)


def whole_number(value, what):
    """value as an int when it is a whole number: 2 and 2.0 count; 2.5,
    non-finite values and whatever number() refuses raise InputError.
    Converting with int() would truncate 2.9 to 2 and run a different
    computation."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)
