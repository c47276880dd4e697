"""Shared exception types, which the CLI maps onto exit codes, and the
number rule for every value a caller hands the library: a number is a
real number, a list of numbers a list, tuple or 1-D array of them, and a
count or seed a whole number; finite, positive and nonnegative add a
range to number."""

import math
import numbers

import numpy as np


class InputError(ValueError):
    """Invalid input: a malformed model, manifest or argument."""


class ManifestError(InputError):
    """Malformed or incomplete run manifest."""


class NumericalStateError(RuntimeError):
    """Non-finite state or a failed numerical contract during a run."""


class NewtonConvergenceError(NumericalStateError):
    """Newton iteration failed to meet its residual contract."""


def number(value, what):
    """value as a float when it is a real number (an int, a float or a
    NumPy scalar); a bool, a string, None, anything else and an int too
    large for a float raise InputError.  float() would read True as 1.0
    and "0.5" as 0.5.  float and int are tested ahead of numbers.Real,
    whose ABC check is several times slower, since stable_dt and norms
    call this on every step."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # the message leaves out the value's digits
        raise InputError(f"{what} is too large for a float") from None


def finite(value, what):
    """number(value) when it is finite; InputError otherwise."""
    value = number(value, what)
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def positive(value, what):
    """number(value) when it is finite and above 0; InputError
    otherwise."""
    value = number(value, what)
    if not 0 < value < math.inf:
        raise InputError(f"{what} must be finite and positive, got {value!r}")
    return value


def nonnegative(value, what):
    """number(value) when it is finite and at least 0; InputError
    otherwise."""
    value = number(value, what)
    if not 0 <= value < math.inf:
        raise InputError(f"{what} must be finite and nonnegative, got {value!r}")
    return value


def number_list(values, what, entry=number):
    """values as a tuple of floats, each entry(v, ...) (number, finite,
    positive or nonnegative): from a list, a tuple or a 1-D array.  A
    string is not a list: tuple("12") would read the numbers 1 and 2."""
    if not (isinstance(values, (list, tuple))
            or isinstance(values, np.ndarray) and values.ndim == 1):
        raise InputError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(entry(v, f"every entry of {what}") for v in values)


def whole_number(value, what):
    """value as an int when it is a whole number: 2 and 2.0 count; 2.5,
    non-finite values and whatever number() refuses raise InputError.
    Converting with int() would truncate 2.9 to 2 and run a different
    computation."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not number(value, what).is_integer()):
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)
