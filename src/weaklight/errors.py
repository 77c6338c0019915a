"""Exceptions shared across the simulator, and the one check of each kind of scalar argument."""

import math
import operator
from contextlib import suppress


class PostselectionNull(Exception):
    """The post-selected amplitude is below the singular tolerance.

    The transfer function vanishes (or is identically zero) at the requested
    point, so its phase and group delay are undefined there.
    """


class BadBracket(ValueError):
    """The search bracket handed to the angle estimator is unusable."""


def _finite(name, value):
    """``value`` as a finite float; the message shows what ``float()`` made of it."""
    # not contextlib.suppress, which costs about 0.4 µs on every scalar evaluation
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if math.isfinite(value):
            return value
    raise ValueError(f"{name} must be finite, got {value!r}")


def _finite_complex(name, value):
    """``value`` as a finite complex, the complex counterpart of ``_finite``."""
    try:
        z = complex(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    raise ValueError(f"{name} must be finite, got {value!r}")


def _ends(name, value):
    """The two ends of the range ``value`` as finite floats; a range is exactly a pair."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (lo, hi), got {value!r}") from None
    return _finite(f"{name}[0]", lo), _finite(f"{name}[1]", hi)


def _positive(name, value):
    """``value`` as a float that is finite and > 0: a tolerance or a step."""
    with suppress(TypeError, ValueError, OverflowError):
        value = float(value)
        if value > 0.0 and math.isfinite(value):
            return value
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _power_of_two(name, value, least):
    """``value`` as an int, a power of two >= ``least``; 64.9 and "64" are refused."""
    with suppress(TypeError):
        n = operator.index(value)
        if n >= least and not n & (n - 1):
            return n
    raise ValueError(f"{name} must be a power of two >= {least}, got {value!r}")
