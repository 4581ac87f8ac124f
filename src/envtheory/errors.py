"""Exception hierarchy shared by all solver layers, and the one check of a finite result."""

from __future__ import annotations

import math
from typing import Callable


class EnvTheoryError(Exception):
    """Base class for every error raised by this package."""


class InputError(EnvTheoryError):
    """Malformed or inconsistent user input (bad parameters, bad files)."""


def require_finite(name: str, value: float) -> float:
    """``value`` itself; InputError naming ``name`` where the inputs drove it beyond the floats."""
    if not math.isfinite(value):
        raise InputError(f"{name} = {value} is not finite: the inputs leave the floating range")
    return value


def finite(name: str, compute: Callable[[], float]) -> float:
    """compute() through require_finite, where an overflow or a division by zero counts as inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return require_finite(name, value)


class NoRootError(EnvTheoryError):
    """No sign change was found on the scanned range.

    The ``trace`` attribute holds a short list of sampled (x, f(x)) pairs so
    a failed scan can be diagnosed without rerunning it.
    """

    def __init__(self, message: str, trace: list[tuple[float, float]] | None = None):
        super().__init__(message)
        self.trace = trace or []


class NonConvergenceError(EnvTheoryError):
    """The Newton iteration did not converge.

    Carries the last iterate and residuals for diagnosis.
    """

    def __init__(self, message: str, last_point: tuple[float, ...] = (),
                 residuals: tuple[float, ...] = ()):
        super().__init__(message)
        self.last_point = last_point
        self.residuals = residuals


class UnstableOrbitalError(EnvTheoryError):
    """The quadratic form around the orbital solution is not positive.

    Radial quantization around the orbital motion is then impossible, so no
    deformation parameter can be extracted.
    """


class UnstableModeError(EnvTheoryError):
    """A normal-mode constant is negative; the oscillator level is undefined."""


class DegenerateOrbitalError(EnvTheoryError):
    """The orbital quantum number vanishes; the orbital-only set degenerates."""


class NoBindingError(EnvTheoryError):
    """No negative-energy solution exists for a system expected to bind."""


class UnsupportedRegimeError(EnvTheoryError):
    """Parameters outside the validity region of a closed form."""
