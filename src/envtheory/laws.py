"""Kinetic and potential laws with exact first and second derivatives.

A law is a scalar function of one positive real (a momentum for kinetic
energies, a distance for potentials).  The solvers consume the value and the
first two derivatives at arbitrary points, so every built-in kind carries
closed-form expressions for all three; finite differences appear only in the
test suite as an independent cross-check.  Numerical differentiation inside
the solvers would pollute the extraction of the deformation parameters, which
depends on second derivatives.

Law objects are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InputError

__all__ = [
    "Law",
    "power",
    "kinetic_power",
    "potential_power",
    "coulomb",
    "harmonic",
    "gaussian_well",
    "exponential_well",
    "make_weighted_sum",
    "custom",
    "power_parameters",
]


def _check_finite(what: str, *constants: float) -> None:
    if not all(math.isfinite(c) for c in constants):
        raise InputError(f"{what} needs finite constants, got {constants}")


@dataclass(frozen=True)
class Law:
    """A scalar law f of one positive real.

    ``value``, ``d1`` and ``d2`` are closed-form callables for f, f' and f''.
    ``params`` records the defining constants of the built-in kinds so that
    higher layers can recognize special structure (pure power laws admit an
    analytic energy formula and a variational character).  No domain is
    checked: the solvers evaluate laws at strictly positive arguments only,
    and a law that overflows or divides by zero there raises the plain
    Python error.
    """

    kind: str
    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    params: tuple[float, ...] = ()


def power(coefficient: float, exponent: float) -> Law:
    """Monomial law c * x**e with a signed coefficient and any real exponent."""
    _check_finite("power law", coefficient, exponent)
    if coefficient == 0.0:
        raise InputError("power law needs a nonzero coefficient")
    c, e = float(coefficient), float(exponent)
    return Law(
        kind="power",
        value=lambda x: c * x ** e,
        d1=lambda x: c * e * x ** (e - 1.0),
        d2=lambda x: c * e * (e - 1.0) * x ** (e - 2.0),
        params=(c, e),
    )


def kinetic_power(coefficient: float, exponent: float) -> Law:
    """Kinetic power law F * p**alpha; both constants must be positive.

    Positivity makes the law strictly increasing on (0, inf), the property
    the solvers rely on for a kinetic part.  The nonrelativistic case is
    (1/(2m), 2), the ultrarelativistic one (1, 1).
    """
    if coefficient <= 0.0 or exponent <= 0.0:
        raise InputError("kinetic power law requires coefficient > 0 and exponent > 0")
    return power(coefficient, exponent)


def potential_power(strength: float, exponent: float) -> Law:
    """Power potential sgn(beta) * G * x**beta with G > 0, beta != 0.

    The sign convention ties the attraction/confinement character to the
    exponent: negative exponents give attractive singular tails, positive
    ones give confining growth.
    """
    if strength <= 0.0:
        raise InputError("potential strength must be positive (sign comes from the exponent)")
    if exponent == 0.0:
        raise InputError("potential exponent must be nonzero")
    return power(math.copysign(strength, exponent), exponent)


def coulomb(strength: float) -> Law:
    """Attractive Coulomb law -G/x with G > 0."""
    _check_finite("coulomb law", strength)
    if strength <= 0.0:
        raise InputError("coulomb strength must be positive")
    g = float(strength)
    return Law(
        kind="coulomb",
        value=lambda x: -g / x,
        d1=lambda x: g / (x * x),
        d2=lambda x: -2.0 * g / (x * x * x),
        params=(g,),
    )


def harmonic(strength: float) -> Law:
    """Harmonic law k * x**2 with k > 0."""
    _check_finite("harmonic law", strength)
    if strength <= 0.0:
        raise InputError("harmonic strength must be positive")
    k = float(strength)
    return Law(
        kind="harmonic",
        value=lambda x: k * x * x,
        d1=lambda x: 2.0 * k * x,
        d2=lambda x: 2.0 * k,
        params=(k,),
    )


def gaussian_well(depth: float, width: float = 1.0) -> Law:
    """Gaussian well -depth * exp(-(x/width)**2) with depth, width > 0."""
    _check_finite("gaussian well", depth, width)
    if depth <= 0.0 or width <= 0.0:
        raise InputError("gaussian well requires depth > 0 and width > 0")
    g, w2 = float(depth), float(width) ** 2

    def _val(x: float) -> float:
        return -g * math.exp(-x * x / w2)

    return Law(
        kind="gaussian-well",
        value=_val,
        d1=lambda x: -_val(x) * 2.0 * x / w2,
        d2=lambda x: -_val(x) * (2.0 / w2 - 4.0 * x * x / (w2 * w2)),
        params=(g, math.sqrt(w2)),
    )


def exponential_well(depth: float, scale: float = 1.0) -> Law:
    """Exponential well -depth * exp(-x/scale) with depth, scale > 0."""
    _check_finite("exponential well", depth, scale)
    if depth <= 0.0 or scale <= 0.0:
        raise InputError("exponential well requires depth > 0 and scale > 0")
    g, s = float(depth), float(scale)
    return Law(
        kind="exponential-well",
        value=lambda x: -g * math.exp(-x / s),
        d1=lambda x: (g / s) * math.exp(-x / s),
        d2=lambda x: -(g / (s * s)) * math.exp(-x / s),
        params=(g, s),
    )


def make_weighted_sum(terms: Sequence[tuple[float, Law]]) -> Law:
    """Coefficient-weighted sum of laws.

    Derivatives are the weighted sums of the members', exact to round-off.
    """
    if not terms:
        raise InputError("weighted sum needs at least one term")
    frozen = tuple((float(c), law) for c, law in terms)
    _check_finite("weighted sum", *(c for c, _ in frozen))
    return Law(
        kind="weighted-sum",
        value=lambda x: sum(c * law.value(x) for c, law in frozen),
        d1=lambda x: sum(c * law.d1(x) for c, law in frozen),
        d2=lambda x: sum(c * law.d2(x) for c, law in frozen),
    )


def custom(value: Callable[[float], float], d1: Callable[[float], float],
           d2: Callable[[float], float], kind: str = "custom") -> Law:
    """Wrap user-supplied value/d1/d2 callables as a Law.

    Extensibility hook for laws outside the built-in kinds; the caller is
    responsible for the consistency of the three callables.
    """
    return Law(kind=kind, value=value, d1=d1, d2=d2)


def power_parameters(law: Law) -> tuple[float, float] | None:
    """Return (coefficient, exponent) if ``law`` is a pure power law, else None.

    Harmonic and coulomb laws are power laws in disguise and are reported
    as such.
    """
    if law.kind == "power":
        return law.params[0], law.params[1]
    if law.kind == "harmonic":
        return law.params[0], 2.0
    if law.kind == "coulomb":
        return -law.params[0], -1.0
    return None
