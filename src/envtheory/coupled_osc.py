"""Two coupled one-dimensional oscillators.

Quantizes H = (p1^2/mu_a + p2^2/mu_b + k_a x1^2 + k_b x2^2 + k_c x1 x2)/2
through the normal-mode constants (A, B) and the geometric mean mass
mu = sqrt(mu_a mu_b):

    E(n, n') = sqrt(A/mu) (n + 1/2) + sqrt(B/mu) (n' + 1/2).

(A, B) are the eigenvalues of the symmetric matrix [[a, k_c/2], [k_c/2, b]]
with a = sqrt(mu_b/mu_a) k_a and b = sqrt(mu_a/mu_b) k_b; the A root is the
one that goes over into a when the coupling is switched off, so n counts the
x1-dominant mode.  At b = a, where neither root is x1-dominant, A is
a - k_c/2.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InputError, UnstableModeError
from .records import Record

__all__ = ["OscPair", "normal_modes", "level"]


class OscPair(Record, namedtuple("OscPair", "mu_a mu_b k_a k_b k_c")):
    """Masses and stiffnesses of the coupled pair; k_c may have any sign."""

    __slots__ = ()

    def __new__(cls, mu_a: float, mu_b: float, k_a: float, k_b: float,
                k_c: float = 0.0) -> OscPair:
        if mu_a <= 0.0 or mu_b <= 0.0:
            raise InputError("effective masses must be positive")
        return tuple.__new__(cls, (mu_a, mu_b, k_a, k_b, k_c))


def normal_modes(pair: OscPair) -> tuple[float, float, float]:
    """Return (A, B, mu) for the pair.

    A or B may come out non-positive for an unstable quadratic form; callers
    decide whether that is an error.  With eps = (b - a)/k_c the constants are
    a - k_c w/2 and b + k_c w/2, where w = 1/(eps + s hypot(1, eps)) and
    s = 1 for eps >= 0 (b = a included), -1 otherwise.  Both terms of the
    denominator share a sign, so w is formed without cancellation, and it goes
    to 0 as k_c -> 0.
    """
    mu = math.sqrt(pair.mu_a * pair.mu_b)
    ratio = math.sqrt(pair.mu_b / pair.mu_a)
    a = ratio * pair.k_a
    b = pair.k_b / ratio
    k_c = pair.k_c
    if k_c == 0.0:
        return a, b, mu
    eps = (b - a) / k_c
    s = 1.0 if eps >= 0.0 else -1.0
    w = 1.0 / (eps + s * math.hypot(1.0, eps))
    return a - 0.5 * k_c * w, b + 0.5 * k_c * w, mu


def level(pair: OscPair, n: int, n_prime: int) -> float:
    """Energy of the level with n quanta in the A mode and n' in the B mode."""
    if n < 0 or n_prime < 0:
        raise InputError("oscillator quantum numbers must be non-negative")
    A, B, mu = normal_modes(pair)
    if A < 0.0 or B < 0.0:
        raise UnstableModeError(f"negative normal-mode constant (A={A}, B={B})")
    return math.sqrt(A / mu) * (n + 0.5) + math.sqrt(B / mu) * (n_prime + 0.5)
