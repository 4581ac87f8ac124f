"""Critical coupling constants for short-range attractive pair potentials.

For N identical particles of mass m interacting through V(r) = -g v(r),
where v is a positive dimensionless shape vanishing at infinity, the method
estimates the smallest g supporting a bound state with global quantum
number Q:

    g = 1/(u^2 v(u)) * 2/(N (N-1)^2) * Q^2/m,

where u solves 2 v(u) + u v'(u) = 0.  With bosonic ground-state quantum
numbers the N-dependence obeys g(N+1)/g(N) = N/(N+1) exactly; for fermionic
ground states at large N the ratio tends to (N/(N+1))^((D-2)/D).
"""

from __future__ import annotations

import math

from .errors import InputError
from .laws import Law
from .rootscan import find_roots

__all__ = ["u_star", "critical_g"]

SCAN_LO = 1e-6
SCAN_HI = 1e6


def u_star(shape: Law) -> float:
    """Root of 2 v(u) + u v'(u) = 0 for the shape function v."""

    def balance(u: float) -> float:
        return 2.0 * shape.value(u) + u * shape.d1(u)

    return min(find_roots(balance, SCAN_LO, SCAN_HI))


def critical_g(shape: Law, m: float, N: int, Q: float) -> float:
    """Critical coupling for a bound state with global quantum number Q."""
    if not (math.isfinite(m) and math.isfinite(Q)):
        raise InputError(f"m and Q must be finite, got m = {m}, Q = {Q}")
    if m <= 0.0:
        raise InputError("mass must be positive")
    if N < 2:
        raise InputError("need N >= 2")
    if Q <= 0.0:
        raise InputError("Q must be positive")
    u = u_star(shape)
    return (1.0 / (u * u * shape.value(u))) * (2.0 / (N * (N - 1) ** 2)) * Q * Q / m
