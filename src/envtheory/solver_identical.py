"""Solver for N identical particles.

The method replaces the N-body problem by a compact set of three equations
for the mean per-particle momentum p0 and the mean inter-particle distance
rho0, with C2 = N(N-1)/2 interacting pairs:

    E = N T(p0) + C2 V(rho0),
    N T'(p0) p0 = C2 V'(rho0) rho0,
    Q = sqrt(C2) rho0 p0.

The quantization condition eliminates p0, leaving one transcendental equation
in rho0.  The improved variant deforms the global quantum number to
Q_phi = phi*nu + lam, with phi extracted by quantizing small radial
oscillations around the purely orbital solution (Q replaced by lam alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import laws
from .errors import (DegenerateOrbitalError, InputError, UnstableOrbitalError,
                     UnsupportedRegimeError)
from .qnum import QuantumSpec
from .rootscan import find_roots

__all__ = [
    "IdenticalSystem",
    "EtSolution",
    "DosmIdenticalReport",
    "pair_count",
    "solve_et",
    "power_law_energy",
    "dosm_identical",
    "phi_identical",
    "solve_iet",
]

SCAN_LO = 1e-8
SCAN_HI = 1e8


def pair_count(N: int) -> float:
    """Number of interacting pairs C2 = N(N-1)/2."""
    return 0.5 * N * (N - 1)


@dataclass(frozen=True)
class IdenticalSystem:
    """N identical particles in D dimensions with kinetic law T and pair potential V."""

    N: int
    D: int
    kinetic: laws.Law
    potential: laws.Law

    def __post_init__(self) -> None:
        if self.N < 2:
            raise InputError("need N >= 2")
        if self.D < 2:
            raise InputError("need D >= 2")


@dataclass(frozen=True)
class EtSolution:
    """Converged solution of the compact set.

    ``all_roots`` lists every (energy, rho0) pair found on the scan range,
    sorted by energy; the reported solution is the requested one among them.
    ``variational`` records the bound character when it is known from the
    structure of the laws ("upper", "lower", "exact"), otherwise "unknown".
    """

    energy: float
    rho0: float
    p0: float
    q: float
    residual_motion: float
    residual_quantization: float
    n_roots: int
    all_roots: tuple[tuple[float, float], ...]
    variational: str = "unknown"
    phi: float | None = None


@dataclass(frozen=True)
class DosmIdenticalReport:
    """Radial-oscillation analysis around the purely orbital solution.

    mu and k are the effective mass and stiffness of the collective radial
    mode; phi is the quantum-number deformation they imply.
    """

    energy_orbital: float
    rho0: float
    p0: float
    mu: float
    k: float
    lam: float
    phi: float
    n_pairs: float

    def level(self, nu: float) -> float:
        """Energy with radial aggregate nu on top of the orbital motion."""
        return self.energy_orbital + math.sqrt(self.k / (self.n_pairs * self.mu)) * nu


def _signed_power(law: laws.Law) -> tuple[float, float] | None:
    """(G, beta) if ``law`` is a power potential in the sign convention, else None."""
    p = laws.power_parameters(law)
    if p is None:
        return None
    c, e = p
    if e == 0.0 or math.copysign(1.0, c) != math.copysign(1.0, e):
        return None
    return abs(c), e


def _variational_character(system: IdenticalSystem) -> str:
    """Bound character of the undeformed solution, when the laws reveal it.

    Known only for pure power laws: upper bound below the harmonic exponent,
    lower bound above it, exact at it.  Everything else is "unknown".
    """
    kin = laws.power_parameters(system.kinetic)
    pot = _signed_power(system.potential)
    if kin is None or pot is None or kin[0] <= 0.0 or kin[1] <= 0.0:
        return "unknown"
    beta = pot[1]
    if beta == 2.0:
        return "exact"
    return "upper" if beta < 2.0 else "lower"


def solve_et(system: IdenticalSystem, Q: float) -> EtSolution:
    """Solve the compact set at global quantum number Q.

    p0 is eliminated through the quantization condition and the equation of
    motion is solved for rho0 by sign-change bracketing.  If several roots
    exist, all are kept in ascending energy and the lowest-energy one is
    returned.
    """
    if Q <= 0.0:
        raise InputError("Q must be positive")
    N, T, V = system.N, system.kinetic, system.potential
    c2 = pair_count(N)
    sq = math.sqrt(c2)

    def motion(rho: float) -> float:
        p0 = Q / (sq * rho)
        return N * T.d1(p0) * p0 - c2 * V.d1(rho) * rho

    roots = find_roots(motion, SCAN_LO, SCAN_HI)
    found = []
    for rho in roots:
        p0 = Q / (sq * rho)
        energy = N * T.value(p0) + c2 * V.value(rho)
        found.append((energy, rho))
    found.sort()
    energy, rho0 = found[0]
    p0 = Q / (sq * rho0)
    lhs, rhs = N * T.d1(p0) * p0, c2 * V.d1(rho0) * rho0
    res_motion = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    res_quant = abs(Q - sq * rho0 * p0) / Q
    return EtSolution(energy=energy, rho0=rho0, p0=p0, q=Q,
                      residual_motion=res_motion, residual_quantization=res_quant,
                      n_roots=len(found), all_roots=tuple(found),
                      variational=_variational_character(system))


def power_law_energy(N: int, D: int, F: float, alpha: float,
                     G: float, beta: float, q_phi: float) -> float:
    """Closed-form eigenvalue for T = F p**alpha, V = sgn(beta) G r**beta.

    ``D`` enters only through q_phi and is accepted for interface symmetry
    with the numeric path.  Requires alpha + beta > 0; outside that region
    the extremisation has no solution.
    """
    if F <= 0.0 or alpha <= 0.0 or G <= 0.0:
        raise InputError("need F > 0, alpha > 0, G > 0")
    if beta == 0.0:
        raise InputError("beta must be nonzero")
    if q_phi <= 0.0:
        raise InputError("q_phi must be positive")
    if alpha + beta <= 0.0:
        raise UnsupportedRegimeError("power-law closed form needs alpha + beta > 0")
    c2 = pair_count(N)
    base = ((c2 * G / alpha) ** alpha * (N * F / abs(beta)) ** beta
            * (q_phi / math.sqrt(c2)) ** (alpha * beta))
    return math.copysign(1.0, beta) * (alpha + beta) * base ** (1.0 / (alpha + beta))


def dosm_identical(system: IdenticalSystem, lam: float) -> DosmIdenticalReport:
    """Quantize small radial oscillations around the purely orbital solution.

    The orbital solution is the compact set solved with Q replaced by lam.
    Around it, the radial displacement and momentum form a harmonic mode of
    mass mu = p0/(N T'(p0)) and stiffness

        k = 2 N p0 T'(p0)/rho0^2 + N p0^2 T''(p0)/rho0^2 + C2 V''(rho0),

    and matching its spectrum against the first-order response of the energy
    to a quantum-number increase yields the deformation parameter phi.
    """
    if lam <= 0.0:
        raise InputError("lam must be positive")
    N, T, V = system.N, system.kinetic, system.potential
    c2 = pair_count(N)
    orbital = solve_et(system, lam)
    rho0, p0 = orbital.rho0, orbital.p0
    t1 = T.d1(p0)
    mu = p0 / (N * t1)
    k = (2.0 * N * p0 / rho0 ** 2) * t1 + (N * p0 ** 2 / rho0 ** 2) * T.d2(p0) \
        + c2 * V.d2(rho0)
    if k <= 0.0:
        raise UnstableOrbitalError(
            f"radial stiffness k={k} is not positive; no harmonic quantization")
    phi = lam / (N * p0 * t1) * math.sqrt(k / (c2 * mu))
    return DosmIdenticalReport(energy_orbital=orbital.energy, rho0=rho0, p0=p0,
                               mu=mu, k=k, lam=lam, phi=phi, n_pairs=c2)


def phi_identical(system: IdenticalSystem, lam: float) -> float:
    """Deformation parameter phi at orbital aggregate lam.

    For pure power laws this equals sqrt(alpha + beta) independently of the
    coefficients, of N and of lam.
    """
    return dosm_identical(system, lam).phi


def solve_iet(system: IdenticalSystem, spec: QuantumSpec) -> EtSolution:
    """Improved solve: deform the global quantum number and re-solve.

    The state's own aggregates (nu, lam) fix phi; the compact set is then
    solved at Q_phi = phi*nu + lam.  The variational character is only
    preserved when phi happens to equal 2.
    """
    if len(spec.internal_modes) != system.N - 1:
        raise InputError(f"spec has {len(spec.internal_modes)} internal modes, "
                         f"expected {system.N - 1}")
    nu, lam = spec.nu, spec.lam
    if lam == 0.0:
        raise DegenerateOrbitalError(
            "lam = 0: the orbital-only set degenerates (D = 2 with all l = 0)")
    phi = phi_identical(system, lam)
    solution = solve_et(system, phi * nu + lam)
    if abs(phi - 2.0) > 1e-12:
        solution = replace(solution, variational="unknown")
    return replace(solution, phi=phi)
