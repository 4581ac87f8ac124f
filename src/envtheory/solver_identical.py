"""Solver for N identical particles.

The method replaces the N-body problem by a compact set of three equations
for the mean per-particle momentum p0 and the mean inter-particle distance
rho0, with C2 = N(N-1)/2 interacting pairs:

    E = N T(p0) + C2 V(rho0),
    N T'(p0) p0 = C2 V'(rho0) rho0,
    Q = sqrt(C2) rho0 p0.

The quantization condition eliminates p0, leaving one equation in rho0.  For
two power laws T = c p^a and V = c' r^b it is a power balance, decided in
closed form: its one root, or NoRootError where it has none.  Every other
pair of laws is solved by the root scan.  The improved variant deforms the
global quantum number to Q_phi = phi*nu + lam, with phi extracted by
quantizing small radial oscillations around the purely orbital solution (Q
replaced by lam alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import laws
from .errors import (DegenerateOrbitalError, InputError, NoRootError,
                     UnstableOrbitalError, UnsupportedRegimeError)
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

    ``orbital`` is the compact set solved at the orbital aggregate
    lam = orbital.q; mu and k are the effective mass and stiffness of the
    collective radial mode there, and phi is the quantum-number deformation
    they imply.
    """

    orbital: EtSolution
    mu: float
    k: float
    phi: float
    n_pairs: float

    def level(self, nu: float) -> float:
        """Energy with radial aggregate nu on top of the orbital motion."""
        return self.orbital.energy + math.sqrt(self.k / (self.n_pairs * self.mu)) * nu


def _variational_character(system: IdenticalSystem) -> str:
    """Bound character of the undeformed solution, when the laws reveal it.

    Envelope theory bounds the eigenvalue from above when T(sqrt(x)) and
    V(sqrt(x)) are both concave, from below when both are convex, and is
    exact when both are linear.  Both laws must be power laws c r^e, the
    kinetic one with c, e > 0; x -> c x^(e/2) has a curvature of the sign of
    c e (e - 2).  Everything else is "unknown".
    """
    kin = laws.power_parameters(system.kinetic)
    pot = laws.power_parameters(system.potential)
    if kin is None or pot is None or kin[0] <= 0.0 or kin[1] <= 0.0:
        return "unknown"
    curvatures = {_sign(c) * _sign(e) * _sign(e - 2.0) for c, e in (kin, pot)}
    if curvatures == {0}:
        return "exact"
    if curvatures <= {-1, 0}:
        return "upper"
    if curvatures <= {0, 1}:
        return "lower"
    return "unknown"


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _power_root(system: IdenticalSystem, Q: float,
                motion: Callable[[float], float]) -> float | None:
    """The one root rho0 of the motion residual for two power laws, in closed form.

    With T = c p^a (c, a > 0) and V = c' r^b the residual is
    N c a (Q/sqrt(C2))^a rho^-a - C2 c' b rho^b.  Where c' b > 0 and
    a + b != 0 it changes sign once, at
    rho0^(a+b) = N c a (Q/sqrt(C2))^a / (C2 c' b), taken in logarithms (of
    the ratio's factors where the ratio itself over- or underflows).
    NoRootError is raised, without a sample, where no isolated root exists:
    c' b <= 0 (the residual is positive everywhere), a + b = 0 (it is
    rho^b (N c a (Q/sqrt(C2))^a - C2 c' b), of one sign or identically zero),
    and a root beyond the floating range, where ``motion``, the residual,
    cannot be evaluated (the scan treats such points as holes).  None means
    the laws are not such a pair, and the scan solves them.
    """
    kin = laws.power_parameters(system.kinetic)
    pot = laws.power_parameters(system.potential)
    if kin is None or pot is None or kin[0] <= 0.0 or kin[1] <= 0.0:
        return None
    (c, a), (cv, b) = kin, pot
    if cv * b <= 0.0:
        raise NoRootError(f"no root: V = {cv:g} r^{b:g} does not increase, so the "
                          f"motion residual is positive at every rho0")
    if a + b == 0.0:
        raise NoRootError(f"no isolated root: T = {c:g} p^{a:g} against V = {cv:g} r^{b:g} "
                          f"has a + b = 0, so the motion residual is a constant times "
                          f"rho^{b:g}, of one sign or zero at every rho0")
    N, c2 = system.N, pair_count(system.N)
    ratio = N * c * a / (c2 * cv * b)
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:
        log_ratio = (math.log(N) + math.log(c) + math.log(a) - math.log(c2)
                     - math.log(abs(cv)) - math.log(abs(b)))
    log_rho = (log_ratio + a * (math.log(Q) - 0.5 * math.log(c2))) / (a + b)
    try:
        rho0 = math.exp(log_rho)
        in_range = math.isfinite(motion(rho0))
    except ArithmeticError:
        in_range = False
    if not in_range:
        raise NoRootError(f"no root in the floating range: at rho0 = exp({log_rho:.6g}) "
                          f"the motion residual cannot be evaluated")
    return rho0


def solve_et(system: IdenticalSystem, Q: float) -> EtSolution:
    """Solve the compact set at global quantum number Q.

    p0 is eliminated through the quantization condition.  For two power laws
    the equation of motion is decided in closed form (_power_root), which
    returns its one root or raises NoRootError, and never scans; every other
    pair of laws is solved for rho0 by sign-change bracketing, where a motion
    residual within four machine epsilons (4 * 2^-52) of its terms counts as
    zero (so a balance that vanishes identically raises NoRootError).  If several roots exist,
    all are kept in ascending energy and the lowest-energy one is returned.
    """
    if not 0.0 < Q < math.inf:
        raise InputError("Q must be positive and finite")
    N, T, V = system.N, system.kinetic, system.potential
    c2 = pair_count(N)
    sq = math.sqrt(c2)

    def motion(rho: float) -> float:
        p0 = Q / (sq * rho)
        lhs, rhs = N * T.d1(p0) * p0, c2 * V.d1(rho) * rho
        diff = lhs - rhs
        # Within four machine epsilons of finite terms, diff is rounding, not
        # a sign: it is zero, and the scan takes no zero next to a zero for
        # a root.
        return 0.0 if abs(diff) <= 4.0 * 2.0 ** -52 * abs(lhs) < math.inf else diff

    root = _power_root(system, Q, motion)
    roots = [root] if root is not None else find_roots(motion, SCAN_LO, SCAN_HI)
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
    if not 0.0 < lam < math.inf:
        raise InputError("lam must be positive and finite")
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
    return DosmIdenticalReport(orbital=orbital, mu=mu, k=k, phi=phi, n_pairs=c2)


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
