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
pair of laws is solved by the root scan; where T is a power c p^a, the
scan reads the residual's signs off a level, K(Q) against one sample of
g(rho) = C2 V'(rho) rho^(1+a), which the two solves of the improved variant
share; each root is a crossing of g with the level K(Q).  The
improved variant deforms the global quantum number to Q_phi = phi*nu + lam,
with phi extracted by quantizing small radial oscillations around the
purely orbital solution (Q replaced by lam alone).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from . import laws
from .errors import (DegenerateOrbitalError, InputError, NoRootError,
                     UnstableOrbitalError, UnsupportedRegimeError)
from .qnum import QuantumSpec
from .records import Record
from .rootscan import _sample, find_roots

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


class IdenticalSystem(Record, namedtuple("IdenticalSystem", "N D kinetic potential")):
    """N identical particles in D dimensions with kinetic law T and pair potential V."""

    __slots__ = ()

    def __new__(cls, N: int, D: int, kinetic: laws.Law,
                potential: laws.Law) -> IdenticalSystem:
        if N < 2:
            raise InputError("need N >= 2")
        if D < 2:
            raise InputError("need D >= 2")
        return tuple.__new__(cls, (N, D, kinetic, potential))


class EtSolution(Record, namedtuple(
        "EtSolution", "energy rho0 p0 q residual_motion residual_quantization n_roots "
        "all_roots variational phi", defaults=("unknown", None))):
    """Converged solution of the compact set.

    ``all_roots`` lists every (energy, rho0) pair found on the scan range,
    sorted by energy; the reported solution is the requested one among them.
    ``variational`` records the bound character when it is known from the
    structure of the laws ("upper", "lower", "exact"), otherwise "unknown".
    ``phi`` is the deformation of an improved solve, None for a plain one.
    """

    __slots__ = ()


class DosmIdenticalReport(Record, namedtuple("DosmIdenticalReport",
                                             "orbital mu k phi n_pairs")):
    """Radial-oscillation analysis around the purely orbital solution.

    ``orbital`` is the compact set solved at the orbital aggregate
    lam = orbital.q; mu and k are the effective mass and stiffness of the
    collective radial mode there, and phi is the quantum-number deformation
    they imply.
    """

    __slots__ = ()

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


# Unit roundoff of a double.
_U = 2.0 ** -53
# Where the level reading applies, every intermediate of the motion residual
# is a normal float: c a, N c a and p0 lie within 2^+-100, N T'(p0) p0
# within 2^+-800, and (Q/sqrt(C2))^a, K, rho^a and |C2 V'(rho) rho| within
# 2^+-1000.
_WIDE = 2.0 ** 100
_LHS = 2.0 ** 800
_HUGE = 2.0 ** 1000
_TINY = 2.0 ** -1000
# Largest kinetic exponent read as a level, so that its error terms stay
# first order.
_MAX_A = 2.0 ** 20


class _Levels:
    """g(rho) = C2 V'(rho) rho^(1+a) on the scan's grids, for T = c p^a.

    The motion residual is N T'(p0) p0 - C2 V'(rho) rho = rho^-a (K - g(rho))
    with K(Q) = N c a (Q/sqrt(C2))^a, so its sign at a grid point is the sign
    of K - g there, and g, sampled once per grid, serves every Q.

    Rounding (u = 2^-53): the residual's first term is K rho^-a to within
    (2a + 6) u relative: p0 carries two roundings, raised to the power a;
    c a, p0^(a-1) (one ulp) and three products add one each; where a < 0.5,
    a - 1 rounds too, which costs |a - 1| u |ln p0| < 70 u.  The computed K is
    exact to within (a + 5) u and rho^a to within 2 u, so the first term
    times rho^a is K (1 + eta) with |eta| <= (3a + 13 [+ 70]) u; the second
    term times rho^a is g to within u |g|.  The residual has the sign of
    their difference, so it has the sign of K - g, and is too large for the
    four-epsilon zero rule (8 u of the first term), wherever
    |K - g| > (eta + 10 u) K + 2 u |g|.  With eps = (3a + 23 [+ 70]) u the
    reading takes the sign where g < K (1 - 2 eps) or g > K (1 + 2 eps):
    twice that bound, which also covers second-order terms and the rounding
    of both thresholds.  Everywhere else (a level too close to call, g not
    finite, a term outside the normal range) the residual itself is
    evaluated, so the scan reads exactly the signs, zeros and holes that
    sampling the residual would give.
    """

    def __init__(self, system: IdenticalSystem, c: float, a: float) -> None:
        self.c2 = pair_count(system.N)
        self.sq = math.sqrt(self.c2)
        self.d1 = system.potential.d1
        self.a = a
        self.nca = system.N * c * a
        self.eps = (3.0 * a + 23.0 + (70.0 if a < 0.5 else 0.0)) * _U
        self.grids: dict[tuple[float, int], tuple[list[float], list[float]]] = {}

    def _sampled(self, grid: tuple[float, ...]) -> tuple[list[float], list[float]]:
        """g and rho^a on the grid; g is NaN where it cannot stand in for the residual."""
        key = (grid[0], len(grid))
        if key not in self.grids:
            c2, d1, a = self.c2, self.d1, self.a
            gs, ras = [], []
            for rho in grid:
                try:
                    rhs = c2 * d1(rho) * rho  # the residual's second term, as motion has it
                    ra = rho ** a
                except (OverflowError, ValueError, ZeroDivisionError):
                    rhs = ra = math.nan
                g = rhs * ra
                if not (abs(rhs) <= _HUGE and _TINY <= ra <= _HUGE and abs(g) < math.inf):
                    g = math.nan
                gs.append(g)
                ras.append(ra)
            self.grids[key] = gs, ras
        return self.grids[key]

    def reader(self, Q: float, motion: Callable[[float], float]
               ) -> Callable[[tuple[float, ...]], list[float]] | None:
        """find_roots' grid values at Q: K - g where its sign is certain, else motion.

        None where K itself leaves the normal range: then every grid point
        is sampled.
        """
        qs = Q / self.sq
        try:
            qa = qs ** self.a
        except OverflowError:
            return None
        K = self.nca * qa
        if not (_TINY <= qa <= _HUGE and _TINY <= K <= _HUGE):
            return None
        below, above = K * (1.0 - 2.0 * self.eps), K * (1.0 + 2.0 * self.eps)
        ra_lo, ra_hi = K / _LHS, K * _LHS

        def values(grid: tuple[float, ...]) -> list[float]:
            if not (qs / grid[-1] >= 1.0 / _WIDE and qs / grid[0] <= _WIDE):
                return [_sample(motion, x) for x in grid]
            gs, ras = self._sampled(grid)
            return [K - g if (g < below or g > above) and ra_lo <= ra <= ra_hi
                    else _sample(motion, x) for x, g, ra in zip(grid, gs, ras)]

        return values


def _levels(system: IdenticalSystem) -> _Levels | None:
    """The level reading of a system whose kinetic law is a power, else None."""
    kin = laws.power_parameters(system.kinetic)
    if kin is None:
        return None
    c, a = kin
    if not (0.0 < a <= _MAX_A and c * a >= 1.0 / _WIDE and system.N * c * a <= _WIDE):
        return None
    return _Levels(system, c, a)


def solve_et(system: IdenticalSystem, Q: float) -> EtSolution:
    """Solve the compact set at global quantum number Q.

    p0 is eliminated through the quantization condition.  For two power laws
    the equation of motion is decided in closed form (_power_root), which
    returns its one root or raises NoRootError, and never scans; every other
    pair of laws is solved for rho0 by sign-change bracketing, where a motion
    residual within four machine epsilons (4 * 2^-52) of its terms counts as
    zero (so a balance that vanishes identically raises NoRootError).  If several roots exist,
    all are kept in ascending energy and the lowest-energy one is returned.

    For a power kinetic law T = c p^a the residual is rho^-a (K(Q) - g(rho)),
    and the scan reads its sign at each grid point off K - g, with g sampled
    once per grid (_Levels).  The residual itself is evaluated at each
    bracket's ends, for the polish, and wherever K - g lies within a margin
    of twice the rounding both sides can carry: that margin holds every
    point where the rounding could flip the sign or the four-epsilon rule
    could set the residual to zero, so the scan reads the signs, zeros and
    holes that sampling the residual gives, and finds the same roots bit
    for bit.  It is evaluated too where g is not finite or a term of the
    residual leaves the normal float range.
    """
    return _solve_et(system, Q, _levels(system))


def _solve_et(system: IdenticalSystem, Q: float, levels: _Levels | None) -> EtSolution:
    """solve_et, reading scan brackets off ``levels`` where it is given."""
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
    if root is not None:
        roots = [root]
    else:
        values = levels.reader(Q, motion) if levels is not None else None
        roots = find_roots(motion, SCAN_LO, SCAN_HI, values)
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
    return _dosm_identical(system, lam, _levels(system))


def _dosm_identical(system: IdenticalSystem, lam: float,
                    levels: _Levels | None) -> DosmIdenticalReport:
    """dosm_identical, its orbital solve reading scan brackets off ``levels``."""
    if not 0.0 < lam < math.inf:
        raise InputError("lam must be positive and finite")
    N, T, V = system.N, system.kinetic, system.potential
    c2 = pair_count(N)
    orbital = _solve_et(system, lam, levels)
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
    solved at Q_phi = phi*nu + lam.  Both solves read their scan brackets
    off one sample of the potential.  The variational character is only
    preserved when phi happens to equal 2.
    """
    if len(spec.internal_modes) != system.N - 1:
        raise InputError(f"spec has {len(spec.internal_modes)} internal modes, "
                         f"expected {system.N - 1}")
    nu, lam = spec.nu, spec.lam
    if lam == 0.0:
        raise DegenerateOrbitalError(
            "lam = 0: the orbital-only set degenerates (D = 2 with all l = 0)")
    levels = _levels(system)
    phi = _dosm_identical(system, lam, levels).phi
    solution = _solve_et(system, phi * nu + lam, levels)
    variational = "unknown" if abs(phi - 2.0) > 1e-12 else solution.variational
    return solution._replace(variational=variational, phi=phi)
