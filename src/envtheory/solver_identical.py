"""Solver for N identical particles.

The method replaces the N-body problem by a compact set of three equations
for the mean per-particle momentum p0 and the mean inter-particle distance
rho0, with C2 = N(N-1)/2 interacting pairs:

    E = N T(p0) + C2 V(rho0),
    N T'(p0) p0 = C2 V'(rho0) rho0,
    Q = sqrt(C2) rho0 p0.

The quantization condition eliminates p0 = Q/(sqrt(C2) rho), which leaves
the energy curve E(rho; Q) = N T(p0) + C2 V(rho); the equation of motion is
its stationary condition.  One binding, _Curve, reads the system once per
public call: N, C2, both laws and their power parameters.  At each Q it
gives the curve's flat records (p0, k, v): the log-gradient dE/dlog rho is
k + v, its kinetic part k = -N T'(p0) p0 plus its potential part
v = C2 V'(rho) rho.  The motion residual, each root's momentum and the
residual at the solution read these records; a plain solve evaluates the
law values at the roots only, and no second derivative.  For two power
laws T = c p^a and V = c' r^b the equation is a power balance, decided in
closed form: its one root, or NoRootError where it has none.  Every other
pair of laws is solved by the root scan; where T is a power c p^a, the
scan reads the residual's signs off a level, K(Q) against one sample of
g(rho) = C2 V'(rho) rho^(1+a), which the two solves of the improved
variant share through their one binding; each root is a crossing of g
with the level K(Q).

The improved variant deforms the global quantum number to Q_phi =
phi*nu + lam, with phi extracted by quantizing small radial oscillations
around the purely orbital solution (Q replaced by lam alone).  As for the
modes of solver_nplus1.dosm_np1, everything is read off the energy curve
there: the response D = -k and the mass mu = p0^2/D off the record of the
orbital solve, and the stiffness, its second derivative in rho,
(log-Hessian - log-gradient)/rho0^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from . import laws
from .errors import (DegenerateOrbitalError, InputError, NoRootError,
                     UnstableOrbitalError, UnsupportedRegimeError, finite)
from .qnum import QuantumSpec, _check_fit
from .records import Record
from .rootscan import SCAN_HI, SCAN_LO, _column, _sample, _samples, find_roots

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


def pair_count(N: int) -> float:
    """Number of interacting pairs C2 = N(N-1)/2."""
    return 0.5 * N * (N - 1)


# Up to this N, C2 < 2^1021 is finite; the systems check C2 only above it.
_FINITE_PAIRS_N = 2 ** 511


class IdenticalSystem(Record, namedtuple("IdenticalSystem", "N D kinetic potential")):
    """N identical particles in D dimensions with kinetic law T and pair potential V.

    An N whose pair count C2 leaves the floats raises InputError.
    """

    __slots__ = ()

    def __new__(cls, N: int, D: int, kinetic: laws.Law,
                potential: laws.Law) -> IdenticalSystem:
        if N < 2:
            raise InputError("need N >= 2")
        if D < 2:
            raise InputError("need D >= 2")
        if N > _FINITE_PAIRS_N:
            finite("C2 = N(N-1)/2", lambda: pair_count(N))
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


def _variational_character(kin: tuple[float, float], pot: tuple[float, float]) -> str:
    """Bound character of the undeformed solution for T = c p^a and V = c' r^b.

    Envelope theory bounds the eigenvalue from above when T(sqrt(x)) and
    V(sqrt(x)) are both concave, from below when both are convex, and is
    exact when both are linear.  x -> c x^(e/2) has a curvature of the sign
    of c e (e - 2); anything else is "unknown".
    """
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


# The level reading's bounds (see _Curve).
_WIDE = 2.0 ** 100
_BAND = 2.0 ** 350
_MARGIN = 2.0 ** -30
_MAX_A = 2.0 ** 20


class _Curve:
    """E(rho; Q) = N T(p0) + C2 V(rho), p0 = Q/(sqrt(C2) rho): one binding per system.

    Reads N, C2, sqrt(C2), the two laws and their power parameters once and
    answers what the solves ask of the system: the curve at a quantum number
    (at), the closed-form root of two power laws (root), the scan's level
    reading (reader) and the bound character (variational).  The power
    parameters count where both laws are powers and T = c p^a has c, a > 0;
    elsewhere the character is "unknown" and the roots are scanned.

    The level reading.  For T = c p^a the motion residual is
    N T'(p0) p0 - C2 V'(rho) rho = rho^-a (K - g(rho)) with
    K(Q) = N c a (Q/sqrt(C2))^a and g(rho) = C2 V'(rho) rho^(1+a), so its
    sign at a grid point is the sign of K - g there, and g, sampled once per
    grid, serves every Q.

    The band.  c a, N c a and p0 lie within _WIDE^+-1 = 2^+-100 (so
    N <= 2^200).  Where K and rho^a lie within _BAND^+-1 = 2^+-350, the
    first term N T'(p0) p0 = K rho^-a lies within 2^+-700, N T'(p0) within
    2^+-800, T'(p0) within [2^-1000, 2^800], p0^(a-1) = K rho^-a/(N c a p0)
    within 2^+-900 and (Q/sqrt(C2))^a = K/(N c a) within 2^+-450: all are
    normal, so every rounding is relative.  |C2 V'(rho) rho| <= 2^350 keeps
    |g| below 2^700; where g is below the normal range (V' underflows), so
    is the second term times rho^a, far below K, and the residual has K's
    sign.

    The margin (u = 2^-53).  The first term carries (2a + 6) u: p0 two
    roundings, raised to the power a; c a and three products one each;
    p0^(a-1) one ulp (2 u); and where a < 0.5, the rounding of a - 1 costs
    u |ln p0| < 70 u more.  K carries (a + 5) u, so the first term times
    rho^a is K (1 + eta), |eta| <= (3a + 11 [+ 70]) u.  The second term is
    the same float in both, and times rho^a it is g to within 3 u |g|.  So
    the residual has the sign of K - g, and escapes the four-epsilon zero
    rule (8 u of the first term), wherever |K - g| > (|eta| + 8 u) K +
    3 u |g|, which holds where g lies outside K (1 +- m), m = (3a + 22
    [+ 70]) u.  _MARGIN = 2^-30 is more than twice m for every
    a <= _MAX_A = 2^20, which covers the second-order terms and the
    rounding of both thresholds.  Everywhere else (g within the margin of
    K, a term outside the band, g not evaluated) the residual itself is
    sampled, so the scan reads the signs, zeros and holes that sampling the
    residual would give.

    The sample.  g is C2 V'(rho) rho, the residual's second term as motion
    forms it, times rho^a, taken in one pass per grid (rootscan._column):
    V' is evaluated once per point, and a point where it raises reads NaN.
    The column rho^a, NaN where it leaves the band or overflows, depends on
    the grid and a alone, so it is computed once and shared by every system
    with that kinetic exponent (_powers), such as every p^2/(2m) of any
    mass and potential.  Both caches are keyed by the grid's identity and
    hold the grid, so no other grid can take its id and read its columns.
    """

    def __init__(self, system: IdenticalSystem) -> None:
        self.N, self.T, self.V = N, T, V = system.N, system.kinetic, system.potential
        self.c2 = pair_count(N)
        self.sq = math.sqrt(self.c2)
        self.d1 = V.d1
        kin, pot = laws.power_parameters(T), laws.power_parameters(V)
        if kin is not None and (kin[0] <= 0.0 or kin[1] <= 0.0):
            kin = None
        self.powers = None if kin is None or pot is None else (kin, pot)
        self.variational = "unknown" if self.powers is None else _variational_character(kin, pot)
        c, self.a = kin or (0.0, 0.0)
        self.nca = N * c * self.a
        self.leveled = 0.0 < self.a <= _MAX_A and c * self.a >= 1.0 / _WIDE and self.nca <= _WIDE
        self.grids: dict[int, tuple[tuple[float, ...], list[float]]] = {}

    def at(self, Q: float) -> Callable[[float], tuple]:
        """E(rho; Q) in u = log rho: at(rho) gives the flat record (p0, k, v).

        The log-gradient dE/du is k + v, its kinetic part k = -N T'(p0) p0
        plus its potential part v = C2 V'(rho) rho.  The one-coordinate case
        of solver_nplus1._surface_at; no law value or second derivative is
        read.
        """
        N, c2, sq, t1, v1 = self.N, self.c2, self.sq, self.T.d1, self.d1

        def at(rho: float) -> tuple:
            p0 = Q / (sq * rho)
            return p0, -(N * t1(p0) * p0), c2 * v1(rho) * rho
        return at

    def root(self, Q: float, motion: Callable[[float], float]) -> float | None:
        """The one root rho0 of the motion residual for two power laws, in closed form.

        With T = c p^a (c, a > 0) and V = c' r^b the residual is
        N c a (Q/sqrt(C2))^a rho^-a - C2 c' b rho^b.  Where c' b > 0 and
        a + b != 0 it changes sign once, at
        rho0^(a+b) = N c a (Q/sqrt(C2))^a / (C2 c' b), taken in logarithms (of
        the ratio's factors where the ratio itself over- or underflows).
        NoRootError is raised, without a sample, where no isolated root exists:
        c' b <= 0 (the residual is positive everywhere), a + b = 0 (it is
        rho^b (N c a (Q/sqrt(C2))^a - C2 c' b), of one sign or identically
        zero), and a root beyond the floating range, where ``motion``, the
        residual, cannot be evaluated (the scan treats such points as holes).
        None means the laws are not such a pair, and the scan solves them.
        """
        if self.powers is None:
            return None
        (c, a), (cv, b) = self.powers
        if cv * b <= 0.0:
            raise NoRootError(f"no root: V = {cv:g} r^{b:g} does not increase, so the "
                              f"motion residual is positive at every rho0")
        if a + b == 0.0:
            raise NoRootError(f"no isolated root: T = {c:g} p^{a:g} against V = {cv:g} "
                              f"r^{b:g} has a + b = 0, so the motion residual is a constant "
                              f"times rho^{b:g}, of one sign or zero at every rho0")
        N, c2 = self.N, self.c2
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

    def _sampled(self, grid: tuple[float, ...]) -> list[float]:
        """g on the grid; NaN where rho^a or |C2 V'(rho) rho| leaves the band."""
        entry = self.grids.get(id(grid))
        if entry is None:
            c2, d1, nan = self.c2, self.d1, math.nan
            entry = self.grids[id(grid)] = grid, _column(
                lambda points: (rhs * ra if -_BAND <= (rhs := c2 * d1(rho) * rho) <= _BAND
                                else nan for rho, ra in points),
                zip(grid, _powers(grid, self.a)))
        return entry[1]

    def reader(self, Q: float, motion: Callable[[float], float]
               ) -> Callable[[tuple[float, ...]], list[float]] | None:
        """find_roots' grid values at Q: K - g where its sign is certain, else motion.

        None where T is not a power within the margin derivation (c a and
        N c a within 2^+-100, a <= _MAX_A), or where K leaves the band: then
        every grid point is sampled.
        """
        if not self.leveled:
            return None
        qs = Q / self.sq
        try:
            K = self.nca * qs ** self.a
        except OverflowError:
            return None
        if not 1.0 / _BAND <= K <= _BAND:
            return None
        below, above = K * (1.0 - _MARGIN), K * (1.0 + _MARGIN)

        def values(grid: tuple[float, ...]) -> list[float]:
            if not (qs / grid[-1] >= 1.0 / _WIDE and qs / grid[0] <= _WIDE):
                return _samples(motion, grid)
            return [K - g if g < below or g > above else _sample(motion, x)
                    for x, g in zip(grid, self._sampled(grid))]

        return values


# The rho^a columns of _powers by (id(grid), a), each with its grid; cleared
# when full, which bounds their memory.
_POWERS: dict[tuple[int, float], tuple[tuple[float, ...], list[float]]] = {}
_POWERS_KEPT = 16


def _powers(grid: tuple[float, ...], a: float) -> list[float]:
    """rho^a on the grid, NaN where it overflows or leaves [2^-350, 2^350]; cached."""
    key = (id(grid), a)
    entry = _POWERS.get(key)
    if entry is None:
        if len(_POWERS) >= _POWERS_KEPT:
            _POWERS.clear()
        low, nan = 1.0 / _BAND, math.nan
        entry = _POWERS[key] = grid, _column(
            lambda points: (ra if low <= (ra := rho ** a) <= _BAND else nan for rho in points),
            grid)
    return entry[1]


def solve_et(system: IdenticalSystem, Q: float) -> EtSolution:
    """Solve the compact set at global quantum number Q.

    p0 is eliminated through the quantization condition.  For two power laws
    the equation of motion is decided in closed form (_Curve.root), which
    returns its one root or raises NoRootError, and never scans; every other
    pair of laws is solved for rho0 by sign-change bracketing, where a motion
    residual within four machine epsilons (4 * 2^-52) of its terms counts as
    zero (so a balance that vanishes identically raises NoRootError).  If several roots exist,
    all are kept in ascending energy and the lowest-energy one is returned.
    A root whose energy leaves the floats raises InputError.

    For a power kinetic law T = c p^a the residual is rho^-a (K(Q) - g(rho)),
    and the scan reads its sign at each grid point off K - g, with g sampled
    once per grid (_Curve.reader).  The residual itself is evaluated at each
    bracket's ends, for the polish, wherever g lies within a fixed relative
    margin (2^-30) of K, and wherever K or rho^a leaves the band 2^+-350 or
    |C2 V'(rho) rho| exceeds 2^350, outside which a term of the residual
    could leave the normal floats.  The margin is more than twice the
    rounding K - g can carry, so it holds every point where the rounding
    could flip the sign or the four-epsilon rule could set the residual to
    zero: the scan reads the signs, zeros and holes that sampling the
    residual gives, and finds the same roots bit for bit.
    """
    return _solve_et(_Curve(system), Q)[0]


def _solve_et(curve: _Curve, Q: float) -> tuple[EtSolution, tuple]:
    """solve_et on the bound system ``curve``.

    The motion residual, each root's momentum and the residual at the
    solution read the records of curve.at(Q).  Returns the solution and the
    record at it.
    """
    if not 0.0 < Q < math.inf:
        raise InputError(f"quantum number must be positive and finite, got {Q}")
    at = curve.at(Q)

    def motion(rho: float) -> float:
        _, k, v = at(rho)
        diff = -k - v
        # Within four machine epsilons of finite terms, diff is rounding, not
        # a sign: it is zero, and the scan takes no zero next to a zero for
        # a root.
        return 0.0 if abs(diff) <= 4.0 * 2.0 ** -52 * abs(k) < math.inf else diff

    root = curve.root(Q, motion)
    roots = [root] if root is not None else find_roots(
        motion, SCAN_LO, SCAN_HI, curve.reader(Q, motion))
    N, c2, T, V = curve.N, curve.c2, curve.T, curve.V
    found, records = [], {}
    for rho in roots:
        records[rho] = record = at(rho)
        found.append((finite("energy", lambda: N * T.value(record[0]) + c2 * V.value(rho)), rho))
    found.sort()
    energy, rho0 = found[0]
    p0, k, v = record = records[rho0]
    return EtSolution(energy=energy, rho0=rho0, p0=p0, q=Q,
                      residual_motion=abs(-k - v) / max(abs(k), abs(v), 1e-300),
                      residual_quantization=abs(Q - curve.sq * rho0 * p0) / Q,
                      n_roots=len(found), all_roots=tuple(found),
                      variational=curve.variational), record


def power_law_energy(N: int, D: int, F: float, alpha: float,
                     G: float, beta: float, q_phi: float) -> float:
    """Closed-form eigenvalue for T = F p**alpha, V = sgn(beta) G r**beta.

    ``D`` enters only through q_phi and is accepted for interface symmetry
    with the numeric path.  Requires alpha + beta > 0; outside that region
    the extremisation has no solution.  An energy beyond the floats raises
    InputError.
    """
    if F <= 0.0 or alpha <= 0.0 or G <= 0.0:
        raise InputError("need F > 0, alpha > 0, G > 0")
    if beta == 0.0:
        raise InputError("beta must be nonzero")
    if q_phi <= 0.0:
        raise InputError("q_phi must be positive")
    if alpha + beta <= 0.0:
        raise UnsupportedRegimeError("power-law closed form needs alpha + beta > 0")

    def energy() -> float:
        c2 = pair_count(N)
        base = ((c2 * G / alpha) ** alpha * (N * F / abs(beta)) ** beta
                * (q_phi / math.sqrt(c2)) ** (alpha * beta))
        return math.copysign(1.0, beta) * (alpha + beta) * base ** (1.0 / (alpha + beta))
    return finite("energy", energy)


def dosm_identical(system: IdenticalSystem, lam: float) -> DosmIdenticalReport:
    """Quantize small radial oscillations around the purely orbital solution.

    The orbital solution is the compact set solved with Q replaced by lam,
    and everything else is read off the energy curve E(rho; lam) there.
    Minus the kinetic part of its log-gradient, D = -k = N T'(p0) p0, is the
    first-order response of the energy to a quantum-number increase, and
    fixes the mass of the radial mode, mu = p0^2/D.  Its stiffness is the
    second derivative of E in rho0, (log-Hessian - log-gradient)/rho0^2:

        k = (N p0^2 T''(p0) + 2 D)/rho0^2 + C2 V''(rho0).

    Matching the mode's spectrum against the response D yields the
    deformation parameter phi = (lam/D) sqrt(k/(C2 mu)).  A mass, stiffness
    or phi beyond the floats (T'(p0) underflowing to zero, say) raises
    InputError.
    """
    return _dosm_identical(_Curve(system), lam)


def _dosm_identical(curve: _Curve, lam: float) -> DosmIdenticalReport:
    """dosm_identical on the bound system ``curve``."""
    N, c2 = curve.N, curve.c2
    orbital, (p0, k, _) = _solve_et(curve, lam)
    rho0, D = orbital.rho0, -k
    mu = finite("mu", lambda: p0 ** 2 / D)
    stiffness = finite("k", lambda: (N * p0 ** 2 * curve.T.d2(p0) + 2.0 * D) / rho0 ** 2
                       + c2 * curve.V.d2(rho0))
    if stiffness <= 0.0:
        raise UnstableOrbitalError(
            f"radial stiffness k={stiffness} is not positive; no harmonic quantization")
    phi = finite("phi", lambda: lam / D * math.sqrt(stiffness / (c2 * mu)))
    return DosmIdenticalReport(orbital=orbital, mu=mu, k=stiffness, phi=phi, n_pairs=c2)


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
    _check_fit(spec, system.D, system.N, split=False)
    nu, lam = spec.nu, spec.lam
    if lam == 0.0:
        raise DegenerateOrbitalError(
            "lam = 0: the orbital-only set degenerates (D = 2 with all l = 0)")
    curve = _Curve(system)
    phi = _dosm_identical(curve, lam).phi
    solution = _solve_et(curve, phi * nu + lam)[0]
    variational = "unknown" if abs(phi - 2.0) > 1e-12 else solution.variational
    return solution._replace(variational=variational, phi=phi)
