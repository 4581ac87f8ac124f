"""Solver for N_a identical particles plus one distinct particle.

The compact set has five equations for the block momentum p_a, the mean
block distance r_aa, and the relative pair (P0, R0), with the derived
combinations

    p_a'^2 = p_a^2 + P0^2/N_a^2,
    r_0'^2 = R0^2 + (N_a-1)/(2 N_a) r_aa^2:

    E = N_a T_a(p_a') + T_b(P0) + C2 V_aa(r_aa) + N_a V_ab(r_0'),
    N_a T_a'(p_a') p_a^2/p_a' = C2 V_aa'(r_aa) r_aa
                                + (N_a-1)/2 V_ab'(r_0') r_aa^2/r_0',
    T_a'(p_a') P0^2/(N_a p_a') + T_b'(P0) P0 = N_a V_ab'(r_0') R0^2/r_0',
    Q_a = sqrt(C2) p_a r_aa,
    Q_b = P0 R0.

The two quantization conditions eliminate p_a and P0, which leaves the energy
surface E(r_aa, R0); the two equations of motion are its stationary
conditions.  One binding, _surface_at, evaluates E with its exact gradient
and Hessian in log coordinates, chain-ruled from the laws' first and second
derivatives.  It reads the system and (q_a, q_b) once per solve, and each
evaluation gives one flat record (E, k1, k2, v1, v2, t11, t12, t22, p11,
p12, p22): the gradient is k + v, its kinetic plus its potential part, and
the Hessian t + p.  The solution is the minimum of E reached by one damped
Newton descent, on the same binding as its virial start.
Where the laws are homogeneous powers (T_a and T_b share an exponent alpha,
V_aa and V_ab an exponent beta, alpha + beta > 0), E(lam r_aa, lam R0) =
lam^-alpha K + lam^beta V, and the descent starts at the minimum of E along
the scale through the unit shape, which one evaluation of the surface
gives: the virial start.  Every N_a+1 system of the paper's tables is of
this kind.  Other laws, and a virial descent that fails, start at the lowest
local minimum of E sampled along a few rays R0 = s r_aa: the grid start,
of which the virial start is one ray's minimum in closed form.  Where E is
convex each step is a plain Newton step on its Hessian H.

The improved variant quantizes the two coupled radial modes around the
purely orbital solution and deforms both quantum numbers; the mode
stiffnesses are the same Hessian at the orbital minimum, and the responses
D_a, D_b its kinetic gradient, both as the orbital descent last evaluated
them.  The kinetic energy depends on the radii only through log q - log r,
so the minimum moves with log q along H^-1 H_kin, the Hessian's inverse
times its kinetic part.  The deformed solve starts its descent on that
tangent, and from the orbital minimum itself where that descent fails, so
an improved solve pays for at most one cold start.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from functools import partial
from typing import Callable

from . import laws
from .coupled_osc import OscPair, normal_modes
from .errors import (DegenerateOrbitalError, InputError, NoBindingError,
                     NonConvergenceError, UnstableOrbitalError, finite)
from .qnum import QuantumSpec, _check_fit, fgs_fill, spec_from_filling
from .records import Record
from .rootscan import SCAN_HI, SCAN_LO
from .solver_identical import _FINITE_PAIRS_N, pair_count
# Unused here: bench/tracer.py patches both names in this module, and its tests check that.
from .rootscan import find_roots  # noqa: F401
from .solver_identical import solve_et  # noqa: F401

__all__ = [
    "NPlusOneSystem",
    "Np1Solution",
    "DosmNp1Report",
    "AtomResult",
    "solve_et_np1",
    "dosm_np1",
    "phi_pair",
    "solve_iet_np1",
    "solve_atom",
    "atom_report",
    "ATOMIC_UNIT_EV",
]

NEWTON_TOL = 1e-11
NEWTON_MAX_STEPS = 200
NEWTON_MAX_HALVINGS = 30
# Largest move of log r_aa or log R0 a tangent-predicted start makes.
PREDICTOR_MAX_STEP = 2.0
# A descent escapes (E has no minimum) once a radius passes both SCAN_HI and
# this multiple of the start's larger radius.
ESCAPE_FACTOR = 16.0
# Shapes R0/r_aa of the rays _grid_start samples E along, and the factor
# between its samples of r_aa on each ray.
_GRID_SHAPES = (1.0 / 16.0, 0.25, 1.0, 4.0)
_GRID_FACTOR = 2.0

# Energy unit of the atomic Hamiltonian expressed in eV (twice the Rydberg).
ATOMIC_UNIT_EV = 27.21


class NPlusOneSystem(Record, namedtuple(
        "NPlusOneSystem", "N_a D kinetic_a kinetic_b potential_aa potential_ab")):
    """N_a identical particles (laws T_a, V_aa) plus one distinct particle.

    T_b is the distinct particle's kinetic law and V_ab its interaction with
    each block particle.  The pure 1+1 case is a two-body problem outside
    this solver's scope.  An N_a whose pair count C2 leaves the floats
    raises InputError.
    """

    __slots__ = ()

    def __new__(cls, N_a: int, D: int, kinetic_a: laws.Law, kinetic_b: laws.Law,
                potential_aa: laws.Law, potential_ab: laws.Law) -> NPlusOneSystem:
        if N_a < 2:
            raise InputError("need N_a >= 2")
        if D < 2:
            raise InputError("need D >= 2")
        if N_a > _FINITE_PAIRS_N:
            finite("C2 = N_a(N_a-1)/2", lambda: pair_count(N_a))
        return tuple.__new__(cls, (N_a, D, kinetic_a, kinetic_b, potential_aa, potential_ab))


class Np1Solution(Record, namedtuple(
        "Np1Solution", "energy p_a r_aa P0 R0 p_a_prime r_0_prime q_a q_b residual_a "
        "residual_b iterations n_roots phi_a phi_b", defaults=(None, None))):
    """Converged solution of the five-equation set: a minimum of E(r_aa, R0).

    ``n_roots`` is 1, the one minimum the descent reached.  (phi_a, phi_b)
    are the deformations of an improved solve, None for a plain one.
    """

    __slots__ = ()


class DosmNp1Report(Record, namedtuple(
        "DosmNp1Report", "orbital mu_a mu_b k_a k_b k_c A B mu D_a D_b phi_a phi_b "
        "n_pairs radius_response")):
    """Coupled radial-oscillation analysis around the orbital solution.

    ``orbital`` is the five-equation set solved at the orbital aggregates
    (lam_a, lam_b) = (orbital.q_a, orbital.q_b).  (mu_a, k_a) belong to the
    block radial mode, (mu_b, k_b) to the relative one, k_c couples them.
    (A, B, mu) are the normal-mode constants; D_a and D_b are the first-order
    responses of the energy to an increase of the respective quantum numbers,
    which fix the masses mu_a = p_a^2/D_a and mu_b = P0^2/D_b, and (phi_a,
    phi_b) are the deformations obtained by matching the two spectra.
    ``radius_response`` is the tangent of the minimum's path as the quantum
    numbers move, H^-1 H_kin, row by row: (d log r_aa/d log q_a,
    d log r_aa/d log q_b, d log R0/d log q_a, d log R0/d log q_b).
    """

    __slots__ = ()

    def level(self, nu_a: float, nu_b: float) -> float:
        """Energy with radial aggregates (nu_a, nu_b) on top of the orbital motion."""
        return (self.orbital.energy
                + math.sqrt(self.A / (self.n_pairs * self.mu)) * nu_a
                + math.sqrt(self.B / self.mu) * nu_b)

    def radii(self, q_a: float, q_b: float) -> tuple[float, float]:
        """(r_aa, R0) of the minimum at quantum numbers (q_a, q_b), to first order in log q.

        A step that moves log r_aa or log R0 by more than PREDICTOR_MAX_STEP
        is shortened to that length: farther out, the tangent of a curving
        path can carry the start into the basin of another minimum.
        """
        s_a = math.log(q_a / self.orbital.q_a)
        s_b = math.log(q_b / self.orbital.q_b)
        m11, m12, m21, m22 = self.radius_response
        du_a, du_b = m11 * s_a + m12 * s_b, m21 * s_a + m22 * s_b
        shrink = min(1.0, PREDICTOR_MAX_STEP / max(abs(du_a), abs(du_b), 1e-300))
        return (self.orbital.r_aa * math.exp(shrink * du_a),
                self.orbital.R0 * math.exp(shrink * du_b))


def _geometry(system: NPlusOneSystem, q_a: float, q_b: float,
              r_aa: float, R0: float) -> tuple[float, float, float, float]:
    """(p_a, P0, p_a', r_0') implied by (r_aa, R0) and the quantization conditions."""
    N_a = system.N_a
    p_a = q_a / (math.sqrt(pair_count(N_a)) * r_aa)
    P0 = q_b / R0
    p_a_prime = math.sqrt(p_a ** 2 + P0 ** 2 / N_a ** 2)
    r_0_prime = math.sqrt(R0 ** 2 + 0.5 * (N_a - 1) / N_a * r_aa ** 2)
    return p_a, P0, p_a_prime, r_0_prime


def _energy(system: NPlusOneSystem, q_a: float, q_b: float, r_aa: float, R0: float) -> float:
    """E(r_aa, R0; q_a, q_b) alone, from the laws' values.

    Its terms are those of _surface_at, added in the same order, and
    _geometry forms p_a' and r_0' as _surface_at does, so wherever the
    surface can be evaluated the two energies are equal to the last bit.
    """
    N_a = system.N_a
    _, P0, pap, r0p = _geometry(system, q_a, q_b, r_aa, R0)
    return (N_a * system.kinetic_a.value(pap) + system.kinetic_b.value(P0)
            + pair_count(N_a) * system.potential_aa.value(r_aa)
            + N_a * system.potential_ab.value(r0p))


def _surface_at(system: NPlusOneSystem, q_a: float,
                q_b: float) -> Callable[[float, float], tuple]:
    """E(r_aa, R0; q_a, q_b) with its derivatives in u = (log r_aa, log R0), bound once.

    Reads the system's constants and its twelve law callables once and
    returns at(r_aa, R0), which gives the flat record
    (E, k1, k2, v1, v2, t11, t12, t22, p11, p12, p22): the gradient of E is
    (k1 + v1, k2 + v2), its kinetic plus its potential part, and its exact
    Hessian (H11, H12, H22) is (t11 + p11, t12 + p12, t22 + p22), chain-ruled
    from the laws' d1 and d2 through p_a' = sqrt(a1 + a2), with a1 = p_a^2
    and a2 = P0^2/N_a^2, and r_0' = sqrt(b1 + b2), with b1 = (N_a-1)/(2 N_a)
    r_aa^2 and b2 = R0^2.
    """
    # at() closes over 19 names.  CPython 3.11 keeps every freed tuple of 20
    # items, such as the cells of a 20-name closure, on a free list that it
    # never takes one from again (up to 2,000 of them, 368 kB).
    N_a = system.N_a
    c2 = pair_count(N_a)
    root_c2, n2, half = math.sqrt(c2), N_a ** 2, 0.5 * (N_a - 1) / N_a
    (ta, ta1_, ta2_), (tb, tb1_, tb2_), (vaa, vaa1_, vaa2_), (vab, vab1_, vab2_) = [
        (law.value, law.d1, law.d2) for law in (system.kinetic_a, system.kinetic_b,
                                                system.potential_aa, system.potential_ab)]

    def at(r_aa: float, R0: float) -> tuple:
        p_a, P0 = q_a / (root_c2 * r_aa), q_b / R0
        P0_2, r_aa_2 = P0 ** 2, r_aa ** 2
        a1, a2, b1, b2 = p_a ** 2, P0_2 / n2, half * r_aa_2, R0 ** 2
        pap, r0p = math.sqrt(a1 + a2), math.sqrt(b1 + b2)
        pap3, r0p3 = pap ** 3, r0p ** 3
        pg1, pg2, ph12 = -a1 / pap, -a2 / pap, -a1 * a2 / pap3
        ph11, ph22 = 2.0 * a1 / pap - a1 * a1 / pap3, 2.0 * a2 / pap - a2 * a2 / pap3
        rg1, rg2, rh12 = b1 / r0p, b2 / r0p, -b1 * b2 / r0p3
        rh11, rh22 = 2.0 * b1 / r0p - b1 * b1 / r0p3, 2.0 * b2 / r0p - b2 * b2 / r0p3
        ta1, ta2, tb1, tb2 = ta1_(pap), ta2_(pap), tb1_(P0), tb2_(P0)
        vaa1, vab1, vab2 = vaa1_(r_aa), vab1_(r0p), vab2_(r0p)
        n_ta1, n_vab1, ta2_pg1, vab2_rg1 = N_a * ta1, N_a * vab1, ta2 * pg1, vab2 * rg1
        return (N_a * ta(pap) + tb(P0) + c2 * vaa(r_aa) + N_a * vab(r0p),
                n_ta1 * pg1, n_ta1 * pg2 - tb1 * P0, c2 * vaa1 * r_aa + n_vab1 * rg1, n_vab1 * rg2,
                N_a * (ta2_pg1 * pg1 + ta1 * ph11), N_a * (ta2_pg1 * pg2 + ta1 * ph12),
                N_a * (ta2 * pg2 * pg2 + ta1 * ph22) + tb2 * P0_2 + tb1 * P0,
                c2 * (vaa2_(r_aa) * r_aa_2 + vaa1 * r_aa) + N_a * (vab2_rg1 * rg1 + vab1 * rh11),
                N_a * (vab2_rg1 * rg2 + vab1 * rh12), N_a * (vab2 * rg2 * rg2 + vab1 * rh22))
    return at


def _abs_hessian(h11: float, h12: float, h22: float) -> tuple[float, float, float]:
    """|H| = V |Lambda| V^T of a symmetric 2x2 H, in closed form.

    It is the square root (H^2 + |det H| I)/sqrt(tr H^2 + 2 |det H|) of H^2,
    taken with H scaled to its largest entry so that no square overflows or
    underflows.  An H that is zero or not finite gives the zero matrix.
    """
    scale = max(abs(h11), abs(h12), abs(h22))
    if not 0.0 < scale < math.inf:
        return 0.0, 0.0, 0.0
    h11, h12, h22 = h11 / scale, h12 / scale, h22 / scale
    det = abs(h11 * h22 - h12 * h12)
    norm = scale / math.sqrt(h11 * h11 + 2.0 * h12 * h12 + h22 * h22 + 2.0 * det)
    return ((h11 * h11 + h12 * h12 + det) * norm, h12 * (h11 + h22) * norm,
            (h22 * h22 + h12 * h12 + det) * norm)


def _newton(at: Callable[[float, float], tuple], r_aa: float,
            R0: float) -> tuple[float, float, tuple, int, tuple[float, float]]:
    """Damped Newton descent on E in log coordinates, which keeps them positive.

    ``at`` is the surface of _surface_at, bound once for the descent, and
    every point it visits is one at() record, read by one trial block: the
    start is the first trial, a step of zero kept whatever its E.  Each step
    is u <- u - t |H|^-1 g with the record's exact gradient g and Hessian H.
    Where H is positive definite |H| = H and this is Newton's step, taken
    without _abs_hessian; elsewhere |H| keeps it a descent direction, so
    the iteration ends only at a minimum.  A trial is kept when E does not
    rise or when it already meets NEWTON_TOL; otherwise, and where the
    surface cannot be evaluated, t is halved.  An E unchanged to the last
    bit is kept: a decrease below one ulp of E, or a plateau (a short-range
    law that has underflowed to 0), which the descent crosses toward the
    escape radius; NEWTON_MAX_STEPS bounds any such walk.  A start where E
    cannot be evaluated, and a stationary point that is not a minimum (a
    start on a saddle or a maximum), raise NonConvergenceError, as does a
    det H that overflows to infinity (a singular Hessian).  A step that
    carries a radius beyond both SCAN_HI and ESCAPE_FACTOR times the start's
    larger radius means E falls toward infinite separation and has no
    minimum: NoBindingError.  The margin lets a start beyond SCAN_HI (a
    virial start of a weakly bound system) take the outward steps to its
    minimum.  Returns (r_aa, R0, the record there, iterations, residuals),
    the residuals being the equations of motion scaled as
    (k_i + v_i)/max(|k_i|, |v_i|).
    """
    far = max(SCAN_HI, ESCAPE_FACTOR * max(r_aa, R0))
    energy, f, du1, du2 = math.inf, None, 0.0, 0.0
    for iterations in range(1, NEWTON_MAX_STEPS + 2):
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            try:
                trial_r, trial_R = r_aa * math.exp(step * du1), R0 * math.exp(step * du2)
                trial = at(trial_r, trial_R)
            except (OverflowError, ValueError, ZeroDivisionError):
                if f is None:
                    raise NonConvergenceError("E cannot be evaluated at the start",
                                              (r_aa, R0)) from None
                step *= 0.5
                continue
            trial_energy, k1, k2, v1, v2, t11, t12, t22, p11, p12, p22 = trial
            g1, g2 = k1 + v1, k2 + v2
            f_trial = (g1 / max(abs(k1), abs(v1), 1e-300), g2 / max(abs(k2), abs(v2), 1e-300))
            if (trial_energy <= energy or max(abs(f_trial[0]), abs(f_trial[1])) < NEWTON_TOL
                    or f is None):
                break
            step *= 0.5
        else:
            raise NonConvergenceError("no descent direction", (r_aa, R0), f)
        r_aa, R0, record, energy, f = trial_r, trial_R, trial, trial_energy, f_trial
        if max(r_aa, R0) > far:
            raise NoBindingError(f"no minimum of E: it falls toward (r_aa, R0) = "
                                 f"({r_aa:.3g}, {R0:.3g}), E = {energy:.6g}")
        if iterations > NEWTON_MAX_STEPS:
            break
        h11, h12, h22 = t11 + p11, t12 + p12, t22 + p22
        det = h11 * h22 - h12 * h12
        if max(abs(f[0]), abs(f[1])) < NEWTON_TOL:
            if h11 > 0.0 and det > 0.0:
                return r_aa, R0, record, iterations, f
            raise NonConvergenceError("stationary point is not a minimum of E",
                                      (r_aa, R0), f)
        if not (h11 > 0.0 and det > 0.0):
            h11, h12, h22 = _abs_hessian(h11, h12, h22)
            det = h11 * h22 - h12 * h12
        if not (det > 0.0 and math.isfinite(det)):
            raise NonConvergenceError("singular Hessian", (r_aa, R0), f)
        du1, du2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
    raise NonConvergenceError(f"Newton did not converge in {NEWTON_MAX_STEPS} steps",
                              (r_aa, R0), f)


def _virial_start(system: NPlusOneSystem,
                  at: Callable[[float, float], tuple]) -> tuple[float, float] | None:
    """(lam, lam), the minimum of E along the scale through (r_aa, R0) = (1, 1).

    Where T_a and T_b are powers c p^alpha of one exponent (c and alpha are
    positive, as in every kinetic law) and V_aa and V_ab powers r^beta of
    one exponent, the energy is homogeneous: E(lam r_aa, lam R0) =
    lam^-alpha K + lam^beta V with K > 0.  Where alpha + beta <= 0, that
    has at most a maximum in lam on each ray, so E has no minimum at all:
    NoBindingError, decided without a descent.  Otherwise its log gradient
    sums to -alpha K over the kinetic parts and to beta V over the
    potential ones, so the scale's minimum is at
    lam^(alpha+beta) = -(k1 + k2)/(v1 + v2), read off one record at (1, 1)
    of ``at``, the surface the descent then uses.  None for other laws, and
    where that ratio is not positive and finite (for example an atom whose
    repulsive block outweighs the nucleus).
    """
    exponents = [laws.power_parameters(law) for law in (
        system.kinetic_a, system.kinetic_b, system.potential_aa, system.potential_ab)]
    if None in exponents:
        return None
    (_, alpha), (_, alpha_b), (_, beta), (_, beta_ab) = exponents
    if alpha != alpha_b or beta != beta_ab:
        return None
    if alpha + beta <= 0.0:
        raise NoBindingError(f"no minimum of E: its laws are homogeneous with "
                             f"alpha + beta = {alpha + beta:.6g} <= 0")
    try:
        k1, k2, v1, v2 = at(1.0, 1.0)[1:5]
        ratio = -(k1 + k2) / (v1 + v2)
        # A negative ratio to a fractional power would be a complex number.
        if not 0.0 < ratio < math.inf:
            return None
        scale = ratio ** (1.0 / (alpha + beta))
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return scale, scale


def _grid_start(system: NPlusOneSystem, q_a: float, q_b: float) -> tuple[float, float]:
    """The lowest interior local minimum of E sampled along rays R0 = s r_aa.

    Each shape s of _GRID_SHAPES is a ray, sampled at r_aa = SCAN_LO
    _GRID_FACTOR^k up to SCAN_HI; a sample whose two neighbours on its ray
    both lie higher is a local minimum, and the lowest of them over all
    rays is the start.  Each sample is E alone (_energy), no derivative.  A
    sample where E cannot be evaluated, or is NaN, counts as +inf.  Without
    any local minimum the start is (1, 1).  The
    virial start is the minimum of such a ray in closed form.
    """
    steps = int(math.log(SCAN_HI / SCAN_LO) / math.log(_GRID_FACTOR))
    lams = [SCAN_LO * _GRID_FACTOR ** k for k in range(steps + 1)]
    best, start = math.inf, (1.0, 1.0)
    for shape in _GRID_SHAPES:
        energies = []
        for lam in lams:
            try:
                energy = _energy(system, q_a, q_b, lam, shape * lam)
            except (OverflowError, ValueError, ZeroDivisionError):
                energy = math.inf
            energies.append(math.inf if math.isnan(energy) else energy)
        for k in range(1, steps):
            if energies[k - 1] > energies[k] < energies[k + 1] and energies[k] < best:
                best, start = energies[k], (lams[k], shape * lams[k])
    return start


def _solve(system: NPlusOneSystem, q_a: float, q_b: float,
           start: tuple[float, float] | None = None,
           fallback: Callable[[], tuple[float, float]] | None = None,
           ) -> tuple[Np1Solution, tuple]:
    """The minimum of E(r_aa, R0; q_a, q_b) one descent reaches from ``start``.

    Where that descent fails (NonConvergenceError or NoBindingError) and a
    ``fallback`` is given, one more descent begins at fallback(), and its
    error is the one raised.  Without a start the descent begins at the
    virial start of homogeneous power laws, with the grid start of
    _grid_start as its fallback, or at the grid start itself where the laws
    have no virial start; homogeneous laws with alpha + beta <= 0 raise
    NoBindingError before any start.  The surface is bound once
    (_surface_at), and the virial start and both descents share it.  Returns
    the solution and the at() record at it.
    """
    if not (0.0 < q_a < math.inf and 0.0 < q_b < math.inf):
        raise InputError(f"quantum numbers must be positive and finite, got ({q_a}, {q_b})")
    at = _surface_at(system, q_a, q_b)
    if start is None:
        start = _virial_start(system, at)
        fallback = partial(_grid_start, system, q_a, q_b)
    try:
        r_aa, R0, record, iters, res = _newton(at, *(start or fallback()))
    except (NonConvergenceError, NoBindingError):
        if start is None or fallback is None:
            raise
        r_aa, R0, record, iters, res = _newton(at, *fallback())
    p_a, P0, pap, r0p = _geometry(system, q_a, q_b, r_aa, R0)
    return Np1Solution(energy=record[0], p_a=p_a, r_aa=r_aa, P0=P0, R0=R0,
                       p_a_prime=pap, r_0_prime=r0p, q_a=q_a, q_b=q_b,
                       residual_a=abs(res[0]), residual_b=abs(res[1]),
                       iterations=iters, n_roots=1), record


def solve_et_np1(system: NPlusOneSystem, q_a: float, q_b: float) -> Np1Solution:
    """Solve the five-equation set at global quantum numbers (q_a, q_b).

    The solution is the minimum of E(r_aa, R0) that one damped Newton
    descent reaches, so it is always a point the improved method can
    quantize; n_roots is 1.  The descent starts at the virial start of
    homogeneous power laws, and from the grid start of _grid_start for
    other laws or where the first descent fails (NonConvergenceError or
    NoBindingError); the error of that second descent is the one raised.
    Homogeneous laws with alpha + beta <= 0 have no minimum, and raise
    NoBindingError without a descent.
    """
    return _solve(system, q_a, q_b)[0]


def dosm_np1(system: NPlusOneSystem, lam_a: float, lam_b: float) -> DosmNp1Report:
    """Quantize the two coupled radial modes around the orbital solution.

    The orbital solution is the five-equation set solved with the quantum
    numbers replaced by (lam_a, lam_b).  Everything else is read off the
    energy surface there, as the descent that found it last evaluated it: the
    coupled quadratic form in the two radial displacements is its Hessian,
    (k_a, k_b, k_c) = (E_rr, E_RR, 2 E_rR), and minus the kinetic part of its
    log gradient gives the responses (D_a, D_b) and with them the masses
    mu_a = p_a^2/D_a and mu_b = P0^2/D_b.  The normal modes and the responses
    fix the two deformation parameters.  The kinetic energy depends on
    u = (log r_aa, log R0) only through log q - u, so the gradient moves with
    log q as -H_kin, the kinetic part of the Hessian, and the minimum moves as
    du/dlog q = H^-1 H_kin: the report's radius_response.  A phi_a or phi_b
    beyond the floats (a mass underflowing to zero, say) raises InputError.
    """
    c2 = pair_count(system.N_a)
    orbital, (_, k1, k2, v1, v2, t11, t12, t22, p11, p12, p22) = _solve(system, lam_a, lam_b)
    r_aa, R0 = orbital.r_aa, orbital.R0
    h11, h12, h22 = t11 + p11, t12 + p12, t22 + p22
    D_a, D_b = -k1, -k2
    mu_a, mu_b = orbital.p_a ** 2 / D_a, orbital.P0 ** 2 / D_b
    # Second derivatives in (r_aa, R0) from those in their logarithms.
    k_a = (h11 - k1 - v1) / r_aa ** 2
    k_b = (h22 - k2 - v2) / R0 ** 2
    k_c = 2.0 * h12 / (r_aa * R0)

    A, B, mu = normal_modes(OscPair(mu_a, mu_b, k_a, k_b, k_c))
    if A <= 0.0 or B <= 0.0:
        raise UnstableOrbitalError(
            f"unstable radial quadratic form (A={A}, B={B})")
    phi_a = finite("phi_a", lambda: lam_a / D_a * math.sqrt(A / (c2 * mu)))
    phi_b = finite("phi_b", lambda: lam_b / D_b * math.sqrt(B / mu))
    det = h11 * h22 - h12 * h12
    response = ((h22 * t11 - h12 * t12) / det, (h22 * t12 - h12 * t22) / det,
                (h11 * t12 - h12 * t11) / det, (h11 * t22 - h12 * t12) / det)
    return DosmNp1Report(orbital=orbital, mu_a=mu_a, mu_b=mu_b, k_a=k_a, k_b=k_b,
                         k_c=k_c, A=A, B=B, mu=mu, D_a=D_a, D_b=D_b,
                         phi_a=phi_a, phi_b=phi_b, n_pairs=c2,
                         radius_response=response)


def phi_pair(system: NPlusOneSystem, lam_a: float, lam_b: float) -> tuple[float, float]:
    """Deformation parameters (phi_a, phi_b) at orbital aggregates (lam_a, lam_b)."""
    report = dosm_np1(system, lam_a, lam_b)
    return report.phi_a, report.phi_b


def solve_iet_np1(system: NPlusOneSystem, spec: QuantumSpec) -> Np1Solution:
    """Improved solve: deform both quantum numbers and re-solve.

    The spec's aggregates (nu_a, lam_a) and (nu_b, lam_b) fix the pair
    (phi_a, phi_b) at the orbital minimum; the five-equation set is then
    solved at Q_a = phi_a*nu_a + lam_a and Q_b = phi_b*nu_b + lam_b by a
    descent that starts from the tangent prediction of the minimum there,
    DosmNp1Report.radii, so only the orbital solve pays for a cold start.
    Where that descent fails (NonConvergenceError or NoBindingError), it
    starts again from the orbital minimum itself, through the same fallback
    of _solve that a cold solve uses.
    """
    _check_fit(spec, system.D, system.N_a, split=True)
    nu_a, lam_a = spec.nu, spec.lam
    nu_b, lam_b = spec.nu_b, spec.lam_b
    if lam_a == 0.0 or lam_b == 0.0:
        raise DegenerateOrbitalError("a vanishing orbital aggregate degenerates "
                                     "the orbital-only set")
    report = dosm_np1(system, lam_a, lam_b)
    phi_a, phi_b = report.phi_a, report.phi_b
    q_a, q_b = phi_a * nu_a + lam_a, phi_b * nu_b + lam_b
    orbital = report.orbital
    solution, _ = _solve(system, q_a, q_b, report.radii(q_a, q_b),
                         lambda: (orbital.r_aa, orbital.R0))
    return solution._replace(phi_a=phi_a, phi_b=phi_b)


class AtomResult(Record, namedtuple(
        "AtomResult", "binding_ev energy method Z n_electrons nucleus_mass filling_levels "
        "nu_a lam_a phi_a phi_b solution")):
    """Atom pipeline outcome: binding energy plus the quantities behind it."""

    __slots__ = ()


def _atom_system(Z: float, n_electrons: int, nucleus_mass: float) -> NPlusOneSystem:
    # Electron-electron repulsion +1/r is a plain signed monomial; the sign
    # convention of potential_power cannot produce a repulsive negative power.
    return NPlusOneSystem(
        N_a=n_electrons, D=3,
        kinetic_a=laws.kinetic_power(0.5, 2.0),
        kinetic_b=laws.kinetic_power(0.5 / nucleus_mass, 2.0),
        potential_aa=laws.power(1.0, -1.0),
        potential_ab=laws.coulomb(Z),
    )


def _iet_filling(system: NPlusOneSystem, n_electrons: int):
    """Fixed point of the filling <-> phi_a circularity, as (filling, solution).

    The order of the single-particle levels depends on phi_a, while phi_a
    depends on the orbital aggregate lam_a of the filling.  Start at phi = 2;
    each round makes the improved solve at the filling and refills at the
    solution's phi_a.  A refill equal to the filling is a fixed point, and
    that round's solve is the answer.  A two-cycle keeps the lower-energy of
    its two rounds, the earlier one on a tie.
    """
    filling = fgs_fill(n_electrons, 3, 2, 2.0)
    rounds = []
    for _ in range(20):
        solution = solve_iet_np1(system, spec_from_filling(filling))
        rounds.append((filling, solution))
        refilled = fgs_fill(n_electrons, 3, 2, solution.phi_a)
        if refilled.levels == filling.levels:
            return filling, solution
        if len(rounds) >= 2 and refilled.levels == rounds[-2][0].levels:
            first, second = rounds[-2:]
            warnings.warn("filling iteration entered a two-cycle; "
                          "keeping the lower-energy filling")
            return first if first[1].energy <= second[1].energy else second
        filling = refilled
    raise NonConvergenceError("filling iteration did not reach a fixed point")


def atom_report(Z: float, n_electrons: int, nucleus_mass: float,
                method: str = "et") -> AtomResult:
    """Full atom pipeline: Coulomb system, electron filling, solve, convert.

    The electrons are the identical block (degeneracy 2 from spin), the
    nucleus the distinct particle.  The eigenvalue is converted to a binding
    energy in eV, reported positive.
    """
    if n_electrons < 2:
        raise InputError("need at least two electrons")
    if not (0.0 < Z < math.inf and 0.0 < nucleus_mass < math.inf):
        raise InputError("need finite Z > 0 and nucleus_mass > 0")
    method = method.lower()
    if method not in ("et", "iet"):
        raise InputError("method must be 'et' or 'iet'")
    system = _atom_system(Z, n_electrons, nucleus_mass)
    if method == "et":
        filling = fgs_fill(n_electrons, 3, 2, 2.0)
        spec = spec_from_filling(filling)
        solution = solve_et_np1(system, 2.0 * spec.nu + spec.lam,
                                2.0 * spec.nu_b + spec.lam_b)
    else:
        filling, solution = _iet_filling(system, n_electrons)
        spec = spec_from_filling(filling)
    if solution.energy >= 0.0:
        raise NoBindingError(f"no bound solution (E = {solution.energy})")
    return AtomResult(binding_ev=-solution.energy * ATOMIC_UNIT_EV,
                      energy=solution.energy, method=method, Z=Z,
                      n_electrons=n_electrons, nucleus_mass=nucleus_mass,
                      filling_levels=filling.levels, nu_a=spec.nu, lam_a=spec.lam,
                      phi_a=solution.phi_a, phi_b=solution.phi_b,
                      solution=solution)


def solve_atom(Z: float, n_electrons: int, nucleus_mass: float,
               method: str = "et") -> float:
    """Ground-state binding energy in eV (positive); see atom_report."""
    return atom_report(Z, n_electrons, nucleus_mass, method).binding_ev
