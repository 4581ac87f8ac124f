"""Quantum-number bookkeeping.

Global quantum numbers and their deformed splits, plus bosonic and fermionic
ground-state enumeration in D dimensions with a level degeneracy d.  The
internal motion of N particles is carried by N-1 oscillator modes (n_i, l_i);
aggregates are

    nu  = sum(n_i + 1/2),        lam = sum(l_i + (D-2)/2),

and the deformed global quantum number is Q_phi = phi*nu + lam, which reduces
to the plain Q = sum(2 n_i + l_i + D/2) at phi = 2.  Only the aggregates
matter to the solvers, so one converter turns aggregates into modes, with
the quanta on the first mode: spec_from_filling and split_spec both use it,
the second also for the single relative mode.
"""

from __future__ import annotations

import math
from collections import namedtuple
from heapq import heappush, heapreplace

from .errors import InputError, finite, require_finite
from .records import Record

__all__ = [
    "QuantumSpec",
    "GroundStateResult",
    "global_q",
    "level_degeneracy",
    "bgs",
    "fgs_fill",
    "fgs_closed",
    "fgs_approx",
    "ground_spec",
    "split_ground_spec",
    "spec_from_filling",
    "split_spec",
]


class QuantumSpec(Record, namedtuple("QuantumSpec", "D internal_modes relative_mode")):
    """Quantum numbers of one state.

    ``internal_modes`` holds the (n_i, l_i) pairs of the internal motion: N-1
    pairs for N identical particles, or N_a-1 pairs for the identical block
    of a split system.  ``relative_mode`` is the single (n_b, l_b) pair of
    the distinct particle relative to the block's centre of mass; it is None
    for all-identical systems.
    """

    __slots__ = ()

    def __new__(cls, D: int, internal_modes: tuple[tuple[int, int], ...],
                relative_mode: tuple[int, int] | None = None) -> QuantumSpec:
        if D < 2:
            raise InputError("dimension must be >= 2")
        if not internal_modes:
            raise InputError("at least one internal mode is required")
        modes = list(internal_modes)
        if relative_mode is not None:
            modes.append(relative_mode)
        for n, l in modes:
            if n < 0 or l < 0 or n != int(n) or l != int(l):
                raise InputError(f"quantum numbers must be non-negative integers, got ({n}, {l})")
        return tuple.__new__(cls, (D, internal_modes, relative_mode))

    @property
    def nu(self) -> float:
        return sum(n for n, _ in self.internal_modes) + 0.5 * len(self.internal_modes)

    @property
    def lam(self) -> float:
        return (sum(l for _, l in self.internal_modes)
                + 0.5 * (self.D - 2) * len(self.internal_modes))

    @property
    def nu_b(self) -> float:
        if self.relative_mode is None:
            raise InputError("spec has no relative mode")
        return self.relative_mode[0] + 0.5

    @property
    def lam_b(self) -> float:
        if self.relative_mode is None:
            raise InputError("spec has no relative mode")
        return self.relative_mode[1] + 0.5 * (self.D - 2)


class GroundStateResult(Record, namedtuple(
        "GroundStateResult", "N D phi statistics d levels nu lam q_phi")):
    """Outcome of a ground-state enumeration.

    ``levels`` lists the filled single-particle levels as (n, l, occupancy)
    triples; occupancies sum to N.  The aggregates include the centre-of-mass
    removal tails (N-1)/2 and (N-1)(D-2)/2, so Q_phi = phi*nu + lam directly;
    bgs and fgs_fill refuse a Q_phi beyond the floats as InputError.
    ``statistics`` is "boson" or "fermion"; ``d`` is None for bosons.
    """

    __slots__ = ()


# The most levels fgs_fill lists, and the most internal modes a spec built
# here may have: both bound time and memory at any N and phi.
MAX_FILL_LEVELS = 100_000


def _zero_modes(count: int) -> tuple[tuple[int, int], ...]:
    """``count`` modes (0, 0); more than MAX_FILL_LEVELS raise InputError."""
    if count > MAX_FILL_LEVELS:
        raise InputError(f"a spec may have at most {MAX_FILL_LEVELS} internal modes, got {count}")
    return ((0, 0),) * count


def _check_fit(spec: QuantumSpec, D: int, N: int, split: bool) -> None:
    """Refuse a spec that does not fit its system.

    N identical particles, or the identical block of N of a split system,
    take N-1 internal modes in the system's dimension D; a split system also
    takes the relative mode, an all-identical one does not.
    """
    if spec.D != D:
        raise InputError(f"spec is for D = {spec.D}, the system for D = {D}")
    if len(spec.internal_modes) != N - 1:
        raise InputError(f"spec has {len(spec.internal_modes)} internal modes, expected {N - 1}")
    if (spec.relative_mode is not None) != split:
        raise InputError("split systems need a relative mode, identical ones take none")


def ground_spec(N: int, D: int) -> QuantumSpec:
    """All-zero internal modes for N identical particles (bosonic ground state)."""
    if N < 2:
        raise InputError("need N >= 2")
    return QuantumSpec(D=D, internal_modes=_zero_modes(N - 1))


def split_ground_spec(N_a: int, D: int) -> QuantumSpec:
    """All-zero modes for N_a identical particles plus one distinct particle."""
    if N_a < 2:
        raise InputError("need N_a >= 2")
    return QuantumSpec(D=D, internal_modes=_zero_modes(N_a - 1), relative_mode=(0, 0))


def _modes(D: int, count: int, nu: float, lam: float) -> tuple[tuple[int, int], ...]:
    """``count`` modes with aggregates (nu, lam), the quanta all on the first."""
    n_sum = nu - 0.5 * count
    l_sum = lam - 0.5 * (D - 2) * count
    n_int, l_int = round(n_sum), round(l_sum)
    if abs(n_sum - n_int) > 1e-9 or abs(l_sum - l_int) > 1e-9 or n_int < 0 or l_int < 0:
        raise InputError(f"aggregates (nu, lam) = ({nu:g}, {lam:g}) of {count} modes are "
                         f"not reachable with integer quantum numbers")
    return ((n_int, l_int),) + _zero_modes(count)[1:]


def spec_from_filling(filling: GroundStateResult,
                      relative_mode: tuple[int, int] | None = (0, 0)) -> QuantumSpec:
    """Convert a filling of N identical particles into a spec.

    Only the aggregates (nu, lam) matter downstream, so the filled quanta are
    concentrated on the first internal mode.  The default relative mode makes
    a split-system spec with the filled particles as the identical block;
    pass None for an all-identical system.
    """
    return QuantumSpec(D=filling.D, internal_modes=_modes(
        filling.D, filling.N - 1, filling.nu, filling.lam), relative_mode=relative_mode)


def split_spec(D: int, N_a: int, nu_a: float, lam_a: float,
               nu_b: float, lam_b: float) -> QuantumSpec:
    """Spec of a split system with these aggregates, the quanta on the first mode of each part."""
    return QuantumSpec(D=D, internal_modes=_modes(D, N_a - 1, nu_a, lam_a),
                       relative_mode=_modes(D, 1, nu_b, lam_b)[0])


def global_q(spec: QuantumSpec, phi: float) -> float:
    """Deformed global quantum number phi*nu + lam of the internal motion."""
    if phi <= 0.0:
        raise InputError("phi must be positive")
    return phi * spec.nu + spec.lam


def level_degeneracy(l: int, D: int, d: int = 1) -> int:
    """Number of states of orbital momentum l in D dimensions, times d.

    The states are the harmonic polynomials of degree l in D variables: the
    binom(l+D-1, D-1) monomials of degree l less the binom(l+D-3, D-1) of
    degree l-2 (none for l < 2).  This is d*(2l+1) at D = 3 and
    d*(2 - delta_{l0}) at D = 2.
    """
    if l < 0 or D < 2 or d < 1:
        raise InputError("need l >= 0, D >= 2, d >= 1")
    return d * (math.comb(l + D - 1, D - 1) - math.comb(max(l + D - 3, 0), D - 1))


def bgs(N: int, D: int, phi: float = 2.0) -> GroundStateResult:
    """Bosonic ground state: all quantum numbers zero.

    Q_phi = (N-1)(D+phi-2)/2, which is (N-1)D/2 at phi = 2.
    """
    if N < 2:
        raise InputError("need N >= 2")
    if D < 2:
        raise InputError("need D >= 2")
    if phi <= 0.0:
        raise InputError("phi must be positive")
    if not math.isfinite(phi):
        raise InputError(f"phi must be finite, got {phi}")
    nu = 0.5 * (N - 1)
    lam = 0.5 * (D - 2) * (N - 1)
    return GroundStateResult(N=N, D=D, phi=phi, statistics="boson", d=None,
                             levels=((0, 0, N),), nu=nu, lam=lam,
                             q_phi=require_finite("q_phi", phi * nu + lam))


def _check_fermions(N: int, D: int, d: int, phi: float = 2.0) -> None:
    """The argument check of fgs_fill, fgs_closed and fgs_approx."""
    if N < 2 or D < 2 or d < 1 or phi <= 0.0:
        raise InputError("need N >= 2, D >= 2, d >= 1, phi > 0")
    if not math.isfinite(phi):
        raise InputError(f"phi must be finite, got {phi}")


def fgs_fill(N: int, D: int, d: int, phi: float = 2.0) -> GroundStateResult:
    """Fermionic ground state by filling levels in key order.

    Particles are piled on single-particle levels (n, l) of capacity
    level_degeneracy(l, D, d), in ascending order of the level key phi*n + l,
    ties lower-n first; Q_phi is tie-invariant, the order only makes the
    reported filling deterministic.  A heap walks the levels in that order
    without a key bound: it starts at (0, 0); the least level (n, l) is
    replaced by (n, l+1) in one heapreplace, and (n+1, 0) is pushed too when
    l = 0.  Every level sorts after the one that adds it, so levels leave in
    fill order; the entries are distinct, so that order does not depend on
    the heap's layout.  (n, l) comes only after (n, l-1), so each degeneracy
    is computed once per l, when l first comes.  A level holds its full
    degeneracy until the one that takes the remaining particles, where the
    walk stops without adding successors, so it takes at most N levels at
    any phi.  The aggregates are summed as the levels are filled.
    A filling that would list more than MAX_FILL_LEVELS levels (only
    possible for N above that number; at small phi each level holds few
    particles) raises InputError: its time and memory grow with the levels.
    This is the defining routine for non-integer phi; at phi = 2 and phi = 1
    it must agree with the closed forms of fgs_closed.
    """
    _check_fermions(N, D, d, phi)
    # Keys are phi*n + l, never the previous key + 1, which may round differently.
    heap = [(0.0, 0, 0)]
    degeneracy: list[int] = []
    filled = []
    left = N
    n_sum = 0
    l_sum = 0
    # Each level holds at least one particle, so the count needs no check
    # unless N exceeds the bound.
    for _ in range(min(N, MAX_FILL_LEVELS)):
        _, n, l = heap[0]
        if l == len(degeneracy):
            degeneracy.append(level_degeneracy(l, D, d))
        occ = degeneracy[l]
        if occ >= left:
            filled.append((n, l, left))
            n_sum += left * n
            l_sum += left * l
            break
        heapreplace(heap, (phi * n + (l + 1), n, l + 1))
        if l == 0:
            heappush(heap, (phi * (n + 1), n + 1, 0))
        filled.append((n, l, occ))
        n_sum += occ * n
        l_sum += occ * l
        left -= occ
    else:
        raise InputError(f"the filling of N = {N} at phi = {phi:g} lists more than "
                         f"{MAX_FILL_LEVELS} levels; fgs_approx estimates its Q")
    nu = n_sum + 0.5 * (N - 1)
    lam = l_sum + 0.5 * (D - 2) * (N - 1)
    return GroundStateResult(N=N, D=D, phi=phi, statistics="fermion", d=d,
                             levels=tuple(filled), nu=nu, lam=lam,
                             q_phi=require_finite("q_phi", phi * nu + lam))


def fgs_closed(N: int, D: int, d: int, variant: int = 2) -> float:
    """Closed-form fermionic ground-state Q for phi = 2 or phi = 1.

    Both forms share the same shape: q is the greatest natural number such
    that the remainder r = N - (capacity of the shells below q) stays
    non-negative, and Q is the quanta carried by the full shells plus q*r
    plus the centre-of-mass tail (variant + D - 2)(N - 1)/2.
    """
    _check_fermions(N, D, d)
    if variant == 2:
        def cumulative(q: int) -> int:
            return d * math.comb(q + D - 1, D)

        def full_shell_quanta(q: int) -> int:
            return d * D * math.comb(q + D - 1, D + 1)
    elif variant == 1:
        # Both divisions are exact: the quotients count states and quanta.
        def cumulative(q: int) -> int:
            return d * (2 * q + D - 2) * math.comb(q + D - 2, D - 1) // D

        def full_shell_quanta(q: int) -> int:
            return d * (2 * q * D - 2 * D + D * D + 1) * math.comb(q + D - 2, D) // (D + 1)
    else:
        raise InputError("variant must be 2 or 1")
    q = 0
    while N - cumulative(q + 1) >= 0:
        q += 1
    r = N - cumulative(q)
    return full_shell_quanta(q) + q * r + 0.5 * (variant + D - 2) * (N - 1)


def fgs_approx(N: int, D: int, d: int, phi: float = 2.0) -> float:
    """Asymptotic estimate of the fermionic ground-state Q, valid for N >> 1.

    An estimate beyond the floats raises InputError.
    """
    _check_fermions(N, D, d, phi)
    # The D-th root of phi D!/(2 d) in logarithms: D! overflows a float from D = 171.
    root = math.exp((math.log(phi) + math.lgamma(D + 1.0) - math.log(2.0 * d)) / D)
    return finite("q_approx", lambda: (D / (D + 1.0)) * root * N ** ((D + 1.0) / D))
