"""The closed-form root of the power-law compact set, with the scan as its oracle.

For T = c p^a (c, a > 0) and V = c' r^b, solve_et takes rho0 from
rho0^(a+b) = N c a (Q/sqrt(C2))^a / (C2 c' b) without sampling the motion
residual.  The root scan, run on that same residual, must find the same
root; every law outside that form must still be scanned.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

from envtheory import laws, rootscan, solver_identical
from envtheory.errors import NoRootError
from envtheory.solver_identical import (SCAN_HI, SCAN_LO, IdenticalSystem,
                                        pair_count, solve_et)


@contextmanager
def _counted_scans():
    """Patch solver_identical's find_roots to count its calls."""
    calls = []

    def counted(fn, lo, hi):
        calls.append((lo, hi))
        return rootscan.find_roots(fn, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_identical, "find_roots", counted)
        yield calls


def _motion(system, Q):
    """The motion residual solve_et solves, with p0 eliminated."""
    N, T, V = system.N, system.kinetic, system.potential
    c2 = pair_count(N)

    def motion(rho):
        p0 = Q / (math.sqrt(c2) * rho)
        return N * T.d1(p0) * p0 - c2 * V.d1(rho) * rho

    return motion


@st.composite
def _binding_power(draw):
    """A potential c' r^b with c' b > 0: a power of either sign, harmonic or coulomb."""
    kind = draw(st.sampled_from(["power", "harmonic", "coulomb"]))
    strength = draw(st.floats(0.05, 20.0))
    if kind == "harmonic":
        return laws.harmonic(strength)
    if kind == "coulomb":
        return laws.coulomb(strength)
    beta = draw(st.one_of(st.floats(-1.8, -0.1), st.floats(0.1, 4.0)))
    return laws.potential_power(strength, beta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(F=st.floats(0.05, 20.0), alpha=st.floats(0.5, 3.0),
       potential=_binding_power(), N=st.integers(2, 60),
       Q=st.floats(0.5, 200.0))
def test_closed_form_root_matches_the_scan(F, alpha, potential, N, Q):
    beta = laws.power_parameters(potential)[1]
    assume(abs(alpha + beta) >= 0.25)
    system = IdenticalSystem(N, 3, laws.kinetic_power(F, alpha), potential)
    with _counted_scans() as scans:
        solution = solve_et(system, Q)
    assume(SCAN_LO <= solution.rho0 <= SCAN_HI)
    assert scans == []
    assert solution.n_roots == 1
    assert solution.all_roots == ((solution.energy, solution.rho0),)
    (oracle,) = rootscan.find_roots(_motion(system, Q), SCAN_LO, SCAN_HI)
    assert solution.rho0 == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kinetic, potential", [
    (laws.kinetic_power(0.5, 2.0), laws.gaussian_well(5.0, 1.0)),
    (laws.kinetic_power(0.5, 2.0), laws.exponential_well(5.0, 1.0)),
    (laws.kinetic_power(0.5, 2.0),
     laws.make_weighted_sum([(1.0, laws.coulomb(1.0)), (1.0, laws.harmonic(1.0))])),
    # A power kinetic law outside c, a > 0 is left to the scan.
    (laws.power(-1.0, -1.0), laws.harmonic(1.0)),
])
def test_other_laws_are_scanned(kinetic, potential):
    with _counted_scans() as scans:
        solution = solve_et(IdenticalSystem(3, 3, kinetic, potential), 2.0)
    assert len(scans) == 1
    assert solution.residual_motion < 1e-12


def test_a_balance_without_exponent_sum_is_scanned():
    # T = |p| against V = -1/r: a + b = 0, and the residual
    # (N c Q/sqrt(C2) - C2 G)/rho has one sign on the whole range.
    system = IdenticalSystem(3, 3, laws.kinetic_power(1.0, 1.0), laws.coulomb(1.0))
    with _counted_scans() as scans, pytest.raises(NoRootError):
        solve_et(system, 2.0)
    assert len(scans) == 1


def test_a_root_beyond_the_scan_range_is_scanned():
    # T = p^2/2, V = k r^2 with k = 1e-36: rho0^4 = N Q^2/(2 C2^2 k), so
    # rho0 = 1.1e9 lies beyond SCAN_HI, where the widened scan finds it.
    N, Q, k = 3, 3.0, 1e-36
    system = IdenticalSystem(N, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(k))
    with _counted_scans() as scans:
        solution = solve_et(system, Q)
    assert len(scans) == 1
    exact = (N * Q ** 2 / (2.0 * pair_count(N) ** 2 * k)) ** 0.25
    assert solution.rho0 > SCAN_HI
    assert solution.rho0 == pytest.approx(exact, rel=1e-13)
