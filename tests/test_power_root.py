"""The closed-form root of the power-law compact set, with the scan as its oracle.

For T = c p^a (c, a > 0) and V = c' r^b, solve_et takes rho0 from
rho0^(a+b) = N c a (Q/sqrt(C2))^a / (C2 c' b) without sampling the motion
residual, or raises NoRootError without a sample where that balance has no
isolated root (c' b <= 0, a + b = 0, a root beyond the floating range).  The
root scan, run on that same residual, must find the same root where it
reaches it; every law outside that form must still be scanned.
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

    def counted(fn, lo, hi, values=None):
        calls.append((lo, hi))
        return rootscan.find_roots(fn, lo, hi, values)

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
    assert scans == []
    assert solution.n_roots == 1
    assert solution.all_roots == ((solution.energy, solution.rho0),)
    if SCAN_LO <= solution.rho0 <= SCAN_HI:
        (oracle,) = rootscan.find_roots(_motion(system, Q), SCAN_LO, SCAN_HI)
        assert solution.rho0 == pytest.approx(oracle, rel=1e-13, abs=0.0)


@st.composite
def _power_pair(draw):
    """Any power pair: c, a > 0 against c' r^b with c' b of either sign,
    b = 0 and b = -a included, and coefficients over sixty decades."""
    c = 10.0 ** draw(st.floats(-30.0, 30.0))
    a = draw(st.floats(0.05, 8.0))
    b = draw(st.one_of(st.just(-a), st.just(0.0), st.floats(-8.0, 8.0)))
    sign = math.copysign(1.0, b) * draw(st.sampled_from([-1.0, 1.0, 1.0]))
    return laws.power(c, a), laws.power(sign * 10.0 ** draw(st.floats(-30.0, 30.0)), b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair=_power_pair(), N=st.integers(2, 60), log_q=st.floats(-6.0, 6.0))
def test_no_power_pair_reaches_the_scan(pair, N, log_q):
    system = IdenticalSystem(N, 3, *pair)
    with _counted_scans() as scans:
        try:
            solution = solve_et(system, 10.0 ** log_q)
        except NoRootError:
            pass
        else:
            assert solution.n_roots == 1
            assert 0.0 < solution.rho0 < math.inf and math.isfinite(solution.energy)
    assert scans == []


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


def test_a_balance_without_exponent_sum_has_no_root():
    # T = |p| against V = -1/r: a + b = 0, and the residual
    # (N c Q/sqrt(C2) - C2 G)/rho has one sign on the whole range.
    system = IdenticalSystem(3, 3, laws.kinetic_power(1.0, 1.0), laws.coulomb(1.0))
    with _counted_scans() as scans, pytest.raises(NoRootError, match="a \\+ b = 0"):
        solve_et(system, 2.0)
    assert scans == []


def test_a_vanishing_balance_has_no_isolated_root():
    # The critical ultrarelativistic Coulomb pair: N = 2, T = |p|, V = -2/r,
    # Q = 1 gives N c Q/sqrt(C2) = C2 G, so the residual is zero at every rho.
    # The scan used to list 273 exactly-zero grid samples as roots.
    system = IdenticalSystem(2, 2, laws.kinetic_power(1.0, 1.0), laws.coulomb(2.0))
    assert _motion(system, 1.0)(1.0) == 0.0
    with _counted_scans() as scans, pytest.raises(NoRootError, match="a \\+ b = 0"):
        solve_et(system, 1.0)
    assert scans == []


@pytest.mark.parametrize("potential", [
    laws.make_weighted_sum([(1.0, laws.coulomb(2.0))]),
    laws.make_weighted_sum([(1.0, laws.coulomb(1.0)), (1.0, laws.coulomb(1.0))]),
], ids=["one-term", "two-terms"])
def test_a_vanishing_balance_written_as_a_sum_has_no_root(potential):
    # The same critical pair with V as a sum law, which the scan solves: its
    # motion residual is rounding noise around zero, which the scan used to
    # list as 70 roots with E = 0.
    system = IdenticalSystem(2, 2, laws.kinetic_power(1.0, 1.0), potential)
    with _counted_scans() as scans, pytest.raises(NoRootError):
        solve_et(system, 1.0)
    assert len(scans) == 1


def _harmonic_root(N, Q, F, k):
    """rho0 of T = F p^2 against V = k r^2: rho0^4 = N F Q^2/(C2^2 k), in logs."""
    c2 = pair_count(N)
    return math.exp((math.log(N) + math.log(F) + 2.0 * math.log(Q)
                     - 2.0 * math.log(c2) - math.log(k)) / 4.0)


def test_a_root_beyond_the_scan_range_is_taken_in_closed_form():
    # T = p^2/2, V = k r^2 with k = 1e-36: rho0 = 1.1e9 lies beyond SCAN_HI,
    # where the widened scan finds the same root.
    N, Q, k = 3, 3.0, 1e-36
    system = IdenticalSystem(N, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(k))
    with _counted_scans() as scans:
        solution = solve_et(system, Q)
    assert scans == []
    assert solution.rho0 > SCAN_HI
    assert solution.rho0 == pytest.approx(_harmonic_root(N, Q, 0.5, k), rel=1e-13)
    (oracle,) = rootscan.find_roots(_motion(system, Q), SCAN_LO, SCAN_HI)
    assert solution.rho0 == pytest.approx(oracle, rel=1e-13)


def test_a_root_beyond_the_widened_scan_is_found():
    # k = 1e-80 puts rho0 near 1.1e20, beyond the scan's last widening to 1e16.
    N, Q, k = 3, 3.0, 1e-80
    system = IdenticalSystem(N, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(k))
    with pytest.raises(NoRootError):
        rootscan.find_roots(_motion(system, Q), SCAN_LO, SCAN_HI)
    with _counted_scans() as scans:
        solution = solve_et(system, Q)
    assert scans == []
    assert solution.rho0 > 1e20
    assert solution.rho0 == pytest.approx(_harmonic_root(N, Q, 0.5, k), rel=1e-13)
    assert solution.residual_motion < 1e-13


@pytest.mark.parametrize("Q", [1e5, 1e-4, 1.5e-3])
def test_a_root_beyond_the_floating_range_has_no_root(Q):
    # T = |p| against V = -r^-0.99: a + b = 0.01, so log rho0 is about
    # 100 log(Q/sqrt(C2)): beyond 1e308 at Q = 1e5, below the smallest
    # float at Q = 1e-4.  At Q = 1.5e-3, rho0 = 1.5e-306 is a float, but
    # V'(rho0) is about 1e609, so the residual cannot be evaluated there.
    system = IdenticalSystem(3, 3, laws.kinetic_power(1.0, 1.0),
                             laws.potential_power(1.0, -0.99))
    with _counted_scans() as scans, pytest.raises(NoRootError, match="floating range"):
        solve_et(system, Q)
    assert scans == []


@pytest.mark.parametrize("F, k", [(1e-200, 1e200), (1e200, 1e-200)])
def test_a_ratio_beyond_the_floating_range_keeps_its_root(F, k):
    # N c a/(C2 c' b) = F/k is 1e-400 or 1e400, which under- or overflows,
    # while rho0 = 3^(1/4) sqrt(F/k)^(1/2) is a float.  The energy depends on
    # F k only, so it equals that of F = k = 1.
    N, Q = 3, 3.0
    system = IdenticalSystem(N, 3, laws.kinetic_power(F, 2.0), laws.harmonic(k))
    with _counted_scans() as scans:
        solution = solve_et(system, Q)
    assert scans == []
    assert solution.rho0 == pytest.approx(_harmonic_root(N, Q, F, k), rel=1e-13)
    unit = solve_et(IdenticalSystem(N, 3, laws.kinetic_power(1.0, 2.0),
                                    laws.harmonic(1.0)), Q)
    assert solution.energy == pytest.approx(unit.energy, rel=1e-13)
