"""Identical-particle solver against closed forms and the oscillator oracle.

The harmonic system T = p^2/(2m), V = k r^2 is exactly solvable: with
C2 = N(N-1)/2 pairs the spectrum is E = sqrt(2 N k / m) (2 nu + lam).  Every
numeric path (plain solve, closed power-law form, radial-mode analysis,
improved solve) must land on it, which pins signs, pair counting and the
quantization convention all at once.
"""

import math

import numpy as np
import pytest

from envtheory import laws
from envtheory.errors import (DegenerateOrbitalError, InputError,
                              UnstableOrbitalError, UnsupportedRegimeError)
from envtheory.qnum import QuantumSpec, ground_spec, global_q
from envtheory.solver_identical import (IdenticalSystem, dosm_identical,
                                        pair_count, phi_identical,
                                        power_law_energy, solve_et, solve_iet)


def _ho_system(N, m=1.0, k=1.0, D=3):
    return IdenticalSystem(N, D, laws.kinetic_power(0.5 / m, 2.0),
                           laws.harmonic(k))


def _ho_energy(N, m, k, q):
    return math.sqrt(2.0 * N * k / m) * q


def test_pair_count():
    assert pair_count(2) == 1.0
    assert pair_count(5) == 10.0


def test_harmonic_oracle_solve_et():
    for N, m, k in [(2, 1.0, 1.0), (3, 0.5, 2.0), (7, 2.0, 0.3)]:
        spec = ground_spec(N, 3)
        q = global_q(spec, 2.0)
        sol = solve_et(_ho_system(N, m, k), q)
        assert sol.energy == pytest.approx(_ho_energy(N, m, k, q), rel=1e-10)
        assert sol.residual_motion < 1e-9
        assert sol.residual_quantization < 1e-9
        assert sol.variational == "exact"
        assert sol.n_roots == 1
        assert sol.q == q


def test_reference_harmonic_value():
    # N = 3 with T = p^2/2 and V = r^2/2 at Q = 3 gives exactly 3 sqrt(3).
    system = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                             laws.potential_power(0.5, 2.0))
    sol = solve_et(system, 3.0)
    assert sol.energy == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)
    assert sol.energy == pytest.approx(5.19615242271, rel=1e-11)


def test_solve_et_matches_power_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = float(rng.uniform(0.5, 3.0))
        beta = float(rng.choice([-0.9, -0.5, 0.5, 1.0, 2.0, 3.0]))
        if alpha + beta <= 0.2:
            continue
        F = float(rng.uniform(0.2, 2.0))
        G = float(rng.uniform(0.2, 2.0))
        N = int(rng.integers(2, 7))
        q = float(rng.uniform(1.0, 12.0))
        system = IdenticalSystem(N, 3, laws.kinetic_power(F, alpha),
                                 laws.potential_power(G, beta))
        sol = solve_et(system, q)
        ref = power_law_energy(N, 3, F, alpha, G, beta, q)
        assert sol.energy == pytest.approx(ref, rel=1e-9), (alpha, beta, N)


def test_power_law_energy_harmonic_reduction():
    for N, m, k, q in [(2, 1.0, 1.0, 3.0), (5, 0.4, 2.5, 10.0)]:
        ref = power_law_energy(N, 3, 0.5 / m, 2.0, k, 2.0, q)
        assert ref == pytest.approx(_ho_energy(N, m, k, q), rel=1e-12)


def test_power_law_energy_validation():
    with pytest.raises(UnsupportedRegimeError):
        power_law_energy(3, 3, 1.0, 1.0, 1.0, -1.0, 3.0)
    with pytest.raises(UnsupportedRegimeError):
        power_law_energy(3, 3, 1.0, 0.5, 1.0, -0.9, 3.0)
    for bad in [dict(F=-1.0), dict(alpha=-2.0), dict(G=0.0), dict(beta=0.0),
                dict(q_phi=0.0)]:
        kw = dict(N=3, D=3, F=1.0, alpha=2.0, G=1.0, beta=2.0, q_phi=3.0)
        kw.update(bad)
        with pytest.raises(InputError):
            power_law_energy(**kw)


def test_phi_is_sqrt_alpha_plus_beta_for_powers():
    # The deformation parameter of a power-law system depends on the
    # exponents only; coefficients, N and lam drop out.
    cases = [(2.0, 2.0), (2.0, -1.0), (1.0, 1.0), (2.0, 0.5), (1.5, 3.0)]
    for alpha, beta in cases:
        for N, lam in [(2, 0.5), (4, 3.0)]:
            system = IdenticalSystem(N, 3, laws.kinetic_power(0.7, alpha),
                                     laws.potential_power(1.3, beta))
            assert phi_identical(system, lam) == pytest.approx(
                math.sqrt(alpha + beta), rel=1e-9), (alpha, beta, N, lam)


def test_variational_character():
    assert solve_et(_ho_system(3), 3.0).variational == "exact"
    linear = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                             laws.potential_power(1.0, 1.0))
    assert solve_et(linear, 3.0).variational == "upper"
    quartic = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                              laws.potential_power(1.0, 4.0))
    assert solve_et(quartic, 3.0).variational == "lower"
    well = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                           laws.gaussian_well(10.0, 3.0))
    assert solve_et(well, 1.0).variational == "unknown"


def test_dosm_harmonic_is_exact():
    N, m, k = 4, 0.8, 1.7
    lam = 2.5
    report = dosm_identical(_ho_system(N, m, k), lam)
    omega = math.sqrt(2.0 * N * k / m)
    assert report.phi == pytest.approx(2.0, rel=1e-10)
    assert report.mu == pytest.approx(m / N, rel=1e-10)
    assert report.energy_orbital == pytest.approx(omega * lam, rel=1e-10)
    # The radial mode frequency is twice the trap frequency, so each radial
    # quantum costs 2 omega and the deformed spectrum is omega (2 nu + lam).
    assert math.sqrt(report.k / (report.n_pairs * report.mu)) == pytest.approx(
        2.0 * omega, rel=1e-10)
    for nu in (0.5, 1.5, 3.5):
        assert report.level(nu) == pytest.approx(
            _ho_energy(N, m, k, 2.0 * nu + lam), rel=1e-10)


def _fd_second(f, x, h):
    """Five-point second derivative, O(h^4)."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def test_dosm_stiffness_matches_energy_curvature():
    # k must equal the curvature of the constrained energy
    # E(rho) = N T(lam/(sqrt(C2) rho)) + C2 V(rho) at the orbital point,
    # including for laws with no special structure.
    systems = [
        _ho_system(3, 1.0, 1.0),
        IdenticalSystem(4, 3, laws.kinetic_power(1.0, 1.0),
                        laws.potential_power(0.8, 1.0)),
        IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                        laws.make_weighted_sum([
                            (1.0, laws.power(1.0, 1.0)),
                            (0.5, laws.harmonic(1.0))])),
        IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                        laws.gaussian_well(10.0, 3.0)),
    ]
    for system in systems:
        lam = 1.5
        report = dosm_identical(system, lam)
        c2 = report.n_pairs
        sq = math.sqrt(c2)

        def energy(rho):
            p = lam / (sq * rho)
            return (system.N * system.kinetic.value(p)
                    + c2 * system.potential.value(rho))

        fd = _fd_second(energy, report.rho0, 1e-3 * report.rho0)
        assert report.k == pytest.approx(fd, rel=1e-6), system.potential.kind


def test_dosm_unstable_orbit_raises():
    # T = p with V ~ -r^(-1.5): the curvature of the orbital set is
    # negative (alpha + beta < 0), so no radial quantization exists.
    system = IdenticalSystem(3, 3, laws.kinetic_power(1.0, 1.0),
                             laws.potential_power(1.0, -1.5))
    with pytest.raises(UnstableOrbitalError):
        dosm_identical(system, 1.0)
    with pytest.raises(InputError):
        dosm_identical(_ho_system(3), -1.0)


def test_solve_iet_harmonic_remains_exact():
    N, m, k = 3, 1.0, 0.5
    system = _ho_system(N, m, k)
    for modes in [((0, 0), (0, 0)), ((1, 2), (0, 1)), ((3, 0), (0, 4))]:
        spec = QuantumSpec(D=3, internal_modes=modes)
        sol = solve_iet(system, spec)
        assert sol.phi == pytest.approx(2.0, rel=1e-10)
        assert sol.energy == pytest.approx(
            _ho_energy(N, m, k, 2.0 * spec.nu + spec.lam), rel=1e-9)
        assert sol.variational == "exact"


def test_solve_iet_deformed_power_law():
    # For T = F p^alpha, V = G r^beta the improved solve equals the closed
    # form evaluated at the deformed quantum number sqrt(alpha+beta) nu + lam.
    alpha, beta, F, G, N = 2.0, -1.0, 0.5, 1.5, 3
    system = IdenticalSystem(N, 3, laws.kinetic_power(F, alpha),
                             laws.potential_power(G, beta))
    spec = QuantumSpec(D=3, internal_modes=((1, 0), (0, 2)))
    sol = solve_iet(system, spec)
    phi = math.sqrt(alpha + beta)
    assert sol.phi == pytest.approx(phi, rel=1e-9)
    ref = power_law_energy(N, 3, F, alpha, G, beta,
                           phi * spec.nu + spec.lam)
    assert sol.energy == pytest.approx(ref, rel=1e-9)
    assert sol.variational == "unknown"


@pytest.mark.parametrize("N, alpha, beta", [(48, 1.5, -1.21), (50, 1.2, -0.95)])
def test_solve_iet_small_alpha_plus_beta_keeps_full_precision(N, alpha, beta):
    # Many particles and a small alpha + beta put the orbital rho0 near 1e-6,
    # where an absolute stop on the root would move phi by about 1e-8.
    system = IdenticalSystem(N, 3, laws.kinetic_power(0.5, alpha),
                             laws.potential_power(1.0, beta))
    sol = solve_iet(system, ground_spec(N, 3))
    assert sol.rho0 < 1e-5
    assert sol.phi == pytest.approx(math.sqrt(alpha + beta), rel=1e-12)
    assert sol.residual_motion < 1e-12


def test_solve_iet_degenerate_orbital():
    # D = 2 with every l = 0 leaves nothing for the orbital set to balance.
    system = IdenticalSystem(3, 2, laws.kinetic_power(0.5, 2.0),
                             laws.harmonic(1.0))
    spec = QuantumSpec(D=2, internal_modes=((0, 0), (1, 0)))
    with pytest.raises(DegenerateOrbitalError):
        solve_iet(system, spec)


def test_solve_iet_mode_count_mismatch():
    with pytest.raises(InputError):
        solve_iet(_ho_system(4), ground_spec(3, 3))


def test_solve_et_input_validation():
    with pytest.raises(InputError):
        solve_et(_ho_system(3), 0.0)
    with pytest.raises(InputError):
        IdenticalSystem(1, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))
    with pytest.raises(InputError):
        IdenticalSystem(3, 1, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))


def test_solve_et_returns_lowest_of_sorted_roots():
    sol = solve_et(_ho_system(3), 3.0)
    again = solve_et(_ho_system(3), 3.0)
    assert sol.energy == again.energy
    assert sol.all_roots == again.all_roots
    assert list(sol.all_roots) == sorted(sol.all_roots)
