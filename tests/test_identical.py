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
from envtheory.qnum import QuantumSpec, fgs_approx, global_q, ground_spec, split_ground_spec
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
    # Each with its own message: beta = 0 would also divide by zero on the way
    # to an energy beyond the floats, which is an InputError of its own.
    for bad, message in [(dict(F=-1.0), "need F > 0"), (dict(alpha=-2.0), "need F > 0"),
                         (dict(G=0.0), "need F > 0"), (dict(beta=0.0), "beta must be nonzero"),
                         (dict(q_phi=0.0), "q_phi must be positive")]:
        kw = dict(N=3, D=3, F=1.0, alpha=2.0, G=1.0, beta=2.0, q_phi=3.0)
        kw.update(bad)
        with pytest.raises(InputError, match=message):
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


@pytest.mark.parametrize("alpha, beta, character", [
    (2.0, 2.0, "exact"), (1.0, 2.0, "upper"), (2.0, 1.0, "upper"),
    (1.0, 1.0, "upper"), (2.0, 4.0, "lower"), (3.0, 3.0, "lower"),
    (1.0, 3.0, "unknown"), (3.0, 1.0, "unknown"),
])
def test_variational_character_reads_both_exponents(alpha, beta, character):
    # T(sqrt(x)) and V(sqrt(x)) both concave: upper bound; both convex: lower
    # bound; both linear: exact; mixed curvature: no bound is known.
    system = IdenticalSystem(2, 3, laws.kinetic_power(1.0, alpha),
                             laws.potential_power(1.0, beta))
    assert solve_et(system, 1.5).variational == character


def test_a_kinetic_law_that_is_not_a_power_against_a_power_potential_is_scanned():
    # A custom copy of p^2/2 is no power law to the solver: against the
    # harmonic V it has no closed form and no known character, and the
    # scan finds the oscillator's root.
    copy = laws.custom(lambda p: 0.5 * p ** 2.0, lambda p: 1.0 * p ** 1.0,
                       lambda p: 1.0 * p ** 0.0)
    solution = solve_et(IdenticalSystem(3, 3, copy, laws.harmonic(1.0)), 3.0)
    assert solution.variational == "unknown"
    assert solution.energy == pytest.approx(_ho_energy(3, 1.0, 1.0, 3.0), rel=1e-14)
    assert solution.rho0 == pytest.approx(solve_et(_ho_system(3), 3.0).rho0, rel=1e-14)


@pytest.mark.parametrize("kinetic, rho0", [
    (laws.power(-0.5, 2.0), math.sqrt(1.5)),
    (laws.power(0.5, -1.0), 1.0 / 3.0),
], ids=["negative-coefficient", "negative-exponent"])
def test_a_kinetic_power_without_positive_constants_is_scanned(kinetic, rho0):
    # The closed form and the bound theorem both need T = c p^a with
    # c, a > 0.  Against V = -r^2 at N = 2, Q = 1.5 the motion residual
    # -2 p0^2 + 2 rho^2 or -1/p0 + 2 rho^2, with p0 = 1.5/rho, has its
    # one root at rho0 = sqrt(1.5) or 1/3; the curvatures alone would
    # read "exact" and "lower".
    solution = solve_et(IdenticalSystem(2, 3, kinetic, laws.power(-1.0, 2.0)), 1.5)
    assert solution.rho0 == pytest.approx(rho0, rel=1e-14)
    assert solution.variational == "unknown"


def test_linear_kinetic_harmonic_pair_is_an_upper_bound():
    # 2|p| + r^2 is -d^2/dp^2 + 2p in momentum space, an Airy problem; its
    # ground state is 2^(2/3) a_1 with a_1 the first zero of -Ai.
    special = pytest.importorskip("scipy.special")
    exact = 2.0 ** (2.0 / 3.0) * -special.ai_zeros(1)[0][0]
    system = IdenticalSystem(2, 3, laws.kinetic_power(1.0, 1.0), laws.harmonic(1.0))
    solution = solve_et(system, 1.5)
    assert exact == pytest.approx(3.71151, abs=1e-5)
    assert solution.energy == pytest.approx(3.93111, abs=1e-5)
    assert solution.variational == "upper"
    assert solution.energy > exact


def test_dosm_harmonic_is_exact():
    N, m, k = 4, 0.8, 1.7
    lam = 2.5
    report = dosm_identical(_ho_system(N, m, k), lam)
    omega = math.sqrt(2.0 * N * k / m)
    assert report.phi == pytest.approx(2.0, rel=1e-10)
    assert report.mu == pytest.approx(m / N, rel=1e-10)
    assert report.orbital.energy == pytest.approx(omega * lam, rel=1e-10)
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

        fd = _fd_second(energy, report.orbital.rho0, 1e-3 * report.orbital.rho0)
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


def test_solve_iet_refuses_a_spec_that_does_not_fit_its_system():
    # A D = 5 spec once gave the D = 3 oscillator trio 8.660254, the D = 5
    # level, where its ground state is 3 sqrt(3) = 5.196152.
    system = _ho_system(3, k=0.5)
    assert solve_iet(system, ground_spec(3, 3)).energy == pytest.approx(3 * math.sqrt(3))
    with pytest.raises(InputError, match="spec is for D = 5, the system for D = 3"):
        solve_iet(system, ground_spec(3, 5))
    with pytest.raises(InputError, match="identical ones take none"):
        solve_iet(system, split_ground_spec(3, 3))


def test_solve_et_input_validation():
    with pytest.raises(InputError):
        solve_et(_ho_system(3), 0.0)
    with pytest.raises(InputError):
        IdenticalSystem(1, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))
    with pytest.raises(InputError):
        IdenticalSystem(3, 1, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_quantum_numbers_are_input_errors(bad):
    with pytest.raises(InputError):
        solve_et(_ho_system(3), bad)
    with pytest.raises(InputError):
        dosm_identical(_ho_system(3), bad)


def test_solve_et_returns_lowest_of_sorted_roots():
    # A Gaussian well on a weak harmonic tail is not a power law, so it is
    # scanned; at Q = 1.5 its motion residual has three roots, whose energy
    # order differs from their order in rho0.
    well = laws.make_weighted_sum([(1.0, laws.gaussian_well(5.0, 0.5)),
                                   (1.0, laws.harmonic(1e-3))])
    system = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0), well)
    sol = solve_et(system, 1.5)
    again = solve_et(system, 1.5)
    assert sol.energy == again.energy
    assert sol.all_roots == again.all_roots
    assert sol.n_roots == 3
    assert list(sol.all_roots) == sorted(sol.all_roots)
    assert (sol.energy, sol.rho0) == sol.all_roots[0]


def _counted(law, calls):
    """``law`` as a custom law that logs its value and d1 calls and whose d2 raises."""
    def value(x):
        calls.append(("value", x))
        return law.value(x)

    def d1(x):
        calls.append(("d1", x))
        return law.d1(x)

    def d2(x):
        raise RuntimeError("a second derivative was evaluated")
    return laws.custom(value, d1, d2)


def test_a_plain_solve_reads_first_derivatives_and_values_only_at_its_roots():
    # Custom laws are scanned sample by sample through the motion residual:
    # it evaluates T' and V' only, and each root adds T(p0) and V(rho0).
    # The level reading of the same laws finds the same roots bit for bit.
    well = laws.make_weighted_sum([(1.0, laws.gaussian_well(5.0, 0.5)),
                                   (1.0, laws.harmonic(1e-3))])
    kinetic = laws.kinetic_power(0.5, 2.0)
    t_calls, v_calls = [], []
    system = IdenticalSystem(3, 3, _counted(kinetic, t_calls), _counted(well, v_calls))
    sol = solve_et(system, 1.5)
    assert sol == solve_et(IdenticalSystem(3, 3, kinetic, well), 1.5)
    assert sol.n_roots == 3
    roots = sorted(rho for _, rho in sol.all_roots)
    assert sorted(x for kind, x in v_calls if kind == "value") == roots
    assert sorted(x for kind, x in t_calls if kind == "value") == sorted(
        1.5 / (math.sqrt(3.0) * rho) for rho in roots)
    assert len(t_calls) == len(v_calls) > 100


@pytest.mark.parametrize("call", [
    lambda: solve_et(IdenticalSystem(3, 3, laws.kinetic_power(1e300, 3.0776524493226027),
                                     laws.potential_power(5e-324, 3.949673844080401)),
                     83971.92347273297),
    lambda: dosm_identical(IdenticalSystem(3, 3, laws.kinetic_power(2.7767812214232022e-05,
                                                                    4.406007314734759),
                                           laws.potential_power(26038.404296125387,
                                                                2.261264032108856)), 1e-300),
    lambda: dosm_identical(IdenticalSystem(
        10, 3, laws.kinetic_power(1.3269491383482108e+199, 1.0),
        laws.potential_power(4.4894921258430757e-240, 1.0)), 4.5),
    lambda: dosm_identical(IdenticalSystem(
        5, 3, laws.kinetic_power(2.3440429684709732e+281, 1.0),
        laws.potential_power(9.137720132411905e+38, 2.0)), 2.0),
    lambda: dosm_identical(IdenticalSystem(
        10, 3, laws.kinetic_power(78287.55532901156, 2.4798777855239664),
        laws.potential_power(9.12473809972966e+265, 1.0)), 4.5),
    lambda: power_law_energy(3, 3, 1e300, 2.0, 1e300, 1.0, 1.0),
    lambda: power_law_energy(3, 3, 1.0, 1e-320, 1.0, 1.0, 1.0),
    lambda: power_law_energy(10 ** 200, 3, 1.0, 2.0, 1.0, 1.0, 1.0),
    lambda: fgs_approx(13 * 10 ** 230, 3, 1, 2.0),
    lambda: fgs_approx(10 ** 300, 3, 1, 2.0),
], ids=["energy-overflows", "mass-divides-by-zero", "stiffness-overflows",
        "phi-divides-by-zero", "stiffness-inf", "power-energy-overflows",
        "power-energy-inf", "power-energy-nan", "fgs-approx-inf", "fgs-approx-overflows"])
def test_results_beyond_the_floats_are_input_errors(call):
    with pytest.raises(InputError, match="leave the floating range"):
        call()


@pytest.mark.parametrize("N", [10 ** 155, 10 ** 200, 10 ** 400])
def test_a_pair_count_beyond_the_floats_is_refused_at_construction(N):
    # Once a solve of N = 10**200 failed as NoRootError: its C2 = N(N-1)/2
    # is inf.  At 10**400 N itself is beyond the floats.
    with pytest.raises(InputError) as info:
        IdenticalSystem(N, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))
    assert str(info.value) == ("C2 = N(N-1)/2 = inf is not finite: "
                               "the inputs leave the floating range")
    largest = IdenticalSystem(10 ** 154, 3, laws.kinetic_power(0.5, 2.0), laws.harmonic(1.0))
    assert math.isfinite(solve_et(largest, 3.0).energy)
