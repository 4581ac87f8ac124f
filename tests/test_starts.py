"""Where the N_a+1 descents start, and what those starts cost.

A plain solve of homogeneous power laws (T_a and T_b of one exponent, V_aa
and V_ab of another) starts at the virial start: the minimum of E along the
scale through the unit shape, read off one surface evaluation.  Other laws,
and a virial descent that fails, start from structure: the identical block
alone gives r_aa, unless the block cannot bind; for a decreasing power-law
block the identical solver says so without a scan.  The improved solve
starts its deformed descent from the tangent prediction of the minimum,
taken at the orbital minimum it has just found, so it pays for at most one
structural start, and falls back on the orbital minimum itself where that
descent fails.  The two-body R0 of the structural start is walked to where
its residual provably changes sign once, and scanned for otherwise.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from envtheory import laws, repro, rootscan, solver_identical, solver_nplus1
from envtheory.errors import NoBindingError, NoRootError
from envtheory.qnum import QuantumSpec, fgs_fill, spec_from_filling
from envtheory.solver_identical import (SCAN_HI, SCAN_LO, IdenticalSystem, pair_count,
                                        solve_et)
from envtheory.solver_nplus1 import (NPlusOneSystem, atom_report, solve_et_np1,
                                     solve_iet_np1)

ATOMS = [(label, float(rec["Z"]), int(rec["electrons"]), repro.nucleus_mass(rec["nucleus"]))
         for label, rec in repro.table_fixtures(4)]


def _helium():
    _, Z, n_e, mass = ATOMS[0]
    return solver_nplus1._atom_system(Z, n_e, mass)


def _count_scans(monkeypatch, module=solver_identical):
    """Count the root scans ``module`` makes: the identical solver's by default."""
    calls = []

    def counted(fn, lo, hi, values=None):
        calls.append((lo, hi))
        return rootscan.find_roots(fn, lo, hi, values)

    monkeypatch.setattr(module, "find_roots", counted)
    return calls


def test_a_repulsive_block_is_not_scanned(monkeypatch):
    system = _helium()
    scans = _count_scans(monkeypatch)
    blocks = []

    def recorded(block, q):
        try:
            solution = solve_et(block, q)
        except NoRootError:
            blocks.append((block.potential, "no root"))
            raise
        blocks.append((block.potential, solution.rho0))
        return solution

    monkeypatch.setattr(solver_nplus1, "solve_et", recorded)
    start = solver_nplus1._initial_guess(system, 1.5, 1.5)
    # The repulsive 1/r block is refused without a scan sample, and the
    # Coulomb block then sets r_aa in closed form.
    assert blocks == [(system.potential_aa, "no root"), (system.potential_ab, 2.25)]
    assert scans == []
    # The start the scan of the repulsive block used to fall back to.
    assert start == (2.25, 0.28132711500760865)


@pytest.mark.parametrize("kinetic, potential", [
    (laws.kinetic_power(0.5, 2.0), laws.power(1.0, -1.0)),
    (laws.kinetic_power(1.0, 1.0), laws.power(3.0, -0.2)),
    (laws.kinetic_power(0.1, 1.5), laws.power(-2.0, 1.5)),
])
def test_a_decreasing_block_potential_has_no_root_to_find(monkeypatch, kinetic,
                                                          potential):
    scans = _count_scans(monkeypatch)
    system = NPlusOneSystem(3, 3, kinetic, kinetic, potential, laws.coulomb(1.0))
    assert solver_nplus1._block_orbit(system, potential, 2.0) is None
    with pytest.raises(NoRootError):
        solve_et(IdenticalSystem(3, 3, kinetic, potential), 2.0)
    assert scans == []


@pytest.mark.parametrize("potential", [
    laws.coulomb(1.0), laws.power(-1.0, -0.5), laws.harmonic(1.0),
    laws.gaussian_well(5.0, 1.0),
])
def test_a_block_that_may_bind_is_scanned(monkeypatch, potential):
    # The block's root is sought and kept: in closed form for a power law,
    # by the scan for the Gaussian well.
    scans = _count_scans(monkeypatch)
    system = NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                            laws.kinetic_power(0.5, 2.0), potential, laws.coulomb(1.0))
    rho0 = solver_nplus1._block_orbit(system, potential, 2.0)
    assert len(scans) == (laws.power_parameters(potential) is None)
    assert rho0 == solve_et(IdenticalSystem(3, 3, system.kinetic_a, potential), 2.0).rho0
    assert rho0 > 0.0


def test_an_improved_solve_makes_one_structural_start(monkeypatch):
    # Helium's laws are homogeneous, so its orbital solve starts at the
    # virial start; with a relativistic nucleus they are not, and the
    # orbital solve pays for the one structural start.
    calls = []
    original = solver_nplus1._initial_guess

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_nplus1, "_initial_guess", counted)
    spec = spec_from_filling(fgs_fill(2, 3, 2, 2.0))
    helium = _helium()
    solve_iet_np1(helium, spec)
    assert calls == []
    solve_iet_np1(replace(helium, kinetic_b=laws.kinetic_power(1.0, 1.0)), spec)
    assert len(calls) == 1


def _cold(system, solution, spec):
    return solve_et_np1(system, solution.phi_a * spec.nu + spec.lam,
                        solution.phi_b * spec.nu_b + spec.lam_b)


@pytest.mark.parametrize("label, rec", repro.table_fixtures(3))
def test_warm_and_cold_starts_reach_one_minimum_on_table_3(label, rec):
    system = repro.build_power(float(rec["m"]), float(rec["beta"]))
    aggregates = [float(rec.get(k, 0.5)) for k in ("nu_a", "lam_a", "nu_b", "lam_b")]
    spec = repro.split_spec(3, 2, *aggregates)
    warm = solve_iet_np1(system, spec)
    assert warm.energy == pytest.approx(_cold(system, warm, spec).energy, rel=1e-12)


@pytest.mark.parametrize("label, Z, n_electrons, mass", ATOMS)
def test_warm_and_cold_starts_reach_one_minimum_on_the_atoms(label, Z, n_electrons,
                                                            mass):
    system = solver_nplus1._atom_system(Z, n_electrons, mass)
    spec = spec_from_filling(fgs_fill(n_electrons, 3, 2, atom_report(
        Z, n_electrons, mass, "iet").phi_a))
    warm = solve_iet_np1(system, spec)
    assert warm.energy == pytest.approx(_cold(system, warm, spec).energy, rel=1e-12)


def test_reproducing_the_tables_stays_within_its_scan_budget(monkeypatch):
    # Root-scan residual evaluations in one run_all(): 121,883 with a cold
    # start for each N_a+1 solve and a scan of every block, 50,752 with the
    # orbital minimum as the deformed solve's start and no scan of a block
    # that cannot bind, 20,658 with the power-law compact set solved in
    # closed form, and none once the two-body R0 of every table's power
    # laws is walked to.  The walk took 2,522 evaluations while it bisected
    # its bracket, and 575 with the regula falsi polish.  Every N_a+1 system
    # of the tables is homogeneous, so each cold descent now starts at the
    # virial start: no structural start, and with it no walk.
    scans = [_count_scans(monkeypatch, module) for module in (solver_identical, solver_nplus1)]
    walks, guesses = [], []
    monkeypatch.setattr(solver_nplus1, "walk_root",
                        lambda *args: walks.append(args) or rootscan.walk_root(*args))
    original = solver_nplus1._initial_guess
    monkeypatch.setattr(solver_nplus1, "_initial_guess",
                        lambda *args: guesses.append(args) or original(*args))
    repro.run_all()
    assert scans == [[], []] and walks == [] and guesses == []


def _count_iterations(monkeypatch):
    """Descent iterations, as [deformed, cold]: the deformed descents are given a start."""
    iterations = [[], []]
    original = solver_nplus1._solve

    def counted(system, q_a, q_b, start=None, fallback=None):
        solution, surface = original(system, q_a, q_b, start, fallback)
        iterations[start is None].append(solution.iterations)
        return solution, surface

    monkeypatch.setattr(solver_nplus1, "_solve", counted)
    return iterations


def test_deformed_descents_in_the_tables_stay_within_their_budget(monkeypatch):
    # 160 iterations per run_all() from the orbital minimum, 68 from its
    # tangent prediction, with none falling back.
    deformed, _ = _count_iterations(monkeypatch)
    repro.run_all()
    assert 0 < sum(deformed) <= 90


def test_cold_descents_in_the_tables_stay_within_their_budget(monkeypatch):
    # 309 iterations per run_all() from the structural start, 263 from the
    # virial start.
    _, cold = _count_iterations(monkeypatch)
    repro.run_all()
    assert 0 < sum(cold) <= 280


def test_the_predicted_start_costs_no_surface_evaluation(monkeypatch):
    # The DOSM constants and the tangent predictor read the orbital point's
    # Hessian off the surface its descent last evaluated, so every _surface
    # call of an improved solve is made by one of its descents, except the
    # one evaluation at the unit shape that gives a homogeneous system's
    # cold (orbital) solve its virial start.
    calls, depth = {"descent": 0, "other": 0}, [0]
    surface, newton = solver_nplus1._surface, solver_nplus1._newton

    def counted_surface(*args):
        calls["descent" if depth[0] else "other"] += 1
        return surface(*args)

    def counted_newton(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver_nplus1, "_surface", counted_surface)
    monkeypatch.setattr(solver_nplus1, "_newton", counted_newton)
    solve_iet_np1(_helium(), spec_from_filling(fgs_fill(2, 3, 2, 2.0)))
    rows = repro.table_fixtures(3)
    for label, rec in rows:
        aggregates = [float(rec.get(k, 0.5)) for k in ("nu_a", "lam_a", "nu_b", "lam_b")]
        solve_iet_np1(repro.build_power(float(rec["m"]), float(rec["beta"])),
                      repro.split_spec(3, 2, *aggregates))
    assert calls["other"] == 1 + len(rows) and calls["descent"] > 0


def test_a_failed_predicted_descent_falls_back_on_the_orbital_minimum():
    # System 9/201 of tests/np1_random_set.py: from the tangent prediction E
    # falls toward infinite separation, while the descent from the orbital
    # minimum reaches the bound minimum it reached before the predictor.
    system = NPlusOneSystem(3, 3, laws.kinetic_power(4.603791057088399, 1.973877258018033),
                            laws.kinetic_power(1.8990657435381562, 1.3073341637459834),
                            laws.gaussian_well(16.756214410167303, 1.9368305817978664),
                            laws.exponential_well(8.770806909258784, 4.935190432209368))
    spec = QuantumSpec(3, ((1, 1), (0, 1)), (2, 0))
    report = solver_nplus1.dosm_np1(system, spec.lam, spec.lam_b)
    q_a = report.phi_a * spec.nu + spec.lam
    q_b = report.phi_b * spec.nu_b + spec.lam_b
    with pytest.raises(NoBindingError):
        solver_nplus1._solve(system, q_a, q_b, report.radii(q_a, q_b))
    orbital_start = solver_nplus1._solve(system, q_a, q_b,
                                         (report.orbital.r_aa, report.orbital.R0))[0]
    solution = solve_iet_np1(system, spec)
    assert solution.energy == orbital_start.energy
    assert solution.energy == pytest.approx(-0.5335359740199523, rel=1e-12)
    assert (solution.r_aa, solution.R0) == (orbital_start.r_aa, orbital_start.R0)


def test_a_failed_virial_descent_falls_back_on_the_structural_start():
    # The orbital solve of system 3/569 of tests/np1_random_set.py, a
    # weakly bound ion: from the virial start E falls toward infinite
    # separation, while the descent from the structural start reaches the
    # minimum it reached before the virial start.
    system = NPlusOneSystem(6, 3, laws.kinetic_power(1.9101998564329037, 1.056169838887955),
                            laws.kinetic_power(3.0676861424939337, 1.056169838887955),
                            laws.power(1.0684598966248575, -1.0),
                            laws.coulomb(4.489845358884624))
    q_a, q_b = 7.5, 0.5
    start = solver_nplus1._virial_start(system, q_a, q_b)
    assert start is not None
    with pytest.raises(NoBindingError):
        solver_nplus1._newton(system, q_a, q_b, *start)
    r_aa, R0, surface, _, _ = solver_nplus1._newton(
        system, q_a, q_b, *solver_nplus1._initial_guess(system, q_a, q_b))
    solution = solve_et_np1(system, q_a, q_b)
    assert (solution.energy, solution.r_aa, solution.R0) == (surface[0], r_aa, R0)
    assert solution.energy == pytest.approx(-0.004288316907305717, rel=1e-12)


@pytest.mark.parametrize("system", [
    # A power of each law, but two kinetic exponents.
    NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(1.0, 1.0),
                   laws.power(1.0, -1.0), laws.coulomb(2.0)),
    # Two potential exponents.
    NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0),
                   laws.harmonic(1.0), laws.coulomb(2.0)),
    # alpha + beta = 0: E does not scale toward a minimum.
    NPlusOneSystem(2, 3, laws.kinetic_power(1.0, 1.0), laws.kinetic_power(1.0, 1.0),
                   laws.power(1.0, -1.0), laws.coulomb(2.0)),
    # A law that is no power.
    NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0),
                   laws.gaussian_well(5.0, 1.0), laws.harmonic(1.0)),
    # V > 0 at the unit shape: a repulsive block outweighs the nucleus.
    solver_nplus1._atom_system(1.0, 8, 1836.0),
], ids=["two-kinetic-exponents", "two-potential-exponents", "alpha+beta=0",
        "gaussian", "repulsive"])
def test_only_homogeneous_laws_with_a_scale_minimum_have_a_virial_start(system):
    assert solver_nplus1._virial_start(system, 1.5, 1.5) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=st.floats(1.0, 2.0), beta=st.floats(-0.9, 2.0).filter(lambda b: abs(b) >= 0.05),
       N_a=st.integers(2, 6), q_a=st.floats(0.5, 10.0), q_b=st.floats(0.5, 5.0),
       strengths=st.tuples(*[st.floats(0.2, 5.0)] * 4))
def test_the_virial_start_is_the_minimum_along_the_scale(alpha, beta, N_a, q_a, q_b,
                                                         strengths):
    # E(lam, lam) = lam^-alpha K + lam^beta V has its one minimum there: the
    # log slope of E along the scale vanishes and E lies below its
    # neighbours on either side.
    F_a, F_b, g_aa, g_ab = strengths
    system = NPlusOneSystem(N_a, 3, laws.kinetic_power(F_a, alpha),
                            laws.kinetic_power(F_b, alpha),
                            laws.power(math.copysign(g_aa, beta), beta),
                            laws.power(math.copysign(g_ab, beta), beta))
    lam, lam_R = solver_nplus1._virial_start(system, q_a, q_b)
    assert lam == lam_R
    energy, kinetic, potential, _, _ = solver_nplus1._surface(system, q_a, q_b, lam, lam)
    slope = sum(kinetic) + sum(potential)
    assert abs(slope) <= 1e-12 * (abs(sum(kinetic)) + abs(sum(potential)))
    for factor in (0.99, 1.01):
        assert solver_nplus1._surface(system, q_a, q_b, lam * factor,
                                      lam * factor)[0] > energy


def _scanned_start(system, q_a, q_b):
    """_initial_guess with the walk left out, so R0 comes from the scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_nplus1, "walk_root", lambda fn, x, lo, hi: None)
        return solver_nplus1._initial_guess(system, q_a, q_b)


@st.composite
def _one_sign_change_system(draw, a_b=None):
    """A random split system whose T_b and V_ab meet _one_sign_change.

    T_b = c_b p^a_b, V_ab = c' r^b with c' b > 0, a_b + b > 0 and
    2 + b > 0; T_a is a kinetic power or a sum of two; V_aa is any power
    law, so that r_aa, and with it p_a0, comes from the block, from V_ab, or
    is 1.
    """
    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    if a_b is None:
        a_b = draw(st.floats(0.5, 3.0))
    b = draw(st.floats(max(-a_b, -2.0) + 0.05, 3.0).filter(lambda b: abs(b) >= 0.05))
    kinetic_a = laws.kinetic_power(log_uniform(-2, 2), draw(st.floats(0.5, 3.0)))
    if draw(st.booleans()):
        kinetic_a = laws.make_weighted_sum(
            [(1.0, kinetic_a), (1.0, laws.kinetic_power(log_uniform(-2, 2), 1.0))])
    potential_aa = laws.power(draw(st.sampled_from([-1.0, 1.0])) * log_uniform(-2, 2),
                              draw(st.floats(-1.5, 2.0).filter(lambda e: abs(e) >= 0.1)))
    return NPlusOneSystem(
        N_a=draw(st.integers(2, 8)), D=3, kinetic_a=kinetic_a,
        kinetic_b=laws.kinetic_power(log_uniform(-3, 3), a_b),
        potential_aa=potential_aa,
        potential_ab=laws.power(math.copysign(log_uniform(-3, 3), b), b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=_one_sign_change_system(), q_a=st.floats(0.5, 20.0),
       q_b=st.floats(0.5, 20.0))
def test_the_walked_r0_is_the_scanned_r0(system, q_a, q_b):
    # The scan's lowest root, or r_aa where the scan finds none, without a
    # scan; every draw meets the condition.
    with pytest.MonkeyPatch.context() as patch:
        scans = _count_scans(patch, solver_nplus1)
        r_aa, R0 = solver_nplus1._initial_guess(system, q_a, q_b)
    assert scans == []
    expect_r_aa, expect_R0 = _scanned_start(system, q_a, q_b)
    assert r_aa == expect_r_aa
    assert R0 == pytest.approx(expect_R0, rel=1e-14, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_one_sign_change_system(a_b=2.0), q_a=st.floats(0.5, 20.0),
       q_b=st.floats(0.5, 20.0))
def test_the_walked_r0_has_its_closed_form_for_quadratic_t_b(system, q_a, q_b):
    # With a_b = 2 both kinetic terms go as R^-2: R0^(2+b) = (k1 + k2)/k3,
    # where it lies in the range the widened scan ends on; else R0 = r_aa.
    # A rounding of the residual's terms moves either root by its relative
    # size over 2 + b, the log slope of residual/(k3 R^b) at the root.
    r_aa, R0 = solver_nplus1._initial_guess(system, q_a, q_b)
    N_a = system.N_a
    p_a0 = q_a / (math.sqrt(pair_count(N_a)) * r_aa)
    c_b = laws.power_parameters(system.kinetic_b)[0]
    cv, b = laws.power_parameters(system.potential_ab)
    k1 = system.kinetic_a.d1(p_a0) * q_b ** 2 / (N_a * p_a0)
    k2 = 2.0 * c_b * q_b ** 2
    k3 = N_a * cv * b
    root = ((k1 + k2) / k3) ** (1.0 / (2.0 + b))
    if SCAN_LO * 1e-8 <= root <= SCAN_HI * 1e8:
        assert R0 == pytest.approx(root, rel=1e-14 / (2.0 + b), abs=0.0)
    else:
        assert R0 == r_aa


@pytest.mark.parametrize("kinetic_b, potential_ab", [
    (laws.kinetic_power(0.5, 2.0), laws.gaussian_well(5.0, 1.0)),
    (laws.kinetic_power(1.0, 1.0), laws.power(-1.0, -1.5)),  # a_b + b < 0
    (laws.kinetic_power(1.0, 1.0), laws.power(-1.0, -1.0)),  # a_b + b = 0
    (laws.kinetic_power(0.5, 3.0), laws.power(-1.0, -2.5)),  # 2 + b < 0
    (laws.kinetic_power(0.5, 2.0), laws.power(1.0, -1.0)),   # c' b < 0
    (laws.kinetic_power(0.5, 2.0), laws.power(-1.0, 1.0)),   # c' b < 0
], ids=["gaussian", "a_b+b<0", "a_b+b=0", "2+b<0", "repulsive", "falling"])
def test_other_two_body_laws_are_scanned(monkeypatch, kinetic_b, potential_ab):
    scans, walks = _count_scans(monkeypatch, solver_nplus1), []
    monkeypatch.setattr(solver_nplus1, "walk_root",
                        lambda fn, x, lo, hi: walks.append(x) or rootscan.walk_root(fn, x, lo, hi))
    system = NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 2.0), kinetic_b,
                            laws.harmonic(1.0), potential_ab)
    solver_nplus1._initial_guess(system, 2.0, 1.5)
    assert len(scans) == 1 and walks == []
