"""Where the N_a+1 descents start, and what those starts cost.

A plain solve of homogeneous power laws (T_a and T_b of one exponent, V_aa
and V_ab of another) starts at the virial start: the minimum of E along the
scale through the unit shape, read off one surface evaluation.  Other laws,
and a virial descent that fails, start at the grid start: the lowest local
minimum of E sampled along a few rays R0 = s r_aa.  The improved solve
starts its deformed descent from the tangent prediction of the minimum,
taken at the orbital minimum it has just found, so it pays for at most one
grid start, and falls back on the orbital minimum itself where that descent
fails.  No N_a+1 start scans for a root or solves an identical block.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from envtheory import laws, repro, rootscan, solver_identical, solver_nplus1
from envtheory.errors import NoBindingError, NonConvergenceError, NoRootError
from envtheory.qnum import QuantumSpec, fgs_fill, spec_from_filling
from envtheory.solver_identical import SCAN_HI, SCAN_LO, IdenticalSystem, solve_et
from envtheory.solver_nplus1 import (NEWTON_TOL, NPlusOneSystem, atom_report,
                                     solve_et_np1, solve_iet_np1)
from np1_random_set import _yukawa

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


@pytest.mark.parametrize("kinetic, potential", [
    (laws.kinetic_power(0.5, 2.0), laws.power(1.0, -1.0)),
    (laws.kinetic_power(1.0, 1.0), laws.power(3.0, -0.2)),
    (laws.kinetic_power(0.1, 1.5), laws.power(-2.0, 1.5)),
])
def test_a_decreasing_block_potential_has_no_root_to_find(monkeypatch, kinetic,
                                                          potential):
    # The identical solver refuses such a block without a scan sample.
    scans = _count_scans(monkeypatch)
    with pytest.raises(NoRootError):
        solve_et(IdenticalSystem(3, 3, kinetic, potential), 2.0)
    assert scans == []


def test_an_improved_solve_makes_one_grid_start(monkeypatch):
    # Helium's laws are homogeneous, so its orbital solve starts at the
    # virial start; with a relativistic nucleus they are not, and the
    # orbital solve pays for the one grid start.
    calls = []
    original = solver_nplus1._grid_start

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_nplus1, "_grid_start", counted)
    spec = spec_from_filling(fgs_fill(2, 3, 2, 2.0))
    helium = _helium()
    solve_iet_np1(helium, spec)
    assert calls == []
    solve_iet_np1(helium._replace(kinetic_b=laws.kinetic_power(1.0, 1.0)), spec)
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
    # laws needed no scan.  Every N_a+1 system of the tables is homogeneous,
    # so each cold descent starts at the virial start: no grid start.
    scans = [_count_scans(monkeypatch, module) for module in (solver_identical, solver_nplus1)]
    grids = []
    original = solver_nplus1._grid_start
    monkeypatch.setattr(solver_nplus1, "_grid_start",
                        lambda *args: grids.append(args) or original(*args))
    repro.run_all()
    assert scans == [[], []] and grids == []


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


def _weak_ion():
    """The orbital solve of system 3/569 of tests/np1_random_set.py, a weakly bound ion."""
    system = NPlusOneSystem(6, 3, laws.kinetic_power(1.9101998564329037, 1.056169838887955),
                            laws.kinetic_power(3.0676861424939337, 1.056169838887955),
                            laws.power(1.0684598966248575, -1.0),
                            laws.coulomb(4.489845358884624))
    return system, 7.5, 0.5


def test_a_far_virial_start_descends_to_the_minimum_of_the_grid_start():
    # The scale through the unit shape has its minimum at 3.7e10, far beyond
    # SCAN_HI, while E's minimum lies at r_aa = 282: the descent comes in
    # from there, and no outward step on the way counts as an escape.
    system, q_a, q_b = _weak_ion()
    start = solver_nplus1._virial_start(system, q_a, q_b)
    assert start[0] > 100 * solver_nplus1.SCAN_HI
    r_aa, R0, surface, _, _ = solver_nplus1._newton(
        system, q_a, q_b, *solver_nplus1._grid_start(system, q_a, q_b))
    solution = solve_et_np1(system, q_a, q_b)
    assert solution.energy == pytest.approx(surface[0], rel=1e-13)
    assert solution.r_aa == pytest.approx(r_aa, rel=1e-10)
    assert solution.R0 == pytest.approx(R0, rel=1e-10)
    assert solution.energy == pytest.approx(-0.004288316907305717, rel=1e-12)


def test_a_failed_virial_descent_falls_back_on_the_grid_start(monkeypatch):
    # A virial start where E cannot be evaluated fails its descent
    # (NonConvergenceError); the solve then descends from the grid start.
    system, q_a, q_b = _weak_ion()
    r_aa, R0, surface, _, _ = solver_nplus1._newton(
        system, q_a, q_b, *solver_nplus1._grid_start(system, q_a, q_b))
    monkeypatch.setattr(solver_nplus1, "_virial_start", lambda *args: (1e300, 1.0))
    with pytest.raises(NonConvergenceError, match="cannot be evaluated"):
        solver_nplus1._newton(system, q_a, q_b, 1e300, 1.0)
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


def _screened():
    """A census system: a repulsive 1/r block of 8 and a Yukawa cross potential.

    Its minimum at q = (10.5, 1.5) lies at R0/r_aa = 0.32, in the narrow
    basin that a grid of rays misses unless one ray runs close to it.
    """
    return NPlusOneSystem(8, 3, laws.kinetic_power(0.5, 2.0),
                          laws.kinetic_power(0.5 / 4.277319767138844, 2.0),
                          laws.power(0.3554067691390346, -1.0),
                          _yukawa(12.45641780310827, 0.9701841987583806))


def _rule_start(system, q_a, q_b):
    """The grid start's rule evaluated by brute force over every ray sample."""
    def energy(r_aa, R0):
        try:
            value = solver_nplus1._surface(system, q_a, q_b, r_aa, R0)[0]
        except (ArithmeticError, ValueError):
            return math.inf
        return math.inf if math.isnan(value) else value

    lams = [SCAN_LO]
    while 2.0 * lams[-1] <= SCAN_HI:
        lams.append(2.0 * lams[-1])
    candidates = []
    for shape in (1 / 16, 1 / 4, 1, 4):
        ray = [energy(lam, shape * lam) for lam in lams]
        candidates += [(ray[k], lams[k], shape * lams[k]) for k in range(1, len(ray) - 1)
                       if ray[k] < ray[k - 1] and ray[k] < ray[k + 1]]
    if not candidates:
        return 1.0, 1.0
    return min(candidates, key=lambda c: c[0])[1:]


def test_the_grid_start_is_the_lowest_local_minimum_along_its_rays(monkeypatch):
    system = _screened()
    calls, energy = [], solver_nplus1._energy
    monkeypatch.setattr(solver_nplus1, "_energy",
                        lambda *args: calls.append(args) or energy(*args))
    monkeypatch.setattr(solver_nplus1, "_surface", _no_surface)
    start = solver_nplus1._grid_start(system, 10.5, 1.5)
    # Four rays of 54 samples of E alone, a factor 2 apart over [SCAN_LO, SCAN_HI].
    assert len(calls) == 4 * 54
    monkeypatch.undo()
    assert start == _rule_start(system, 10.5, 1.5)
    # The ray R0 = r_aa/4 runs through the basin, and the descent from it
    # reaches the bound minimum there.
    assert start[1] / start[0] == 0.25
    solution = solve_et_np1(system, 10.5, 1.5)
    assert 0.1 < solution.R0 / solution.r_aa < 0.6
    assert solution.energy == pytest.approx(-109.21530311289823, rel=1e-10)


def _no_surface(*args):
    pytest.fail("the grid start evaluated a derivative of E")


@pytest.mark.parametrize("system, q_a, q_b", [
    (_screened(), 10.5, 1.5),
    (_weak_ion()[0], 7.5, 0.5),
    (_helium(), 1.5, 0.5),
    # T_a = 0.5 p^300: E and its derivatives overflow over much of the grid.
    (NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 300.0), laws.kinetic_power(0.5, 1.0),
                    laws.power(-1.0, -1.0), laws.power(-1.0, -1.0)), 2.0, 1.5),
    (NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0),
                    laws.make_weighted_sum([(1.0, laws.gaussian_well(5.0, 1.0)),
                                            (1.0, laws.harmonic(1.0))]),
                    laws.exponential_well(3.0, 0.5)), 3.5, 2.5),
])
def test_the_grid_samples_e_as_the_surface_does(system, q_a, q_b):
    # At every grid sample where _surface can be evaluated, _energy gives its
    # E to the last bit.
    compared = 0
    for shape in (1 / 16, 1 / 4, 1, 4):
        for k in range(54):
            r_aa = SCAN_LO * 2.0 ** k
            try:
                full = solver_nplus1._surface(system, q_a, q_b, r_aa, shape * r_aa)[0]
            except (ArithmeticError, ValueError):
                continue
            energy = solver_nplus1._energy(system, q_a, q_b, r_aa, shape * r_aa)
            assert energy.hex() == full.hex() or math.isnan(energy) and math.isnan(full)
            compared += 1
    assert compared > 100


def test_a_surface_without_a_local_minimum_on_any_ray_starts_at_the_unit_shape():
    # The system of test_a_start_where_e_cannot_be_evaluated_is_a_solver_error
    # in tests/test_descent.py: E falls along every ray, or cannot be
    # evaluated there.
    system = NPlusOneSystem(4, 3, laws.kinetic_power(2.8016273660031485, 1.0141293070974613),
                            laws.kinetic_power(3.1307950223563457, 1.5891570855144925),
                            laws.coulomb(0.19729224144349278),
                            laws.exponential_well(0.7638465908505869, 2.5540209586575613))
    spec = QuantumSpec(3, ((1, 2), (1, 2), (1, 2)), (2, 2))
    assert _rule_start(system, spec.lam, spec.lam_b) == (1.0, 1.0)
    assert solver_nplus1._grid_start(system, spec.lam, spec.lam_b) == (1.0, 1.0)


def _refuse(*args, **kwargs):
    pytest.fail("an N_a+1 solve called the root scan or the identical solver")


@pytest.mark.parametrize("system, q_a, q_b", [
    (_screened(), 10.5, 1.5),
    (NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0),
                    laws.make_weighted_sum([(1.0, laws.gaussian_well(5.0, 1.0)),
                                            (1.0, laws.harmonic(1.0))]),
                    laws.coulomb(2.0)), 2.0, 1.5),
    # A decrease hidden in rounding: see tests/test_descent.py.
    (NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 300.0), laws.kinetic_power(0.5, 1.0),
                    laws.power(-1.0, -1.0), laws.power(-1.0, -1.0)), 2.0, 1.5),
], ids=["screened", "gaussian+harmonic", "hidden-decrease"])
def test_no_n_a_plus_1_solve_scans(monkeypatch, system, q_a, q_b):
    monkeypatch.setattr(solver_nplus1, "find_roots", _refuse)
    monkeypatch.setattr(solver_nplus1, "solve_et", _refuse)
    solution = solve_et_np1(system, q_a, q_b)
    assert max(solution.residual_a, solution.residual_b) < NEWTON_TOL
