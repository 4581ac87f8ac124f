"""Where the N_a+1 descents start, and what those starts cost.

A plain solve starts from structure: the identical block alone gives r_aa,
unless the block cannot bind; for a decreasing power-law block the
identical solver says so without a scan.  The improved solve starts its
deformed descent from the orbital minimum it has just found, so it pays for
one structural start, not two.
"""

import pytest

from envtheory import laws, repro, rootscan, solver_identical, solver_nplus1
from envtheory.errors import NoRootError
from envtheory.qnum import fgs_fill, spec_from_filling
from envtheory.solver_identical import IdenticalSystem, solve_et
from envtheory.solver_nplus1 import (NPlusOneSystem, atom_report, solve_et_np1,
                                     solve_iet_np1)

ATOMS = [(label, float(rec["Z"]), int(rec["electrons"]), repro.nucleus_mass(rec["nucleus"]))
         for label, rec in repro.table_fixtures(4)]


def _helium():
    _, Z, n_e, mass = ATOMS[0]
    return solver_nplus1._atom_system(Z, n_e, mass)


def _count_scans(monkeypatch):
    """Count the root scans the identical solver makes."""
    calls = []

    def counted(fn, lo, hi):
        calls.append((lo, hi))
        return rootscan.find_roots(fn, lo, hi)

    monkeypatch.setattr(solver_identical, "find_roots", counted)
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
    calls = []
    original = solver_nplus1._initial_guess

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_nplus1, "_initial_guess", counted)
    solve_iet_np1(_helium(), spec_from_filling(fgs_fill(2, 3, 2, 2.0)))
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
    # Every residual evaluation of every root scan in one run_all(): 121,883
    # with a cold start for each N_a+1 solve and a scan of every block,
    # 50,752 with the orbital minimum as the deformed solve's start and no
    # scan of a block that cannot bind, 20,658 with the power-law compact
    # set solved in closed form.  What is left is _initial_guess's two-body
    # scan for R0.
    evals = [0]

    def counted(fn, lo, hi):
        def residual(x):
            evals[0] += 1
            return fn(x)
        return rootscan.find_roots(residual, lo, hi)

    for module in (solver_identical, solver_nplus1):
        monkeypatch.setattr(module, "find_roots", counted)
    repro.run_table(1)
    assert evals[0] == 0
    repro.run_all()
    assert 0 < evals[0] <= 22_000
