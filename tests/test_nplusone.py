"""Split-system solver: oscillator oracle, curvatures, identical-particle limit.

The harmonic split system is exactly solvable.  With T_a = p^2/(2 m_a),
T_b = p^2/(2 m_b), V_aa = k_aa r^2 and V_ab = k_ab r^2, separating the block
Jacobi modes from the block-to-particle relative mode gives

    E = w_a q_a + w_b q_b,
    w_a = sqrt(2 (N_a k_aa + k_ab) / m_a),
    w_b = sqrt(2 N_a k_ab (N_a m_a + m_b) / (N_a m_a m_b)),

so every numeric path must reproduce it, including the deformations
(phi_a, phi_b) = (2, 2) and the two effective masses m_a/N_a and
N_a m_a m_b/(N_a m_a + m_b).
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize

from envtheory import laws, repro, solver_nplus1
from envtheory.errors import (DegenerateOrbitalError, InputError, NoBindingError,
                              EnvTheoryError, NonConvergenceError, UnstableOrbitalError)
from envtheory.qnum import QuantumSpec, fgs_fill, spec_from_filling, split_ground_spec
from envtheory.solver_identical import SCAN_HI, IdenticalSystem, dosm_identical, solve_et
from envtheory.solver_nplus1 import (ESCAPE_FACTOR, NEWTON_TOL, NPlusOneSystem,
                                     atom_report, dosm_np1, phi_pair, solve_atom,
                                     solve_et_np1, solve_iet_np1)


def _ho_split(N_a, m_a, m_b, k_aa, k_ab, D=3):
    return NPlusOneSystem(N_a, D,
                          laws.kinetic_power(0.5 / m_a, 2.0),
                          laws.kinetic_power(0.5 / m_b, 2.0),
                          laws.harmonic(k_aa), laws.harmonic(k_ab))


def _ho_frequencies(N_a, m_a, m_b, k_aa, k_ab):
    w_a = math.sqrt(2.0 * (N_a * k_aa + k_ab) / m_a)
    w_b = math.sqrt(2.0 * N_a * k_ab * (N_a * m_a + m_b) / (N_a * m_a * m_b))
    return w_a, w_b


HO_CASES = [
    (2, 1.0, 3.0, 1.0, 0.7),
    (3, 0.5, 1.0, 2.0, 1.3),
    (5, 1.0, 0.2, 0.4, 2.0),
]


@pytest.mark.parametrize("N_a,m_a,m_b,k_aa,k_ab", HO_CASES)
def test_harmonic_oracle_solve(N_a, m_a, m_b, k_aa, k_ab):
    system = _ho_split(N_a, m_a, m_b, k_aa, k_ab)
    w_a, w_b = _ho_frequencies(N_a, m_a, m_b, k_aa, k_ab)
    for q_a, q_b in ((2.0, 1.5), (3.0, 0.5), (1.0, 4.0)):
        sol = solve_et_np1(system, q_a, q_b)
        assert sol.energy == pytest.approx(w_a * q_a + w_b * q_b, rel=1e-10)
        assert sol.residual_a < 1e-10 and sol.residual_b < 1e-10
        assert sol.q_a == q_a and sol.q_b == q_b
        # Quantization conditions hold for the reported geometry.
        assert math.sqrt(0.5 * N_a * (N_a - 1)) * sol.p_a * sol.r_aa \
            == pytest.approx(q_a, rel=1e-12)
        assert sol.P0 * sol.R0 == pytest.approx(q_b, rel=1e-12)


def test_heavy_partner_converges():
    # Mass ratio 1e4 between the block and the distinct particle.  Block
    # recoil dominates the relative kinetic energy, so the starting point
    # keeps it; E is convex here and the one descent reaches its minimum.
    system = _ho_split(2, 1.0, 1.0e4, 1.0, 0.7)
    w_a, w_b = _ho_frequencies(2, 1.0, 1.0e4, 1.0, 0.7)
    sol = solve_et_np1(system, 2.0, 1.5)
    assert sol.energy == pytest.approx(w_a * 2.0 + w_b * 1.5, rel=1e-9)


def test_harmonic_dosm_masses_and_deformations():
    N_a, m_a, m_b, k_aa, k_ab = 2, 1.0, 3.0, 1.0, 0.7
    report = dosm_np1(_ho_split(N_a, m_a, m_b, k_aa, k_ab), 1.5, 0.5)
    w_a, w_b = _ho_frequencies(N_a, m_a, m_b, k_aa, k_ab)
    assert report.phi_a == pytest.approx(2.0, rel=1e-9)
    assert report.phi_b == pytest.approx(2.0, rel=1e-9)
    assert report.mu_a == pytest.approx(m_a / N_a, rel=1e-10)
    assert report.mu_b == pytest.approx(
        N_a * m_a * m_b / (N_a * m_a + m_b), rel=1e-10)
    # First-order responses are the two frequencies times the aggregates.
    assert report.D_a == pytest.approx(w_a * report.orbital.q_a, rel=1e-9)
    assert report.D_b == pytest.approx(w_b * report.orbital.q_b, rel=1e-9)
    for nu_a, nu_b in ((0.5, 0.5), (0.5, 1.5), (2.5, 0.5)):
        assert report.level(nu_a, nu_b) == pytest.approx(
            w_a * (2 * nu_a + report.orbital.q_a) + w_b * (2 * nu_b + report.orbital.q_b),
            rel=1e-9)


def test_harmonic_iet_is_exact():
    N_a, m_a, m_b, k_aa, k_ab = 3, 0.5, 1.0, 2.0, 1.3
    system = _ho_split(N_a, m_a, m_b, k_aa, k_ab)
    w_a, w_b = _ho_frequencies(N_a, m_a, m_b, k_aa, k_ab)
    spec = QuantumSpec(D=3, internal_modes=((1, 1), (0, 2)), relative_mode=(1, 0))
    sol = solve_iet_np1(system, spec)
    q_a = 2.0 * spec.nu + spec.lam
    q_b = 2.0 * spec.nu_b + spec.lam_b
    assert sol.energy == pytest.approx(w_a * q_a + w_b * q_b, rel=1e-9)
    assert sol.phi_a == pytest.approx(2.0, rel=1e-9)
    assert sol.phi_b == pytest.approx(2.0, rel=1e-9)


def _fd_second(f, x, h):
    """Five-point second derivative, O(h^4)."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def _fd_cross(f, x, y, hx, hy):
    """Mixed second derivative with one Richardson sweep, O(h^4)."""
    def estimate(s):
        return (f(x + s * hx, y + s * hy) - f(x + s * hx, y - s * hy)
                - f(x - s * hx, y + s * hy) + f(x - s * hx, y - s * hy)) \
            / (4.0 * s * s * hx * hy)

    return (4.0 * estimate(0.5) - estimate(1.0)) / 3.0


def _constrained_energy(system, lam_a, lam_b):
    """E(r_aa, R0) with the momenta eliminated by the quantization conditions.

    Independent restatement of the solver's energy surface, written from the
    public laws; its Hessian at the orbital point is the quadratic form the
    radial-mode analysis reports.
    """
    N_a = system.N_a
    c2 = 0.5 * N_a * (N_a - 1)

    def energy(r_aa, R0):
        p_a = lam_a / (math.sqrt(c2) * r_aa)
        P0 = lam_b / R0
        pap = math.sqrt(p_a**2 + P0**2 / N_a**2)
        r0p = math.sqrt(R0**2 + 0.5 * (N_a - 1) / N_a * r_aa**2)
        return (N_a * system.kinetic_a.value(pap) + system.kinetic_b.value(P0)
                + c2 * system.potential_aa.value(r_aa)
                + N_a * system.potential_ab.value(r0p))

    return energy


FD_SYSTEMS = [
    _ho_split(2, 1.0, 3.0, 1.0, 0.7),
    NPlusOneSystem(2, 3, laws.kinetic_power(1.0, 1.0), laws.kinetic_power(1.0, 1.0),
                   laws.harmonic(1.0), laws.harmonic(2.0)),
    NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0),
                   laws.kinetic_power(0.5 / 100.0, 2.0),
                   laws.power(1.0, -1.0), laws.coulomb(2.0)),
]


@pytest.mark.parametrize("system", [
    repro.build_uroh(10.0),
    NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 1.5), laws.kinetic_power(0.2, 1.5),
                   laws.power(1.0, 1.0), laws.harmonic(0.7)),
], ids=["table2-abs-p", "power-1.5"])
def test_dosm_masses_match_the_kinetic_law(system):
    # The masses come from the surface gradient as p_a^2/D_a and P0^2/D_b;
    # away from quadratic kinetics they must still equal the hand formulas
    # in the laws' first derivatives.
    report = dosm_np1(system, 1.5, 0.5)
    orbital = report.orbital
    pap, P0 = orbital.p_a_prime, orbital.P0
    ta1 = system.kinetic_a.d1(pap)
    assert report.mu_a == pytest.approx(pap / (system.N_a * ta1), rel=1e-12)
    assert report.mu_b == pytest.approx(
        1.0 / (ta1 / (system.N_a * pap) + system.kinetic_b.d1(P0) / P0), rel=1e-12)


@pytest.mark.parametrize("system", FD_SYSTEMS,
                         ids=["harmonic", "linear-kinetic", "coulomb"])
def test_dosm_quadratic_form_matches_energy_hessian(system):
    lam_a, lam_b = 1.5, 0.5
    report = dosm_np1(system, lam_a, lam_b)
    energy = _constrained_energy(system, lam_a, lam_b)
    r, R = report.orbital.r_aa, report.orbital.R0
    h_r, h_R = 1e-3 * r, 1e-3 * R
    # The relative test degenerates when a constant vanishes (harmonic
    # laws have no cross-coupling at all), so anchor the absolute floor
    # to the finite-difference noise on the scale of the diagonal.
    floor = 1e-7 * max(abs(report.k_a), abs(report.k_b))
    assert report.k_a == pytest.approx(
        _fd_second(lambda x: energy(x, R), r, h_r), rel=1e-7)
    assert report.k_b == pytest.approx(
        _fd_second(lambda x: energy(r, x), R, h_R), rel=1e-7)
    assert report.k_c == pytest.approx(
        2.0 * _fd_cross(energy, r, R, h_r, h_R), rel=1e-6, abs=floor)


def test_harmonic_split_has_no_cross_coupling():
    # T and V quadratic make both cross terms vanish identically.
    report = dosm_np1(_ho_split(2, 1.0, 3.0, 1.0, 0.7), 1.5, 0.5)
    assert report.k_c == pytest.approx(0.0, abs=1e-12)


def test_dosm_first_order_responses_match_energy_slopes():
    # D_a / lam_a and D_b / lam_b are the partial derivatives of the orbital
    # energy with respect to the two aggregates.
    system = FD_SYSTEMS[2]
    lam_a, lam_b = 1.5, 0.5
    report = dosm_np1(system, lam_a, lam_b)
    h = 1e-4

    def orbital(la, lb):
        return solve_et_np1(system, la, lb).energy

    slope_a = (orbital(lam_a + h, lam_b) - orbital(lam_a - h, lam_b)) / (2 * h)
    slope_b = (orbital(lam_a, lam_b + h) - orbital(lam_a, lam_b - h)) / (2 * h)
    assert report.D_a / lam_a == pytest.approx(slope_a, rel=1e-5)
    assert report.D_b / lam_b == pytest.approx(slope_b, rel=1e-5)


def _same_law_pair(N_a, alpha, beta):
    """A split system whose two species obey identical laws, and the
    corresponding system of N_a + 1 genuinely identical particles."""
    kin = laws.kinetic_power(0.7, alpha)
    pot = laws.potential_power(1.3, beta)
    split = NPlusOneSystem(N_a, 3, kin, kin, pot, pot)
    merged = IdenticalSystem(N_a + 1, 3, kin, pot)
    return split, merged


@pytest.mark.parametrize("N_a,alpha,beta", [
    (2, 2.0, 2.0), (3, 2.0, 1.0), (4, 1.0, 2.0), (5, 2.0, 0.5),
])
def test_identical_limit_of_split_solver(N_a, alpha, beta):
    # When the distinct particle obeys the block's laws, the split solution
    # must collapse onto the identical-particle one: equal ground energies,
    # a symmetric geometry, and effective masses and stiffnesses that
    # recombine into the single radial mode of the merged system.
    split, merged = _same_law_pair(N_a, alpha, beta)
    D = 3
    lam_a = 0.5 * (N_a - 1) * (D - 2)
    lam_b = 0.5 * (D - 2)
    q_a = (N_a - 1) + lam_a
    q_b = 1.0 + lam_b
    sol_split = solve_et_np1(split, q_a, q_b)
    sol_merged = solve_et(merged, 0.5 * N_a * D)
    assert sol_split.energy == pytest.approx(sol_merged.energy, rel=1e-10)

    rep_split = dosm_np1(split, lam_a, lam_b)
    rep_merged = dosm_identical(merged, lam_a + lam_b)
    assert rep_split.orbital.r_0_prime == pytest.approx(rep_split.orbital.r_aa, rel=1e-10)
    assert rep_split.orbital.p_a_prime == pytest.approx(rep_split.orbital.P0, rel=1e-10)
    assert rep_split.orbital.energy == pytest.approx(
        rep_merged.orbital.energy, rel=1e-10)
    # Substituting the symmetric relations P0^2 = N_a^2/(N_a^2-1) p_r^2 and
    # R0^2 = (N_a+1)/(2 N_a) r^2 into the split quadratic form collapses it
    # onto the merged one; masses combine harmonically, stiffnesses linearly.
    f = (N_a + 1.0) / (2.0 * N_a)
    mu_combo = 1.0 / ((N_a**2 - 1.0) / N_a**2 / rep_split.mu_a
                      + 1.0 / rep_split.mu_b)
    k_combo = rep_split.k_a + rep_split.k_b * f + rep_split.k_c * math.sqrt(f)
    assert mu_combo == pytest.approx(rep_merged.mu, rel=1e-10)
    assert k_combo == pytest.approx(rep_merged.k, rel=1e-9)


def test_same_law_linear_kinetic_limit():
    # T = |p| with a shared harmonic pair force: the split ground state at
    # the deformed-free quantum numbers equals the merged N = 3 solution.
    kin = laws.kinetic_power(1.0, 1.0)
    pot = laws.harmonic(1.0)
    split = NPlusOneSystem(2, 3, kin, kin, pot, pot)
    merged = IdenticalSystem(3, 3, kin, pot)
    sol = solve_et_np1(split, 1.5, 1.5)
    ref = solve_et(merged, 3.0)
    assert sol.energy == pytest.approx(ref.energy, rel=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(beta=st.one_of(st.floats(-1.5, -0.1), st.floats(0.1, 3.0)),
       q=st.floats(1.5, 6.0))
def test_equal_masses_reduce_the_power_split_to_three_identical(beta, q):
    # At m = 1 the third particle is one more copy of the pair, so the
    # descent on E(r_aa, R0) must land on the identical solver's closed-form
    # root at Q = q_a + q_b.
    split = repro.build_power(1.0, beta)
    merged = IdenticalSystem(3, 3, split.kinetic_a, split.potential_aa)
    assert solve_et_np1(split, q, q).energy == pytest.approx(
        solve_et(merged, 2.0 * q).energy, rel=1e-12)


@st.composite
def _homogeneous_system(draw):
    """(system, alpha, beta): T_a, T_b ~ p^alpha and V_aa, V_ab ~ r^beta.

    V_ab is an attractive power, Coulomb or harmonic law; V_aa is any law
    of the same exponent, attractive or repulsive.
    """
    alpha = draw(st.floats(1.2, 2.0))
    kind = draw(st.sampled_from(["power", "coulomb", "harmonic"]))
    beta = {"coulomb": -1.0, "harmonic": 2.0}.get(kind) or draw(
        st.floats(-0.9, 2.0).filter(lambda b: abs(b) >= 0.05))
    g_aa, g_ab = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    attractive = {"power": laws.power(math.copysign(g_ab, beta), beta),
                  "coulomb": laws.coulomb(g_ab), "harmonic": laws.harmonic(g_ab)}[kind]
    potential_aa = laws.power(draw(st.sampled_from([-1.0, 1.0])) * math.copysign(g_aa, beta),
                              beta)
    system = NPlusOneSystem(draw(st.integers(2, 6)), 3,
                            laws.kinetic_power(draw(st.floats(0.2, 5.0)), alpha),
                            laws.kinetic_power(draw(st.floats(0.01, 5.0)), alpha),
                            potential_aa, attractive)
    return system, alpha, beta


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_homogeneous_system(), q_a=st.floats(0.5, 8.0), q_b=st.floats(0.5, 3.0),
       s=st.floats(0.2, 5.0))
def test_homogeneous_minima_scale_with_the_quantum_numbers(case, q_a, q_b, s):
    # E(lam r_aa, lam R0; s q_a, s q_b) = s^alpha lam^-alpha K + lam^beta V,
    # so lam = s^(alpha/(alpha+beta)) maps the minimum at (q_a, q_b) onto
    # the minimum at (s q_a, s q_b), and E scales by s^(alpha beta/(alpha+beta)).
    system, alpha, beta = case
    try:
        base = solve_et_np1(system, q_a, q_b)
    except EnvTheoryError:
        assume(False)
    length = s ** (alpha / (alpha + beta))
    # A descent calls E unbound once a radius passes both SCAN_HI and
    # ESCAPE_FACTOR times the start's, so the scaled minimum must lie inside
    # that radius around the virial start; without one, the grid start lies
    # below SCAN_HI.
    start = solver_nplus1._virial_start(
        system, solver_nplus1._surface_at(system, s * q_a, s * q_b))
    assume(length * max(base.r_aa, base.R0)
           < max(SCAN_HI, ESCAPE_FACTOR * max(start or (0.0,))))
    scaled = solve_et_np1(system, s * q_a, s * q_b)
    assert scaled.energy == pytest.approx(s ** (alpha * beta / (alpha + beta)) * base.energy,
                                          rel=1e-12)
    # The descents stop once the scaled residuals are below NEWTON_TOL, which
    # fixes a radius on the flat floor of E to about that relative size.
    assert scaled.r_aa == pytest.approx(length * base.r_aa, rel=10 * NEWTON_TOL)
    assert scaled.R0 == pytest.approx(length * base.R0, rel=10 * NEWTON_TOL)


@pytest.mark.parametrize("table, build, keys, alpha", [
    (2, repro.build_uroh, ("kappa",), 1.0),
    (3, repro.build_power, ("m", "beta"), 2.0),
])
def test_ground_rows_scale_from_their_orbital_minimum(table, build, keys, alpha):
    # A ground row's ET solve at (1.5, 1.5) is its orbital solve at
    # (0.5, 0.5) scaled by s = 3.
    rows = [rec for _, rec in repro.table_fixtures(table)
            if all(float(rec.get(k, 0.5)) == 0.5 for k in ("nu_a", "lam_a", "nu_b", "lam_b"))]
    assert rows
    for rec in rows:
        system = build(*(float(rec[k]) for k in keys))
        beta = laws.power_parameters(system.potential_aa)[1]
        orbital = dosm_np1(system, 0.5, 0.5).orbital
        assert solve_et_np1(system, 1.5, 1.5).energy == pytest.approx(
            3.0 ** (alpha * beta / (alpha + beta)) * orbital.energy, rel=1e-12)


def test_helium_reference_binding():
    report = atom_report(2.0, 2, 7294.30, "et")
    assert report.binding_ev == pytest.approx(33.0, abs=0.5)
    # Frozen regression value for the full pipeline.
    assert report.binding_ev == pytest.approx(33.10379738369259, rel=1e-10)
    assert report.energy < 0.0
    assert report.filling_levels == ((0, 0, 2),)
    assert report.nu_a == 0.5 and report.lam_a == 0.5
    assert solve_atom(2.0, 2, 7294.30, "et") == report.binding_ev


def test_atom_iet_deforms_both_numbers():
    report = atom_report(2.0, 2, 7294.30, "iet")
    assert report.method == "iet"
    assert report.phi_a is not None and report.phi_b is not None
    assert 0.5 < report.phi_a < 2.0
    assert 0.5 < report.phi_b < 2.5
    assert report.binding_ev > 0.0


def _counting(monkeypatch, name, counts):
    original = getattr(solver_nplus1, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(solver_nplus1, name, counted)


@pytest.mark.parametrize("Z, mass, rounds", [(2, 7294.30, 1), (9, 34_622.0, 2)])
def test_improved_atom_solves_each_filling_once(monkeypatch, Z, mass, rounds):
    # Each filling round makes one improved solve, hence one DOSM analysis,
    # and one refill; the report reuses the last round's solve.
    counts = {"dosm_np1": 0, "fgs_fill": 0}
    _counting(monkeypatch, "dosm_np1", counts)
    _counting(monkeypatch, "fgs_fill", counts)
    atom_report(Z, Z, mass, "iet")
    assert counts == {"dosm_np1": rounds, "fgs_fill": rounds + 1}


@pytest.mark.parametrize("e_orbital, e_radial, keep", [
    (-2.0, -1.0, "orbital"), (-1.0, -2.0, "radial"), (-1.0, -1.0, "orbital")])
def test_filling_two_cycle_keeps_the_lower_energy_round(monkeypatch, e_orbital, e_radial,
                                                        keep):
    # Three electrons fill (0,0)^2 (0,1)^1 at phi = 2 and (0,0)^2 (1,0)^1 at
    # phi = 0.5.  A stand-in solve sends each filling to the other one's phi.
    solutions = {"orbital": SimpleNamespace(phi_a=0.5, energy=e_orbital),
                 "radial": SimpleNamespace(phi_a=2.0, energy=e_radial)}
    solved = []

    def solve(system, spec):
        which = "orbital" if spec.internal_modes[0] == (0, 1) else "radial"
        solved.append(which)
        return solutions[which]

    monkeypatch.setattr(solver_nplus1, "solve_iet_np1", solve)
    with pytest.warns(UserWarning, match="two-cycle"):
        filling, solution = solver_nplus1._iet_filling(None, 3)
    assert solved == ["orbital", "radial"]
    assert solution is solutions[keep]
    assert filling.levels[-1] == {"orbital": (0, 1, 1), "radial": (1, 0, 1)}[keep]


def test_a_filling_that_cycles_with_period_three_reaches_no_fixed_point(monkeypatch):
    # Five electrons fill three ways, at phi = 2, 0.5 and 0.3.  A stand-in
    # solve sends each filling to the next one's phi: the refills cycle with
    # period three, neither a fixed point nor a two-cycle, for all 20 rounds.
    phis = (2.0, 0.5, 0.3)
    modes = [spec_from_filling(fgs_fill(5, 3, 2, phi)).internal_modes for phi in phis]
    assert len(set(modes)) == 3
    solved = []

    def solve(system, spec):
        which = modes.index(spec.internal_modes)
        solved.append(which)
        return SimpleNamespace(phi_a=phis[(which + 1) % 3], energy=-1.0)

    monkeypatch.setattr(solver_nplus1, "solve_iet_np1", solve)
    with pytest.raises(NonConvergenceError, match="did not reach a fixed point"):
        solver_nplus1._iet_filling(None, 5)
    assert solved == [0, 1, 2] * 6 + [0, 1]


# A descent returns only points where the Hessian of E is positive definite,
# so the next two exits are guards; a stand-in solver reaches them.

def _stuck_at(R0):
    """A stand-in descent that ends at (r_aa, R0) = (1, R0), wherever it starts.

    Its residuals are zero: the tests that use it check only the instability.
    """
    def stuck(at, r_aa, _):
        return 1.0, R0, at(1.0, R0), 1, (0.0, 0.0)
    return stuck


def test_an_orbital_point_that_is_no_minimum_is_unstable(monkeypatch):
    # A descent that ended at (r_aa, R0) = (1, 0.1) of helium, where the
    # Hessian of E is indefinite: the block mode's constant A is negative.
    monkeypatch.setattr(solver_nplus1, "_newton", _stuck_at(0.1))
    with pytest.raises(UnstableOrbitalError, match="A=-"):
        dosm_np1(solver_nplus1._atom_system(2.0, 2, 7294.30), 1.0, 1.0)


def test_an_orbital_point_with_an_unstable_relative_mode_is_unstable(monkeypatch):
    # At (1, 1) of helium A is positive and the relative mode's B negative.
    monkeypatch.setattr(solver_nplus1, "_newton", _stuck_at(1.0))
    with pytest.raises(UnstableOrbitalError, match=r"\(A=16\.7\d*, B=-"):
        dosm_np1(solver_nplus1._atom_system(2.0, 2, 7294.30), 1.0, 1.0)


def test_an_atom_whose_energy_is_not_negative_does_not_bind(monkeypatch):
    monkeypatch.setattr(solver_nplus1, "solve_et_np1",
                        lambda system, q_a, q_b: SimpleNamespace(energy=0.0))
    with pytest.raises(NoBindingError, match=r"no bound solution \(E = 0.0\)"):
        atom_report(2.0, 2, 7294.30, "et")


def test_atom_validation():
    with pytest.raises(InputError):
        atom_report(2.0, 1, 7294.30)
    with pytest.raises(InputError):
        atom_report(0.0, 2, 7294.30)
    with pytest.raises(InputError):
        atom_report(2.0, 2, -5.0)
    with pytest.raises(InputError, match="nucleus_mass > 0"):
        atom_report(2.0, 2, 0.0)
    with pytest.raises(InputError):
        atom_report(2.0, 2, 7294.30, method="exact")
    assert issubclass(NoBindingError, EnvTheoryError)


def test_all_repulsive_system_does_not_bind():
    system = NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0),
                            laws.kinetic_power(0.5, 2.0),
                            laws.power(1.0, -1.0), laws.power(1.0, -1.0))
    with pytest.raises(NoBindingError):
        solve_et_np1(system, 2.0, 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_quantum_numbers_are_input_errors(bad):
    system = _ho_split(2, 1.0, 1.0, 1.0, 1.0)
    for q_a, q_b in [(bad, 1.5), (1.5, bad)]:
        with pytest.raises(InputError):
            solve_et_np1(system, q_a, q_b)
        with pytest.raises(InputError):
            dosm_np1(system, q_a, q_b)


def test_solver_input_validation():
    system = _ho_split(2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InputError):
        solve_et_np1(system, 0.0, 1.0)
    with pytest.raises(InputError):
        solve_et_np1(system, 1.0, -2.0)
    with pytest.raises(InputError):
        dosm_np1(system, -1.0, 0.5)
    with pytest.raises(InputError):
        NPlusOneSystem(1, 3, laws.kinetic_power(0.5, 2.0),
                       laws.kinetic_power(0.5, 2.0),
                       laws.harmonic(1.0), laws.harmonic(1.0))


def test_iet_spec_validation():
    system = _ho_split(3, 1.0, 1.0, 1.0, 1.0)
    no_rel = QuantumSpec(D=3, internal_modes=((0, 0), (0, 0)))
    with pytest.raises(InputError):
        solve_iet_np1(system, no_rel)
    wrong_count = split_ground_spec(4, 3)
    with pytest.raises(InputError):
        solve_iet_np1(system, wrong_count)
    system_2d = _ho_split(3, 1.0, 1.0, 1.0, 1.0, D=2)
    # At D = 2 an aggregate lam vanishes where all its l do: the block's
    # (lam_a), the relative mode's (lam_b), or both.
    for modes, relative in [(((0, 0), (0, 1)), (0, 0)), (((0, 0), (1, 0)), (0, 1)),
                            (((1, 0), (0, 0)), (0, 0))]:
        flat = QuantumSpec(D=2, internal_modes=modes, relative_mode=relative)
        with pytest.raises(DegenerateOrbitalError):
            solve_iet_np1(system_2d, flat)


def test_solve_iet_np1_refuses_a_spec_of_another_dimension():
    # A D = 6 spec once gave this D = 3 system the D = 6 level, 10.392305.
    system = _ho_split(2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InputError, match="spec is for D = 6, the system for D = 3"):
        solve_iet_np1(system, split_ground_spec(2, 6))


def test_solution_is_deterministic():
    system = _ho_split(3, 0.5, 1.0, 2.0, 1.3)
    first = solve_et_np1(system, 2.5, 1.5)
    second = solve_et_np1(system, 2.5, 1.5)
    assert first == second


# The three solutions of each of three systems, to the last bit: a change to
# the descent, its starts or its surface that moves any value shows here.
_PINNED = {
    ("power", "et"):
        ("Np1Solution(energy=-0.17967324087358313, p_a=0.31490873181286705, "
         "r_aa=4.763284877382719, P0=0.4796002248944875, R0=3.127604872016066, "
         "p_a_prime=0.3958176389471532, r_0_prime=3.9311744989550337, q_a=1.5, "
         "q_b=1.5, residual_a=8.396573371077023e-16, residual_b=1.723826061693446e-16, "
         "iterations=6, n_roots=1, phi_a=None, phi_b=None)"),
    ("power", "orbital"):
        ("Np1Solution(energy=-1.617059167862248, p_a=0.9447261954386011, "
         "r_aa=0.5292538752647465, P0=1.4388006746834627, R0=0.3475116524462295, "
         "p_a_prime=1.1874529168414598, r_0_prime=0.4367971665505592, q_a=0.5, "
         "q_b=0.5, residual_a=4.975747182860458e-16, "
         "residual_b=3.0645796652327914e-16, iterations=6, n_roots=1, phi_a=None, "
         "phi_b=None)"),
    ("power", "deformed"):
        ("Np1Solution(energy=-0.2907812195026902, p_a=0.41335488799761233, "
         "r_aa=3.1160512625060175, P0=0.5853422834331862, R0=1.7921588243600484, "
         "p_a_prime=0.5064767128163079, r_0_prime=2.3747162187033903, "
         "q_a=1.2880350206079934, q_b=1.0490263385258451, "
         "residual_a=4.873324581718416e-16, residual_b=4.629055576360424e-16, "
         "iterations=4, n_roots=1, phi_a=1.5760700412159865, phi_b=1.09805267705169)"),
    ("uroh", "et"):
        ("Np1Solution(energy=15.351637126151466, p_a=2.5639041778842118, "
         "r_aa=0.585045265317923, P0=3.832605806191146, R0=0.39137862745417695, "
         "p_a_prime=3.200909472288249, r_0_prime=0.4886171514034737, q_a=1.5, q_b=1.5, "
         "residual_a=2.1624199166673584e-16, residual_b=1.4495927683544432e-16, "
         "iterations=5, n_roots=1, phi_a=None, phi_b=None)"),
    ("uroh", "orbital"):
        ("Np1Solution(energy=7.380297349569069, p_a=1.2325965662876246, "
         "r_aa=0.40564773071364024, P0=1.8425246923789529, R0=0.27136678388523044, "
         "p_a_prime=1.5388367703335468, r_0_prime=0.3387882107666895, q_a=0.5, "
         "q_b=0.5, residual_a=0.0, residual_b=0.0, iterations=5, n_roots=1, "
         "phi_a=None, phi_b=None)"),
    ("uroh", "deformed"):
        ("Np1Solution(energy=14.701264864687005, p_a=2.459046477025977, "
         "r_aa=0.5732193216850767, P0=3.6664646188489, R0=0.38268389547014925, "
         "p_a_prime=3.0671893121376725, r_0_prime=0.478113021722357, "
         "q_a=1.409572953552908, q_b=1.403096962944573, "
         "residual_a=2.798811994298831e-13, residual_b=2.895964410944086e-14, "
         "iterations=2, n_roots=1, phi_a=1.819145907105816, phi_b=1.8061939258891462)"),
    ("helium", "et"):
        ("Np1Solution(energy=-1.2166040934837405, p_a=0.743007242468214, "
         "r_aa=2.0188228516011675, P0=1.630168300337642, R0=0.9201503916431933, "
         "p_a_prime=1.1029151981075647, r_0_prime=1.3658653556547546, q_a=1.5, "
         "q_b=1.5, residual_a=2.3529353656531487e-14, "
         "residual_b=1.6222041275832632e-13, iterations=6, n_roots=1, phi_a=None, "
         "phi_b=None)"),
    ("helium", "orbital"):
        ("Np1Solution(energy=-10.949436841353666, p_a=2.229021727404643, "
         "r_aa=0.2243136501779074, P0=4.890504901012928, R0=0.1022389324047992, "
         "p_a_prime=3.308745594322695, r_0_prime=0.15176281729497268, q_a=0.5, "
         "q_b=0.5, residual_a=2.44901914601695e-14, residual_b=1.6305573929158223e-13, "
         "iterations=6, n_roots=1, phi_a=None, phi_b=None)"),
    ("helium", "deformed"):
        ("Np1Solution(energy=-1.6509552881914598, p_a=0.7669256238383928, "
         "r_aa=1.3638665127931044, P0=2.0615421949057926, R0=0.7194689308180254, "
         "p_a_prime=1.2847816810042694, r_0_prime=0.9912963777761112, "
         "q_a=1.045984176156145, q_b=1.483215558805116, "
         "residual_a=6.474941314965165e-12, residual_b=2.9538244177178446e-12, "
         "iterations=4, n_roots=1, phi_a=1.0919683523122903, phi_b=1.9664311176102316)"),
}
_PINNED_SYSTEMS = {"power": lambda: repro.build_power(5, -1),
                   "uroh": lambda: repro.build_uroh(10),
                   "helium": lambda: solver_nplus1._atom_system(2, 2, 7294.3)}


@pytest.mark.parametrize("name", sorted(_PINNED_SYSTEMS))
def test_et_orbital_and_deformed_solutions_are_pinned_to_the_last_bit(name):
    system = _PINNED_SYSTEMS[name]()
    spec = split_ground_spec(system.N_a, 3)
    et = solve_et_np1(system, 2.0 * spec.nu + spec.lam, 2.0 * spec.nu_b + spec.lam_b)
    assert repr(et) == _PINNED[name, "et"]
    assert repr(dosm_np1(system, spec.lam, spec.lam_b).orbital) == _PINNED[name, "orbital"]
    assert repr(solve_iet_np1(system, spec)) == _PINNED[name, "deformed"]


def test_phi_pair_matches_report():
    system = FD_SYSTEMS[2]
    report = dosm_np1(system, 1.5, 0.5)
    assert phi_pair(system, 1.5, 0.5) == (report.phi_a, report.phi_b)


@pytest.mark.parametrize("Z, mass", [(10, 36_440.0), (11, 41_907.0)])
def test_improved_atoms_beyond_oxygen_converge_to_the_energy_minimum(Z, mass):
    result = atom_report(Z, Z, mass, "iet")
    assert result.binding_ev > 0.0
    assert max(result.solution.residual_a, result.solution.residual_b) < 1e-10
    # The orbital solution behind phi_a, phi_b is the minimum of E(r_aa, R0)
    # at the orbital aggregates; minimize E directly, without derivatives.
    lam_a, lam_b = result.lam_a, 0.5
    system = NPlusOneSystem(Z, 3, laws.kinetic_power(0.5, 2.0),
                            laws.kinetic_power(0.5 / mass, 2.0),
                            laws.power(1.0, -1.0), laws.coulomb(Z))
    orbital = dosm_np1(system, lam_a, lam_b).orbital.energy
    c2 = 0.5 * Z * (Z - 1)

    def energy(u):
        r_aa, R0 = math.exp(u[0]), math.exp(u[1])
        p_a, P0 = lam_a / (math.sqrt(c2) * r_aa), lam_b / R0
        return (0.5 * Z * (p_a ** 2 + P0 ** 2 / Z ** 2) + 0.5 / mass * P0 ** 2
                + c2 / r_aa - Z * Z / math.sqrt(R0 ** 2 + 0.5 * (Z - 1) / Z * r_aa ** 2))

    best = minimize(energy, [0.0, 0.0], method="Nelder-Mead",
                    options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": 20_000})
    assert best.success
    assert orbital == pytest.approx(best.fun, rel=1e-9)


@pytest.mark.parametrize("N_a", [10 ** 155, 10 ** 400])
def test_a_block_pair_count_beyond_the_floats_is_refused_at_construction(N_a):
    # Once a solve of N_a = 10**155 failed as NonConvergenceError ("E cannot
    # be evaluated at the start"): its C2 = N_a(N_a-1)/2 is inf.
    h = laws.harmonic(1.0)
    with pytest.raises(InputError) as info:
        NPlusOneSystem(N_a, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0), h, h)
    assert str(info.value) == ("C2 = N_a(N_a-1)/2 = inf is not finite: "
                               "the inputs leave the floating range")


@pytest.mark.parametrize("call", [
    lambda: dosm_np1(NPlusOneSystem(
        3, 3, laws.kinetic_power(9.981092135741794e+219, 2.0),
        laws.kinetic_power(6.21347567841559e+133, 2.0),
        laws.power(6.539069428703997e-297, -1.0), laws.coulomb(2.1536163026809578e+150)),
        2.0, 0.5),
    lambda: dosm_np1(NPlusOneSystem(
        3, 3, laws.kinetic_power(3.0174411406657482e+109, 2.0),
        laws.kinetic_power(8.189791892588635e+86, 2.3657355590266675),
        laws.power(-7.60064105903764e+146, -1.0), laws.harmonic(1.0251927363222284e+89)),
        2.0, 0.5),
], ids=["mean-mass-divides-by-zero", "phi-a-inf"])
def test_results_beyond_the_floats_are_input_errors(call):
    # The mean mass of the first underflows to zero, and phi_a divided by
    # it; the second reads phi_a = inf.  Both once left dosm_np1 raw.
    with pytest.raises(InputError, match="phi_a = inf is not finite: the inputs leave"):
        call()
