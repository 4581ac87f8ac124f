"""End-to-end acceptance gate.

Each test prints one ``criterion NN: PASS/FAIL`` line before asserting, so
``pytest tests/test_acceptance.py -s`` reads as a checklist.  Criteria 1-4
hold the solvers to the stored reference tables; the remaining ones hold
them to independent closed forms, finite differences, and brute force.
"""

import math

import numpy as np

from envtheory import laws, repro
from envtheory.coupled_osc import OscPair, normal_modes
from envtheory.critical import critical_g
from envtheory.qnum import bgs, fgs_approx, fgs_closed, fgs_fill, split_ground_spec
from envtheory.solver_identical import (IdenticalSystem, dosm_identical,
                                        phi_identical, solve_et)
from envtheory.solver_nplus1 import (NPlusOneSystem, dosm_np1, phi_pair,
                                     solve_et_np1, solve_iet_np1)


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _table_checks(rep):
    checks = [c for row in rep.rows for c in row.checks]
    misses = [f"{row.label}:{c.quantity}" for row in rep.rows
              for c in row.checks if not c.passed]
    misses += [f"{row.label}:error" for row in rep.rows if row.error]
    return checks, misses


def _brief(misses, cap=8):
    if not misses:
        return "no misses"
    shown = ", ".join(misses[:cap])
    if len(misses) > cap:
        shown += f" (+{len(misses) - cap} more)"
    return "misses " + shown


def test_criterion_01_table1_identical_power_laws():
    rep = repro.run_table(1)
    checks, misses = _table_checks(rep)
    exact = 3.0 * math.sqrt(3.0)
    b2 = next(row for row in rep.rows if row.label == "b2")
    exact_err = max(abs(c.computed / exact - 1.0) for c in b2.checks)
    ok = rep.passed and exact_err <= 1e-10
    _gate(1, ok, f"{len(checks) - len(misses)}/{len(checks)} energies within "
          f"rel 5e-5; b2 vs 3*sqrt(3) rel err {exact_err:.1e} (tol 1e-10); "
          f"{_brief(misses)}")


def test_criterion_02_table2_massless_pair_plus_one():
    rep = repro.run_table(2)
    checks, misses = _table_checks(rep)
    _gate(2, rep.passed, f"{len(checks) - len(misses)}/{len(checks)} checks "
          f"(energy rel 5e-4, deformation abs 0.005); {_brief(misses)}")


def test_criterion_03_table3_power_law_splits():
    rep = repro.run_table(3)
    checks, misses = _table_checks(rep)
    # The beta = 2 rows are solvable in closed form: omega_a q_a + omega_b q_b
    # with omega_a = sqrt(3) and omega_b = sqrt((2+m)/m), both deformations 2.
    worst_exact = 0.0
    for m in (0.2, 5.0):
        system = repro.build_power(m, 2.0)
        ref = 1.5 * (math.sqrt(3.0) + math.sqrt((2.0 + m) / m))
        e_et = solve_et_np1(system, 1.5, 1.5).energy
        e_iet = solve_iet_np1(system, split_ground_spec(2, 3)).energy
        p_a, p_b = phi_pair(system, 0.5, 0.5)
        worst_exact = max(worst_exact, abs(e_et / ref - 1.0),
                          abs(e_iet / ref - 1.0),
                          abs(p_a - 2.0), abs(p_b - 2.0))
    ok = rep.passed and worst_exact <= 1e-9
    _gate(3, ok, f"{len(checks) - len(misses)}/{len(checks)} checks (energy "
          f"rel 5e-4, deformation abs 0.005); harmonic rows worst err "
          f"{worst_exact:.1e} vs closed form (tol 1e-9); {_brief(misses)}")


def test_criterion_04_table4_atom_bindings():
    rep = repro.run_table(4)
    checks, misses = _table_checks(rep)
    _gate(4, rep.passed, f"{len(checks) - len(misses)}/{len(checks)} checks "
          f"(binding abs 1 eV, deformation abs 0.01, stored nucleus masses); "
          f"{_brief(misses)}")


def test_criterion_05_harmonic_split_exactness():
    rng = np.random.default_rng(50)
    worst_e = worst_phi = 0.0
    for _ in range(50):
        N_a = int(rng.integers(2, 7))
        m_a, m_b, k_aa, k_ab = (float(x) for x in rng.uniform(0.2, 5.0, size=4))
        q_a, q_b = (float(x) for x in rng.uniform(0.8, 6.0, size=2))
        system = NPlusOneSystem(N_a, 3,
                                laws.kinetic_power(0.5 / m_a, 2.0),
                                laws.kinetic_power(0.5 / m_b, 2.0),
                                laws.potential_power(k_aa, 2.0),
                                laws.potential_power(k_ab, 2.0))
        w_a = math.sqrt(2.0 * (N_a * k_aa + k_ab) / m_a)
        w_b = math.sqrt(2.0 * N_a * k_ab * (N_a * m_a + m_b)
                        / (N_a * m_a * m_b))
        exact = w_a * q_a + w_b * q_b
        worst_e = max(worst_e, abs(solve_et_np1(system, q_a, q_b).energy
                                   / exact - 1.0))
        p_a, p_b = phi_pair(system, 1.0, 0.5)
        worst_phi = max(worst_phi, abs(p_a - 2.0), abs(p_b - 2.0))
    ok = worst_e <= 1e-9 and worst_phi <= 1e-9
    _gate(5, ok, f"50 random harmonic splits; worst energy rel err "
          f"{worst_e:.1e}, worst |phi - 2| {worst_phi:.1e} (tol 1e-9)")


def test_criterion_06_power_law_deformation_identity():
    worst = 0.0
    n_cells = 0
    skipped = []
    for alpha in (1.0, 2.0):
        for beta in (-1.0, -0.5, 0.1, 0.5, 1.0, 2.0, 3.0):
            if alpha + beta <= 0.0:
                # No bound orbital motion there; the solvers refuse it too.
                skipped.append((alpha, beta))
                continue
            expected = math.sqrt(alpha + beta)
            for N in range(2, 11):
                system = IdenticalSystem(N, 3, laws.kinetic_power(0.7, alpha),
                                         laws.potential_power(1.3, beta))
                for lam in (0.5, 1.5, 4.0):
                    worst = max(worst,
                                abs(phi_identical(system, lam) - expected))
                    n_cells += 1
    ok = worst <= 1e-10
    _gate(6, ok, f"worst |phi - sqrt(alpha+beta)| = {worst:.1e} over "
          f"{n_cells} cells (tol 1e-10); skipped unbound {skipped}")


def _fd2(f, x, h):
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def _fd_cross(f, x, y, hx, hy):
    def mixed(s):
        return (f(x + s * hx, y + s * hy) - f(x + s * hx, y - s * hy)
                - f(x - s * hx, y + s * hy)
                + f(x - s * hx, y - s * hy)) / (4 * s * s * hx * hy)
    return (4.0 * mixed(0.5) - mixed(1.0)) / 3.0


def test_criterion_07_quadratic_forms_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst_k = worst_slope = 0.0
    for _ in range(30):
        alpha = float(rng.uniform(1.0, 2.5))
        # Keep beta away from 2 so the cross stiffness stays genuinely nonzero.
        beta = float(rng.uniform(0.5, 1.7) if rng.random() < 0.5
                     else rng.uniform(2.4, 3.2))
        F_a, F_b, G_aa, G_ab = (float(x) for x in rng.uniform(0.3, 2.0, size=4))
        N_a = int(rng.integers(2, 6))
        lam_a, lam_b = (float(x) for x in rng.uniform(0.5, 3.0, size=2))
        split = NPlusOneSystem(N_a, 3,
                               laws.kinetic_power(F_a, alpha),
                               laws.kinetic_power(F_b, alpha),
                               laws.potential_power(G_aa, beta),
                               laws.potential_power(G_ab, beta))
        rep = dosm_np1(split, lam_a, lam_b)
        c2 = 0.5 * N_a * (N_a - 1)

        def surface(r, R):
            p_a = lam_a / (math.sqrt(c2) * r)
            P0 = lam_b / R
            pap = math.sqrt(p_a ** 2 + P0 ** 2 / N_a ** 2)
            r0p = math.sqrt(R ** 2 + 0.5 * (N_a - 1) / N_a * r ** 2)
            return (N_a * split.kinetic_a.value(pap)
                    + split.kinetic_b.value(P0)
                    + c2 * split.potential_aa.value(r)
                    + N_a * split.potential_ab.value(r0p))

        r, R = rep.orbital.r_aa, rep.orbital.R0
        hr, hR = 1e-3 * r, 1e-3 * R
        worst_k = max(worst_k,
                      abs(rep.k_a / _fd2(lambda x: surface(x, R), r, hr) - 1.0),
                      abs(rep.k_b / _fd2(lambda x: surface(r, x), R, hR) - 1.0),
                      abs(rep.k_c / (2.0 * _fd_cross(surface, r, R, hr, hR))
                          - 1.0))

        merged = IdenticalSystem(N_a + 1, 3, laws.kinetic_power(F_a, alpha),
                                 laws.potential_power(G_aa, beta))
        rep_m = dosm_identical(merged, lam_a + lam_b)
        sq = math.sqrt(0.5 * (N_a + 1) * N_a)

        def surface_m(rho):
            p = (lam_a + lam_b) / (sq * rho)
            return ((N_a + 1) * merged.kinetic.value(p)
                    + sq ** 2 * merged.potential.value(rho))

        worst_k = max(worst_k, abs(rep_m.k / _fd2(surface_m, rep_m.orbital.rho0,
                                                  1e-3 * rep_m.orbital.rho0) - 1.0))

        h = 1e-3
        slope_a = (solve_et_np1(split, lam_a + h, lam_b).energy
                   - solve_et_np1(split, lam_a - h, lam_b).energy) / (2 * h)
        slope_b = (solve_et_np1(split, lam_a, lam_b + h).energy
                   - solve_et_np1(split, lam_a, lam_b - h).energy) / (2 * h)
        worst_slope = max(worst_slope, abs(rep.D_a / lam_a / slope_a - 1.0),
                          abs(rep.D_b / lam_b / slope_b - 1.0))
    ok = worst_k <= 1e-6 and worst_slope <= 1e-3
    _gate(7, ok, f"30 random systems; worst stiffness rel err {worst_k:.1e} "
          f"(tol 1e-6), worst response rel err {worst_slope:.1e} (tol 1e-3)")


def test_criterion_08_identical_limit_reduction():
    worst_coeff = worst_energy = 0.0
    for N_a, alpha, beta in ((2, 2.0, 2.0), (3, 2.0, 1.0), (4, 1.0, 2.0),
                             (5, 2.0, 0.5), (3, 1.0, 1.0), (2, 2.0, 3.0)):
        kin = laws.kinetic_power(0.7, alpha)
        pot = laws.potential_power(1.3, beta)
        split = NPlusOneSystem(N_a, 3, kin, kin, pot, pot)
        merged = IdenticalSystem(N_a + 1, 3, kin, pot)
        lam_a, lam_b = 0.5 * (N_a - 1), 0.5
        rs = dosm_np1(split, lam_a, lam_b)
        rm = dosm_identical(merged, lam_a + lam_b)
        f = (N_a + 1.0) / (2.0 * N_a)
        mu_combo = 1.0 / ((N_a ** 2 - 1.0) / N_a ** 2 / rs.mu_a
                          + 1.0 / rs.mu_b)
        k_combo = rs.k_a + rs.k_b * f + rs.k_c * math.sqrt(f)
        worst_coeff = max(worst_coeff,
                          abs(rs.orbital.r_0_prime / rs.orbital.r_aa - 1.0),
                          abs(rs.orbital.p_a_prime / rs.orbital.P0 - 1.0),
                          abs(mu_combo / rm.mu - 1.0),
                          abs(k_combo / rm.k - 1.0))
        e_split = solve_et_np1(split, (N_a - 1) + lam_a, 1.0 + lam_b).energy
        e_merged = solve_et(merged, 1.5 * N_a).energy
        worst_energy = max(worst_energy, abs(e_split / e_merged - 1.0))
    ok = worst_coeff <= 1e-9 and worst_energy <= 1e-9
    _gate(8, ok, f"6 same-law splits; worst coefficient rel err "
          f"{worst_coeff:.1e}, worst energy rel err {worst_energy:.1e} "
          f"(tol 1e-9)")


def test_criterion_09_coupled_oscillator_modes():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        mu_a, mu_b, k_a, k_b = (float(x) for x in rng.uniform(0.2, 5.0, size=4))
        a = math.sqrt(mu_b / mu_a) * k_a
        b = k_b / math.sqrt(mu_b / mu_a)
        # Stay inside the stability wedge |k_c| < 2 sqrt(a b), both signs.
        k_c = float(rng.uniform(-0.95, 0.95)) * 2.0 * math.sqrt(a * b)
        A, B, _ = normal_modes(OscPair(mu_a, mu_b, k_a, k_b, k_c))
        lo, hi = np.linalg.eigvalsh([[a, k_c / 2.0], [k_c / 2.0, b]])
        got = sorted((A, B))
        worst = max(worst, abs(got[0] / lo - 1.0), abs(got[1] / hi - 1.0))
    drift = 0.0
    A0, B0, _ = normal_modes(OscPair(1.3, 0.6, 2.0, 1.1, 0.0))
    for k_c in (1e-8, -1e-8):
        A1, B1, _ = normal_modes(OscPair(1.3, 0.6, 2.0, 1.1, k_c))
        drift = max(drift, abs(A1 - A0), abs(B1 - B0))
    # Degenerate diagonal at fixed coupling: labels are continuous as
    # (b - a)/k_c -> 0 from above; from below only the unordered pair is.
    Ad, Bd, _ = normal_modes(OscPair(1.0, 1.0, 2.0, 2.0, 0.7))
    Ap, Bp, _ = normal_modes(OscPair(1.0, 1.0, 2.0, 2.0 + 1e-8, 0.7))
    drift = max(drift, abs(Ap - Ad), abs(Bp - Bd))
    Am, Bm, _ = normal_modes(OscPair(1.0, 1.0, 2.0, 2.0 - 1e-8, 0.7))
    drift = max(drift, abs(min(Am, Bm) - min(Ad, Bd)),
                abs(max(Am, Bm) - max(Ad, Bd)))
    ok = worst <= 1e-9 and drift <= 1e-6
    _gate(9, ok, f"1000 random stable pairs; worst mode rel err {worst:.1e} "
          f"(tol 1e-9); worst branch drift {drift:.1e} (tol 1e-6)")


def test_criterion_10_fermionic_fillings():
    worst = 0.0
    n_cells = 0
    reduces = True
    for D in (2, 3, 4):
        for d in (1, 2, 4):
            for N in range(2, 201):
                q2 = fgs_fill(N, D, d, phi=2.0).q_phi
                q1 = fgs_fill(N, D, d, phi=1.0).q_phi
                worst = max(worst, abs(q2 - fgs_closed(N, D, d, variant=2)),
                            abs(q1 - fgs_closed(N, D, d, variant=1)))
                n_cells += 1
                if d >= N:
                    reduces = reduces and abs(q2 - bgs(N, D).q_phi) <= 1e-12
    for D in (2, 3, 4):
        for N in (2, 5, 17, 60):
            reduces = reduces and abs(fgs_fill(N, D, N, phi=2.0).q_phi
                                      - bgs(N, D).q_phi) <= 1e-12
    approx_err = abs(fgs_approx(1000, 3, 2, phi=2.0)
                     / fgs_fill(1000, 3, 2, phi=2.0).q_phi - 1.0)
    ok = worst <= 1e-9 and reduces and approx_err <= 0.02
    _gate(10, ok, f"{n_cells} (N, D, d) cells; worst |filled - closed| = "
          f"{worst:.1e} (tol 1e-9); d >= N reduces to bosonic: {reduces}; "
          f"N=1000 asymptotic rel err {approx_err:.4f} (tol 0.02)")


def test_criterion_11_critical_coupling_scaling():
    shape = laws.make_weighted_sum([(-1.0, laws.gaussian_well(1.0, 1.0))])
    worst_bgs = 0.0
    for D in (2, 3, 4):
        g = {N: critical_g(shape, 1.0, N, bgs(N, D).q_phi)
             for N in range(2, 102)}
        for N in range(2, 101):
            worst_bgs = max(worst_bgs,
                            abs(g[N + 1] / g[N] * (N + 1.0) / N - 1.0))
    worst_fgs = 0.0
    N = 1000
    for D in (3, 4):
        for d in (1, 2):
            g_n = critical_g(shape, 1.0, N, fgs_closed(N, D, d))
            g_n1 = critical_g(shape, 1.0, N + 1, fgs_closed(N + 1, D, d))
            limit = (N / (N + 1.0)) ** ((D - 2.0) / D)
            worst_fgs = max(worst_fgs, abs(g_n1 / g_n / limit - 1.0))
    worst_shape = 0.0
    for m, n, q in ((1.0, 2, 1.5), (0.7, 4, 3.0), (2.0, 10, 12.5)):
        expected = math.e * 2.0 * q ** 2 / (n * (n - 1.0) ** 2 * m)
        worst_shape = max(worst_shape,
                          abs(critical_g(shape, m, n, q) / expected - 1.0))
    ok = worst_bgs <= 1e-12 and worst_fgs <= 1e-3 and worst_shape <= 1e-12
    _gate(11, ok, f"bosonic ratio worst err {worst_bgs:.1e} (tol 1e-12); "
          f"fermionic ratio at N=1000 worst err {worst_fgs:.1e} (tol 1e-3); "
          f"unit-width shape worst err {worst_shape:.1e} (tol 1e-12)")
