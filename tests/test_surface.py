"""The energy surfaces of both solvers: exact derivatives against symbolic ones.

The N_a+1 solver's Newton steps, its DOSM stiffnesses and its responses all
come from one surface, bound once per (system, Q_a, Q_b), whose records hold
E(r_aa, R0; Q_a, Q_b), its gradient in u = (log r_aa, log R0) and its
Hessian in u, each split into kinetic and potential parts.  The identical
solver binds its curve E(rho; Q) once per solve, and its records hold p0 and
the log-gradient's kinetic and potential parts; its DOSM adds the curvature
in rho.  Here sympy differentiates the same energies written out from the
compact equation sets, independently of the chain rule in the solvers.
"""

import math

import numpy as np
import pytest
import sympy as sp

from envtheory import laws
from envtheory.solver_identical import IdenticalSystem, _Curve, dosm_identical
from envtheory.solver_nplus1 import NPlusOneSystem, _surface_at, dosm_np1, solve_et_np1

X = sp.Symbol("x", positive=True)


def _yukawa(g, a):
    """-g exp(-x/a)/x, a custom law with hand-written derivatives."""
    law = laws.custom(
        lambda x: -g * math.exp(-x / a) / x,
        lambda x: g * math.exp(-x / a) * (1.0 / (a * x) + 1.0 / x ** 2),
        lambda x: -g * math.exp(-x / a) * (1.0 / (a * a * x) + 2.0 / (a * x ** 2)
                                           + 2.0 / x ** 3),
        kind="yukawa")
    return law, -g * sp.exp(-X / a) / X


# (N_a, T_a, T_b, V_aa, V_ab), each law with its symbolic twin in x.
CASES = {
    "power": (3, (laws.kinetic_power(0.5, 2.0), 0.5 * X ** 2),
              (laws.kinetic_power(0.3, 1.5), 0.3 * X ** 1.5),
              (laws.power(0.8, 1.2), 0.8 * X ** 1.2),
              (laws.power(-1.1, -0.7), -1.1 * X ** -0.7)),
    "coulomb": (4, (laws.kinetic_power(0.5, 2.0), 0.5 * X ** 2),
                (laws.kinetic_power(0.5 / 1836.0, 2.0), 0.5 / 1836.0 * X ** 2),
                (laws.power(1.0, -1.0), 1 / X),
                (laws.coulomb(2.5), -2.5 / X)),
    "gaussian": (2, (laws.kinetic_power(1.0, 1.0), X),
                 (laws.kinetic_power(0.7, 2.0), 0.7 * X ** 2),
                 (laws.gaussian_well(1.3, 0.9), -1.3 * sp.exp(-X ** 2 / 0.81)),
                 (laws.gaussian_well(2.0, 1.4), -2.0 * sp.exp(-X ** 2 / 1.96))),
    "yukawa": (5, (laws.kinetic_power(0.5, 2.0), 0.5 * X ** 2),
               (laws.kinetic_power(0.25, 2.0), 0.25 * X ** 2),
               (laws.harmonic(0.4), 0.4 * X ** 2),
               _yukawa(3.0, 0.8)),
}


def _symbolic(N_a, t_a, t_b, v_aa, v_ab, q_a, q_b):
    """Kinetic and potential parts of E as sympy expressions in u = (u1, u2)."""
    u1, u2 = sp.symbols("u1 u2", real=True)
    r_aa, R0 = sp.exp(u1), sp.exp(u2)
    c2 = sp.Rational(N_a * (N_a - 1), 2)
    p_a = q_a / (sp.sqrt(c2) * r_aa)
    P0 = q_b / R0
    p_a_prime = sp.sqrt(p_a ** 2 + P0 ** 2 / N_a ** 2)
    r_0_prime = sp.sqrt(R0 ** 2 + sp.Rational(N_a - 1, 2 * N_a) * r_aa ** 2)
    kinetic = N_a * t_a.subs(X, p_a_prime) + t_b.subs(X, P0)
    potential = c2 * v_aa.subs(X, r_aa) + N_a * v_ab.subs(X, r_0_prime)
    return (u1, u2), kinetic, potential


def _close(value, exact, scale):
    assert value == pytest.approx(exact, rel=1e-10, abs=1e-12 * scale)


@pytest.mark.parametrize("case", sorted(CASES))
def test_surface_matches_symbolic_derivatives(case):
    N_a, (t_a, st_a), (t_b, st_b), (v_aa, sv_aa), (v_ab, sv_ab) = CASES[case]
    system = NPlusOneSystem(N_a, 3, t_a, t_b, v_aa, v_ab)
    rng = np.random.default_rng(11)
    for _ in range(4):
        q_a, q_b = (float(x) for x in rng.uniform(0.5, 4.0, size=2))
        r_aa, R0 = (float(x) for x in np.exp(rng.uniform(-1.0, 1.0, size=2)))
        u, kin, pot = _symbolic(N_a, st_a, st_b, sv_aa, sv_ab, q_a, q_b)
        at = {u[0]: math.log(r_aa), u[1]: math.log(R0)}

        def num(expr):
            return float(expr.evalf(30, subs=at))

        # (E, k1, k2, v1, v2, t11, t12, t22, p11, p12, p22)
        energy, *derivatives = _surface_at(system, q_a, q_b)(r_aa, R0)
        pairs = ((u[0], u[0]), (u[0], u[1]), (u[1], u[1]))
        sym_kin = [num(sp.diff(kin, v)) for v in u]
        sym_pot = [num(sp.diff(pot, v)) for v in u]
        sym_kin_hess = [num(sp.diff(kin, a, b)) for a, b in pairs]
        sym_pot_hess = [num(sp.diff(pot, a, b)) for a, b in pairs]
        scale = max(map(abs, sym_kin + sym_pot + sym_kin_hess + sym_pot_hess))
        # Away from a stationary point: the gradient itself is tested, not zero.
        assert max(abs(k + v) for k, v in zip(sym_kin, sym_pot)) > 1e-3 * scale
        _close(energy, num(kin + pot), abs(num(kin + pot)))
        for got, exact in zip(derivatives, sym_kin + sym_pot + sym_kin_hess + sym_pot_hess,
                              strict=True):
            _close(got, exact, scale)


@pytest.mark.parametrize("case", ["power", "yukawa"])
def test_dosm_constants_are_the_symbolic_hessian(case):
    N_a, (t_a, st_a), (t_b, st_b), (v_aa, sv_aa), (v_ab, sv_ab) = CASES[case]
    system = NPlusOneSystem(N_a, 3, t_a, t_b, v_aa, v_ab)
    lam_a, lam_b = 2.5, 1.5
    report = dosm_np1(system, lam_a, lam_b)
    u, kin, pot = _symbolic(N_a, st_a, st_b, sv_aa, sv_ab, lam_a, lam_b)
    r, R = sp.symbols("r R", positive=True)
    in_r = {u[0]: sp.log(r), u[1]: sp.log(R)}
    total = (kin + pot).subs(in_r)
    at = {r: report.orbital.r_aa, R: report.orbital.R0}

    def num(expr):
        return float(expr.evalf(30, subs=at))

    _close(report.k_a, num(sp.diff(total, r, 2)), abs(report.k_a))
    _close(report.k_b, num(sp.diff(total, R, 2)), abs(report.k_b))
    _close(report.k_c, 2.0 * num(sp.diff(total, r, R)), abs(report.k_c))
    _close(report.D_a, -num(r * sp.diff(kin.subs(in_r), r)), report.D_a)
    _close(report.D_b, -num(R * sp.diff(kin.subs(in_r), R)), report.D_b)



@pytest.mark.parametrize("case", ["coulomb", "power", "yukawa"])
def test_radius_response_is_the_slope_of_the_minimum(case):
    # H^-1 H_kin against central differences of log r_aa and log R0 of the
    # minimum in log q_a and log q_b: the path the deformed solve starts on.
    # (The Gaussian case has no minimum at these quantum numbers.)
    N_a, (t_a, _), (t_b, _), (v_aa, _), (v_ab, _) = CASES[case]
    system = NPlusOneSystem(N_a, 3, t_a, t_b, v_aa, v_ab)
    lam_a, lam_b, h = 2.5, 1.5, 1e-5
    report = dosm_np1(system, lam_a, lam_b)

    def log_radii(s_a, s_b):
        solution = solve_et_np1(system, lam_a * math.exp(s_a), lam_b * math.exp(s_b))
        return math.log(solution.r_aa), math.log(solution.R0)

    columns = []
    for step in ((h, 0.0), (0.0, h)):
        up, down = log_radii(*step), log_radii(-step[0], -step[1])
        columns.append([(u - d) / (2.0 * h) for u, d in zip(up, down)])
    slopes = (columns[0][0], columns[1][0], columns[0][1], columns[1][1])
    scale = max(map(abs, slopes))
    for got, expect in zip(report.radius_response, slopes):
        assert got == pytest.approx(expect, rel=1e-6, abs=1e-6 * scale)
    assert report.radii(lam_a, lam_b) == (report.orbital.r_aa, report.orbital.R0)


def test_the_bound_surface_closes_over_fewer_than_twenty_names():
    # CPython 3.11 keeps each freed tuple of 20 items, such as the cells of a
    # 20-name closure, on a free list that it never takes one from again; a
    # solve binds one surface, so a 20th name would raise peak memory with
    # every solve until that list is full (2,000 tuples, 368 kB).
    system = NPlusOneSystem(2, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5, 2.0),
                            laws.power(1.0, -1.0), laws.coulomb(2.0))
    assert len(_surface_at(system, 1.0, 1.0).__closure__) < 20


# Identical systems (N, T, V) on the laws above, each with its symbolic twin.
IDENTICAL = {
    "power": (3, CASES["power"][1], CASES["power"][3]),
    "coulomb": (4, CASES["coulomb"][1], CASES["coulomb"][4]),
    "harmonic": (5, CASES["yukawa"][1], CASES["yukawa"][3]),
    "yukawa": (5, CASES["yukawa"][1], CASES["yukawa"][4]),
}


def _identical_symbolic(N, t, v, Q):
    """Kinetic and potential parts of E(rho; Q) as sympy expressions in u = log rho."""
    u = sp.Symbol("u", real=True)
    c2 = sp.Rational(N * (N - 1), 2)
    rho = sp.exp(u)
    return u, N * t.subs(X, Q / (sp.sqrt(c2) * rho)), c2 * v.subs(X, rho)


@pytest.mark.parametrize("case", sorted(IDENTICAL))
def test_identical_records_are_the_symbolic_log_gradient(case):
    N, (t, st), (v, sv) = IDENTICAL[case]
    system = IdenticalSystem(N, 3, t, v)
    rng = np.random.default_rng(13)
    for _ in range(4):
        Q, rho = float(rng.uniform(0.5, 6.0)), float(np.exp(rng.uniform(-1.5, 1.5)))
        u, kin, pot = _identical_symbolic(N, st, sv, Q)
        at = {u: math.log(rho)}
        p0, k, v_ = _Curve(system).at(Q)(rho)
        sym_k, sym_v = (float(sp.diff(e, u).evalf(30, subs=at)) for e in (kin, pot))
        assert abs(k + v_) > 1e-3 * max(abs(sym_k), abs(sym_v))
        _close(p0, Q / (math.sqrt(N * (N - 1) / 2) * rho), p0)
        _close(k, sym_k, abs(sym_k))
        _close(v_, sym_v, abs(sym_v))


@pytest.mark.parametrize("case", sorted(IDENTICAL))
def test_identical_dosm_constants_are_the_symbolic_curvature(case):
    # The stiffness is E''(rho0) and D = -dE_kin/dlog rho at the orbital root,
    # and the mass p0^2/D.
    N, (t, st), (v, sv) = IDENTICAL[case]
    lam = 1.5
    report = dosm_identical(IdenticalSystem(N, 3, t, v), lam)
    u, kin, pot = _identical_symbolic(N, st, sv, lam)
    r = sp.Symbol("r", positive=True)
    rho0, p0 = report.orbital.rho0, report.orbital.p0
    stiffness = float(sp.diff((kin + pot).subs(u, sp.log(r)), r, 2).evalf(30, subs={r: rho0}))
    D = -float(sp.diff(kin, u).evalf(30, subs={u: math.log(rho0)}))
    _close(report.k, stiffness, abs(stiffness))
    _close(report.mu, p0 ** 2 / D, p0 ** 2 / D)
    _close(report.phi, lam / D * math.sqrt(stiffness / (report.n_pairs * p0 ** 2 / D)),
           report.phi)
