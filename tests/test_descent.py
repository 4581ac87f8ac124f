"""The N_a+1 solve as one damped Newton descent on the energy surface.

solve_et_np1 runs a single descent on E(r_aa, R0) from its virial or grid start,
stepping along -|H|^-1 g, so every point it returns is a local minimum of E,
the kind of point the improved method can quantize; a surface that falls
toward infinite separation has nothing to bind and says so.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envtheory import laws, solver_nplus1
from envtheory.errors import EnvTheoryError, NoBindingError, NonConvergenceError
from envtheory.qnum import QuantumSpec
from envtheory.solver_nplus1 import (NEWTON_TOL, NPlusOneSystem, _abs_hessian,
                                     _surface, solve_et_np1)


def _eigh_abs(h11, h12, h22):
    """V |Lambda| V^T from numpy's symmetric eigensolver."""
    w, v = np.linalg.eigh(np.array([[h11, h12], [h12, h22]]))
    a = v @ np.diag(np.abs(w)) @ v.T
    return a[0, 0], a[0, 1], a[1, 1]


def test_abs_hessian_matches_eigh():
    # Entries of random sign spread over 12 decades.
    rng = np.random.default_rng(7)
    entries = 10.0 ** rng.uniform(-6.0, 6.0, size=(4000, 3)) * rng.choice([-1.0, 1.0],
                                                                        size=(4000, 3))
    for h11, h12, h22 in entries:
        got = _abs_hessian(h11, h12, h22)
        want = _eigh_abs(h11, h12, h22)
        scale = max(abs(h11), abs(h12), abs(h22))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14 * scale


@pytest.mark.parametrize("h", [
    (2.0, 0.5, 1.0),           # positive definite: |H| = H
    (1e-6, 1e-7, 1e6),
    (3.0, -1e-300, 5.0),
    (-2.0, 0.5, -1.0),         # negative definite: |H| = -H
    (-1e6, 1e-300, -1e-6),
])
def test_abs_hessian_of_a_definite_matrix_is_plus_or_minus_itself(h):
    sign = 1.0 if h[0] > 0.0 else -1.0
    got = _abs_hessian(*h)
    for g, x in zip(got, h):
        assert g == pytest.approx(sign * x, rel=1e-14, abs=1e-14 * max(map(abs, h)))


@pytest.mark.parametrize("h", [
    (1.0, 2.0, 1.0), (-0.451, -0.573, 28.8), (1e-3, 1e-300, -1e3), (4.0, 1e-150, -1e-4),
])
def test_abs_hessian_of_an_indefinite_matrix(h):
    got = _abs_hessian(*h)
    want = _eigh_abs(*h)
    scale = max(map(abs, h))
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14 * scale
    # Positive definite, with the eigenvalue magnitudes of H.
    assert got[0] > 0.0 and got[0] * got[2] - got[1] ** 2 > 0.0
    assert got[0] * got[2] - got[1] ** 2 == pytest.approx(
        abs(h[0] * h[2] - h[1] ** 2), rel=1e-12)


def _positive_definite_at(system, q_a, q_b, solution):
    h11, h12, h22 = solver_nplus1._hessian(
        _surface(system, q_a, q_b, solution.r_aa, solution.R0))
    return h11 > 0.0 and h11 * h22 - h12 * h12 > 0.0


def test_returns_the_bound_minimum_not_a_saddle():
    # A stationary-point search ended on a saddle here (E = +0.9487 at
    # (6.60, 2.69), det H = -41.2); the descent reaches the bound minimum.
    system = NPlusOneSystem(2, 3, laws.kinetic_power(2.15798708984197, 1.0),
                            laws.kinetic_power(0.49222335103806325, 2.0),
                            laws.power(-1.9029176593021873, -0.20578701628085933),
                            laws.gaussian_well(25.185223582142193, 1.8228197607025454))
    solution = solve_et_np1(system, 3.0, 1.5)
    assert solution.energy == pytest.approx(-27.2547544277, rel=1e-10)
    assert solution.n_roots == 1
    assert _positive_definite_at(system, 3.0, 1.5, solution)


def test_a_start_on_a_maximum_is_not_returned():
    # The block alone collapses (T ~ p^1.375 against -r^-1.5): its only ET
    # root is the top of a barrier, with radial stiffness -7.9e22, and a
    # stationary-point search returned it with E = 5.5e8.  The grid start
    # is a local minimum of E along a ray, never a maximum, and lies in the
    # basin of the bound minimum.
    system = NPlusOneSystem(2, 3, laws.kinetic_power(1.0, 1.375),
                            laws.kinetic_power(1.0, 1.0), laws.power(-0.25, -1.5),
                            laws.harmonic(1.0))
    solution = solve_et_np1(system, 1.0, 1.0)
    assert solution.energy == pytest.approx(5.16967340066, rel=1e-10)
    assert solution.r_aa == pytest.approx(1.22740, rel=1e-5)
    assert solution.R0 == pytest.approx(0.77551, rel=1e-5)
    assert _positive_definite_at(system, 1.0, 1.0, solution)


def test_a_decrease_below_one_ulp_of_e_is_still_a_descent():
    # E = 6.3e26 is almost all T_b, while its r_aa-dependent part is about
    # 1e8, below ulp(E) = 1.4e11: steps toward the minimum leave E unchanged
    # to the last bit, and only the shrinking residual shows the progress.
    system = NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 1.0),
                            laws.kinetic_power(0.5, 300.0), laws.power(1.0, 300.0),
                            laws.power(1.0, 300.0))
    solution = solve_et_np1(system, 2.0, 1.5)
    assert solution.r_aa == pytest.approx(4.33e-10, rel=1e-2)
    assert max(solution.residual_a, solution.residual_b) < NEWTON_TOL
    assert _positive_definite_at(system, 2.0, 1.5, solution)


def _yukawa(g, a):
    return laws.custom(lambda r: -g * math.exp(-r / a) / r,
                       lambda r: g * math.exp(-r / a) * (1.0 + r / a) / r ** 2,
                       lambda r: -g * math.exp(-r / a) * (2.0 + 2.0 * r / a
                                                          + r * r / (a * a)) / r ** 3,
                       kind="yukawa")


def test_screened_system_without_a_minimum_does_not_bind():
    # A repulsive block with a Yukawa cross potential whose E has no
    # stationary point: it falls toward infinite separation, E -> 0+.
    system = NPlusOneSystem(7, 3, laws.kinetic_power(0.5, 2.0),
                            laws.kinetic_power(0.5 / 0.6678247003638428, 2.0),
                            laws.power(0.8356465891619671, -1.0),
                            _yukawa(7.337248329324384, 0.9041973705362464))
    with pytest.raises(NoBindingError):
        solve_et_np1(system, 9.0, 1.5)


def test_a_start_where_e_cannot_be_evaluated_is_a_solver_error():
    # T_a = 2.80 p^1.014 against V_aa = -0.197/r: E overflows at
    # r_aa = 1e300.
    system = NPlusOneSystem(4, 3, laws.kinetic_power(2.8016273660031485, 1.0141293070974613),
                            laws.kinetic_power(3.1307950223563457, 1.5891570855144925),
                            laws.coulomb(0.19729224144349278),
                            laws.exponential_well(0.7638465908505869, 2.5540209586575613))
    spec = QuantumSpec(3, ((1, 2), (1, 2), (1, 2)), (2, 2))
    with pytest.raises(OverflowError):
        _surface(system, spec.lam, spec.lam_b, 1e300, 1.0)
    with pytest.raises(NonConvergenceError, match="cannot be evaluated at the start"):
        solver_nplus1._newton(system, spec.lam, spec.lam_b, 1e300, 1.0)


def test_a_decrease_hidden_in_rounding_is_reached_from_the_grid_start():
    # T_a = 0.5 p^300 makes E's block term swing across many decades, where
    # a descent whose trials must lower E bit for bit can stall for its 200
    # steps.  The grid start lies in the minimum's basin.
    system = NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 300.0),
                            laws.kinetic_power(0.5, 1.0), laws.power(-1.0, -1.0),
                            laws.power(-1.0, -1.0))
    solution = solve_et_np1(system, 2.0, 1.5)
    assert solution.energy == pytest.approx(-3.8138747663896, rel=1e-12)
    assert solution.iterations <= 20
    assert _positive_definite_at(system, 2.0, 1.5, solution)


def test_a_virial_start_beyond_scan_hi_descends_to_its_minimum(monkeypatch):
    # T = p^1.21875 with V_aa = 1/r and V_ab = -1/r binds weakly: at q = (10, 10)
    # the virial start (6.31e8, 6.31e8) and the minimum both lie beyond
    # SCAN_HI, so the first outward step is no escape.  The minimum is that at
    # q = (2, 2) scaled by s = 5: radii by s^(alpha/(alpha+beta)), E by
    # s^(alpha beta/(alpha+beta)), with alpha = 1.21875 and beta = -1.
    kinetic = laws.kinetic_power(1.0, 1.21875)
    system = NPlusOneSystem(2, 3, kinetic, kinetic, laws.power(1.0, -1.0),
                            laws.power(-1.0, -1.0))
    base = solve_et_np1(system, 2.0, 2.0)

    def no_grid(*args):
        raise AssertionError("the virial descent must not fall back")

    monkeypatch.setattr(solver_nplus1, "_grid_start", no_grid)
    solution = solve_et_np1(system, 10.0, 10.0)
    assert solution.r_aa == pytest.approx(1.3107e8, rel=1e-4)
    assert solution.energy == pytest.approx(-2.5867239164775254e-09, rel=1e-12)
    assert solution.iterations == 7
    length = 5.0 ** (1.21875 / 0.21875)
    assert solution.r_aa == pytest.approx(length * base.r_aa, rel=10 * NEWTON_TOL)
    assert solution.R0 == pytest.approx(length * base.R0, rel=10 * NEWTON_TOL)
    assert solution.energy == pytest.approx(base.energy / length, rel=1e-12)


def test_one_solve_is_one_descent(monkeypatch):
    calls = []
    original = solver_nplus1._newton

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_nplus1, "_newton", counted)
    system = NPlusOneSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                            laws.kinetic_power(0.5 / 1836.0, 2.0),
                            laws.power(1.0, -1.0), laws.coulomb(3.0))
    solve_et_np1(system, 3.0, 1.5)
    assert len(calls) == 1


_positive = st.floats(0.2, 5.0)


@st.composite
def _potential(draw):
    kind = draw(st.sampled_from(["power", "coulomb", "gaussian", "exponential", "harmonic"]))
    if kind == "power":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        exponent = draw(st.one_of(st.floats(-1.5, -0.1), st.floats(0.1, 2.0)))
        return laws.power(sign * draw(_positive), exponent)
    if kind == "coulomb":
        return laws.coulomb(draw(_positive))
    if kind == "gaussian":
        return laws.gaussian_well(draw(st.floats(1.0, 30.0)), draw(_positive))
    if kind == "exponential":
        return laws.exponential_well(draw(st.floats(1.0, 30.0)), draw(_positive))
    return laws.harmonic(draw(_positive))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(N_a=st.integers(2, 6),
       alpha_a=st.floats(1.0, 2.0), alpha_b=st.floats(1.0, 2.0),
       F_a=_positive, F_b=st.floats(0.01, 5.0),
       v_aa=_potential(), v_ab=_potential(),
       q_a=st.floats(0.5, 8.0), q_b=st.floats(0.5, 3.0))
def test_every_solve_is_a_minimum_or_an_error(N_a, alpha_a, alpha_b, F_a, F_b,
                                              v_aa, v_ab, q_a, q_b):
    system = NPlusOneSystem(N_a, 3, laws.kinetic_power(F_a, alpha_a),
                            laws.kinetic_power(F_b, alpha_b), v_aa, v_ab)
    try:
        solution = solve_et_np1(system, q_a, q_b)
    except EnvTheoryError:
        return
    assert max(solution.residual_a, solution.residual_b) < NEWTON_TOL
    assert _positive_definite_at(system, q_a, q_b, solution)
