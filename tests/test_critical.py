"""Critical couplings: closed forms for the two standard well shapes."""

import math

import pytest

from envtheory import laws
from envtheory.critical import critical_g, u_star
from envtheory.errors import InputError, NoRootError
from envtheory.qnum import bgs, fgs_closed


def _gaussian_shape(width=1.0):
    # The wells are negative laws; the shape function is their magnitude.
    return laws.make_weighted_sum([(-1.0, laws.gaussian_well(1.0, width))])


def _exponential_shape(scale=1.0):
    return laws.make_weighted_sum([(-1.0, laws.exponential_well(1.0, scale))])


def test_u_star_gaussian():
    # 2 v + u v' = v (2 - 2 u^2/w^2) vanishes at u = w.
    for width in (0.5, 1.0, 3.0):
        assert u_star(_gaussian_shape(width)) == pytest.approx(width, rel=1e-10)


def test_u_star_exponential():
    # 2 v + u v' = v (2 - u/s) vanishes at u = 2 s.
    for scale in (0.5, 1.0, 2.5):
        assert u_star(_exponential_shape(scale)) == pytest.approx(
            2.0 * scale, rel=1e-10)


def test_critical_g_gaussian_closed_form():
    # 1/(u^2 v(u)) = e / w^2 at u = w, so g = (e/w^2) 2 Q^2 / (N (N-1)^2 m).
    for width, m, N, Q in [(1.0, 1.0, 2, 1.5), (2.0, 0.7, 4, 3.0)]:
        expected = (math.e / width**2) * 2.0 * Q**2 / (N * (N - 1) ** 2 * m)
        assert critical_g(_gaussian_shape(width), m, N, Q) == pytest.approx(
            expected, rel=1e-10)


def test_critical_g_reference_value():
    g = critical_g(_gaussian_shape(1.0), 1.0, 2, 1.5)
    assert g == pytest.approx(2.25 * math.e, rel=1e-10)
    assert g == pytest.approx(6.11613411403, rel=1e-11)


def test_critical_g_exponential_closed_form():
    # 1/(u^2 v(u)) = e^2 / (4 s^2) at u = 2 s.
    for scale, m, N, Q in [(1.0, 1.0, 2, 1.5), (0.5, 2.0, 3, 4.0)]:
        expected = (math.e**2 / (4.0 * scale**2)) * 2.0 * Q**2 \
            / (N * (N - 1) ** 2 * m)
        assert critical_g(_exponential_shape(scale), m, N, Q) == pytest.approx(
            expected, rel=1e-10)


def test_bosonic_ratio_is_exact():
    # With Q = D (N-1)/2 the coupling scales as D^2/(4 N m) up to the shape
    # factor, so consecutive ratios are N/(N+1) for every N and D.
    shape = _gaussian_shape(1.0)
    for D in (2, 3, 4):
        for N in (2, 3, 10, 57):
            g_n = critical_g(shape, 1.0, N, bgs(N, D).q_phi)
            g_n1 = critical_g(shape, 1.0, N + 1, bgs(N + 1, D).q_phi)
            assert g_n1 / g_n == pytest.approx(N / (N + 1.0), rel=1e-12)


def test_fermionic_ratio_approaches_power_law():
    # For fermions Q ~ N^((D+1)/D) turns the ratio into (N/(N+1))^((D-2)/D)
    # asymptotically; at N = 1000 the drift is within a percent.
    shape = _gaussian_shape(1.0)
    for D in (3, 4):
        N = 1000
        g_n = critical_g(shape, 1.0, N, fgs_closed(N, D, 1))
        g_n1 = critical_g(shape, 1.0, N + 1, fgs_closed(N + 1, D, 1))
        limit = (N / (N + 1.0)) ** ((D - 2.0) / D)
        assert g_n1 / g_n == pytest.approx(limit, rel=1e-2)


def test_validation():
    shape = _gaussian_shape(1.0)
    with pytest.raises(InputError):
        critical_g(shape, 0.0, 3, 3.0)
    with pytest.raises(InputError):
        critical_g(shape, 1.0, 1, 3.0)
    with pytest.raises(InputError):
        critical_g(shape, 1.0, 3, -1.0)
    for m, Q in ((math.nan, 3.0), (math.inf, 3.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(InputError):
            critical_g(shape, m, 3, Q)


def test_growing_shape_has_no_balance_point():
    with pytest.raises(NoRootError):
        u_star(laws.harmonic(1.0))
