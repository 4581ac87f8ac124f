"""Critical couplings: closed forms for the two standard well shapes."""

import math

import pytest

from envtheory import critical, laws, rootscan
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


@pytest.mark.parametrize("shape, root", [(_gaussian_shape(), 1.0),
                                         (_exponential_shape(), 2.0)])
def test_u_star_scan_finds_a_single_root(monkeypatch, shape, root):
    # Far out the balance 2 v + u v' underflows to exactly zero (beyond
    # u = 27.5 for the Gaussian, 758 for the exponential); those samples
    # are not roots.
    found = []

    def recorded(fn):
        found.extend(rootscan.find_roots(fn))
        return found

    monkeypatch.setattr(critical, "find_roots", recorded)
    assert u_star(shape) == pytest.approx(root, rel=1e-10)
    assert found == [pytest.approx(root, rel=1e-10)]


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
    # Each input is refused by its own check: with g computed through
    # errors.finite, m = 0, N = 1 and Q = inf would also end as "g is not
    # finite", so the class alone would not tell the checks apart.
    shape = _gaussian_shape(1.0)
    with pytest.raises(InputError, match="mass must be positive"):
        critical_g(shape, 0.0, 3, 3.0)
    with pytest.raises(InputError, match="need N >= 2"):
        critical_g(shape, 1.0, 1, 3.0)
    with pytest.raises(InputError, match="Q must be positive"):
        critical_g(shape, 1.0, 3, -1.0)
    for m, Q in ((math.nan, 3.0), (math.inf, 3.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(InputError, match="m and Q must be finite"):
            critical_g(shape, m, 3, Q)


@pytest.mark.parametrize("m, Q", [(1e-320, 1.5), (1.0, 1e300)], ids=["tiny-m", "large-q"])
def test_a_coupling_beyond_the_floats_is_an_input_error(m, Q):
    # Finite inputs whose Q^2/m overflows: the library refuses g = inf itself.
    with pytest.raises(InputError) as info:
        critical_g(_gaussian_shape(1.0), m, 3, Q)
    assert str(info.value) == "g = inf is not finite: the inputs leave the floating range"


def test_growing_shape_has_no_balance_point():
    with pytest.raises(NoRootError):
        u_star(laws.harmonic(1.0))


@pytest.mark.parametrize("shape", [
    laws.make_weighted_sum([(-0.40274579314734804,
                             laws.gaussian_well(6.3616223815e-314, 1.6159000590553592e-05))]),
    laws.make_weighted_sum([(-0.013194020956015582,
                             laws.exponential_well(1.81233e-318, 0.0001873682250240585))]),
], ids=["gaussian", "exponential"])
def test_a_shape_that_underflows_at_its_balance_point_is_an_input_error(shape):
    # u*^2 v(u*) underflows to zero, so 1/(u*^2 v(u*)) divides by zero: g
    # is beyond the floats, as where Q^2/m overflows.
    u = u_star(shape)
    assert u * u * shape.value(u) == 0.0
    with pytest.raises(InputError) as info:
        critical_g(shape, 1.0, 3, 3.0)
    assert str(info.value) == "g = inf is not finite: the inputs leave the floating range"
