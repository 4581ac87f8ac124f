"""Normal modes of two coupled oscillators against matrix eigenvalues."""

import math

import numpy as np
import pytest

from envtheory.coupled_osc import OscPair, level, normal_modes
from envtheory.errors import InputError, UnstableModeError


def _oracle(pair):
    """Eigenvalues of [[a, k_c/2], [k_c/2, b]], labeled by mode continuity.

    For a != b the root continuously connected to a is
    (a+b)/2 + sgn(a-b) sqrt(((b-a)/2)^2 + k_c^2/4); this closed form is an
    independent restatement, derived from the characteristic polynomial
    rather than from the implementation's w-variable.
    """
    a = math.sqrt(pair.mu_b / pair.mu_a) * pair.k_a
    b = pair.k_b / math.sqrt(pair.mu_b / pair.mu_a)
    disc = math.sqrt(0.25 * (b - a) ** 2 + 0.25 * pair.k_c**2)
    A = 0.5 * (a + b) + math.copysign(disc, a - b)
    B = 0.5 * (a + b) - math.copysign(disc, a - b)
    return A, B


def test_reference_pair():
    A, B, mu = normal_modes(OscPair(1.0, 4.0, 2.0, 8.0, 1.0))
    assert (A, B, mu) == pytest.approx((3.5, 4.5, 2.0), abs=1e-14)


def test_random_pairs_match_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mu_a, mu_b, k_a, k_b = rng.uniform(0.2, 5.0, size=4)
        k_c = rng.uniform(-2.0, 2.0)
        pair = OscPair(mu_a, mu_b, k_a, k_b, k_c)
        A, B, mu = normal_modes(pair)
        assert mu == pytest.approx(math.sqrt(mu_a * mu_b))
        a = math.sqrt(mu_b / mu_a) * k_a
        b = k_b / math.sqrt(mu_b / mu_a)
        eig = np.linalg.eigvalsh([[a, k_c / 2.0], [k_c / 2.0, b]])
        assert sorted((A, B)) == pytest.approx(list(eig), rel=1e-12)
        if abs(a - b) > 1e-9:
            oracle_A, oracle_B = _oracle(pair)
            assert A == pytest.approx(oracle_A, rel=1e-12)
            assert B == pytest.approx(oracle_B, rel=1e-12)


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(23)
    for _ in range(50):
        mu_a, mu_b, k_a, k_b = rng.uniform(0.2, 5.0, size=4)
        k_c = rng.uniform(-2.0, 2.0)
        A, B, _ = normal_modes(OscPair(mu_a, mu_b, k_a, k_b, k_c))
        a = math.sqrt(mu_b / mu_a) * k_a
        b = k_b / math.sqrt(mu_b / mu_a)
        assert A + B == pytest.approx(a + b, rel=1e-12)
        assert A * B == pytest.approx(a * b - 0.25 * k_c**2, rel=1e-10, abs=1e-12)


def test_uncoupled_limit_is_exact():
    A, B, mu = normal_modes(OscPair(2.0, 3.0, 1.5, 0.8, 0.0))
    a = math.sqrt(3.0 / 2.0) * 1.5
    b = 0.8 / math.sqrt(3.0 / 2.0)
    assert (A, B) == (a, b)


def test_continuity_across_vanishing_coupling():
    # A(k_c) must approach the uncoupled a from both coupling signs.
    base = dict(mu_a=1.0, mu_b=2.0, k_a=1.0, k_b=3.0)
    A0, B0, _ = normal_modes(OscPair(**base))
    for sign in (+1.0, -1.0):
        for k_c in (1e-3, 1e-6, 1e-9):
            A, B, _ = normal_modes(OscPair(**base, k_c=sign * k_c))
            assert A == pytest.approx(A0, abs=1e-5)
            assert B == pytest.approx(B0, abs=1e-5)


def test_continuity_across_degenerate_diagonal():
    # As b - a -> 0+ at fixed coupling, the constants approach the values
    # the degenerate branch assigns at b == a.
    k_c = 0.7
    A0, B0, _ = normal_modes(OscPair(1.0, 1.0, 2.0, 2.0, k_c))
    assert (A0, B0) == (2.0 - 0.5 * k_c, 2.0 + 0.5 * k_c)
    for delta in (1e-4, 1e-7, 1e-10):
        A, B, _ = normal_modes(OscPair(1.0, 1.0, 2.0, 2.0 + delta, k_c))
        assert A == pytest.approx(A0, abs=1e-4)
        assert B == pytest.approx(B0, abs=1e-4)


def test_level_energies():
    pair = OscPair(1.0, 4.0, 2.0, 8.0, 1.0)
    w_a = math.sqrt(3.5 / 2.0)
    w_b = math.sqrt(4.5 / 2.0)
    assert level(pair, 0, 0) == pytest.approx(0.5 * (w_a + w_b))
    assert level(pair, 2, 1) == pytest.approx(2.5 * w_a + 1.5 * w_b)
    for n, n_prime in [(-1, 0), (0, -1)]:
        with pytest.raises(InputError):
            level(pair, n, n_prime)


def test_unstable_form_raises():
    # ab < k_c^2/4 drives one eigenvalue negative.
    pair = OscPair(1.0, 1.0, 0.1, 0.1, 2.0)
    A, B, _ = normal_modes(pair)
    assert min(A, B) < 0.0
    with pytest.raises(UnstableModeError):
        level(pair, 0, 0)
    # Uncoupled, with the second stiffness negative: A > 0 > B.
    with pytest.raises(UnstableModeError, match=r"\(A=1\.0, B=-1\.0\)"):
        level(OscPair(1.0, 1.0, 1.0, -1.0), 0, 0)


def test_mass_validation():
    with pytest.raises(InputError):
        OscPair(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InputError):
        OscPair(1.0, -2.0, 1.0, 1.0)


def _diagonal(pair):
    ratio = math.sqrt(pair.mu_b / pair.mu_a)
    return ratio * pair.k_a, pair.k_b / ratio


def _assert_eigenvalues(pair):
    A, B, _ = normal_modes(pair)
    a, b = _diagonal(pair)
    eig = np.linalg.eigvalsh([[a, pair.k_c / 2.0], [pair.k_c / 2.0, b]])
    assert sorted((A, B)) == pytest.approx(list(eig), rel=1e-12)
    return A, B, a, b


@pytest.mark.parametrize("k_c", [9e-14, 1e-16, 1e-30, 5e-324, -9e-14, -1e-16,
                                 -1e-30, -5e-324])
def test_vanishing_coupling_keeps_the_uncoupled_assignment(k_c):
    # Couplings far below the stiffnesses: the constants are the matrix
    # eigenvalues, and A is still the one that continues a.
    for k_a, k_b in ((1.0, 3.0), (3.0, 1.0)):
        A, B, a, b = _assert_eigenvalues(OscPair(1.0, 2.0, k_a, k_b, k_c))
        assert A == pytest.approx(a, rel=1e-12)
        assert B == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("k_c", [0.7, -0.7])
@pytest.mark.parametrize("delta", [0.0, 1e-13, -1e-13, 1e-15, -1e-15])
def test_nearly_degenerate_diagonal(k_c, delta):
    # |b - a| far below |k_c|, on both sides of zero.  A continues a, so it
    # is the lower root for b > a and the upper one for b < a; at b = a it
    # is a - k_c/2 for either coupling sign.
    pair = OscPair(1.0, 1.0, 2.0, 2.0 + delta * abs(k_c), k_c)
    A, B, a, b = _assert_eigenvalues(pair)
    if b == a:
        assert (A, B) == (a - 0.5 * k_c, a + 0.5 * k_c)
    else:
        lower, upper = sorted((A, B))
        assert A == (lower if b > a else upper)


@pytest.mark.parametrize("k_c", [0.0, -0.0])
def test_signed_zero_coupling_is_exactly_uncoupled(k_c):
    pair = OscPair(2.0, 3.0, 1.5, 0.8, k_c)
    assert normal_modes(pair)[:2] == _diagonal(pair)


def test_strong_stiffness_contrast_keeps_the_small_constant_precise():
    # With |b - a| >> |k_c| the small constant is a near-cancellation of
    # (a+b)/2 and the discriminant; compare it with a 50-digit evaluation.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    pair = OscPair(1.0, 1.0, 1.37e9, 1.77, -3.85)
    A, B, _ = normal_modes(pair)
    a, b, k_c = (mpmath.mpf(x) for x in (pair.k_a, pair.k_b, pair.k_c))
    disc = mpmath.sqrt((a - b) ** 2 / 4 + k_c ** 2 / 4)
    assert A == pytest.approx(float((a + b) / 2 + disc), rel=1e-15)
    assert B == pytest.approx(float((a + b) / 2 - disc), rel=1e-14)
