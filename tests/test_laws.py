"""Laws: closed-form derivatives against finite differences, kinds."""

import math
import re

import numpy as np
import pytest

from envtheory import laws
from envtheory.errors import InputError


def _fd_check(law, x):
    """Central finite differences agree with the stored d1/d2 at x."""
    h = 1e-4 * x
    f = law.value
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    assert law.d1(x) == pytest.approx(d1, rel=1e-6, abs=1e-10)
    assert law.d2(x) == pytest.approx(d2, rel=1e-5, abs=1e-6)


SAMPLES = [
    laws.power(0.5, 2.0),
    laws.power(-0.3, -1.0),
    laws.power(1.7, 0.4),
    laws.kinetic_power(1.0, 1.0),
    laws.potential_power(0.5, -0.5),
    laws.coulomb(2.0),
    laws.harmonic(0.8),
    laws.gaussian_well(3.0, 1.5),
    laws.exponential_well(1.2, 0.7),
    laws.make_weighted_sum([(1.0, laws.power(1.0, 1.0)),
                            (0.5, laws.gaussian_well(2.0))]),
]


@pytest.mark.parametrize("law", SAMPLES, ids=lambda l: l.kind)
def test_derivatives_match_finite_differences(law):
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.3, 4.0, size=8):
        _fd_check(law, float(x))


def test_kinetic_power_requires_positive_constants():
    with pytest.raises(InputError):
        laws.kinetic_power(-1.0, 2.0)
    with pytest.raises(InputError):
        laws.kinetic_power(1.0, 0.0)


def test_potential_power_sign_convention():
    # Negative exponents give attractive (negative) tails, positive
    # exponents confining (positive) growth; the strength stays positive.
    attractive = laws.potential_power(2.0, -1.0)
    confining = laws.potential_power(2.0, 1.0)
    assert attractive.value(1.5) < 0.0
    assert confining.value(1.5) > 0.0
    with pytest.raises(InputError):
        laws.potential_power(-2.0, 1.0)
    with pytest.raises(InputError):
        laws.potential_power(2.0, 0.0)


def test_power_rejects_zero_coefficient():
    with pytest.raises(InputError):
        laws.power(0.0, 2.0)


def test_weighted_sum_combines_values():
    # x - 1/x vanishes at x = 1.
    combo = laws.make_weighted_sum([(1.0, laws.power(1.0, 1.0)),
                                    (1.0, laws.coulomb(1.0))])
    assert combo.value(1.0) == pytest.approx(0.0, abs=1e-15)
    assert combo.d1(1.0) == pytest.approx(2.0)
    with pytest.raises(InputError):
        laws.make_weighted_sum([])


def test_power_parameters_recognizes_disguised_powers():
    assert laws.power_parameters(laws.power(0.5, 2.0)) == (0.5, 2.0)
    assert laws.power_parameters(laws.harmonic(0.8)) == (0.8, 2.0)
    assert laws.power_parameters(laws.coulomb(1.5)) == (-1.5, -1.0)
    assert laws.power_parameters(laws.gaussian_well(1.0)) is None


def test_custom_wraps_callables():
    law = laws.custom(lambda x: x**3, lambda x: 3 * x**2, lambda x: 6 * x,
                      kind="cubic")
    assert law.kind == "cubic"
    assert (law.value(2.0), law.d1(2.0), law.d2(2.0)) == (8.0, 12.0, 12.0)


@pytest.mark.parametrize("strength", [0.0, -1.0])
def test_coulomb_and_harmonic_strengths_must_be_positive(strength):
    with pytest.raises(InputError, match="coulomb strength must be positive"):
        laws.coulomb(strength)
    with pytest.raises(InputError, match="harmonic strength must be positive"):
        laws.harmonic(strength)


def test_well_validation():
    for bad in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(InputError):
            laws.gaussian_well(*bad)
        with pytest.raises(InputError):
            laws.exponential_well(*bad)


@pytest.mark.parametrize("build", [
    lambda: laws.power(math.nan, 2.0),
    lambda: laws.power(1.0, math.inf),
    lambda: laws.kinetic_power(math.inf, 2.0),
    lambda: laws.potential_power(math.nan, 2.0),
    lambda: laws.potential_power(1.0, math.nan),
    lambda: laws.coulomb(math.nan),
    lambda: laws.harmonic(math.inf),
    lambda: laws.gaussian_well(1.0, math.nan),
    lambda: laws.exponential_well(math.inf),
    lambda: laws.make_weighted_sum([(math.nan, laws.harmonic(1.0))]),
], ids=["power-coefficient", "power-exponent", "kinetic", "potential-strength",
        "potential-exponent", "coulomb", "harmonic", "gaussian", "exponential",
        "sum-weight"])
def test_non_finite_constants_are_rejected(build):
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize("build, folded", [
    (lambda: laws.power(1e308, 3.0), "c e (e - 1) = inf"),
    (lambda: laws.kinetic_power(1e300, 1e8), "c e (e - 1) = inf"),
    (lambda: laws.coulomb(1e308), "-2 G = -inf"),
    (lambda: laws.harmonic(1e308), "2 k = inf"),
    (lambda: laws.gaussian_well(1.0, 1e-200), "width^4 = 0"),
    (lambda: laws.gaussian_well(1.0, 1e-100), "width^4 = 0"),
    (lambda: laws.gaussian_well(1.0, 1e100), "width^4 = inf"),
    (lambda: laws.gaussian_well(1.0, 1e200), "width^4 = inf"),
    (lambda: laws.exponential_well(1.0, 1e-200), "scale^2 = 0"),
    (lambda: laws.exponential_well(1e300, 1e-10), "depth/scale^2 = -inf"),
], ids=["power", "kinetic", "coulomb", "harmonic", "gaussian-narrow", "gaussian-w4-underflow",
        "gaussian-w4-overflow", "gaussian-wide", "exponential-narrow", "exponential-steep"])
def test_constants_folded_beyond_the_floats_are_rejected(build, folded):
    # Each would divide by zero or overflow while it is built, or carry an
    # infinite derivative constant.
    with pytest.raises(InputError, match=f"leaves the floating range: {re.escape(folded)}$"):
        build()


def test_constants_folded_within_the_floats_are_kept():
    # Near each edge, and where a folded constant is zero without dividing.
    for law in (laws.power(1e300, 3.0), laws.power(2.0, 1.0), laws.power(1.0, 0.0),
                laws.coulomb(1e307), laws.harmonic(1e307), laws.gaussian_well(1.0, 1e-75),
                laws.gaussian_well(1.0, 1e75), laws.exponential_well(1.0, 1e-150),
                laws.exponential_well(1e300, 1.0)):
        x = law.params[-1] if law.kind.endswith("well") else 1.0
        assert all(math.isfinite(f(x)) for f in (law.value, law.d1, law.d2)), law.kind


# ---------------------------------------------------------------------------
# Bit-for-bit pin: every built-in law evaluates exactly as the expressions it
# was first written with, which are kept here as (value, d1, d2) triples.

def _old_power(c, e):
    return (lambda x: c * x ** e,
            lambda x: c * e * x ** (e - 1.0),
            lambda x: c * e * (e - 1.0) * x ** (e - 2.0))


def _old_coulomb(g):
    return (lambda x: -g / x,
            lambda x: g / (x * x),
            lambda x: -2.0 * g / (x * x * x))


def _old_harmonic(k):
    return (lambda x: k * x * x,
            lambda x: 2.0 * k * x,
            lambda x: 2.0 * k)


def _old_gaussian(g, width):
    w2 = width ** 2

    def val(x):
        return -g * math.exp(-x * x / w2)

    return (val,
            lambda x: -val(x) * 2.0 * x / w2,
            lambda x: -val(x) * (2.0 / w2 - 4.0 * x * x / (w2 * w2)))


def _old_exponential(g, s):
    return (lambda x: -g * math.exp(-x / s),
            lambda x: (g / s) * math.exp(-x / s),
            lambda x: -(g / (s * s)) * math.exp(-x / s))


def _left_to_right(terms):
    """sum() up to Python 3.11, which made the goldens: left to right from int 0."""
    total = 0
    for term in terms:
        total = total + term
    return total


def _old_sum(terms):
    return tuple((lambda x, i=i: _left_to_right(c * old[i](x) for c, old in terms))
                 for i in range(3))


_GAUSS = (laws.gaussian_well(2.0), _old_gaussian(2.0, 1.0))
_EXPO = (laws.exponential_well(1.2, 0.7), _old_exponential(1.2, 0.7))
_HARM = (laws.harmonic(0.8), _old_harmonic(0.8))
_COUL = (laws.coulomb(2.0), _old_coulomb(2.0))

PINNED = [(f"power({c}, {e})", laws.power(c, e), _old_power(c, e))
          for c in (0.5, -0.3, 1.7) for e in (2.0, 1.0, 0.5, -1.0, -2.0, 300.0, 1.3)] + [
    ("coulomb", *_COUL),
    ("harmonic", *_HARM),
    ("gaussian", *_GAUSS),
    ("gaussian-narrow", laws.gaussian_well(3.0, 1e-3), _old_gaussian(3.0, 1e-3)),
    ("exponential", *_EXPO),
    ("exponential-wide", laws.exponential_well(0.4, 1e6), _old_exponential(0.4, 1e6)),
] + [
    (name, laws.make_weighted_sum([(c, law) for c, (law, _) in terms]),
     _old_sum([(c, old) for c, (_, old) in terms]))
    for name, terms in [
        ("sum-1", [(2.0, _GAUSS)]),
        ("sum-2", [(1.0, (laws.power(1.0, 1.0), _old_power(1.0, 1.0))), (0.5, _GAUSS)]),
        ("sum-3", [(-1.5, _EXPO), (0.25, _HARM), (1.0, _COUL)]),
    ]
]

# A geometric grid over [1e-12, 1e12], plus 0 where 0.0 ** -1 and -g / 0.0 raise.
GRID = [0.0] + [float(x) for x in np.geomspace(1e-12, 1e12, 721)] + [1.0, 2.0, 3.5]


def _outcome(fn, x):
    """The bits of fn(x), or the class of the error it raises."""
    try:
        y = fn(x)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return type(y), float(y).hex()


@pytest.mark.parametrize("name, law, old", PINNED, ids=[p[0] for p in PINNED])
def test_law_values_are_pinned_bit_for_bit(name, law, old):
    new = (law.value, law.d1, law.d2)
    for x in GRID:
        for part in range(3):
            assert _outcome(new[part], x) == _outcome(old[part], x), (name, part, x)


def test_pinned_grid_reaches_errors_and_signed_zeros():
    # The pin above is only as strong as the cases it meets.
    outcomes = {_outcome(fn, x) for _, law, _ in PINNED
                for fn in (law.value, law.d1, law.d2) for x in GRID}
    assert ZeroDivisionError in outcomes and OverflowError in outcomes
    assert (float, "-0x0.0p+0") in outcomes
    # Gaussian terms of -0.0 sum to +0.0 from the int 0, as sum() did.
    single = laws.make_weighted_sum([(2.0, laws.gaussian_well(2.0))])
    assert laws.gaussian_well(2.0).value(1e3).hex() == "-0x0.0p+0"
    assert single.value(1e3).hex() == "0x0.0p+0"
