"""Laws: closed-form derivatives against finite differences, kinds."""

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


def test_well_validation():
    for bad in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(InputError):
            laws.gaussian_well(*bad)
        with pytest.raises(InputError):
            laws.exponential_well(*bad)
