"""Root scanning: bracketing, expansion, hole tolerance, failure traces.

Also the regula falsi polish the scan ends with.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from envtheory import rootscan
from envtheory.errors import NoRootError
from envtheory.rootscan import find_roots


def test_single_root():
    roots = find_roots(lambda x: x - 3.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(3.0, rel=1e-12)


def test_multiple_roots_in_order():
    # (x-1)(x-10)(x-100) changes sign three times on the grid.
    roots = find_roots(lambda x: (x - 1.0) * (x - 10.0) * (x - 100.0))
    assert len(roots) == 3
    assert roots == pytest.approx([1.0, 10.0, 100.0], rel=1e-10)


def test_range_expansion_finds_outlying_root():
    # The root at 5e10 lies outside the initial [1e-8, 1e8] range and is
    # only reached after widening.
    roots = find_roots(lambda x: x - 5.0e10)
    assert roots[0] == pytest.approx(5.0e10, rel=1e-10)


def test_non_finite_samples_are_holes():
    def fn(x):
        if x < 1.0:
            raise OverflowError("synthetic blow-up")
        return x - 20.0

    roots = find_roots(fn)
    assert roots[0] == pytest.approx(20.0, rel=1e-12)


def test_exact_grid_hit_is_reported():
    # An endpoint value of exactly zero counts as a root even with no
    # sign change around it.
    roots = find_roots(lambda x: 0.0 if x == 1e-8 else 1.0)
    assert roots[0] == 1e-8
    # So does the last sample, which has no right-hand neighbour: on the
    # first grid, with no widening past it.
    sampled = []
    assert find_roots(lambda x: sampled.append(x) or x - 1e8) == [1e8]
    assert max(sampled) == 1e8


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["negative-hole", "positive-hole"])
def test_a_sign_change_across_a_hole_is_no_root(sign):
    # fn changes sign only across a hole on [1, 2): on either side of it a
    # bracket would have a NaN end.
    def fn(x):
        return math.nan if 1.0 <= x < 2.0 else sign * (x - 1.5)

    with pytest.raises(NoRootError):
        find_roots(fn)


@pytest.mark.parametrize("where", [(0, -1), (1, 200)], ids=["both-ends", "interior"])
def test_an_isolated_zero_is_a_root_wherever_it_lies_on_the_grid(where):
    # fn is 1 everywhere except for exact zeros at these grid points: each
    # is a root, the first one too where the last sample is also zero.
    grid = rootscan._grid(0)
    zeros = sorted(grid[i] for i in where)
    assert find_roots(lambda x: 0.0 if x in zeros else 1.0) == zeros


def test_zeros_next_to_zeros_are_not_roots():
    # Zero on the whole of [1, 100], which holds many grid samples, and a
    # sign change at 1e3: only the sign change is a root.
    def fn(x):
        return 0.0 if 1.0 <= x <= 100.0 else x - 1e3

    assert find_roots(fn) == [pytest.approx(1e3, rel=1e-12)]


def test_a_residual_that_vanishes_everywhere_has_no_root():
    with pytest.raises(NoRootError):
        find_roots(lambda x: 0.0)


def test_no_root_error_carries_trace():
    with pytest.raises(NoRootError) as info:
        find_roots(lambda x: 1.0 + x)
    trace = info.value.trace
    assert trace
    assert all(len(pair) == 2 for pair in trace)
    xs = [x for x, _ in trace]
    assert xs == sorted(xs)
    assert all(math.isfinite(v) for _, v in trace)


def test_a_no_root_error_without_a_trace_has_an_empty_one():
    assert NoRootError("no root").trace == []


def test_no_root_error_names_the_last_range_it_sampled():
    # A scan of [1e-8, 1e8] ends on [1e-16, 1e16] after two widenings by 1e4.
    with pytest.raises(NoRootError) as info:
        find_roots(lambda x: 1.0 + x)
    assert str(info.value) == "no sign change on the scanned range up to [1e-16, 1e+16]"
    xs = [x for x, _ in info.value.trace]
    assert xs[0] == pytest.approx(1e-16, rel=1e-12)
    assert xs[-1] == pytest.approx(1e16, rel=1e-12)


@pytest.mark.parametrize("s, below, above", [
    (1.5, -1e-300, 1.0),   # the interpolated trials round onto a
    (1.5, -1.0, 1e-300),   # ... onto b
    (1.2, -1.0, 1e-300),   # and a geometric midpoint rounds onto an end
])
def test_a_polish_whose_trials_round_onto_an_end_closes_in(s, below, above):
    # fn steps from below to above at s: the polish must close the bracket
    # to (s-, s), the float below s and s, whatever its trials round to,
    # and return the end with the smaller |f|.
    def fn(x):
        return below if x < s else above

    root = rootscan._polish(fn, 1.0, fn(1.0), 2.0, fn(2.0))
    assert root == (math.nextafter(s, 0.0) if abs(below) < abs(above) else s)


def test_roots_have_full_relative_precision_at_small_scale():
    # An absolute stop on x (brentq's default xtol = 2e-12) leaves a root
    # near 3e-7 off by about 1e-6 relative; bisection in log x does not.
    roots = find_roots(lambda x: (x - 3e-7) ** 3)
    assert roots == [pytest.approx(3e-7, rel=1e-14, abs=0.0)]


_SHAPES = {
    "linear": lambda r: lambda x: x - r,
    "cubic": lambda r: lambda x: (x - r) ** 3,
    "quintic": lambda r: lambda x: (r - x) ** 5,
    "log": lambda r: lambda x: math.log(x / r),
    "power": lambda r: lambda x: x ** 0.3 - r ** 0.3,
    "atan": lambda r: lambda x: math.atan(1e3 * (x / r - 1.0)),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       log_root=st.floats(-9.0, 9.0),
       below=st.floats(0.01, 4.0), above=st.floats(0.01, 4.0))
def test_agrees_with_brentq_to_full_precision(shape, log_root, below, above):
    # scipy serves only as an oracle here: with xtol = 1e-300 its stop is
    # purely relative, so both methods must land on the same root.  The
    # scan brackets it on its own grid, brentq on [lo, hi] around it.
    r = 10.0 ** log_root
    fn = _SHAPES[shape](r)
    lo, hi = r / 10.0 ** below, r * 10.0 ** above
    roots = find_roots(fn)
    assert len(roots) == 1
    expect = brentq(fn, lo, hi, xtol=1e-300, maxiter=1000)
    assert roots[0] == pytest.approx(expect, rel=1e-13, abs=0.0)


def _bisected(fn, a, fa, b, fb):
    """Bisection in log x down to adjacent floats: the polish's reference."""
    while True:
        m = math.sqrt(a) * math.sqrt(b)
        if not a < m < b:
            m = a + 0.5 * (b - a)
            if not a < m < b:
                return a if abs(fa) <= abs(fb) else b
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm


# Monotone residuals with a simple root at r, where their log-x slope is at
# least 1, so that no run of floats rounds to zero around it.
_RESIDUALS = {
    "power": lambda r, p, c: lambda x: (x / r) ** p - 1.0,
    "exponential": lambda r, p, c: lambda x: math.exp(p * x / r) - math.exp(p),
    "cancelling": lambda r, p, c: lambda x: c * (x / r) ** p - c * (r / x) ** p,
    "sum": lambda r, p, c: lambda x: (x / r) ** (2.0 * p) + c * (x / r) ** p - (1.0 + c),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(_RESIDUALS)), log_root=st.floats(-12.0, 12.0),
       p=st.floats(1.0, 3.0), log_c=st.floats(-3.0, 8.0), position=st.floats(0.001, 0.999))
def test_the_polish_lands_on_the_bisected_root(shape, log_root, p, log_c, position):
    # On a factor-4 bracket: the root bisection reaches,
    # or the float next to it where |f| is no larger, in at most 20
    # evaluations where bisection takes about 53.
    r = 10.0 ** log_root
    fn = _RESIDUALS[shape](r, p, 10.0 ** log_c)
    a = r / 4.0 ** position
    b = 4.0 * a
    fa, fb = fn(a), fn(b)
    assume(fa < 0.0 < fb)
    calls = []
    root = rootscan._polish(lambda x: calls.append(x) or fn(x), a, fa, b, fb)
    expect = _bisected(fn, a, fa, b, fb)
    assert len(calls) <= 20
    assert root == expect or (root in (math.nextafter(expect, 0.0),
                                       math.nextafter(expect, math.inf))
                              and abs(fn(root)) <= abs(fn(expect)))


@pytest.mark.parametrize("order", [3, 5])
def test_a_polish_costs_little_more_than_bisection_at_a_multiple_root(order):
    # There regula falsi converges only linearly; once the bracket falls
    # behind what bisection would have left with 12 steps in hand, the
    # polish bisects.
    def fn(x):
        return (x - math.pi) ** order

    calls, bisections = [], []
    root = rootscan._polish(lambda x: calls.append(x) or fn(x), 1.0, fn(1.0), 4.0, fn(4.0))
    assert root == _bisected(lambda x: bisections.append(x) or fn(x), 1.0, fn(1.0),
                             4.0, fn(4.0))
    assert len(calls) <= len(bisections) + 14


def _holey(calls):
    """x - 3 with holes: raises on three runs of points, inf or NaN on others."""
    def fn(x):
        calls.append(x)
        if x < 2e-8 or 0.5 < x < 0.7 or x > 5e7:
            raise (OverflowError, ValueError, ZeroDivisionError)[len(calls) % 3]("hole")
        if 10.0 < x < 12.0:
            return math.inf
        if 20.0 < x < 22.0:
            return math.nan
        return x - 3.0
    return fn


def _bits(values):
    return [float(v).hex() for v in values]


def _alone(fn, x):
    """fn(x) sampled by itself: NaN where it raises a hole error or is not finite."""
    try:
        v = fn(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.nan
    return v if math.isfinite(v) else math.nan


def test_one_sampling_pass_reads_each_point_as_sampling_it_alone():
    # The pass resumes after each point that raises: fn runs once per point,
    # in grid order, and each value is the one it has alone, bit for bit;
    # so is _sample's, a pass over one point.
    grid = rootscan._grid(0)
    calls = []
    alone = [_alone(_holey(calls), x) for x in grid]
    assert calls == list(grid)
    calls.clear()
    assert _bits(rootscan._samples(_holey(calls), grid)) == _bits(alone)
    assert calls == list(grid)
    assert _bits(rootscan._sample(_holey(calls), x) for x in grid) == _bits(alone)
    assert math.isnan(alone[0]) and math.isnan(alone[-1])
    assert any(math.isnan(v) for x, v in zip(grid, alone) if 10.0 < x < 12.0)


def _per_point(fn, grid):
    return [_alone(fn, x) for x in grid]


@pytest.mark.parametrize("shift", [0.0, 1e9], ids=["root", "no-root"])
def test_a_scan_through_holes_finds_what_per_point_sampling_finds(monkeypatch, shift):
    # Without a root the scan widens twice and its NoRootError trace is the
    # same too; the scan calls fn once per grid point and in each polish.
    def outcome(calls):
        fn = _holey(calls)
        try:
            return find_roots(lambda x: fn(x) - shift)
        except NoRootError as exc:
            return str(exc), _bits(v for _, v in exc.trace), [x for x, _ in exc.trace]

    calls = []
    one_pass = outcome(calls)
    made = list(calls)
    monkeypatch.setattr(rootscan, "_samples", _per_point)
    calls.clear()
    assert outcome(calls) == one_pass
    assert calls == made
    grids = [rootscan._grid(attempt) for attempt in range(3)]
    if shift:
        assert made == [x for grid in grids for x in grid]
    else:
        n = len(grids[0])
        assert made[:n] == list(grids[0]) and all(2.0 < x < 4.0 for x in made[n:])
        assert one_pass == [pytest.approx(3.0, rel=1e-15)]
