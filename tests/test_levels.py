"""The level reading of the identical solver's scan, against plain sampling.

For a power kinetic law T = c p^a the motion residual is
rho^-a (K(Q) - g(rho)) with K(Q) = N c a (Q/sqrt(C2))^a and
g(rho) = C2 V'(rho) rho^(1+a).  solve_et and solve_iet sample g once per
grid and read each scan's signs off K - g, evaluating the residual only at
bracket ends and where the sign is not certain.  With the reading switched
off every grid point samples the residual, as the scan did before; both
must give the same solution bit for bit, or the same error.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from envtheory import laws, rootscan, solver_identical
from envtheory.errors import EnvTheoryError
from envtheory.qnum import ground_spec
from envtheory.solver_identical import IdenticalSystem, solve_et, solve_iet


def _yukawa(g, a):
    """-g exp(-r/a)/r."""
    return laws.custom(lambda r: -g * math.exp(-r / a) / r,
                       lambda r: g * math.exp(-r / a) * (1.0 + r / a) / r ** 2,
                       lambda r: -g * math.exp(-r / a) * (2.0 + 2.0 * r / a
                                                          + r * r / (a * a)) / r ** 3,
                       kind="yukawa")


def _outcome(solve, *args):
    """repr of the solution, or the error's class, message and trace."""
    try:
        return repr(solve(*args))
    except EnvTheoryError as exc:
        return f"{type(exc).__name__}: {exc} {getattr(exc, 'trace', None)!r}"


def _sampled_outcome(solve, *args):
    """The outcome with the level reading off: every grid point is sampled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_identical._Curve, "reader", lambda curve, Q, motion: None)
        return _outcome(solve, *args)


@st.composite
def _well(draw):
    """Gaussian, exponential and Yukawa wells, and a gaussian plus a power tail.

    Every V' underflows somewhere on the widened scan range, a gaussian of
    width 0.01 already near rho = 0.3.
    """
    kind = draw(st.sampled_from(["gaussian", "exponential", "yukawa", "sum"]))
    depth = 10.0 ** draw(st.floats(-1.0, 2.0))
    width = 10.0 ** draw(st.floats(-2.0, 1.5))
    if kind == "gaussian":
        return laws.gaussian_well(depth, width)
    if kind == "exponential":
        return laws.exponential_well(depth, width)
    if kind == "yukawa":
        return _yukawa(depth, width)
    beta = draw(st.one_of(st.floats(-1.5, -0.1), st.floats(0.1, 3.0)))
    tail = laws.potential_power(10.0 ** draw(st.floats(-3.0, 0.0)), beta)
    return laws.make_weighted_sum([(1.0, laws.gaussian_well(depth, width)), (1.0, tail)])


# Kinetic exponents in [0.5, 3], a few below 0.5 (where a - 1 rounds) and a
# few stiff ones, whose terms leave the normal range on part of the grid.
_EXPONENTS = st.one_of(st.floats(0.5, 3.0), st.sampled_from([0.25, 0.4, 10.0, 20.0, 50.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(well=_well(), c=st.floats(0.05, 20.0), a=_EXPONENTS, N=st.integers(2, 50),
       log_q=st.floats(-1.0, 3.0))
def test_solve_et_reads_the_roots_that_sampling_finds(well, c, a, N, log_q):
    system = IdenticalSystem(N, 3, laws.kinetic_power(c, a), well)
    Q = 10.0 ** log_q
    assert _outcome(solve_et, system, Q) == _sampled_outcome(solve_et, system, Q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(well=_well(), c=st.floats(0.05, 20.0), a=_EXPONENTS, N=st.integers(2, 50))
def test_solve_iet_reads_the_roots_that_sampling_finds(well, c, a, N):
    system = IdenticalSystem(N, 3, laws.kinetic_power(c, a), well)
    spec = ground_spec(N, 3)
    assert _outcome(solve_iet, system, spec) == _sampled_outcome(solve_iet, system, spec)


@pytest.mark.parametrize("potential", [
    laws.make_weighted_sum([(1.0, laws.coulomb(2.0))]),
    laws.make_weighted_sum([(1.0, laws.coulomb(1.0)), (1.0, laws.coulomb(1.0))]),
], ids=["one-term", "two-terms"])
def test_a_vanishing_balance_is_sampled_where_the_level_cannot_tell(potential):
    # T = |p| against -2/r at N = 2, Q = 1: K = g at every rho, so no sign
    # is read off the level and the four-epsilon rule decides, as it does
    # when sampling.
    system = IdenticalSystem(2, 2, laws.kinetic_power(1.0, 1.0), potential)
    outcome = _outcome(solve_et, system, 1.0)
    assert outcome.startswith("NoRootError")
    assert outcome == _sampled_outcome(solve_et, system, 1.0)


def test_a_stiff_law_is_sampled_where_its_terms_leave_the_normal_range():
    # T = 0.05 p^50 in an exponential well of range 20, N = 30, Q = 0.1: near
    # rho = 1.6e4 both terms of the residual underflow, and a level read
    # there would list a root that sampling does not find.
    system = IdenticalSystem(30, 3, laws.kinetic_power(0.05, 50.0),
                             laws.exponential_well(1.0, 20.0))
    outcome = _outcome(solve_et, system, 0.1)
    assert "n_roots=1," in outcome
    assert outcome == _sampled_outcome(solve_et, system, 0.1)


def _counted_d1(law):
    calls = []

    def d1(x):
        calls.append(x)
        return law.d1(x)

    return laws.custom(law.value, d1, law.d2), calls


def test_an_improved_solve_samples_the_potential_once():
    # N = 10 in a gaussian well: the orbital and the deformed solve share one
    # sample of V' on the 401-point grid; each adds its bracket ends and
    # polish.  Sampling both scans took 830 evaluations.
    well, calls = _counted_d1(laws.gaussian_well(3.0, 1.0))
    system = IdenticalSystem(10, 3, laws.kinetic_power(0.5, 2.0), well)
    spec = ground_spec(10, 3)
    sampled = _sampled_outcome(solve_iet, system, spec)
    assert len(calls) >= 800
    calls.clear()
    assert _outcome(solve_iet, system, spec) == sampled
    assert len(calls) <= 440


def test_the_scan_reads_only_signs_zeros_and_holes():
    # Values of the right sign, zero and NaN in place of fn's samples find
    # the same roots, polished from fn's own values at the bracket ends.
    def fn(x):
        if x > 5e3:
            raise OverflowError("synthetic blow-up")
        return 0.0 if 40.0 <= x <= 60.0 else (x - 3.0) * (x - 300.0)

    def signs(attempt):
        out = []
        for x in rootscan._grid(attempt):
            v = rootscan._sample(fn, x)
            out.append(v if v == 0.0 or math.isnan(v) else math.copysign(1.0, v))
        return out

    roots = rootscan.find_roots(fn)
    assert rootscan.find_roots(fn, signs) == roots
    assert roots == [pytest.approx(3.0, rel=1e-14), pytest.approx(300.0, rel=1e-14)]


def test_a_sign_change_between_tiny_samples_is_a_root():
    # Adjacent samples near 1e-181 of opposite signs: their product
    # underflows to -0.0, which once hid the sign change.
    assert rootscan.find_roots(lambda x: 1e-180 * (x - 3.0)) == [
        pytest.approx(3.0, rel=1e-14)]


def test_the_grids_are_built_once():
    # The same geometric grid, point for point, on every scan's attempt.
    grid = rootscan._grid(1)
    assert rootscan._grid(1) is grid
    lo, hi = 1e-8 / 1e4, 1e8 * 1e4
    step = math.log(hi / lo) / 800
    assert grid == tuple([lo] + [lo * math.exp(step * i) for i in range(1, 800)] + [hi])


def _power_sum(beta):
    """r^beta as a one-term sum, which the closed form of two powers does not take."""
    return laws.make_weighted_sum([(1.0, laws.potential_power(1.0, beta))])


@pytest.mark.parametrize("a, Q, level", [
    (200.0, 1e3, False),
    (200.0, 1e-3, False),
    (0.5, 1e25, True),
    (0.5, 1e-25, True),
], ids=["q-power-overflows", "q-power-underflows", "grid-far-below-q", "grid-far-above-q"])
def test_a_level_out_of_range_is_sampled(a, Q, level):
    # (Q/sqrt(C2))^a overflows or underflows: no level, every point is
    # sampled.  Or K is normal, but every grid point lies more than 2^100
    # away from Q/sqrt(C2), so p0 is not: each grid is sampled whole.  The
    # root is that of the closed form for the same two powers.
    system = IdenticalSystem(2, 3, laws.kinetic_power(0.05, a), _power_sum(2.0))
    sampled = []
    reader = solver_identical._Curve(system).reader(Q, lambda rho: sampled.append(rho) or 1.0)
    assert (reader is not None) == level
    if reader is not None:
        grid = rootscan._grid(0)
        assert reader(0) == [1.0] * len(grid) and sampled == list(grid)
    outcome = _outcome(solve_et, system, Q)
    assert "n_roots=1," in outcome
    assert outcome == _sampled_outcome(solve_et, system, Q)
    closed = solve_et(system._replace(potential=laws.potential_power(1.0, 2.0)), Q)
    assert solve_et(system, Q).rho0 == pytest.approx(closed.rho0, rel=1e-13)


@pytest.mark.parametrize("c, a, N", [
    (1.0, 2.0 * solver_identical._MAX_A, 2),
    (2.0 ** -101, 1.0, 2),
    (2.0 ** 99, 1.0, 3),
], ids=["a-above-max", "c-a-below-band", "n-c-a-above-band"])
def test_a_kinetic_power_outside_the_margin_derivation_has_no_level(c, a, N):
    # The margin of the level reading holds for a <= _MAX_A and for c a and
    # N c a within 2^+-100; outside them every grid point is sampled.  At
    # Q = sqrt(C2), K = N c a lies within the band, so only those bounds
    # refuse the level.
    system = IdenticalSystem(N, 3, laws.kinetic_power(c, a), laws.gaussian_well(3.0, 1.0))
    Q = math.sqrt(solver_identical.pair_count(N))
    assert solver_identical._Curve(system).reader(Q, lambda rho: 1.0) is None
    assert _outcome(solve_et, system, 2.0) == _sampled_outcome(solve_et, system, 2.0)


def test_a_kinetic_law_that_is_not_a_power_is_sampled():
    # A custom copy of p^2/2 evaluates bit for bit as kinetic_power(0.5, 2),
    # but has no level: its scan samples every point and finds the same root.
    copy = laws.custom(lambda p: 0.5 * p ** 2.0, lambda p: 1.0 * p ** 1.0,
                       lambda p: 1.0 * p ** 0.0)
    well = laws.gaussian_well(3.0, 1.0)
    system = IdenticalSystem(10, 3, copy, well)
    assert solver_identical._Curve(system).reader(15.0, lambda rho: 1.0) is None
    power = IdenticalSystem(10, 3, laws.kinetic_power(0.5, 2.0), well)
    assert _outcome(solve_et, system, 15.0) == _sampled_outcome(solve_et, power, 15.0)
    assert _outcome(solve_et, system, 15.0) == _outcome(solve_et, power, 15.0)


@contextmanager
def _scanned_on(grid):
    """Every scan attempt samples ``grid``; the cached rho^a columns are dropped around it."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (rootscan, solver_identical):
            patch.setattr(module, "_grid", lambda attempt: grid)
        solver_identical._powers.cache_clear()
        try:
            yield
        finally:
            solver_identical._powers.cache_clear()


_A_LOW = math.nextafter(0.5, 0.0)  # the largest exponent at which a - 1 rounds
_EDGE = 350.0  # log2 of solver_identical._BAND


@pytest.mark.parametrize("a", [solver_identical._MAX_A, _A_LOW], ids=["max-a", "a-below-0.5"])
@pytest.mark.parametrize("quantity, log_value, read", [
    ("K", _EDGE - 0.01, True), ("K", _EDGE + 0.01, False),
    ("K", -_EDGE + 0.01, True), ("K", -_EDGE - 0.01, False),
    ("rho^a", _EDGE - 0.01, True), ("rho^a", _EDGE + 0.01, False),
    ("rho^a", -_EDGE + 0.01, True), ("rho^a", -_EDGE - 0.01, False),
    ("|rhs|", _EDGE - 0.01, True), ("|rhs|", _EDGE + 0.01, False),
    # |C2 V'(rho) rho| has no lower edge: a small g lies far below K, and is read.
    ("|rhs|", -_EDGE + 0.01, True), ("|rhs|", -_EDGE - 0.01, True),
])
def test_the_band_edges_are_read_as_sampling_reads_them(a, quantity, log_value, read):
    # N = 2 (C2 = 1) against V = coef r^0.5, scanned on five points x 2^i,
    # i = -2..2.  At x, log2 of p0, K, rho^a and |C2 V'(rho) rho| are P, k, r
    # and h: one of k, r and h sits 0.01 inside or outside the band, and the
    # others lie far inside it.  With N c a = 2, K = 2^(1 + r + a P); below
    # a = 0.5 K and rho^a differ by 2^306 or less, so that every p0 of the
    # grid lies within 2^+-100.
    far = 0.0 if a == solver_identical._MAX_A else math.copysign(306.0, log_value)
    k, r, h = {"K": (log_value, far, 0.0), "rho^a": (far, log_value, 0.0),
               "|rhs|": (0.0, 0.0, log_value)}[quantity]
    P = (k - r - 1.0) / a
    assert abs(P) <= 92.0
    x = 2.0 ** (r / a)
    Q = x * 2.0 ** P
    coefficient = 2.0 ** (h + 1.0 - r / (2.0 * a))
    system = IdenticalSystem(2, 3, laws.kinetic_power(1.0 / a, a),
                             laws.make_weighted_sum([(coefficient, laws.power(1.0, 0.5))]))
    grid = tuple(x * 2.0 ** i for i in range(-2, 3))
    sampled = []
    with _scanned_on(grid):
        reader = solver_identical._Curve(system).reader(
            Q, lambda rho: sampled.append(rho) or 1.0)
        if reader is not None:
            reader(0)
        assert (reader is not None and x not in sampled) == read
        assert _outcome(solve_et, system, Q) == _sampled_outcome(solve_et, system, Q)


def _g_alone(levels, d1, grid):
    """g on the grid read point by point, as the sample once was."""
    band, out = solver_identical._BAND, []
    for rho in grid:
        try:
            rhs, ra = levels.c2 * d1(rho) * rho, rho ** levels.a
        except (OverflowError, ValueError, ZeroDivisionError):
            rhs = ra = math.nan
        in_band = abs(rhs) <= band and 1.0 / band <= ra <= band
        out.append(rhs * ra if in_band else math.nan)
    return [v.hex() for v in out]


def test_a_derivative_that_raises_is_a_hole_of_the_one_sample_pass():
    # V'.d1 raises OverflowError on three runs of points, the first point
    # among them: the pass resumes after each, calls d1 once per point, and
    # reads g as point-by-point sampling does.  The solves find the roots
    # that sampling the residual finds.
    well = laws.gaussian_well(3.0, 1.0)

    def d1(x):
        if x < 2e-8 or 1e-3 < x < 1e-2 or x > 1e6:
            raise OverflowError("synthetic blow-up")
        return well.d1(x)

    counted, calls = _counted_d1(laws.custom(well.value, d1, well.d2))
    system = IdenticalSystem(10, 3, laws.kinetic_power(0.5, 2.0), counted)
    levels = solver_identical._Curve(system)
    grid = rootscan._grid(0)
    g = [v.hex() for v in levels._sampled(0)]
    assert calls == list(grid)
    assert g == _g_alone(levels, d1, grid)
    assert g.count(math.nan.hex()) > 40
    spec = ground_spec(10, 3)
    assert _outcome(solve_iet, system, spec).startswith("EtSolution(")
    assert _outcome(solve_iet, system, spec) == _sampled_outcome(solve_iet, system, spec)
    assert _outcome(solve_et, system, 13.5) == _sampled_outcome(solve_et, system, 13.5)


def test_each_scan_attempt_reads_its_own_columns():
    # A gaussian well of range 1e14, scanned by one system: its root lies
    # beyond the first widening, so the scan reads all three grids.  Each
    # attempt's rho^a and g are those _g_alone computes afresh on that
    # attempt's grid, and the solve finds what sampling finds.
    well = laws.gaussian_well(3e-26, 1e14)
    system = IdenticalSystem(10, 3, laws.kinetic_power(0.5, 2.0), well)
    levels = solver_identical._Curve(system)
    for attempt in range(3):
        grid = rootscan._grid(attempt)
        assert solver_identical._powers(attempt, 2.0) == [x ** 2.0 for x in grid]
        assert [v.hex() for v in levels._sampled(attempt)] == _g_alone(levels, well.d1, grid)
    outcome = _outcome(solve_et, system, 13.5)
    assert outcome.startswith("EtSolution(") and solve_et(system, 13.5).rho0 > 1e12
    assert outcome == _sampled_outcome(solve_et, system, 13.5)


def test_the_power_columns_are_bounded():
    # One column per (attempt, a) is kept, up to 16 of them: more exponents
    # than that evict the oldest, and every column still reads right.
    grid = rootscan._grid(0)
    for i in range(48):
        a = 1.0 + i / 8.0
        assert solver_identical._powers(0, a) == [x ** a for x in grid]
        assert 0 < solver_identical._powers.cache_info().currsize <= 16
