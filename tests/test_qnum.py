"""Quantum-number bookkeeping: aggregates, degeneracies, ground states."""

import heapq
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from envtheory import qnum
from envtheory.errors import InputError


def test_spec_aggregates():
    spec = qnum.QuantumSpec(D=3, internal_modes=((1, 2), (0, 1)))
    assert spec.nu == 2.0         # 1 + 0 + 2 * 1/2
    assert spec.lam == 4.0        # 2 + 1 + 2 * 1/2
    assert qnum.global_q(spec, 2.0) == 8.0
    assert qnum.global_q(spec, 1.5) == 7.0


def test_spec_relative_mode_aggregates():
    spec = qnum.QuantumSpec(D=4, internal_modes=((0, 0),), relative_mode=(2, 1))
    assert spec.nu_b == 2.5
    assert spec.lam_b == 2.0
    no_rel = qnum.QuantumSpec(D=4, internal_modes=((0, 0),))
    with pytest.raises(InputError):
        no_rel.nu_b
    with pytest.raises(InputError):
        no_rel.lam_b


@pytest.mark.parametrize("bad", [
    dict(D=1, internal_modes=((0, 0),)),
    dict(D=3, internal_modes=()),
    dict(D=3, internal_modes=((-1, 0),)),
    dict(D=3, internal_modes=((0, 0),), relative_mode=(0, -2)),
])
def test_spec_validation(bad):
    with pytest.raises(InputError):
        qnum.QuantumSpec(**bad)


def test_global_q_requires_positive_phi():
    spec = qnum.ground_spec(3, 3)
    with pytest.raises(InputError):
        qnum.global_q(spec, 0.0)


def test_level_degeneracy_closed_form():
    # For D >= 3 the count per d equals the difference of two simplex
    # binomials, C(l+D-1, D-1) - C(l+D-3, D-1); checking against that
    # independent form exercises the implemented expression.
    for D in (3, 4, 5, 7):
        for l in range(0, 9):
            expect = math.comb(l + D - 1, D - 1) - math.comb(l + D - 3, D - 1)
            assert qnum.level_degeneracy(l, D) == expect
            assert qnum.level_degeneracy(l, D, d=3) == 3 * expect
    # D = 2 keeps only the two planar senses of rotation.
    assert qnum.level_degeneracy(0, 2) == 1
    assert qnum.level_degeneracy(5, 2) == 2
    assert qnum.level_degeneracy(5, 2, d=4) == 8
    with pytest.raises(InputError):
        qnum.level_degeneracy(-1, 3)


def test_bgs_aggregates():
    res = qnum.bgs(5, 3)
    assert res.nu == 2.0
    assert res.lam == 2.0
    assert res.q_phi == 6.0                  # (N-1) D/2 at phi = 2
    assert res.levels == ((0, 0, 5),)
    assert qnum.bgs(5, 3, phi=1.0).q_phi == 4.0


def test_fgs_fill_atomic_fillings():
    # Electrons: D = 3, two spin states per orbital.
    cases = {2: (0.5, 0.5), 3: (1.0, 2.0), 6: (2.5, 6.5), 8: (3.5, 9.5)}
    for n_elec, (nu, lam) in cases.items():
        res = qnum.fgs_fill(n_elec, 3, 2)
        assert res.nu == nu
        assert res.lam == lam
        assert res.q_phi == 2.0 * nu + lam
        assert sum(occ for _, _, occ in res.levels) == n_elec


def test_fgs_fill_reduces_to_bgs_for_wide_levels():
    # With d >= N everybody fits in the lowest level.
    for D in (2, 3, 4):
        for N in (2, 5, 9):
            res = qnum.fgs_fill(N, D, d=N)
            ref = qnum.bgs(N, D)
            assert (res.nu, res.lam) == (ref.nu, ref.lam)


@pytest.mark.parametrize("variant,phi", [(2, 2.0), (1, 1.0)])
def test_fgs_closed_matches_brute_force(variant, phi):
    for D in (2, 3, 4):
        for d in (1, 2):
            for N in range(2, 41):
                filled = qnum.fgs_fill(N, D, d, phi)
                assert qnum.fgs_closed(N, D, d, variant) == pytest.approx(
                    filled.q_phi, abs=1e-12), (D, d, N)


def test_fgs_fill_tie_ordering_is_lower_n_first():
    # At phi = 2 the keys 2n + l tie, e.g. (1, 0) and (0, 2).  The filling
    # reports the lower-n level first, and Q_phi is tie-invariant: putting
    # the fifth particle in (0, 2) or (1, 0) gives 2 nu + lam = 11 either way.
    res = qnum.fgs_fill(5, 3, d=1, phi=2.0)
    assert res.levels == ((0, 0, 1), (0, 1, 3), (0, 2, 1))
    assert res.q_phi == 11.0


def test_fgs_fill_noninteger_phi_reorders_levels():
    # Lowering phi below 1 makes radial excitation cheaper than orbital,
    # so the second particle climbs in n instead of l.
    res = qnum.fgs_fill(2, 3, d=1, phi=0.5)
    assert res.levels == ((0, 0, 1), (1, 0, 1))
    assert res.nu == 1.5
    assert res.lam == 0.5


def test_fgs_fill_extreme_phi_enumerates_only_what_it_fills():
    # A level bound of max(2, phi) would enumerate about 1e9 l-values at
    # phi = 1e9, or 2e9 n-shells at phi = 1e-9, before filling 8 particles.
    high = qnum.fgs_fill(8, 3, 1, 1e9)
    assert high.levels == ((0, 0, 1), (0, 1, 3), (0, 2, 4))
    low = qnum.fgs_fill(8, 3, 1, 1e-9)
    assert low.levels == tuple((n, 0, 1) for n in range(8))
    assert low.q_phi == 1e-9 * low.nu + low.lam


def _fill_by_sorting(N, D, d, phi):
    """Reference filling: every level with key <= min(N, N*phi), sorted.

    The levels (0, l) with l < N, or (n, 0) with n < N, lie under that bound,
    so it always holds N particles.
    """
    bound = min(N, N * phi)
    keyed = sorted((phi * n + l, n, l) for n in range(N + 1) for l in range(N + 1)
                   if phi * n + l <= bound)
    filled, left = [], N
    for _, n, l in keyed:
        occ = min(qnum.level_degeneracy(l, D, d), left)
        filled.append((n, l, occ))
        left -= occ
        if not left:
            return tuple(filled)
    raise AssertionError("the reference bound holds fewer than N particles")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(N=st.integers(2, 100), D=st.integers(2, 5), d=st.integers(1, 3),
       phi=st.floats(0.05, 20.0).filter(lambda p: not p.is_integer()))
def test_fgs_fill_matches_a_sorted_enumeration(N, D, d, phi):
    res = qnum.fgs_fill(N, D, d, phi)
    assert res.levels == _fill_by_sorting(N, D, d, phi)
    assert res.nu == sum(occ * n for n, _, occ in res.levels) + 0.5 * (N - 1)
    assert res.lam == sum(occ * l for _, l, occ in res.levels) + 0.5 * (D - 2) * (N - 1)
    assert res.q_phi == phi * res.nu + res.lam


def test_bgs_rejects_dimension_below_two():
    with pytest.raises(InputError):
        qnum.bgs(3, 1)


@pytest.mark.parametrize("phi", [0.0, -0.0, -1.0, -math.inf])
def test_non_positive_phi_is_rejected(phi):
    # bgs used to return q_phi = 0.0 for bgs(3, 3, -1.0).
    for call in (lambda: qnum.bgs(3, 3, phi), lambda: qnum.fgs_fill(3, 3, 1, phi),
                 lambda: qnum.fgs_approx(3, 3, 1, phi),
                 lambda: qnum.global_q(qnum.ground_spec(3, 3), phi)):
        with pytest.raises(InputError, match="phi"):
            call()


@pytest.mark.parametrize("D", [1, 0, -1])
def test_fgs_closed_forms_reject_dimension_below_two(D):
    # Both closed forms count shells in D >= 2 dimensions, like bgs and fgs_fill.
    with pytest.raises(InputError):
        qnum.fgs_approx(8, D, 1)
    for variant in (2, 1):
        with pytest.raises(InputError):
            qnum.fgs_closed(8, D, 1, variant)


@pytest.mark.parametrize("D", [1, 0, -1])
def test_fgs_fill_rejects_dimension_below_two_itself(D):
    # The guard names D; level_degeneracy's message speaks of an l never passed.
    with pytest.raises(InputError) as raised:
        qnum.fgs_fill(8, D, 2)
    assert str(raised.value) == "need N >= 2, D >= 2, d >= 1, phi > 0"


def _fill_by_popping(N, D, d, phi):
    """The walk fgs_fill made before heapreplace: pop a level, push its successors."""
    heap = []

    def push(n, l):
        heapq.heappush(heap, (phi * n + l, n, l))

    push(0, 0)
    filled, left, n_sum, l_sum = [], N, 0, 0
    while left:
        _, n, l = heapq.heappop(heap)
        push(n, l + 1)
        if l == 0:
            push(n + 1, 0)
        occ = min(qnum.level_degeneracy(l, D, d), left)
        filled.append((n, l, occ))
        n_sum += occ * n
        l_sum += occ * l
        left -= occ
    nu = n_sum + 0.5 * (N - 1)
    lam = l_sum + 0.5 * (D - 2) * (N - 1)
    return tuple(filled), nu, lam, phi * nu + lam


def _same_as_popping(N, D, d, phi):
    res = qnum.fgs_fill(N, D, d, phi)
    levels, nu, lam, q_phi = _fill_by_popping(N, D, d, phi)
    assert res.levels == levels, (N, D, d, phi)
    assert (res.nu.hex(), res.lam.hex(), res.q_phi.hex()) == \
        (nu.hex(), lam.hex(), q_phi.hex()), (N, D, d, phi)


_RANDOM_PHI = [random.Random(22).uniform(0.05, 5.0) for _ in range(3)]


@pytest.mark.parametrize("phi", [1 / 3, 0.5, 1.0, 2.0, 3.0] + _RANDOM_PHI)
def test_fgs_fill_walks_levels_as_popping_did(phi):
    # Tie-heavy phi make many equal keys, whose order the tuples settle.
    for D in (2, 3, 4):
        for d in (1, 2):
            for N in (2, 3, 8, 57, 1000):
                _same_as_popping(N, D, d, phi)


@pytest.mark.parametrize("D, d, phi", [(2, 1, 1 / 3), (3, 2, 2.0), (4, 1, 1.0),
                                       (3, 1, _RANDOM_PHI[0])])
def test_fgs_fill_walks_large_fillings_as_popping_did(D, d, phi):
    _same_as_popping(100_000, D, d, phi)


def test_a_billion_fermions_at_tiny_phi_are_refused_quickly():
    start = time.perf_counter()
    with pytest.raises(InputError):
        qnum.fgs_fill(10**9, 3, 1, 1e-9)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_non_finite_phi_is_rejected(phi):
    # With phi = inf the key phi*0 + 0 is nan, and with phi = nan every key
    # is, so the fill order of fgs_fill would be undefined.
    with pytest.raises(InputError):
        qnum.fgs_fill(8, 3, 1, phi)
    with pytest.raises(InputError):
        qnum.bgs(8, 3, phi)
    with pytest.raises(InputError):
        qnum.fgs_approx(8, 3, 1, phi)


def test_a_filling_with_too_many_levels_is_refused():
    # At phi = 1e-9 almost every level holds one particle, so N = bound + 1
    # would list more levels than the bound allows.
    bound = qnum.MAX_FILL_LEVELS
    with pytest.raises(InputError, match=f"more than {bound} levels"):
        qnum.fgs_fill(bound + 1, 3, 1, 1e-9)
    # Above the bound, a filling of few levels is still listed.
    N = 2 * bound
    filled = qnum.fgs_fill(N, 3, 1, 2.0)
    assert len(filled.levels) < bound
    assert filled.q_phi == qnum.fgs_closed(N, 3, 1, variant=2)


def test_fgs_closed_variant_validation():
    with pytest.raises(InputError):
        qnum.fgs_closed(4, 3, 1, variant=3)
    with pytest.raises(InputError):
        qnum.fgs_fill(1, 3, 1)
    with pytest.raises(InputError):
        qnum.fgs_fill(4, 3, 1, phi=-2.0)


def test_fgs_approx_tracks_closed_form_at_large_n():
    for D in (2, 3, 4):
        exact = qnum.fgs_closed(4000, D, 2, variant=2)
        approx = qnum.fgs_approx(4000, D, 2, phi=2.0)
        assert approx == pytest.approx(exact, rel=0.03)


def test_ground_spec_matches_bgs():
    spec = qnum.ground_spec(6, 4)
    ref = qnum.bgs(6, 4)
    assert spec.nu == ref.nu
    assert spec.lam == ref.lam
    with pytest.raises(InputError):
        qnum.ground_spec(1, 3)


def test_split_ground_spec():
    spec = qnum.split_ground_spec(3, 3)
    assert len(spec.internal_modes) == 2
    assert spec.relative_mode == (0, 0)
    assert spec.nu == 1.0 and spec.lam == 1.0
    assert spec.nu_b == 0.5 and spec.lam_b == 0.5


def test_spec_from_filling_roundtrip():
    filling = qnum.fgs_fill(8, 3, 2)
    split = qnum.spec_from_filling(filling)
    assert split.nu == filling.nu
    assert split.lam == filling.lam
    assert split.relative_mode == (0, 0)
    ident = qnum.spec_from_filling(filling, relative_mode=None)
    assert ident.relative_mode is None
    assert qnum.global_q(ident, 2.0) == filling.q_phi


def test_spec_from_filling_rejects_fractional_aggregates():
    broken = qnum.GroundStateResult(N=3, D=3, phi=1.7, statistics="fermion",
                                    d=1, levels=((0, 0, 3),), nu=1.25,
                                    lam=1.0, q_phi=3.125)
    with pytest.raises(InputError):
        qnum.spec_from_filling(broken)
