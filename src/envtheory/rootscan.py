"""Bracketing root scan on a geometric grid, polished by regula falsi in log x.

An equation with any number of roots and no closed form is solved by the
scan (the identical solver decides a power-law balance in closed form and
never calls it): sample the residual on a geometric grid over many decades,
locate sign changes, and polish each bracket by Illinois regula falsi in
log x.  The trial interpolates the residual linearly in log x; an endpoint
kept twice in a row has its weight halved, so that both ends close in.  A
trial that rounds onto an endpoint moves one float inside.  A bracket
wider than bisection would have left it with 12 steps in hand is halved at
its geometric midpoint instead, so a polish costs at most about 13
evaluations more than bisection.  The polish stops only when the
bracket holds adjacent floats, so roots have full relative precision at any
scale and there is no tolerance to choose.  Non-finite samples (overflow of
a steep law, singular points) are treated as holes in the grid rather than
errors, since they routinely occur at the extreme ends of the scan range.
A grid is sampled in one pass, a generator extending one list (_column):
where fn raises OverflowError, ValueError or ZeroDivisionError, that point
is a hole (NaN) and the pass resumes after it, so fn is evaluated once per
point, and a value that is not finite is a hole too.
An exactly-zero sample is a root only when both of its neighbours are
nonzero: next to another zero, the residual vanishes on the whole bracket
or both of its terms have underflowed, and neither is a root.

Every scan of the package starts on [SCAN_LO, SCAN_HI] = [1e-8, 1e8]: the
identical solver's rho0, critical's u*, and the box of the N_a+1 grid start
(whose descents escape past SCAN_HI) all read the two names here.  The
grids depend on the range alone: each of a range's three grids (the
range and its two widenings) is built once and serves every later scan of
that range.  A caller that knows the residual's signs more cheaply than by
sampling it hands them to find_roots as grid values (the identical solver
reads them off a level, K(Q) against one sample of g(rho)).  The scan reads
only their signs, zeros and holes: it compares signs rather than testing
a product, which two tiny samples could underflow to zero, and evaluates fn
itself at the two ends of each bracket before the polish, so the roots are
those that sampling fn finds, bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .errors import NoRootError

__all__ = ["find_roots"]

SCAN_LO = 1e-8
SCAN_HI = 1e8

_PANELS = 400
_EXPANSIONS = 2
_EXPAND_FACTOR = 1e4
_POLISH_SLACK = 2.0 ** 12


# The errors of an evaluation that make its point a hole.
_HOLE_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


def _sample(fn: Callable[[float], float], x: float) -> float:
    try:
        v = fn(x)
    except _HOLE_ERRORS:
        return math.nan
    return v if math.isfinite(v) else math.nan


def _column(draw: Callable[[Iterator], Iterator[float]], points: Iterable) -> list[float]:
    """The values draw yields over ``points``, NaN at each point where it raises.

    ``draw`` maps an iterator of points to a generator of one value per
    point.  Where it raises one of _HOLE_ERRORS, that point (already taken
    from the iterator) reads NaN and a new draw resumes after it, so each
    point is drawn once; list.extend keeps what the generator gave before.
    """
    points = iter(points)
    out: list[float] = []
    while True:
        try:
            out.extend(draw(points))
            return out
        except _HOLE_ERRORS:
            out.append(math.nan)


def _samples(fn: Callable[[float], float], grid: tuple[float, ...]) -> list[float]:
    """[_sample(fn, x) for x in grid] for an fn of float values, in one pass over the grid."""
    isfinite, nan = math.isfinite, math.nan
    return _column(lambda points: (v if isfinite(v := fn(x)) else nan for x in points), grid)


def _polish(fn: Callable[[float], float], a: float, fa: float,
            b: float, fb: float) -> float:
    """Root of fn in (a, b), where fa and fb have opposite signs.

    Returns an exact zero where a trial hits one, else the endpoint with the
    smaller |f| once a and b are adjacent floats.
    """
    wa = wb = 1.0  # Illinois weights of fa and fb
    moved = 0  # the end the last trial replaced: -1 for a, 1 for b
    bound = _POLISH_SLACK * math.log1p((b - a) / a)
    while True:
        width = math.log1p((b - a) / a)
        if width <= bound:
            m = a + a * math.expm1(width * fa * wa / (fa * wa - fb * wb))
            if m <= a:
                m = math.nextafter(a, b)
            elif m >= b:
                m = math.nextafter(b, a)
        else:
            m = math.sqrt(a) * math.sqrt(b)
            if not a < m < b:
                m = a + 0.5 * (b - a)
        bound *= 0.5
        if not a < m < b:
            return a if abs(fa) <= abs(fb) else b
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            if moved < 0:
                wb *= 0.5
            a, fa, wa, moved = m, fm, 1.0, -1
        else:
            if moved > 0:
                wa *= 0.5
            b, fb, wb, moved = m, fm, 1.0, 1


@lru_cache(maxsize=8)
def _grid(lo: float, hi: float, attempt: int) -> tuple[float, ...]:
    """The grid find_roots(fn, lo, hi) samples on its given attempt (0, 1, 2)."""
    for _ in range(attempt):
        lo /= _EXPAND_FACTOR
        hi *= _EXPAND_FACTOR
    n = _PANELS * (attempt + 1)
    step = math.log(hi / lo) / n
    return tuple([lo] + [lo * math.exp(step * i) for i in range(1, n)] + [hi])


def find_roots(fn: Callable[[float], float], lo: float, hi: float,
               values: Callable[[tuple[float, ...]], list[float]] | None = None
               ) -> list[float]:
    """All roots of ``fn`` found by sign-change bracketing on [lo, hi] (0 < lo < hi).

    On failure the range is widened by a factor 1e4 on both ends, up to two
    times (with the panel count scaled to keep the grid density), before a
    NoRootError with a sampled trace is raised.  An exactly-zero sample next
    to another one is not a root.

    ``values``, where given, returns for a grid the values the scan reads in
    place of fn's samples: they must have fn's signs, zeros and holes (NaN),
    and nothing else of them is read.  fn is then evaluated at the two ends
    of each bracket, so the polish starts from fn's own values, and at the
    points of the failure trace.
    """
    for attempt in range(_EXPANSIONS + 1):
        grid = _grid(lo, hi, attempt)
        vals = _samples(fn, grid) if values is None else values(grid)
        roots: list[float] = []
        for i in range(len(grid) - 1):
            fa, fb = vals[i], vals[i + 1]
            if fa * fb > 0.0 or math.isnan(fa) or math.isnan(fb):
                continue  # one sign on both ends, or a hole
            if fa == 0.0:
                if fb != 0.0 and (i == 0 or vals[i - 1] != 0.0):
                    roots.append(grid[i])
            elif fb != 0.0 and (fa < 0.0) != (fb < 0.0):
                a, b = grid[i], grid[i + 1]
                if values is not None:
                    fa, fb = fn(a), fn(b)
                roots.append(_polish(fn, a, fa, b, fb))
        if vals[-1] == 0.0 and vals[-2] != 0.0:
            roots.append(grid[-1])
        if roots:
            return roots
    n = len(grid) - 1
    trace = [(grid[i], vals[i] if values is None else _sample(fn, grid[i]))
             for i in range(0, n + 1, max(1, n // 16))]
    raise NoRootError(
        f"no sign change on the scanned range up to [{grid[0]:.3g}, {grid[-1]:.3g}]",
        trace=trace)

