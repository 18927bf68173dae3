"""Scans: optimal detection frequency, generalized SQL, thresholds.

All searches are deterministic: a coarse logarithmic grid scan
followed by golden-section refinement of the best grid interval.  A
scan takes one V_c callable, and each row's grid is one call of it
(:func:`tvmeter.metrics.vc_on_grid` over a fixed model's frequencies or
over a stack of models, one per cooperativity).  The refinement runs
in lockstep: each round scores the new points of every unfinished
bracket in one call, so the rows of a sweep (the frequency scans of a
``tv sweep --optimize-frequency``, the C scans of a ``tv sql`` sweep:
one stacked solve per round) share their rounds, while each bracket
takes exactly the steps it takes alone.  The conditional variance can
have several local minima and branch jumps (notably for the
noise-cancellation scenario off resonance), so grid minima that come
within 1 percent of the refined optimum are reported as additional
branches, and optima pinned to an endpoint are flagged."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoBracket, TvmeterError
from .metrics import MeasurementFigures

_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0

#: grid minima within this relative margin of the best one are reported
BRANCH_MARGIN = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """A logarithmic grid of ``count`` points on [lo, hi] and the
    refinement tolerance of its minima."""

    lo: float
    hi: float
    count: int = 200
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo >= self.hi:
            raise ValueError("grid endpoints must be finite with lo < hi")
        if self.count < 2:
            raise ValueError("grid needs at least two points")
        if self.lo <= 0:
            raise ValueError("log grids need positive endpoints")

    def grid(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)


@dataclass(frozen=True)
class ScanMinimum:
    """Result of a grid-plus-refinement minimization."""

    x: float
    figures: MeasurementFigures
    value: float
    at_boundary: bool
    branches: tuple[tuple[float, float], ...] = field(default_factory=tuple)


def golden_section(
    f: Callable[[list[int], list[float]], Sequence[float]],
    brackets: Sequence[tuple[float, float]],
    rel_tol: float,
) -> list[float]:
    """Positions of the minima of unimodal functions, one per bracket
    (a, b), refined in lockstep.

    ``f(indices, points)`` returns in one call the value at each
    ``points[k]`` of the function of bracket ``indices[k]``: the first
    call holds both interior points of every bracket, each later call the
    one new point of every unfinished bracket.  Every bracket runs the
    scalar golden-section iteration on Python floats and stops on its
    own, so its result does not depend on the other brackets.
    """
    n = len(brackets)
    state = []  # per bracket: [a, b, c, d, f(c), f(d)]
    for a, b in brackets:
        a, b = float(a), float(b)
        state.append([a, b, b - (b - a) / _GOLDEN, a + (b - a) / _GOLDEN, 0.0, 0.0])
    if n:
        values = f([k // 2 for k in range(2 * n)], [p for s in state for p in s[2:4]])
        for k, s in enumerate(state):
            s[4], s[5] = values[2 * k], values[2 * k + 1]
    active = list(range(n))
    while active:
        asked, points, slots = [], [], []
        for k in active:
            a, b, c, d, fc, fd = state[k]
            if not abs(c - d) > rel_tol * max(abs(c), abs(d), 1e-300):
                continue
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - (b - a) / _GOLDEN
                points.append(c)
                slots.append(4)
            else:
                a, c, fc = c, d, fd
                d = a + (b - a) / _GOLDEN
                points.append(d)
                slots.append(5)
            state[k] = [a, b, c, d, fc, fd]
            asked.append(k)
        if asked:
            for k, slot, value in zip(asked, slots, f(asked, points)):
                state[k][slot] = value
        active = asked
    return [0.5 * (s[0] + s[1]) for s in state]


def _refine(f, grid: np.ndarray, values: np.ndarray, picks, rel_tol: float):
    """Golden-section refinement of grid minima, all in one lockstep.

    ``picks`` holds (row, grid index) pairs; each is refined between the
    grid neighbours of its point.  Returns (x, f(x)) per pick, or the
    grid point itself where that is not worse.
    """
    last = len(grid) - 1
    found = [(float(grid[i]), float(values[r, i])) for r, i in picks]
    live = [k for k, (_, i) in enumerate(picks) if grid[max(i - 1, 0)] != grid[min(i + 1, last)]]
    if not live:
        return found
    rows = [picks[k][0] for k in live]
    brackets = [(grid[max(picks[k][1] - 1, 0)], grid[min(picks[k][1] + 1, last)]) for k in live]
    xs = golden_section(lambda ks, points: f([rows[k] for k in ks], points), brackets, rel_tol)
    for k, x, fx in zip(live, xs, f(rows, xs)):
        # refinement never returns something worse than the best grid point
        if fx <= values[picks[k]]:
            found[k] = (x, float(fx))
    return found


def _refine_rows(f, grid: np.ndarray, values: np.ndarray, rel_tol: float, lockstep: bool = True):
    """(x, f(x), at_boundary, branches) of every row of the grid values.

    The best grid point of every row is refined first, then every local
    grid minimum within ``BRANCH_MARGIN`` of its row's refined optimum
    (a branch).  With ``lockstep`` each of the two passes is one
    lockstep refinement; without it every bracket is refined on its own,
    in the order of a scan of one row.
    """
    def refine(picks):
        if lockstep:
            return _refine(f, grid, values, picks, rel_tol)
        return [found for pick in picks for found in _refine(f, grid, values, [pick], rel_tol)]

    rows = np.arange(len(values))
    best = np.argmin(values, axis=1)
    optima = refine(list(zip(rows, best)))
    v_best = np.array([v for _, v in optima])[:, None]
    local = np.ones(values.shape, dtype=bool)
    local[:, 1:] &= values[:, 1:] <= values[:, :-1]
    local[:, :-1] &= values[:, :-1] <= values[:, 1:]
    local[rows, best] = False
    near = (values <= v_best * (1.0 + BRANCH_MARGIN)) | ((v_best == 0.0) & (values <= BRANCH_MARGIN))
    picks = [tuple(p) for p in np.argwhere(local & near)]
    branches = [[] for _ in rows]
    for (r, _), branch in zip(picks, refine(picks)):
        branches[r].append(branch)
    last = len(grid) - 1
    return [
        (x, v, bool(best[r] in (0, last)), tuple(branches[r]))
        for r, (x, v) in enumerate(optima)
    ]


def minimize_on_grid(f: Callable, spec: SweepSpec, rows: int) -> list:
    """Grid scan + golden refinement of every near-optimal local minimum
    of R = ``rows`` functions over the same grid at once.

    ``f(r, grid)`` returns the grid values of row r (an int) in one call,
    and ``f(ks, points)`` (a list ks) the value at each ``points[k]`` of
    the function of row ``ks[k]``.  Returns one (x, f(x), at_boundary,
    branches) per row, each that of a scan of the row alone, with
    branches holding the refined secondary minima within
    ``BRANCH_MARGIN`` of the best value: the refinement of all rows runs
    in lockstep, one call of ``f`` per golden-section round.

    The first failing point raises its own error.  If a grid call raises
    a :class:`TvmeterError`, every row's grid is scanned point by point,
    ``f([r], [x])``; if a lockstep round raises one, the brackets are
    refined one at a time, row by row.  If nothing fails point by point
    (or bracket by bracket), the first error stands.
    """
    grid = spec.grid()
    try:
        values = np.array([f(r, grid) for r in range(rows)], dtype=float)
    except TvmeterError:
        for r in range(rows):
            for x in grid:
                f([r], [x])
        raise
    try:
        return _refine_rows(f, grid, values, spec.rel_tol)
    except TvmeterError:
        for r in range(rows):
            f_row = lambda _, xs, r=r: f([r] * len(xs), xs)
            _refine_rows(f_row, grid, values[r : r + 1], spec.rel_tol, lockstep=False)
        raise


def _scan_minima(evaluate, spec: SweepSpec, rows: int | None, vc):
    """The minima of V_c over ``spec``'s grid, with the figures there.

    ``evaluate(x)`` gives the figures of merit at a grid coordinate x and
    ``vc(x)``, when given, the conditional variance: the grid is one call
    ``vc(grid)`` and each refinement point one call on a float.  Without
    ``vc`` the scan takes ``evaluate(x).Vc`` point by point.  ``rows`` = R
    scans R scenarios (the rows of a sweep, say) at once and returns one
    :class:`ScanMinimum` per row, each that of a scan of the row alone:
    then ``vc`` is the ``f`` of :func:`minimize_on_grid` (one call per
    row's grid and per lockstep round of all rows), and ``evaluate(rows,
    xs)`` gives the list of figures at each ``xs[k]`` of row ``rows[k]``
    (one call serves the optima of all rows).
    """
    if rows is None:
        point = vc or (lambda x: evaluate(x).Vc)
        f = lambda ks, xs: vc(xs) if vc and isinstance(ks, int) else [point(x) for x in xs]
        [(x, *found)] = minimize_on_grid(f, spec, 1)
        return ScanMinimum(x, evaluate(x), *found)
    found = minimize_on_grid(vc, spec, rows)
    optima = evaluate(list(range(rows)), [x for x, *_ in found])
    return [ScanMinimum(x, figures, v, b, br) for (x, v, b, br), figures in zip(found, optima)]


def minimize_vc_over_frequency(
    evaluate: Callable[..., MeasurementFigures | list[MeasurementFigures]],
    omega_lo: float,
    omega_hi: float,
    count: int = 200,
    rel_tol: float = 1e-6,
    rows: int | None = None,
    vc: Callable | None = None,
) -> ScanMinimum | list[ScanMinimum]:
    """Detection frequency minimizing the conditional variance of a fixed
    scenario whose figures ``evaluate`` (and V_c alone ``vc``) give at a
    frequency (of R scenarios at once, given ``rows`` = R; see :func:`_scan_minima`)."""
    spec = SweepSpec(omega_lo, omega_hi, count, rel_tol=rel_tol)
    return _scan_minima(evaluate, spec, rows, vc)


def generalized_sql(
    family: Callable[..., MeasurementFigures | list[MeasurementFigures]],
    c_lo: float,
    c_hi: float,
    count: int = 200,
    rel_tol: float = 1e-6,
    rows: int | None = None,
    vc: Callable | None = None,
) -> ScanMinimum | list[ScanMinimum]:
    """Minimum conditional variance over cooperativity for a scenario
    family whose figures ``family`` (and V_c alone ``vc``) give at a
    cooperativity (of R at once, given ``rows`` = R; see :func:`_scan_minima`);
    the returned figures define the generalized SQL point."""
    spec = SweepSpec(c_lo, c_hi, count, rel_tol=rel_tol)
    return _scan_minima(family, spec, rows, vc)


def find_threshold(
    curve: Callable[[float], float],
    level: float,
    lo: float,
    hi: float,
    rel_tol: float = 1e-6,
) -> float:
    """Brent's zeroin for curve(x) = level on [lo, hi]: inverse quadratic
    and secant steps, bisection where they make too little progress
    (R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 4).  Stops when the bracket [b, c] has half-width at most
    2 eps |b| + rel_tol |b| / 2 + 4 eps (hi - lo) (the last term serves a
    crossing at 0) and returns b, the end with the smaller |curve - level|.

    Raises :class:`NoBracket` when the endpoint values do not straddle
    the level, or when the curve is NaN at a point the search visits
    (a NaN compares neither above nor below the level).
    """
    if not lo < hi:
        raise ValueError(f"threshold bounds must satisfy lo < hi, got [{lo!r}, {hi!r}]")
    a, b = float(lo), float(hi)
    fa = float(curve(a) - level)
    fb = float(curve(b) - level)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not fa * fb < 0:
        raise NoBracket(
            f"curve({lo!r}) - level = {fa:.6g} and curve({hi!r}) - level = "
            f"{fb:.6g} do not have opposite signs"
        )
    eps = math.ulp(1.0)
    floor = 4.0 * eps * (b - a)
    c, fc = b, fb  # the first pass sets c = a
    while True:
        if (fb > 0) == (fc > 0):  # keep the crossing between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * rel_tol * abs(b) + floor
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), -q if p > 0 else q
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = float(curve(b) - level)
        if math.isnan(fb):
            raise NoBracket(f"curve({b!r}) - level is nan")
