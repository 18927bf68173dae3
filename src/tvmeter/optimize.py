"""Scans: optimal detection frequency, generalized SQL, thresholds.

All searches are deterministic: a coarse logarithmic grid scan
followed by Brent's localmin on the best grid interval.  A
scan takes one V_c callable (:func:`tvmeter.metrics.vc_on_grid` over a
fixed model's frequencies or over a stack of models, one per
cooperativity).  A C scan scores each row's grid in one call of it; the
frequency scans of several rows score the grids of up to
``GRID_POINTS`` points' worth of rows in one call, one stacked solve.
The refinement runs in lockstep: each round scores the new points of
every unfinished bracket in one call, so the rows of a sweep (the
frequency scans of a ``tv sweep --optimize-frequency``, the C scans of
a ``tv sql`` sweep: one stacked solve per round) share their rounds,
while each bracket takes exactly the steps it takes alone.  The
conditional variance can have several local minima and branch jumps
(notably for the noise-cancellation scenario off resonance), so grid
minima that come within 1 percent of the refined optimum are reported
as additional branches, and optima pinned to an endpoint are flagged.
A grid minimum that its neighbours match within the rounding of V_c
(a curve flat to rounding, as where the measurement is too weak to
condition) is not a branch (see :func:`_refine_rows`)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoBracket, TvmeterError
from .metrics import MeasurementFigures

#: Brent's golden-section step, as a share of the larger part of [a, b]
_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = math.ulp(1.0)

#: golden-section steps before parabolic ones (earlier can miss a dip)
GOLDEN_STEPS = 4

#: grid minima within this relative margin of the best one are reported
BRANCH_MARGIN = 0.01

#: grid points a frequency scan of several rows scores per V_c call: the
#: grids of up to this many points' worth of rows go in one stacked solve.
#: The calls reuse the work array each thread keeps (``core._WorkArrays``),
#: so this size no longer decides whether glibc maps their largest
#: temporaries again on every call.
GRID_POINTS = 800


def _check_rel_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and non-negative, got {rel_tol!r}")


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
        _check_rel_tol(self.rel_tol)

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


def _localmin(a: float, b: float, rel_tol: float):
    """Brent's localmin on [a, b] (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5) as a coroutine on Python floats: it
    yields lists of points to score, is sent their values, and returns x,
    the point of least value, once [a, b] lies within 2 tol of x; w is the
    second best point, v the previous w, d the last step, e the one before."""
    x = w = v = a + _STEP * (b - a)
    fx = fw = fv = d = e = 0.0
    floor = _EPS * (b - a)
    for step in itertools.count():
        m, tol = 0.5 * (a + b), (_EPS + 0.1 * rel_tol) * abs(x) + floor
        if step and abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = -p if q > 0 else p, abs(q)
        if (step >= GOLDEN_STEPS and abs(e) > tol and abs(p) < abs(0.5 * q * e)
                and q * (a - x) < p < q * (b - x)):  # the parabola's vertex, inside
            e, d = d, p / q
            if min(x + d - a, b - (x + d)) < 2.0 * tol:
                d = math.copysign(tol, m - x)
        else:  # a golden-section step into the larger part
            e = (a if x >= m else b) - x
            d = _STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        *first, fu = yield [u] if step else [x, u]  # the first round scores x too
        if first:
            fx = fw = fv = first[0]
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu


def golden_section(
    f: Callable[[list[int], list[float]], Sequence[float]],
    brackets: Sequence[tuple[float, float]],
    rel_tol: float,
) -> list[float]:
    """The best points of functions, one per bracket (a, b), refined in
    lockstep by Brent's localmin (:func:`_localmin`; the name is that of
    the golden-section refiner it replaced, which tracers wrap).

    ``f(indices, points)`` returns in one call the value at each
    ``points[k]`` of the function of bracket ``indices[k]``: the first
    call holds two interior points of every bracket, each later call the
    one new point of every unfinished bracket.  Every bracket stops on its
    own, so its point is that of the bracket alone.
    """
    _check_rel_tol(rel_tol)
    runs = [_localmin(float(a), float(b), rel_tol) for a, b in brackets]
    asked, found = {k: next(run) for k, run in enumerate(runs)}, [0.0] * len(runs)
    while asked:
        ks = [k for k, us in asked.items() for _ in us]
        values = iter(f(ks, [u for us in asked.values() for u in us]))
        sent, asked = {k: [float(next(values)) for _ in us] for k, us in asked.items()}, {}
        for k, fus in sent.items():
            try:
                asked[k] = runs[k].send(fus)
            except StopIteration as stop:
                found[k] = stop.value
    return found


def _refine(f, grid: np.ndarray, values: np.ndarray, picks, rel_tol: float):
    """Lockstep refinement of grid minima by :func:`golden_section`.

    ``picks`` holds (row, grid index) pairs; each is refined between the
    grid neighbours of its point.  Returns (x, f(x)) per pick, with the
    f(x) that ``f`` gave, or the grid point itself where that is not worse.
    """
    rows = [r for r, _ in picks]
    brackets = [(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]) for _, i in picks]
    seen = {}  # (bracket, point) -> the value f gave
    def scored(ks, points):
        seen.update(zip(zip(ks, points), out := f([rows[k] for k in ks], points)))
        return out
    found = [(float(grid[i]), float(values[r, i])) for r, i in picks]
    for k, x in enumerate(golden_section(scored, brackets, rel_tol)):
        if seen[k, x] <= found[k][1]:  # never worse than the best grid point
            found[k] = (x, float(seen[k, x]))
    return found


def _refine_rows(f, grid: np.ndarray, values: np.ndarray, rel_tol: float):
    """(x, f(x), at_boundary, branches) of every row of the grid values.

    The best grid point of every row is refined first, then every local
    grid minimum within ``BRANCH_MARGIN`` of its row's refined optimum
    (a branch); each of the two passes is one lockstep refinement.

    A local minimum whose grid neighbours (one, at an end of the grid)
    all lie within the rounding of V_c of it is flat to rounding, not a
    branch.  V_c = V_ss - |V_sm|^2 / V_mm (with an ancilla, the Schur
    complement on both channels) is a difference of rounded numbers: to
    first order in the unit roundoff u = eps / 2, it carries V_ss's
    rounding, u V_ss, the difference's, u |V_c|, and that of the
    conditioning term.  Where conditioning takes nothing off (the term
    below rounding, so V_ss = V_c: a measurement too weak to resolve
    the signal), each value lies within 2u |V_c| of the exact one, and
    two values of such a flat curve within 4u |V_c| = 2 eps |V_c| of
    each other; that is the bound.  Where conditioning acts, V_c can
    round more coarsely than that, and such minima stay branches.
    """
    rows = np.arange(len(values))
    best = np.argmin(values, axis=1)
    optima = _refine(f, grid, values, list(zip(rows, best)), rel_tol)
    v_best = np.array([v for _, v in optima])[:, None]
    local = np.ones(values.shape, dtype=bool)
    local[:, 1:] &= values[:, 1:] <= values[:, :-1]
    local[:, :-1] &= values[:, :-1] <= values[:, 1:]
    local[rows, best] = False
    step, bound = np.abs(np.diff(values, axis=1)), 2.0 * _EPS * np.abs(values)
    flat = np.ones(values.shape, dtype=bool)  # no neighbour beyond the rounding of V_c
    flat[:, 1:] &= step <= bound[:, 1:]
    flat[:, :-1] &= step <= bound[:, :-1]
    near = (values <= v_best * (1.0 + BRANCH_MARGIN)) | ((v_best == 0.0) & (values <= BRANCH_MARGIN))
    picks = [tuple(p) for p in np.argwhere(local & near & ~flat)]
    branches = [[] for _ in rows]
    for (r, _), branch in zip(picks, _refine(f, grid, values, picks, rel_tol)):
        branches[r].append(branch)
    last = len(grid) - 1
    return [
        (x, v, bool(best[r] in (0, last)), tuple(branches[r]))
        for r, (x, v) in enumerate(optima)
    ]


def minimize_on_grid(f: Callable, spec: SweepSpec, rows: int, block: int = 1) -> list:
    """Grid scan + refinement of every near-optimal local minimum
    of R = ``rows`` functions over the same grid at once.

    ``f(r, grid)`` returns the grid values of row r (an int) in one call,
    and ``f(ks, points)`` (a list ks) the value at each ``points[k]`` of
    the function of row ``ks[k]``.  With ``block`` > 1 the grids of up to
    ``block`` rows go in one call ``f(ks, grids)``, ``grids[k]`` the grid
    of row ``ks[k]`` (a 2-d array), which returns the values as an array
    of that shape.  Returns one (x, f(x), at_boundary, branches) per row,
    each that of a scan of the row alone, with branches holding the
    refined secondary minima within ``BRANCH_MARGIN`` of the best value:
    the refinement of all rows runs in lockstep, one call of ``f`` per
    round.

    The first failing point raises its own error, the one a loop of
    one-row scans raises.  If any call raises a :class:`TvmeterError`,
    the rows are scanned again one at a time, in order, each point its
    own call ``f([r], [x])`` on a Python float: row r's grid, then its
    refinement.  If nothing fails point by point, the first error stands.
    """
    grid = spec.grid()
    try:
        values = np.empty((rows, len(grid)))
        for lo in range(0, rows, block):
            ks = list(range(lo, min(lo + block, rows)))
            values[lo:lo + len(ks)] = (f(lo, grid) if len(ks) == 1 else
                                       f(ks, np.broadcast_to(grid, (len(ks), len(grid)))))
        return _refine_rows(f, grid, values, spec.rel_tol)
    except TvmeterError:
        for r in range(rows):
            f_row = lambda _, xs, r=r: [v for x in xs for v in f([r], [x])]
            _refine_rows(f_row, grid, np.array([f_row(r, grid.tolist())]), spec.rel_tol)
        raise


def _scan_minima(evaluate, spec: SweepSpec, rows: int | None, vc, block: int = 1):
    """The minima of V_c over ``spec``'s grid, with the figures there.

    ``evaluate(x)`` gives the figures of merit at a grid coordinate x and
    ``vc(x)``, when given, the conditional variance: the grid is one call
    ``vc(grid)`` and each refinement point one call on a float.  Without
    ``vc`` the scan takes ``evaluate(x).Vc`` point by point.  ``rows`` = R
    scans R scenarios (the rows of a sweep, say) at once and returns one
    :class:`ScanMinimum` per row, each that of a scan of the row alone:
    then ``vc`` is the ``f`` of :func:`minimize_on_grid` (one call per
    ``block`` rows' grids and per lockstep round of all rows), and
    ``evaluate(rows, xs)`` gives the list of figures at each ``xs[k]`` of
    row ``rows[k]`` (one call serves the optima of all rows).
    """
    if rows is None:
        point = vc or (lambda x: evaluate(x).Vc)
        f = lambda ks, xs: vc(xs) if vc and isinstance(ks, int) else [point(x) for x in xs]
        [(x, *found)] = minimize_on_grid(f, spec, 1)
        return ScanMinimum(x, evaluate(x), *found)
    found = minimize_on_grid(vc, spec, rows, block)
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
    frequency (of R scenarios at once, given ``rows`` = R; see :func:`_scan_minima`).
    The R grids are scored ``GRID_POINTS // count`` rows per call of ``vc``."""
    spec = SweepSpec(omega_lo, omega_hi, count, rel_tol=rel_tol)
    return _scan_minima(evaluate, spec, rows, vc, max(1, GRID_POINTS // count))


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
    _check_rel_tol(rel_tol)
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
    floor = 4.0 * _EPS * (b - a)
    c, fc = b, fb  # the first pass sets c = a
    while True:
        if (fb > 0) == (fc > 0):  # keep the crossing between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * rel_tol * abs(b) + floor
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
