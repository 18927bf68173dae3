"""Scans: optimal detection frequency, generalized SQL, thresholds.

All searches are deterministic: a coarse (log by default) grid scan
followed by golden-section refinement of the best grid interval.  The
grid takes its values from one vectorized call when the caller has one
(a fixed model scanned over frequency, :func:`tvmeter.metrics.vc_on_grid`);
the refinement evaluates one point at a time.  The conditional variance
can have several local minima and branch jumps (notably for the
noise-cancellation scenario off resonance), so grid minima that come
within 1 percent of the refined optimum are reported as additional
branches, and optima pinned to an endpoint are flagged."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoBracket
from .metrics import MeasurementFigures

_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0

#: grid minima within this relative margin of the best one are reported
BRANCH_MARGIN = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: name, grid, and refinement tolerance."""

    name: str
    lo: float
    hi: float
    count: int = 200
    log: bool = True
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo >= self.hi:
            raise ValueError("grid endpoints must be finite with lo < hi")
        if self.count < 2:
            raise ValueError("grid needs at least two points")
        if self.log and self.lo <= 0:
            raise ValueError("log grids need positive endpoints")

    def grid(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class ScanMinimum:
    """Result of a grid-plus-refinement minimization."""

    x: float
    figures: MeasurementFigures
    value: float
    at_boundary: bool
    branches: tuple[tuple[float, float], ...] = field(default_factory=tuple)


def golden_section(f: Callable[[float], float], a: float, b: float, rel_tol: float) -> float:
    """Position of the minimum of a unimodal f on [a, b]."""
    c = b - (b - a) / _GOLDEN
    d = a + (b - a) / _GOLDEN
    fc, fd = f(c), f(d)
    while abs(c - d) > rel_tol * max(abs(c), abs(d), 1e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / _GOLDEN
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / _GOLDEN
            fd = f(d)
    return 0.5 * (a + b)


def _refine(f, grid: np.ndarray, i: int, rel_tol: float) -> tuple[float, float]:
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if lo == hi:
        return float(grid[i]), float(f(grid[i]))
    x = golden_section(f, lo, hi, rel_tol)
    fx, fg = f(x), f(grid[i])
    # refinement never returns something worse than the best grid point
    return (x, fx) if fx <= fg else (float(grid[i]), float(fg))


def minimize_on_grid(
    f: Callable[[float], float],
    spec: SweepSpec,
    f_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float, bool, tuple[tuple[float, float], ...]]:
    """Grid scan + golden refinement of every near-optimal local minimum.

    ``f_grid``, when given, returns f at every point of the grid array in
    one call (the same values as ``f``, faster); otherwise ``f`` is
    called point by point.  Returns (x, f(x), at_boundary, branches) with
    branches holding the refined secondary minima within
    ``BRANCH_MARGIN`` of the best value.
    """
    grid = spec.grid()
    if f_grid is None:
        values = np.array([f(x) for x in grid], dtype=float)
    else:
        values = np.asarray(f_grid(grid), dtype=float)
    order = int(np.argmin(values))
    locals_ = [
        i for i in range(len(grid))
        if (i == 0 or values[i] <= values[i - 1])
        and (i == len(grid) - 1 or values[i] <= values[i + 1])
    ]
    x_best, v_best = _refine(f, grid, order, spec.rel_tol)
    branches = []
    for i in locals_:
        if i == order:
            continue
        if values[i] <= v_best * (1.0 + BRANCH_MARGIN) or (
            v_best == 0.0 and values[i] <= BRANCH_MARGIN
        ):
            branches.append(_refine(f, grid, i, spec.rel_tol))
    at_boundary = order in (0, len(grid) - 1)
    return x_best, v_best, at_boundary, tuple(branches)


def minimize_vc_over_frequency(
    evaluate: Callable[[float], MeasurementFigures],
    omega_lo: float,
    omega_hi: float,
    count: int = 200,
    rel_tol: float = 1e-6,
    vc_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ScanMinimum:
    """Detection frequency minimizing the conditional variance.

    ``evaluate`` maps a detection frequency to the figures of merit of a
    fixed scenario; ``vc_grid``, when given, maps an array of
    frequencies to their conditional variances in one call and serves
    the grid scan.
    """
    spec = SweepSpec("omega", omega_lo, omega_hi, count, log=True, rel_tol=rel_tol)
    x, v, boundary, branches = minimize_on_grid(lambda w: evaluate(w).Vc, spec, vc_grid)
    return ScanMinimum(x, evaluate(x), v, boundary, branches)


def generalized_sql(
    family: Callable[[float], MeasurementFigures],
    c_lo: float,
    c_hi: float,
    count: int = 200,
    rel_tol: float = 1e-6,
) -> ScanMinimum:
    """Minimum conditional variance over cooperativity for a scenario
    family; the returned figures define the generalized SQL point."""
    spec = SweepSpec("C", c_lo, c_hi, count, log=True, rel_tol=rel_tol)
    x, v, boundary, branches = minimize_on_grid(lambda c: family(c).Vc, spec)
    return ScanMinimum(x, family(x), v, boundary, branches)


def find_threshold(
    curve: Callable[[float], float],
    level: float,
    lo: float,
    hi: float,
    rel_tol: float = 1e-6,
) -> float:
    """Bisection for curve(x) = level on [lo, hi].

    Raises :class:`NoBracket` when the endpoint values do not straddle
    the level.
    """
    flo = curve(lo) - level
    fhi = curve(hi) - level
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoBracket(
            f"curve({lo!r}) - level = {flo:.6g} and curve({hi!r}) - level = "
            f"{fhi:.6g} have the same sign"
        )
    while (hi - lo) > rel_tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        fmid = curve(mid) - level
        if fmid == 0.0:
            return mid
        if fmid * flo < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
