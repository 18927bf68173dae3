"""Frequency/cooperativity scans and threshold location."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmeter import (
    FOUR_MODE,
    BathSpec,
    CqncParams,
    DegenerateMeter,
    DisplacementParams,
    ImperfectQndParams,
    LinearModel,
    NoBracket,
    Regime,
    SweepSpec,
    c_sql,
    check_stable,
    cqnc_model,
    decompose_drift,
    displacement_model,
    evaluate,
    find_threshold,
    floquet_metrics,
    floquet_vc,
    generalized_sql,
    golden_section,
    ideal_qnd_model,
    imperfect_qnd_model,
    minimize_vc_over_frequency,
    vc_on_grid,
)
from tvmeter.errors import UnstableModel
from tvmeter.optimize import minimize_on_grid

KAPPA, GAMMA, OMEGA_M = 10.0, 0.01, 1.0
FIG_BATH = BathSpec(n_m=1.0)


def _one_row(f):
    """``f`` of one variable as the one row of `minimize_on_grid`, point by point."""
    return lambda _, xs: [f(x) for x in xs]


class TestGoldenSection:
    def test_parabola(self):
        [x] = golden_section(lambda _, xs: [(x - 2.3) ** 2 for x in xs], [(0.0, 5.0)], 1e-9)
        assert x == pytest.approx(2.3)

    def test_refinement_never_worse_than_grid(self):
        f = lambda x: np.cos(3 * x) + 0.1 * x
        spec = SweepSpec(0.1, 10.0, count=40)
        [(x, v, boundary, _)] = minimize_on_grid(_one_row(f), spec, 1)
        assert v <= min(f(g) for g in spec.grid()) + 1e-15

    def test_refinement_reuses_the_grid_values(self):
        spec = SweepSpec(0.1, 10.0, count=40)
        calls = []
        g = lambda x: (np.log(x) - 0.3) ** 2

        def f(rows, xs):
            if isinstance(rows, int):  # the grid, in one call
                return g(xs)
            calls.extend(xs)
            return [g(x) for x in xs]

        [(x, v, _, _)] = minimize_on_grid(f, spec, 1)
        assert not set(calls) & set(spec.grid())
        assert (x, v) == minimize_on_grid(_one_row(g), spec, 1)[0][:2]

    def test_grid_error_stands_when_no_point_fails(self):
        spec = SweepSpec(0.1, 10.0, count=40)

        def f(rows, xs):
            if isinstance(rows, int):
                raise DegenerateMeter("grid only")
            return [(np.log(x) - 0.3) ** 2 for x in xs]

        with pytest.raises(DegenerateMeter, match="grid only"):
            minimize_on_grid(f, spec, 1)


def _bracket_function(kind, center, step):
    """One bracket's function: a parabola, a staircase (ties fc == fd on
    every stair) or a constant (ties everywhere)."""
    if kind == "parabola":
        return lambda x: (x - center) ** 2
    if kind == "staircase":
        return lambda x: float(np.floor(abs(x - center) / step))
    return lambda x: 1.0


_BRACKETS = st.lists(
    st.tuples(
        st.floats(-1e3, 1e3),                       # a
        st.floats(1e-6, 1e3),                       # b - a
        st.sampled_from(["parabola", "staircase", "constant"]),
        st.floats(0.0, 1.0),                        # centre, as a fraction of [a, b]
        st.floats(1e-3, 1.0),                       # stair width, as a fraction of b - a
    ),
    min_size=1, max_size=8,
)


def _scalar_golden_section(f, a, b, rel_tol):
    """The one-bracket golden-section loop, point by point."""
    phi = (np.sqrt(5.0) + 1.0) / 2.0
    c, d = b - (b - a) / phi, a + (b - a) / phi
    fc, fd = f(c), f(d)
    while abs(c - d) > rel_tol * max(abs(c), abs(d), 1e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / phi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / phi
            fd = f(d)
    return 0.5 * (a + b)


class TestLockstepGoldenSection:
    """Brackets refined in lockstep against one call per bracket and
    against the point-by-point loop."""

    @settings(max_examples=60)
    @given(cases=_BRACKETS, rel_tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_same_positions_as_one_bracket_at_a_time(self, cases, rel_tol):
        brackets, fns = [], []
        for a, width, kind, centre, stair in cases:
            b = a + width
            brackets.append((a, b))
            fns.append(_bracket_function(kind, a + centre * width, stair * width))
        rounds = []

        def f(indices, points):
            rounds.append(list(indices))
            return [fns[k](x) for k, x in zip(indices, points)]

        together = golden_section(f, brackets, rel_tol)
        alone = [
            golden_section(lambda _, xs, g=g: [g(x) for x in xs], [bracket], rel_tol)[0]
            for g, bracket in zip(fns, brackets)
        ]
        assert together == alone
        assert together == [_scalar_golden_section(g, a, b, rel_tol)
                            for g, (a, b) in zip(fns, brackets)]
        # the first round holds both interior points of every bracket, each
        # later one the new point of every unfinished bracket
        assert rounds[0] == [k for k in range(len(brackets)) for _ in (0, 1)]
        for before, after in zip(rounds[1:], rounds[2:]):
            assert set(after) <= set(before)

    def test_brackets_finish_in_different_rounds(self):
        rounds = []

        def f(indices, points):
            rounds.append(list(indices))
            return [(x - 0.3) ** 2 for x in points]

        xs = golden_section(f, [(0.0, 1.0), (0.299, 0.301), (0.0, 1.0)], 1e-6)
        assert xs[0] == xs[2] == pytest.approx(0.3, rel=1e-6)
        assert 1 in rounds[1] and 1 not in rounds[-1]
        assert rounds[-1] == [0, 2]

    def test_no_brackets(self):
        assert golden_section(lambda ks, xs: pytest.fail("no call expected"), [], 1e-6) == []


def _double_well(depth):
    """Minima at x = 0.1 and x = 10; the one at 10 is ``depth`` deeper."""
    return lambda x: min((np.log10(x) + 1) ** 2, (np.log10(x) - 1) ** 2 - depth) + 1.0


class TestLockstepScan:
    """minimize_on_grid over several rows against one scan per row."""

    SPEC = SweepSpec(1e-3, 1e3, count=121)
    DEPTHS = [0.0, 0.004, 0.5, -0.003, -0.5]

    def _rows(self, fail=None, grid_fails=False):
        """The rows' functions and their ``f``; ``fail`` applies point by
        point, and a grid call raises only with ``grid_fails``."""
        fns = [_double_well(d) for d in self.DEPTHS]

        def f(rows, xs):
            if isinstance(rows, int):  # the grid of one row, in one call
                if grid_fails:
                    raise DegenerateMeter("grid only")
                return [fns[rows](x) for x in xs]
            out = []
            for r, x in zip(rows, xs):
                if fail is not None and fail(r, x):
                    raise DegenerateMeter(f"row {r} fails at {x!r}")
                out.append(fns[r](x))
            return out

        return fns, f

    @staticmethod
    def _row(f, r):
        """Row r of ``f`` as the one row of a scan."""
        return lambda rows, xs: f(r if isinstance(rows, int) else [r] * len(xs), xs)

    @staticmethod
    def _tracked(f, points):
        """``f``, collecting the points of its refinement in ``points``."""
        def tracked(rows, xs):
            if not isinstance(rows, int):
                points.extend(xs)
            return f(rows, xs)
        return tracked

    def test_same_scans_as_one_row_at_a_time(self):
        fns, f = self._rows()
        points, alone = [], []
        together = minimize_on_grid(self._tracked(f, points), self.SPEC, len(fns))
        assert together == [minimize_on_grid(_one_row(g), self.SPEC, 1)[0] for g in fns]
        assert [len(found[3]) for found in together] == [1, 1, 0, 1, 0]
        # the lockstep rounds score the points of the one-row scans, once each
        for r in range(len(fns)):
            minimize_on_grid(self._tracked(self._row(f, r), alone), self.SPEC, 1)
        assert sorted(points) == sorted(alone)

    def test_grid_of_every_row_is_one_call(self):
        fns, f = self._rows()
        grids = []

        def counted(rows, xs):
            if isinstance(rows, int):
                grids.append((rows, list(xs)))
            return f(rows, xs)

        assert minimize_on_grid(counted, self.SPEC, len(fns)) == [
            minimize_on_grid(_one_row(g), self.SPEC, 1)[0] for g in fns
        ]
        assert grids == [(r, list(self.SPEC.grid())) for r in range(len(fns))]

    def test_refinement_failure_raises_the_first_bracket_of_a_one_row_scan(self):
        # row 3 fails in the first round of its branch refinement (near
        # x = 10), row 1 only in the last rounds of its own (near x = 0.1);
        # scanned one row at a time, row 1 fails first
        def fail(r, x):
            return (r == 3 and 9.0 < x < 11.0) or (r == 1 and 0.0999 < x < 0.1001)

        fns, f = self._rows(fail)
        with pytest.raises(DegenerateMeter, match="row 1 fails") as together:
            minimize_on_grid(f, self.SPEC, len(fns))
        with pytest.raises(DegenerateMeter) as alone:
            for r in range(len(fns)):
                minimize_on_grid(self._row(f, r), self.SPEC, 1)
        assert str(together.value) == str(alone.value)

    def test_grid_failure_raises_the_first_failing_point(self):
        fns, f = self._rows(lambda r, x: r >= 2 and x > 100.0, grid_fails=True)
        grid = self.SPEC.grid()
        with pytest.raises(DegenerateMeter) as err:
            minimize_on_grid(f, self.SPEC, len(fns))
        assert str(err.value) == f"row 2 fails at {grid[np.argmax(grid > 100.0)]!r}"


class TestFrequencyOptimization:
    def _scan(self, C, **kw):
        model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
        return minimize_vc_over_frequency(
            lambda w: evaluate(model, w), 0.2 * OMEGA_M, 1e3 * OMEGA_M, **kw
        )

    def test_below_sql_optimum_on_resonance(self):
        res = self._scan(0.05)
        assert res.x == pytest.approx(OMEGA_M, rel=0.02)

    def test_beyond_sql_optimum_moves_up(self):
        res = self._scan(1e3)
        assert res.x > OMEGA_M
        # conditional variance saturates near the initial variance
        res_huge = self._scan(1e6)
        assert res_huge.value < 1.5 * 1.01

    def test_ideal_qnd_optimum_at_carrier(self):
        model = ideal_qnd_model(KAPPA, GAMMA, FIG_BATH, C=1.0)
        res = minimize_vc_over_frequency(
            lambda w: evaluate(model, w), 1e-7, 1e2, count=300
        )
        # Vc(omega) is even with its minimum at 0; the scan pins the floor
        assert res.value == pytest.approx(evaluate(model, 0.0).Vc, rel=1e-3)
        assert res.at_boundary

    def test_determinism(self):
        a = self._scan(10.0)
        b = self._scan(10.0)
        assert a.x == b.x and a.value == b.value

    def test_near_degenerate_minima_reported_as_branches(self):
        # double well with minima of equal depth at x = 0.1 and x = 10
        f = lambda x: min((np.log10(x) + 1) ** 2, (np.log10(x) - 1) ** 2) + 1.0
        spec = SweepSpec(1e-3, 1e3, count=121)
        [(x, v, boundary, branches)] = minimize_on_grid(_one_row(f), spec, 1)
        assert len(branches) == 1
        xs = sorted([x, branches[0][0]])
        assert xs[0] == pytest.approx(0.1, rel=1e-4)
        assert xs[1] == pytest.approx(10.0, rel=1e-4)

    @pytest.mark.parametrize("C", [0.05, 10.0, 1e3, 1e8])
    @pytest.mark.parametrize("conditioning", ["meter", "meter+ancilla"])
    def test_stacked_grid_gives_the_scalar_scan(self, C, conditioning):
        model = cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
        f = lambda w: evaluate(model, w, conditioning=conditioning)
        scalar = minimize_vc_over_frequency(f, 1e-2, 1e3)
        stacked = minimize_vc_over_frequency(
            f, 1e-2, 1e3, vc=lambda ws: vc_on_grid(model, ws, conditioning=conditioning)
        )
        assert stacked == scalar

    def test_vc_scores_the_grid_in_one_call_then_floats(self):
        model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=1.0), FIG_BATH)
        calls = []

        def vc(w):
            calls.append(w)
            return vc_on_grid(model, w)

        f = lambda w: evaluate(model, w)
        res = minimize_vc_over_frequency(f, 0.2, 1e3, vc=vc)
        assert np.array_equal(calls[0], SweepSpec(0.2, 1e3).grid())
        assert len(calls) > 1 and all(type(w) is float for w in calls[1:])
        assert res == minimize_vc_over_frequency(f, 0.2, 1e3)

    def test_cqnc_off_resonant_qnd(self):
        model = cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=1e8), FIG_BATH)
        res = minimize_vc_over_frequency(
            lambda w: evaluate(model, w, conditioning="meter+ancilla"),
            1e-2 * OMEGA_M, 1e3 * OMEGA_M,
        )
        assert res.figures.regime is Regime.QND


class TestGeneralizedSql:
    def test_displacement_matches_formula(self):
        def family(C):
            model = displacement_model(
                DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH
            )
            return evaluate(model, OMEGA_M)

        res = generalized_sql(family, 1e-3, 1e3)
        assert res.x == pytest.approx(c_sql(KAPPA, GAMMA, OMEGA_M, OMEGA_M), rel=0.2)
        assert not res.at_boundary

    @pytest.mark.parametrize(
        "kappa, gamma, omega_m, omega, n_m",
        [
            (10.0, 0.01, 1.0, 1.0, 1.0),
            (1.0, 0.1, 1.0, 1.0, 0.0),
            (2.0, 0.05, 1.0, 0.7, 3.0),
            (0.5, 0.01, 1.0, 1.3, 1.0),
        ],
    )
    def test_displacement_argmin_is_noise_balance(self, kappa, gamma, omega_m, omega, n_m):
        # the V_c minimum over C sits where imprecision and backaction
        # balance in the measured output, |S_YX| = |S_YY|
        bath = BathSpec(n_m=n_m)

        def family(C):
            model = displacement_model(DisplacementParams(kappa, gamma, omega_m, C=C), bath)
            return evaluate(model, omega)

        res = generalized_sql(family, 1e-3, 1e4)
        assert not res.at_boundary
        assert res.x == pytest.approx(c_sql(kappa, gamma, omega_m, omega), rel=1e-5)

    def test_ideal_qnd_monotone_flags_boundary(self):
        def family(C):
            return evaluate(ideal_qnd_model(KAPPA, GAMMA, FIG_BATH, C=C), 0.0)

        res = generalized_sql(family, 1e-3, 1e3)
        assert res.at_boundary
        assert res.x == pytest.approx(1e3, rel=1e-6)

    def test_nu_family_qnd_attainability(self):
        def family_at(nu_over_gamma, eta):
            bath = BathSpec(n_m=1.0, eta=eta)

            def family(C):
                p = ImperfectQndParams(KAPPA, GAMMA, C=C, nu=nu_over_gamma * GAMMA)
                return evaluate(imperfect_qnd_model(p, bath), 0.0, bath=bath)

            return family

        assert generalized_sql(family_at(0.1, 1.0), 1e-3, 1e3).value < 0.5
        assert generalized_sql(family_at(0.13, 1.0), 1e-3, 1e3).value > 0.5


def _sql_cases():
    """(id, family builder at C (float or array), vc of a built point, bath, omega)."""
    lossy = BathSpec(n_m=1.0, eta=0.6)

    def model_case(build, bath, omega, conditioning="meter"):
        family = lambda C: evaluate(build(C, bath), omega, bath=bath, conditioning=conditioning)
        grid = lambda Cs: vc_on_grid(build(Cs, bath), omega, bath=bath, conditioning=conditioning)
        return family, grid

    def floquet_case(kappa, bath, omega):
        family = lambda C: floquet_metrics(decompose_drift(kappa, GAMMA, OMEGA_M, C=C), bath, omega)
        grid = lambda Cs: floquet_vc(decompose_drift(kappa, GAMMA, OMEGA_M, C=Cs), bath, omega)
        return family, grid

    displacement = lambda C, b: displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), b)
    yield "displacement", model_case(displacement, FIG_BATH, OMEGA_M)
    yield "displacement-eta0.6", model_case(displacement, lossy, OMEGA_M)
    yield "qnd-ideal", model_case(lambda C, b: ideal_qnd_model(KAPPA, GAMMA, b, C=C), FIG_BATH, 0.0)
    cqnc = lambda C, b: cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=C), b)
    yield "cqnc-meter+ancilla", model_case(cqnc, FIG_BATH, 2.2, "meter+ancilla")
    yield "cqnc-eta0.7", model_case(cqnc, BathSpec(n_m=1.0, eta=0.7), OMEGA_M)
    nu_model = lambda C, b: imperfect_qnd_model(ImperfectQndParams(KAPPA, GAMMA, C=C, nu=0.1 * GAMMA), b)
    yield "qnd-imperfect-nu0.1", model_case(nu_model, FIG_BATH, 0.0)
    yield "qnd-imperfect-eta0.6", model_case(nu_model, lossy, 0.003)
    yield "qnd-floquet", floquet_case(0.5, FIG_BATH, 0.0)
    yield "qnd-floquet-eta0.6", floquet_case(0.3, lossy, 0.1)


class TestStackedCooperativityGrid:
    """generalized_sql with the C grid from one stacked solve against the
    point-by-point scan."""

    @pytest.mark.parametrize("family, vc", [c[1] for c in _sql_cases()],
                             ids=[c[0] for c in _sql_cases()])
    def test_same_scan_bit_for_bit(self, family, vc):
        grid = SweepSpec(1e-3, 1e3).grid()
        assert list(vc(grid)) == [family(C).Vc for C in grid]
        scalar = generalized_sql(family, 1e-3, 1e3)
        assert generalized_sql(family, 1e-3, 1e3, vc=vc) == scalar

    @staticmethod
    def _toy(static, coupling):
        """Builder of a decoupled-cavity model whose meter is squeezed to
        2.5e-17, so that it is degenerate wherever the mechanics adds
        (almost) nothing to it; the drift is static + C * coupling."""
        def build(C):
            A = np.asarray(static) + np.multiply.outer(C, np.asarray(coupling, dtype=float))
            check_stable(A)
            return LinearModel(A, np.diag([np.sqrt(2.0)] * 2 + [1.0] * 2),
                               np.diag([1e16, 2.5e-17, 0.5, 0.5]), FOUR_MODE)
        return build

    def _both_raise(self, build, lo, hi, error):
        family = lambda C: evaluate(build(C), 0.0)
        with pytest.raises(error) as scalar:
            generalized_sql(family, lo, hi)
        with pytest.raises(error) as stacked:
            generalized_sql(family, lo, hi, vc=lambda Cs: vc_on_grid(build(Cs), 0.0))
        with pytest.raises(error) as rows:
            generalized_sql(lambda ks, Cs: evaluate(build(np.asarray(Cs)), 0.0), lo, hi, rows=1,
                            vc=lambda ks, Cs: vc_on_grid(build(np.asarray(Cs)), 0.0))
        assert str(stacked.value) == str(rows.value) == str(scalar.value)

    def test_degenerate_meter_before_an_unstable_model(self):
        # the mechanics feeds the meter as C; its damping 1 - C turns
        # negative above C = 1, while below C ~ 1e-7 the meter is degenerate
        build = self._toy(-np.eye(4), [[0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        self._both_raise(build, 1e-9, 1e2, DegenerateMeter)

    def test_unstable_model_before_a_degenerate_meter(self):
        # damping C - 1 is negative below C = 1, and the strongly damped
        # mechanics leaves the meter degenerate above C ~ 1e7
        static = -np.eye(4)
        static[1, 2], static[2, 2] = -1.0, 1.0
        build = self._toy(static, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])
        self._both_raise(build, 1e-2, 1e9, UnstableModel)

    def test_singular_model_after_a_degenerate_meter(self):
        # without the stability check, C = 1 leaves the mechanics undamped:
        # (A + i w I) is singular there, after the degenerate meter points
        def build(C):
            A = -np.eye(4) + np.multiply.outer(
                C, np.array([[0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 1, 0], [0, 0, 0, 0]], dtype=float))
            return LinearModel(A, np.diag([np.sqrt(2.0)] * 2 + [1.0] * 2),
                               np.diag([1e16, 2.5e-17, 0.5, 0.5]), FOUR_MODE)
        grid = np.logspace(-9, 2, 12)  # holds C = 1 exactly
        with pytest.raises(DegenerateMeter) as scalar:
            for C in grid:
                evaluate(build(C), 0.0)
        with pytest.raises(DegenerateMeter) as stacked:
            vc_on_grid(build(grid), 0.0)
        assert str(stacked.value) == str(scalar.value)


class TestFindThreshold:
    def test_ideal_qnd_cooperativity_threshold(self):
        def vc(C):
            return evaluate(ideal_qnd_model(KAPPA, GAMMA, FIG_BATH, C=C), 0.0).Vc

        got = find_threshold(vc, 0.5, 1e-4, 10.0)
        assert got == pytest.approx(1 / 24, rel=1e-6)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_threshold(lambda x: x, 5.0, 0.0, 1.0)

    def test_exact_endpoint(self):
        assert find_threshold(lambda x: x, 0.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("level, curve", [
        (float("nan"), lambda x: x),
        (0.5, lambda x: float("nan") if x == 0.0 else x),
        (0.5, lambda x: x if x == 0.0 else float("nan")),
    ], ids=["nan-level", "nan-at-lo", "nan-at-hi"])
    def test_nan_endpoint_is_no_bracket(self, level, curve):
        with pytest.raises(NoBracket, match="nan"):
            find_threshold(curve, level, 0.0, 1.0)

    def test_nan_inside_the_bracket_stops_the_bisection(self):
        # NaN on an interval around the root: any bracketing search must
        # visit it before it can return
        with pytest.raises(NoBracket, match=r"curve\(0\.[23]\d*\) - level is nan"):
            find_threshold(lambda x: float("nan") if 0.2 < x < 0.4 else x, 0.3, 0.0, 1.0)

    @pytest.mark.parametrize("curve, level, lo, hi, root, most", [
        (math.exp, 2.0, 0.0, 10.0, math.log(2.0), 12),
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 0.0, 1.0, 0.3, 13),
        (lambda x: 1.0 / x, 3.0, 0.01, 10.0, 1.0 / 3.0, 15),
        (lambda x: x**3, 0.0, -1.0, 2.0, 0.0, 203),
        (lambda x: math.atan(1e6 * (x - 0.37)), 0.0, 0.0, 1.0, 0.37, 24),
    ], ids=["exp", "tanh-step", "reciprocal", "cube-at-zero", "atan-step"])
    def test_evaluation_count(self, curve, level, lo, hi, root, most):
        # bisection takes 26 evaluations for exp and 24 for tanh-step; the
        # cube's root at 0 needs the absolute floor of the tolerance, and
        # 203 evaluations is bisection's count there
        xs = []
        got = find_threshold(lambda x: xs.append(x) or curve(x), level, lo, hi)
        assert len(xs) <= most
        assert got == pytest.approx(root, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (float("nan"), 1.0)])
    def test_bounds_must_be_ordered(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            find_threshold(lambda x: pytest.fail("no call expected"), 0.5, lo, hi)


class TestSweepSpec:
    def test_grids(self):
        log = SweepSpec(1e-2, 1e2, count=5).grid()
        np.testing.assert_allclose(log, [1e-2, 1e-1, 1, 1e1, 1e2])

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(1.0, 1.0, count=5)
        with pytest.raises(ValueError):
            SweepSpec(-1.0, 1.0, count=5)  # log grid needs positive lo
        with pytest.raises(ValueError):
            SweepSpec(1.0, 2.0, count=1)


class TestMeasuredCrossings:
    """Regression anchors for the scan-based crossing values.

    These pin the values the pipeline actually produces (the published
    counterparts of three of them differ; see the acceptance module).
    """

    def _sql(self, nu_over_gamma, n_m, eta):
        bath = BathSpec(n_m=n_m, eta=eta)

        def family(C):
            p = ImperfectQndParams(KAPPA, GAMMA, C=C, nu=nu_over_gamma * GAMMA)
            return evaluate(imperfect_qnd_model(p, bath), 0.0, bath=bath)

        return generalized_sql(family, 1e-3, 1e3)

    def test_vc_crossings(self):
        got = find_threshold(lambda r: self._sql(r, 1.0, 1.0).value, 0.5, 0.05, 0.3)
        assert got == pytest.approx(0.11794, abs=5e-4)
        got = find_threshold(lambda r: self._sql(r, 1.0, 0.25).value, 0.5, 0.05, 0.3)
        assert got == pytest.approx(0.08634, abs=5e-4)

    def test_tsum_crossings(self):
        got = find_threshold(
            lambda r: self._sql(r, 1.0, 1.0).figures.t_sum, 1.0, 0.05, 0.4
        )
        assert got == pytest.approx(0.13926, abs=5e-4)
        got = find_threshold(
            lambda r: self._sql(r, 1.0, 0.25).figures.t_sum, 1.0, 0.05, 0.4
        )
        assert got == pytest.approx(0.11445, abs=5e-4)

    def test_thermal_crossings(self):
        got = find_threshold(lambda n: self._sql(0.1, n, 1.0).value, 0.5, 0.05, 6.0)
        assert got == pytest.approx(1.7049, abs=5e-3)
        got = find_threshold(lambda n: self._sql(0.1, n, 0.25).value, 0.5, 0.05, 6.0)
        assert got == pytest.approx(0.3202, abs=5e-3)
