"""Frequency/cooperativity scans and threshold location."""

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    NoBracket,
    Regime,
    SweepSpec,
    c_sql,
    cqnc_model,
    displacement_model,
    evaluate,
    find_threshold,
    generalized_sql,
    golden_section,
    ideal_qnd_model,
    imperfect_qnd_model,
    minimize_vc_over_frequency,
    vc_on_grid,
)

KAPPA, GAMMA, OMEGA_M = 10.0, 0.01, 1.0
FIG_BATH = BathSpec(n_m=1.0)


class TestGoldenSection:
    def test_parabola(self):
        assert golden_section(lambda x: (x - 2.3) ** 2, 0.0, 5.0, 1e-9) == pytest.approx(2.3)

    def test_refinement_never_worse_than_grid(self):
        f = lambda x: np.cos(3 * x) + 0.1 * x
        spec = SweepSpec("x", 0.1, 10.0, count=40, log=True)
        from tvmeter.optimize import minimize_on_grid

        x, v, boundary, _ = minimize_on_grid(f, spec)
        assert v <= min(f(g) for g in spec.grid()) + 1e-15


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
        from tvmeter.optimize import minimize_on_grid

        # double well with minima of equal depth at x = 0.1 and x = 10
        f = lambda x: min((np.log10(x) + 1) ** 2, (np.log10(x) - 1) ** 2) + 1.0
        spec = SweepSpec("x", 1e-3, 1e3, count=121, log=True)
        x, v, boundary, branches = minimize_on_grid(f, spec)
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
            f, 1e-2, 1e3, vc_grid=lambda ws: vc_on_grid(model, ws, conditioning=conditioning)
        )
        assert stacked == scalar

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


class TestSweepSpec:
    def test_grids(self):
        log = SweepSpec("C", 1e-2, 1e2, count=5).grid()
        np.testing.assert_allclose(log, [1e-2, 1e-1, 1, 1e1, 1e2])
        lin = SweepSpec("x", 0.0, 1.0, count=3, log=False).grid()
        np.testing.assert_allclose(lin, [0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("C", 1.0, 1.0, count=5)
        with pytest.raises(ValueError):
            SweepSpec("C", -1.0, 1.0, count=5)  # log grid needs positive lo
        with pytest.raises(ValueError):
            SweepSpec("C", 1.0, 2.0, count=1)


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
