"""Scenario builders against their closed-form benchmarks."""

from fractions import Fraction

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    Regime,
    UnstableModel,
    build_scattering,
    c_sql,
    c_sql_resonant_approx,
    cqnc_model,
    detuning_rescaled_cooperativity,
    displacement_model,
    evaluate,
    ideal_qnd_metrics,
    imperfect_qnd_model,
    nu_model_closed_metrics,
    qnd_cooperativity_threshold,
    xi_model_closed_metrics,
)

from conftest import output_covariance

KAPPA, GAMMA, OMEGA_M = 10.0, 0.01, 1.0
FIG_BATH = BathSpec(n_m=1.0)


def _figs(vc_ts_tm):
    return np.array([vc_ts_tm.Vc, vc_ts_tm.Ts, vc_ts_tm.Tm])


class TestDisplacementModel:
    def test_decoupled_eigenvalues(self):
        model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, g=0.0), FIG_BATH)
        eig = np.sort_complex(np.linalg.eigvals(model.A))
        want = np.sort_complex(
            [-KAPPA / 2, -KAPPA / 2, -GAMMA / 2 + 1j * OMEGA_M, -GAMMA / 2 - 1j * OMEGA_M]
        )
        np.testing.assert_allclose(eig, want, atol=1e-12)

    def test_classical_regime_on_resonance(self):
        for C in np.logspace(-3, 4, 40):
            model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
            figs = evaluate(model, OMEGA_M)
            assert figs.regime is Regime.CLASSICAL

    def test_signal_transfer_stays_tiny_on_resonance(self):
        for C in (0.01, 0.26, 10.0, 1e3):
            model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
            assert evaluate(model, OMEGA_M).Ts < 1e-3

    def test_coupling_specification_exclusive(self):
        with pytest.raises(ValueError):
            DisplacementParams(KAPPA, GAMMA, OMEGA_M, g=0.1, C=1.0).coupling
        with pytest.raises(ValueError):
            DisplacementParams(KAPPA, GAMMA, OMEGA_M).coupling
        p = DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=2.0)
        assert p.cooperativity == pytest.approx(2.0, rel=1e-12)
        assert type(p.coupling) is float and type(p.cooperativity) is float


class TestSqlFormula:
    def test_resonant_approximation(self):
        exact = c_sql(KAPPA, GAMMA, OMEGA_M, OMEGA_M)
        approx = c_sql_resonant_approx(KAPPA, OMEGA_M)
        assert approx == pytest.approx(0.26)
        assert exact == pytest.approx(approx, rel=1e-2)

    def test_low_damping_limit(self):
        exact = c_sql(KAPPA, 1e-9, OMEGA_M, OMEGA_M)
        assert exact == pytest.approx(c_sql_resonant_approx(KAPPA, OMEGA_M), rel=1e-8)

    def test_noise_balance_at_sql(self):
        C = c_sql(KAPPA, GAMMA, OMEGA_M, OMEGA_M)
        model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
        S = build_scattering(model, OMEGA_M)
        assert abs(abs(S[1, 0]) - abs(S[1, 1])) < 1e-9

    def test_noise_balance_off_resonance(self):
        omega = 1.7 * OMEGA_M
        C = c_sql(KAPPA, GAMMA, OMEGA_M, omega)
        model = displacement_model(DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
        S = build_scattering(model, omega)
        assert abs(abs(S[1, 0]) - abs(S[1, 1])) < 1e-9

    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_meter_transfer_peaks_at_sql(self, kappa):
        # the noise-balance cooperativity maximizes T_m (and minimizes V_c,
        # see test_optimize)
        from tvmeter.optimize import golden_section

        def neg_tm(C):
            model = displacement_model(
                DisplacementParams(kappa, GAMMA, OMEGA_M, C=C), FIG_BATH
            )
            return -evaluate(model, OMEGA_M).Tm

        grid = np.logspace(-3, 3, 400)
        i = int(np.argmin([neg_tm(C) for C in grid]))
        [argmax] = golden_section(
            lambda _, Cs: [neg_tm(C) for C in Cs], [(grid[i - 1], grid[i + 1])], 1e-9
        )
        assert argmax == pytest.approx(c_sql(kappa, GAMMA, OMEGA_M, OMEGA_M), rel=1e-3)


class TestCqncModel:
    def test_backaction_free_meter_row(self):
        model = cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=7.3), FIG_BATH)
        rng = np.random.default_rng(7)
        for omega in rng.uniform(0.01, 30.0, size=20):
            S = build_scattering(model, omega)
            assert abs(S[1, 0]) < 1e-12

    def test_cross_covariance_ratio(self):
        model = cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=2.0), FIG_BATH)
        for omega in (0.3, 1.0, 2.2):
            V = output_covariance(model, omega)
            assert V[2, 4] / V[2, 5] == pytest.approx(-2 * OMEGA_M / GAMMA, rel=1e-9)

    def test_classical_on_resonance(self):
        for C in np.logspace(-3, 4, 30):
            model = cqnc_model(CqncParams(KAPPA, GAMMA, OMEGA_M, C=C), FIG_BATH)
            for conditioning in ("meter", "meter+ancilla"):
                figs = evaluate(model, OMEGA_M, conditioning=conditioning)
                assert figs.regime is Regime.CLASSICAL

    def test_ancilla_bath_override(self):
        p = CqncParams(KAPPA, GAMMA, OMEGA_M, C=1.0, ancilla_bath=BathSpec(n_m=3.0))
        model = cqnc_model(p, FIG_BATH)
        assert model.Vin[4, 4] == 3.5
        assert model.Vin[2, 2] == 1.5


class TestImperfectQnd:
    def test_reduces_to_ideal(self):
        p = ImperfectQndParams(KAPPA, GAMMA, C=0.5)
        got = _figs(evaluate(imperfect_qnd_model(p, FIG_BATH), 0.0))
        want = _figs(ideal_qnd_metrics(0.5, 1.5))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("dc_over_kappa", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_detuning_rescale_identity(self, dc_over_kappa, C):
        p = ImperfectQndParams(KAPPA, GAMMA, C=C, delta_c=dc_over_kappa * KAPPA)
        got = _figs(evaluate(imperfect_qnd_model(p, FIG_BATH), 0.0))
        C_eff = detuning_rescaled_cooperativity(C, KAPPA, p.delta_c)
        want = _figs(ideal_qnd_metrics(C_eff, 1.5))
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("mu_over_gamma", [0.0, 1.0, 10.0])
    def test_mu_invariance(self, mu_over_gamma):
        p = ImperfectQndParams(KAPPA, GAMMA, C=2.0, mu=mu_over_gamma * GAMMA)
        got = _figs(evaluate(imperfect_qnd_model(p, FIG_BATH), 0.0))
        want = _figs(ideal_qnd_metrics(2.0, 1.5))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_half_linewidth_detuning_quarters_cooperativity(self):
        p = ImperfectQndParams(KAPPA, GAMMA, C=1.0, delta_c=KAPPA / 2)
        got = evaluate(imperfect_qnd_model(p, FIG_BATH), 0.0)
        want = ideal_qnd_metrics(0.25, 1.5)
        assert got.Vc == pytest.approx(want.Vc, rel=1e-12)

    def test_parameterization_round_trip(self):
        p = ImperfectQndParams.from_detuning(KAPPA, GAMMA, delta_m=0.3, zeta=0.1, C=1.0)
        assert p.mu == pytest.approx(0.2)
        assert p.nu == pytest.approx(0.1)
        assert p.delta_m == pytest.approx(0.3)
        assert p.zeta == pytest.approx(0.1)
        assert not p.is_compensated
        assert ImperfectQndParams.from_detuning(
            KAPPA, GAMMA, delta_m=0.2, zeta=0.2, C=1.0
        ).is_compensated

    def test_strong_squeezing_unstable(self):
        with pytest.raises(UnstableModel):
            imperfect_qnd_model(ImperfectQndParams(KAPPA, GAMMA, C=1.0, xi=GAMMA), FIG_BATH)


class TestNuClosedForms:
    @pytest.mark.parametrize("nu_over_gamma", [0.02, 0.1, 0.3])
    @pytest.mark.parametrize("m_sq", [0.0, 0.4, -0.3j])
    def test_matches_pipeline_over_cooperativity(self, nu_over_gamma, m_sq):
        bath = BathSpec(n_m=1.0, m_sq=m_sq)
        nu = nu_over_gamma * GAMMA
        for C in [0.0, *np.logspace(-2, 2, 9)]:
            p = ImperfectQndParams(KAPPA, GAMMA, C=C, nu=nu)
            got = _figs(evaluate(imperfect_qnd_model(p, bath), 0.0))
            closed = nu_model_closed_metrics(C, nu, GAMMA, bath)
            np.testing.assert_allclose(got, _figs(closed), rtol=1e-9)
            if C == 0.0:
                assert (closed.nm_eq, closed.Tm) == (np.inf, 0.0)

    @pytest.mark.parametrize("nu_over_gamma", [0.0, 0.02, 0.1, 0.3])
    @pytest.mark.parametrize("m_sq", [0.0, 0.4, -0.3j])
    def test_equivalent_noises_exact(self, nu_over_gamma, m_sq):
        # n_eq = V_x (1/T - 1) of the transfer closed forms, in exact
        # arithmetic on the float inputs; in floats that form cancels as T -> 1
        bath = BathSpec(n_m=1.0, m_sq=m_sq)
        C, nu = 1000.0, nu_over_gamma * GAMMA
        figs = nu_model_closed_metrics(C, nu, GAMMA, bath)
        C, nu, g = Fraction(C), Fraction(nu), Fraction(GAMMA)
        Vx, Vp, Vxp = Fraction(bath.V_x), Fraction(bath.V_p), Fraction(bath.V_xp)
        den = 512 * C * nu**2 * (2 * C + Vp) + g**2 * (1 + 32 * C * Vx) + 256 * C * g * nu * Vxp
        Ts = Vx * g**2 / (Vx * g**2 + 16 * nu * (4 * nu * (2 * C + Vp) + g * Vxp))
        Tm = 32 * C * g**2 * Vx / den
        assert figs.ns_eq == pytest.approx(float(Vx * (1 / Ts - 1)), rel=1e-14)
        assert figs.nm_eq == pytest.approx(float(Vx * (1 / Tm - 1)), rel=1e-14)

    def test_reduces_to_ideal_at_zero_nu(self):
        got = _figs(nu_model_closed_metrics(2.0, 0.0, GAMMA, FIG_BATH))
        want = _figs(ideal_qnd_metrics(2.0, 1.5))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_anticorrelated_bath_beats_unity_transfer(self):
        bath = BathSpec(n_m=2.0, m_sq=-2.4j)
        figs = nu_model_closed_metrics(0.5, 0.05 * GAMMA, GAMMA, bath)
        assert figs.Ts > 1.0
        # and the pipeline agrees
        p = ImperfectQndParams(KAPPA, GAMMA, C=0.5, nu=0.05 * GAMMA)
        assert evaluate(imperfect_qnd_model(p, bath), 0.0).Ts == pytest.approx(
            figs.Ts, rel=1e-9
        )


class TestXiClosedForms:
    @pytest.mark.parametrize("xi_over_gamma", [-0.25, -0.1, 0.1, 0.25])
    def test_matches_pipeline(self, xi_over_gamma):
        xi = xi_over_gamma * GAMMA
        for C in (0.0, 0.05, 1 / 16, 1.0, 30.0):
            p = ImperfectQndParams(KAPPA, GAMMA, C=C, xi=xi)
            got = _figs(evaluate(imperfect_qnd_model(p, FIG_BATH), 0.0))
            closed = xi_model_closed_metrics(C, xi, GAMMA, FIG_BATH)
            np.testing.assert_allclose(got, _figs(closed), rtol=1e-9)
            if C == 0.0:
                assert (closed.nm_eq, closed.Tm) == (np.inf, 0.0)

    def test_spec_point(self):
        figs = xi_model_closed_metrics(1 / 16, -GAMMA / 4, GAMMA, FIG_BATH)
        assert figs.Vc == pytest.approx(1 / 14, rel=1e-12)
        assert figs.Tm == pytest.approx(8 / 14, rel=1e-12)


class TestThresholdFormula:
    def test_values(self):
        assert qnd_cooperativity_threshold(1.5) == pytest.approx(1 / 24)
        assert qnd_cooperativity_threshold(0.4) == 0.0
        assert qnd_cooperativity_threshold(1e9) == pytest.approx(1 / 16, rel=1e-8)
