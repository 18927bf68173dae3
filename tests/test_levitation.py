"""Modulated-tweezer scenarios: single readout, dual tweezer, thresholds."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from tvmeter import (
    BathSpec,
    UnstableModel,
    DualTweezerParams,
    LinearModel,
    ModeLayout,
    Regime,
    TweezerParams,
    build_scattering,
    compound_signal_variances,
    dual_tweezer_metrics,
    dual_tweezer_threshold,
    evaluate,
    ideal_qnd_metrics,
    qnd_modulation_frequency,
    NegativeLinewidth,
    reduced_metrics,
    reduced_scattering,
    reduced_vc,
    single_tweezer_qnd_model,
    single_tweezer_qnd_params,
    check_stable,
    threshold_signal_variance,
)

FIG5_BATH = BathSpec(n_m=1e7 - 0.5)  # V_x = 1e7


def _figs(m):
    return np.array([m.Vc, m.Ts, m.Tm])


#: dual-tweezer layout: primary cavity, readout cavity, mechanics
DUAL_TWEEZER_LAYOUT = ModeLayout(("X1", "Y1", "X2", "Y2", "x", "p"), 4, 3, mechanical_modes=(2,))


def dual_tweezer_model(p: DualTweezerParams, bath: BathSpec) -> LinearModel:
    """Six-mode model with layout (X1, Y1, X2, Y2, x, p), the oracle of
    the reduced dual-tweezer map.

    Tweezer 1 provides the beam-splitter plus parametric coupling that
    cools/squeezes the mechanics; tweezer 2 provides the QND-type
    readout of x through the second cavity's phase quadrature.
    """
    c1m = (p.alpha_1 - 2.0) * p.g_1 / 4.0
    c1p = (p.alpha_1 + 2.0) * p.g_1 / 4.0
    c2 = p.alpha_2 * p.g_2 / 2.0
    mu2 = p._x2_rate()
    A = np.array([
        [-p.kappa_1 / 2, 0, 0, 0, 0, c1m],
        [0, -p.kappa_1 / 2, 0, 0, c1p, 0],
        [0, 0, -p.kappa_2 / 2, 0, 0, 0],
        [0, 0, 0, -p.kappa_2 / 2, c2, 0],
        [0, c1m, 0, 0, -p.gamma / 2, 0],
        [c1p, 0, c2, 0, -2.0 * mu2, -p.gamma / 2],
    ])
    check_stable(A)
    H = np.diag(
        [np.sqrt(p.kappa_1)] * 2 + [np.sqrt(p.kappa_2)] * 2 + [np.sqrt(p.gamma)] * 2
    )
    n = bath.optical_variance
    Vin = np.diag([n, n, n, n, 0.0, 0.0])
    Vin[4:6, 4:6] = bath.mechanical_block()
    return LinearModel(A, H, Vin, DUAL_TWEEZER_LAYOUT)


class TestModulationFrequency:
    def test_unmodulated(self):
        assert qnd_modulation_frequency(2.0, 0.0) == 2.0

    def test_small_depth(self):
        assert qnd_modulation_frequency(1.0, 0.2) == pytest.approx(16.28 / 16.32)

    def test_strong_modulation_limit(self):
        assert qnd_modulation_frequency(1.0, 1e6) == pytest.approx(7 / 8, rel=1e-9)


class TestSingleTweezer:
    def _params(self, alpha=0.2, g=0.3, Omega=None):
        return TweezerParams(
            omega_m=100.0, alpha=alpha, g=g, kappa=1.0, gamma=1e-6, Omega=Omega
        )

    def test_magic_modulation_cancels_momentum_term(self):
        q = single_tweezer_qnd_params(self._params())
        assert q.nu == pytest.approx(0.0, abs=1e-15)
        assert q.mu == pytest.approx(0.2**2 * 100.0 / (8 * (2 + 0.04)))

    def test_metrics_equal_ideal_at_effective_cooperativity(self):
        p = self._params()
        bath = BathSpec(n_m=1.0)
        model = single_tweezer_qnd_model(p, bath)
        got = _figs(evaluate(model, 0.0))
        want = _figs(ideal_qnd_metrics(p.effective_cooperativity, 1.5))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_zero_modulation_means_no_measurement(self):
        model = single_tweezer_qnd_model(self._params(alpha=0.0), BathSpec(n_m=1.0))
        figs = evaluate(model, 0.0)
        assert figs.Vc == pytest.approx(1.5, rel=1e-12)
        assert figs.Tm == 0.0

    def test_detuned_modulation_induces_momentum_term(self):
        # detuning below the backaction-free point keeps mu nu > 0 (stable)
        p = self._params()
        delta = -0.03
        detuned = TweezerParams(
            omega_m=p.omega_m, alpha=p.alpha, g=p.g, kappa=p.kappa, gamma=p.gamma,
            Omega=qnd_modulation_frequency(p.omega_m, p.alpha) + delta,
        )
        q = single_tweezer_qnd_params(detuned)
        assert q.nu == pytest.approx(-delta / 2, rel=1e-12)
        # degradation relative to the tuned readout
        bath = BathSpec(n_m=1.0)
        tuned = evaluate(single_tweezer_qnd_model(p, bath), 0.0)
        off = evaluate(single_tweezer_qnd_model(detuned, bath), 0.0)
        assert off.Ts < tuned.Ts

    def test_detuning_toward_instability_rejected(self):
        p = self._params()
        detuned = TweezerParams(
            omega_m=p.omega_m, alpha=p.alpha, g=p.g, kappa=p.kappa, gamma=p.gamma,
            Omega=qnd_modulation_frequency(p.omega_m, p.alpha) + 0.03,
        )
        with pytest.raises(UnstableModel):
            single_tweezer_qnd_model(detuned, BathSpec(n_m=1.0))

    def test_trap_frequency_renormalization(self):
        p = TweezerParams.from_trap_frequency(
            omega_tr=100.0, alpha=0.5, g=0.3, kappa=1.0, gamma=1e-6
        )
        assert p.omega_m == pytest.approx(100.0 * np.sqrt(1.125))


def fig5_params(g1, g2, a1=0.2, a2=0.2):
    return DualTweezerParams(
        omega_m=100.0, gamma=1e-9, kappa_1=1.0, kappa_2=1.0,
        g_1=g1, g_2=g2, alpha_1=a1, alpha_2=a2,
    )


class TestDualTweezer:
    def test_reduced_scattering_structure(self):
        p = fig5_params(0.2, 0.3)
        for omega in (0.0, 0.01, 0.3):
            S = reduced_scattering(p, omega)
            assert S[2, 0] == S[2, 1] == S[2, 3] == 0

    def test_full_model_backaction_free_signal_row(self):
        p = fig5_params(0.2, 0.3)
        model = dual_tweezer_model(p, FIG5_BATH)
        S = build_scattering(model, 0.0)
        # x_out row couples only to the primary phase noise and x_in
        assert abs(S[4, 0]) < 1e-12 and abs(S[4, 2]) < 1e-12
        assert abs(S[4, 3]) < 1e-12 and abs(S[4, 5]) < 1e-12

    def test_closed_forms_match_reduced_pipeline(self):
        for g1, g2 in ((0.1, 0.3), (0.2, 0.2), (0.4, 0.05)):
            p = fig5_params(g1, g2)
            gm, vx, vp = compound_signal_variances(p, FIG5_BATH)
            got = _figs(reduced_metrics(p, FIG5_BATH))
            want = _figs(dual_tweezer_metrics(p.C_1, p.C_2, 0.2, 0.2, vx))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_transfer_sum_above_unity(self):
        for g1 in np.linspace(0.02, 0.6, 8):
            for g2 in np.linspace(0.02, 0.6, 8):
                p = fig5_params(g1, g2)
                figs = reduced_metrics(p, FIG5_BATH)
                assert figs.Ts + figs.Tm > 1.0

    def test_pure_cooling_limit(self):
        # alpha_1 = 0, no readout: x variance cooled toward g^2/(2 gamma_m kappa)
        p = fig5_params(0.2, 0.0, a1=0.0)
        gm, vx, _ = compound_signal_variances(p, FIG5_BATH)
        want = (p.gamma * FIG5_BATH.V_x + p.g_1**2 / (2 * p.kappa_1)) / gm
        assert vx == pytest.approx(want, rel=1e-12)

    def test_full_modulation_leaves_bath_variance(self):
        p = fig5_params(0.2, 0.0, a1=2.0)
        gm, vx, _ = compound_signal_variances(p, FIG5_BATH)
        assert gm == pytest.approx(p.gamma)
        assert vx == pytest.approx(FIG5_BATH.V_x)

    def test_compound_variances_at_moderate_coupling(self):
        # g1 = 0.2 kappa: the adiabatic formula undershoots the exact
        # steady state by about gamma Vx / kappa (measured 1.5 percent)
        p = fig5_params(0.2, 0.0)
        gm, vx, _ = compound_signal_variances(p, FIG5_BATH)
        A = np.array([
            [-p.kappa_1 / 2, 0, 0, (p.alpha_1 - 2) * p.g_1 / 4],
            [0, -p.kappa_1 / 2, (p.alpha_1 + 2) * p.g_1 / 4, 0],
            [0, (p.alpha_1 - 2) * p.g_1 / 4, -p.gamma / 2, 0],
            [(p.alpha_1 + 2) * p.g_1 / 4, 0, 0, -p.gamma / 2],
        ])
        H = np.diag([np.sqrt(p.kappa_1)] * 2 + [np.sqrt(p.gamma)] * 2)
        Vin = np.diag([0.5, 0.5, FIG5_BATH.V_x, FIG5_BATH.V_p])
        V = solve_continuous_lyapunov(A, -H @ Vin @ H.T)
        assert vx == pytest.approx(V[2, 2], rel=2e-2)

    def test_compound_variances_against_lyapunov(self):
        # adiabatic regime: optical linewidth far above the broadened one
        p = fig5_params(0.1, 0.0)
        gm, vx, vp = compound_signal_variances(p, FIG5_BATH)
        A = np.array([
            [-p.kappa_1 / 2, 0, 0, (p.alpha_1 - 2) * p.g_1 / 4],
            [0, -p.kappa_1 / 2, (p.alpha_1 + 2) * p.g_1 / 4, 0],
            [0, (p.alpha_1 - 2) * p.g_1 / 4, -p.gamma / 2, 0],
            [(p.alpha_1 + 2) * p.g_1 / 4, 0, 0, -p.gamma / 2],
        ])
        H = np.diag([np.sqrt(p.kappa_1)] * 2 + [np.sqrt(p.gamma)] * 2)
        Vin = np.diag([0.5, 0.5, FIG5_BATH.V_x, FIG5_BATH.V_p])
        V = solve_continuous_lyapunov(A, -H @ Vin @ H.T)
        assert vx == pytest.approx(V[2, 2], rel=1e-2)
        assert vp == pytest.approx(V[3, 3], rel=1e-2)

    def test_readout_only_reduces_to_single_tweezer(self):
        # g_1 = 0: compound signal is the bare mechanical mode; detection
        # loss on the readout cavity's output enters as in the ideal readout
        p = fig5_params(0.0, 0.3)
        C_eff = (0.2 * 0.3 / 4) ** 2 * 4 / (p.kappa_2 * p.gamma)
        for eta in (1.0, 0.5, 0.25):
            for n_c in (0.0, 0.3):
                got = _figs(reduced_metrics(p, BathSpec(n_m=1.0, n_c=n_c, eta=eta)))
                want = _figs(ideal_qnd_metrics(C_eff, 1.5, eta, n_c))
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12,
                                           err_msg=f"eta={eta}, n_c={n_c}")

    def test_intensity_split_constructor(self):
        p = DualTweezerParams.from_intensity_split(
            g_total=0.6, readout_fraction=0.25, omega_m=100.0, gamma=1e-9,
            kappa_1=1.0, kappa_2=1.0, alpha_1=0.2, alpha_2=0.2,
        )
        assert p.g_1**2 + p.g_2**2 == pytest.approx(0.36)
        assert p.g_2**2 == pytest.approx(0.09)


class TestStackedDualTweezer:
    """Arrays of the dual-tweezer parameters, and of the detection
    frequency paired with them, give stacks with the bits of their points
    and the typed errors of the first failing point."""

    RATES = dict(omega_m=100.0, gamma=1e-9, kappa_1=1.0, kappa_2=1.0)

    def test_paired_frequencies_keep_the_bits_of_each_point(self):
        g2, omegas = np.array([0.0, 0.05, 0.2, 0.6]), np.array([0.0, 0.3, 1.7, 40.0])
        bath = BathSpec(n_m=10.0, m_sq=0.5 + 1j, eta=0.6)
        stack = DualTweezerParams(g_1=0.2, g_2=g2, alpha_1=0.3, alpha_2=0.2, **self.RATES)
        points = [DualTweezerParams(g_1=0.2, g_2=float(g), alpha_1=0.3, alpha_2=0.2, **self.RATES)
                  for g in g2]
        want = [reduced_metrics(q, bath, float(w)) for q, w in zip(points, omegas)]
        assert reduced_metrics(stack, bath, omegas) == want
        np.testing.assert_array_equal(reduced_vc(stack, bath, omegas), [f.Vc for f in want])
        # one point at every frequency of a grid
        assert reduced_metrics(points[1], bath, omegas) == [
            reduced_metrics(points[1], bath, float(w)) for w in omegas]
        with pytest.raises(ValueError, match="do not pair with a stack of shape"):
            reduced_vc(stack, bath, omegas[:3])

    def test_numpy_floats_round_as_python_floats(self):
        # a swept value (a numpy float) once took numpy's complex rounding
        kw = dict(g_1=0.2, g_2=0.2, alpha_1=0.2, alpha_2=0.2, **self.RATES)
        want = reduced_metrics(DualTweezerParams(**{**kw, "kappa_2": 6.5793322465756825}),
                               BathSpec(n_m=1.0), 3.0)
        got = reduced_metrics(DualTweezerParams(**{**kw, "kappa_2": np.float64(6.5793322465756825)}),
                              BathSpec(n_m=1.0), np.float64(3.0))
        assert (got.Tm, got.nm_eq) == (want.Tm, want.nm_eq)

    def test_first_negative_linewidth_raises(self):
        p = DualTweezerParams(g_1=0.2, g_2=0.2, alpha_1=np.array([1.0, 3.0, 4.0]), alpha_2=0.2,
                              **self.RATES)
        with pytest.raises(NegativeLinewidth, match="broadened linewidth -5.000e-02 is not positive"):
            reduced_vc(p, BathSpec(n_m=1.0), 0.0)

    def test_intensity_split_range_checks_every_point(self):
        with pytest.raises(ValueError, match="readout_fraction must lie in"):
            DualTweezerParams.from_intensity_split(
                0.6, np.array([0.5, 1.5]), alpha_1=0.2, alpha_2=0.2, **self.RATES)

    def test_x2_rate_vanishes_without_light(self):
        p = DualTweezerParams(g_1=np.array([0.0, 0.2]), g_2=np.array([0.0, 0.3]), alpha_1=0.2,
                              alpha_2=0.4, **self.RATES)
        one = DualTweezerParams(g_1=0.2, g_2=0.3, alpha_1=0.2, alpha_2=0.4, **self.RATES)
        np.testing.assert_array_equal(p._x2_rate(), [0.0, one._x2_rate()])


class TestThreshold:
    @pytest.mark.parametrize(
        "C1, a1, a2, Vx",
        [(0.0, 0.2, 0.2, 1e7), (1.0, 0.2, 0.2, 1e7), (10.0, 0.5, 0.2, 10.0)],
    )
    def test_threshold_crossing_is_exact(self, C1, a1, a2, Vx):
        C2 = dual_tweezer_threshold(C1, a1, a2, Vx)
        assert C2 > 0
        vxs = threshold_signal_variance(C1, a1, Vx)
        figs = dual_tweezer_metrics(C1, C2, a1, a2, vxs)
        assert figs.Vc == pytest.approx(0.5, abs=1e-9)

    def test_no_preparation_plug_in(self):
        # C1 = 0: threshold reduces to (2 Vx - 1) / (32 alpha2^2 Vx)
        got = dual_tweezer_threshold(0.0, 0.2, 0.2, 1e7)
        want = (2e7 - 1) / (16 * 0.04 * 2e7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_readout_limit(self):
        figs = dual_tweezer_metrics(1.0, 0.0, 0.2, 0.2, 25.0)
        assert (figs.Vc, figs.Ts, figs.Tm) == (25.0, 1.0, 0.0)

    def test_cooling_only_closed_form(self):
        # C1 = 0, alpha2 = 0.2: Vc = 1 / (Vxs^-1 + 1.28 C2)
        figs = dual_tweezer_metrics(0.0, 3.0, 0.2, 0.2, 1e7)
        assert figs.Vc == pytest.approx(1.0 / (1e-7 + 32 * 0.04 * 3.0), rel=1e-12)
        # n_m_eq = broadening / measurement rate = 1 / (32 alpha2^2 C2)
        assert dual_tweezer_metrics(0.0, 3.0, 0.2, 1.0, 1e7).nm_eq == pytest.approx(
            1 / 96, rel=1e-14)
