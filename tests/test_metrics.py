"""Figures of merit, regime classification, and the evaluation pipeline."""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    CqncParams,
    DegenerateMeter,
    DisplacementParams,
    Regime,
    build_scattering,
    classify_regime,
    conditional_variance,
    cqnc_conditional_variance,
    cqnc_model,
    displacement_model,
    evaluate,
    ideal_qnd_metrics,
    ideal_qnd_model,
)
from tvmeter import (
    FOUR_MODE,
    ImperfectQndParams,
    LinearModel,
    SingularAtFrequency,
    TweezerParams,
    imperfect_qnd_model,
    single_tweezer_qnd_model,
    vc_on_grid,
)
from tvmeter import metrics

from conftest import output_covariance

FIG_BATH = BathSpec(n_m=1.0)


class TestConditionalVariance:
    def test_uncorrelated_meter(self):
        V = np.diag([0.5, 2.0, 1.5, 1.5])
        assert conditional_variance(V, signal=2, meter=1) == 1.5

    def test_ideal_qnd_value(self):
        model = ideal_qnd_model(10.0, 0.01, FIG_BATH, C=1 / 16)
        V = output_covariance(model, 0.0)
        assert conditional_variance(V, signal=2, meter=1) == pytest.approx(0.375, rel=1e-12)

    def test_zero_cooperativity_returns_input_variance(self):
        model = ideal_qnd_model(10.0, 0.01, FIG_BATH, g=0.0)
        V = output_covariance(model, 0.0)
        assert conditional_variance(V, signal=2, meter=1) == pytest.approx(1.5, rel=1e-12)

    def test_degenerate_meter_raises(self):
        V = np.diag([0.5, 0.0, 1.5, 1.5])
        with pytest.raises(DegenerateMeter):
            conditional_variance(V, signal=2, meter=1)

    def test_small_negative_clamped(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        assert conditional_variance(V, signal=0, meter=1) == 0.0

    def test_negative_schur_complement_raises(self):
        V = np.eye(4, dtype=complex)
        V[2, 2] = 0.1
        V[2, 1], V[1, 2] = 0.6 + 0.8j, 0.6 - 0.8j
        with pytest.raises(DegenerateMeter, match="below zero"):
            conditional_variance(V, signal=2, meter=1)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "vc, ts, tm, want",
        [
            (0.375, 1.0, 0.75, Regime.QND),
            (1.5, 0.0, 0.0, Regime.CLASSICAL),
            (0.5, 1.0, 0.5, Regime.IDT),      # Vc tie goes to the non-QND side
            (0.4, 0.5, 0.5, Regime.QSP),      # T-sum tie likewise
            (0.3, 0.6, 0.6, Regime.QND),
        ],
    )
    def test_quadrants(self, vc, ts, tm, want):
        assert classify_regime(vc, ts, tm) is want

    def test_arrays_give_one_regime_per_point(self):
        vc, ts, tm = np.array([[0.375, 1.5, 0.5, 0.4, 0.3, np.nan],
                               [1.0, 0.0, 1.0, 0.5, 0.6, 1.0],
                               [0.75, 0.0, 0.5, 0.5, 0.6, 1.0]])
        assert classify_regime(vc, ts, tm) == [
            Regime.QND, Regime.CLASSICAL, Regime.IDT, Regime.QSP, Regime.QND, Regime.IDT]


class TestTransferCoefficients:
    def test_ideal_qnd_values(self):
        figs = evaluate(ideal_qnd_model(10.0, 0.01, FIG_BATH, C=1 / 16), 0.0)
        assert figs.Ts == pytest.approx(1.0, abs=1e-12)
        assert figs.Tm == pytest.approx(0.75, rel=1e-12)
        assert figs.ns_eq == pytest.approx(0.0, abs=1e-12)

    def test_no_coupling_gives_zero_meter_transfer(self):
        figs = evaluate(ideal_qnd_model(10.0, 0.01, FIG_BATH, g=0.0), 0.0)
        assert figs.Tm == 0.0
        assert not np.isfinite(figs.nm_eq)

    def test_measured_figures_refers_through_power_gains(self):
        floor = metrics.SIGNAL_PATH_FLOOR**2
        figs = metrics.measured_figures(0.4, 3.0, 2.0, 2.0, floor, 1.0, 0.5)
        assert figs.ns_eq == 0.5 and figs.Ts == 1.0 / 1.5
        assert figs.nm_eq == np.inf and figs.Tm == 0.0
        assert figs.regime is Regime.QSP and figs.omega == 0.5

    def test_zero_transfer_denominator_raises_as_one_point(self):
        # V = 0 puts n_eq at -V_x: the point's Python floats divide by zero
        with pytest.raises(ZeroDivisionError):
            metrics.measured_figures(0.4, 0.0, 2.0, 1.0, 1.0, 1.5, 0.0)
        with pytest.raises(ZeroDivisionError):
            metrics.measured_figures(*np.array([[0.4, 0.4], [1.0, 0.0], [2.0, 2.0],
                                                [1.0, 1.0], [1.0, 1.0]]), 1.5, 0.0)

    def test_linear_law_across_cooperativity(self):
        # Vc + (Ts + Tm - 2) Vx = 0 for the ideal readout
        for C in np.logspace(-3, 3, 13):
            figs = evaluate(ideal_qnd_model(10.0, 0.01, FIG_BATH, C=C), 0.0)
            assert abs(figs.Vc + (figs.Ts + figs.Tm - 2.0) * 1.5) < 1e-9

    def test_monotonic_in_cooperativity(self):
        grid = np.logspace(-2, 2, 21)
        figs = [evaluate(ideal_qnd_model(10.0, 0.01, FIG_BATH, C=C), 0.0) for C in grid]
        vcs = [f.Vc for f in figs]
        tms = [f.Tm for f in figs]
        assert all(a > b for a, b in zip(vcs, vcs[1:]))
        assert all(a < b for a, b in zip(tms, tms[1:]))

    def test_loss_monotonicity(self):
        vcs = []
        for eta in (0.1, 0.3, 0.6, 0.9, 1.0):
            model = ideal_qnd_model(10.0, 0.01, BathSpec(n_m=1.0, eta=eta), C=1.0)
            vcs.append(evaluate(model, 0.0, bath=BathSpec(n_m=1.0, eta=eta)).Vc)
        assert all(a > b for a, b in zip(vcs, vcs[1:]))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestStackedReduction:
    """``measured_figures`` on a stack reduces float64 arrays; every field
    must keep the bits of the point's own scalar reduction (on its Python
    floats), the regime included, with no RuntimeWarning on the way."""

    FLOOR = metrics.SIGNAL_PATH_FLOOR**2
    VX = 0.5
    # (Vc, V_ss, V_mm, G_s, G_m): the signal-path floor itself, just above
    # it and zero; V / G overflowing to +-inf; V_c at exactly 1/2 and
    # T_s + T_m at exactly 1 (n_eq = 1/2 on both paths), the two ties of
    # the regime, each with its neighbours
    POINTS = [
        (0.4, 3.0, 2.0, 2.0, FLOOR),
        (0.4, 3.0, 2.0, np.nextafter(FLOOR, 1.0), 2.0),
        (0.4, 3.0, 2.0, 0.0, 0.0),
        (0.4, 1e300, 2.0, 1e-20, 1.0),
        (0.4, -1e300, 2.0, 1e-20, 1.0),
        (0.4, 2.0, 1e308, 1.0, 1e-27),
        (0.5, 1.0, 1.0, 1.0, 1.0),
        (np.nextafter(0.5, 0.0), 1.0, 1.0, 1.0, 1.0),
        (np.nextafter(0.5, 1.0), 1.0, 1.0, 1.0, 1.0),
        (0.3, 1.0, 1.0, 1.0, 1.0),
        (0.3, 1.0, 1.0 - 1e-15, 1.0, 1.0),
        (0.3, 1.0, 1.0 + 1e-15, 1.0, 1.0),
        (0.3, 1.0, 1.0, np.nan, 1.0),
        (0.3, np.nan, 1.0, 1.0, 1.0),
        (1.7, 2.5e-3, 0.7, 1e-3, 0.9),
        (0.0, 1.0 / 3.0, 1e-300, 0.1, 1e-300),
    ]

    def _check(self, stack, omegas):
        want = [metrics.measured_figures(*point, self.VX, w)
                for point, w in zip(np.reshape(stack, (5, -1)).T.tolist(),
                                    np.broadcast_to(omegas, stack.shape[1:]).ravel().tolist())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = metrics.measured_figures(*stack, self.VX, omegas)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.regime is w.regime
            for field in ("Vc", "Ts", "Tm", "ns_eq", "nm_eq", "omega"):
                assert _bits(getattr(g, field)) == _bits(getattr(w, field)), field

    def test_one_frequency_for_all_points(self):
        self._check(np.array(self.POINTS).T, 0.25)

    def test_one_frequency_per_point(self):
        stack = np.array(self.POINTS).T
        self._check(stack, np.linspace(0.0, 3.0, stack.shape[1]))

    def test_a_two_dimensional_stack(self):
        stack = np.array(self.POINTS[:12]).T.reshape(5, 3, 4)
        self._check(stack, np.arange(12.0).reshape(3, 4))

    def test_figures_are_frozen_dataclasses_as_their_init_builds_them(self):
        # the reduction sets each figure's fields without the frozen __init__
        figs = metrics.measured_figures(*np.array(self.POINTS).T, self.VX, 0.25)
        one = metrics.measured_figures(*self.POINTS[14], self.VX, 0.25)
        assert one == figs[14] and hash(one) == hash(figs[14])
        for f in figs:
            built = metrics.MeasurementFigures(**vars(f))
            assert f == built and hash(f) == hash(built) and repr(f) == repr(built)
            with pytest.raises(FrozenInstanceError):
                f.Vc = 0.0

    def test_the_cases_reach_every_branch(self):
        figs = metrics.measured_figures(*np.array(self.POINTS).T, self.VX, 0.0)
        assert figs[0].ns_eq == 1.0 and figs[0].nm_eq == np.inf and figs[0].Tm == 0.0
        assert figs[1].ns_eq == 3.0 / np.nextafter(self.FLOOR, 1.0) - self.VX
        assert figs[2].ns_eq == figs[2].nm_eq == np.inf
        assert figs[3].ns_eq == np.inf and figs[3].Ts == 0.0
        assert figs[4].ns_eq == -np.inf and figs[4].Ts == 0.0
        assert figs[5].nm_eq == np.inf and figs[5].Tm == 0.0
        assert figs[6].Vc == 0.5 and figs[6].t_sum == 1.0 and figs[6].regime is Regime.CLASSICAL
        assert figs[7].regime is Regime.QSP and figs[8].regime is Regime.CLASSICAL
        assert figs[9].regime is Regime.QSP
        assert figs[10].regime is Regime.QND and figs[11].regime is Regime.QSP
        assert [f.regime for f in figs[12:14]] == [Regime.QSP, Regime.QSP]


class TestCqncConditioning:
    def _vout(self, C=1.0, omega=0.7):
        model = cqnc_model(CqncParams(10.0, 0.01, 1.0, C=C), FIG_BATH)
        return output_covariance(model, omega)

    def test_reduces_to_meter_only_without_correlations(self):
        V = np.diag([0.5, 2.0, 1.5, 1.5, 0.7, 0.7])
        V[2, 1] = V[1, 2] = 0.4
        full = cqnc_conditional_variance(V)
        meter = conditional_variance(V, signal=2, meter=1)
        assert full == pytest.approx(meter, rel=1e-12)

    def test_full_vs_simplified_agree_when_cross_term_small(self):
        checked = 0
        for omega in (0.0, 0.3, 0.7, 1.0, 1.5, 3.0):
            V = self._vout(omega=omega)
            if abs(V[1, 4]) ** 2 < 1e-4 * V[1, 1] * V[4, 4]:
                checked += 1
                full = cqnc_conditional_variance(V)
                simple = cqnc_conditional_variance(V, simplified=True)
                assert full == pytest.approx(simple, rel=1e-2)
        assert checked > 0  # the small-cross-term premise held somewhere

    @staticmethod
    def _hermitian_negative_schur(cross=0.0):
        """Hermitian, not positive: V_ss = 0.1 against unit correlations
        with the meter (and the ancilla), so the Schur complement is < 0."""
        V = np.eye(6, dtype=complex)
        V[2, 2] = 0.1
        V[2, 1], V[1, 2] = 0.6 + 0.8j, 0.6 - 0.8j
        V[2, 4], V[4, 2] = 0.5j, -0.5j
        V[1, 4], V[4, 1] = cross, np.conj(cross)
        return V

    @pytest.mark.parametrize("simplified", [False, True])
    def test_negative_schur_complement_raises(self, simplified):
        V = self._hermitian_negative_schur(cross=0.1 + 0.2j)
        b = V[2, [1, 4]]
        schur = (V[2, 2] - b @ np.linalg.solve(V[np.ix_([1, 4], [1, 4])], b.conj())).real
        assert schur < -0.5
        with pytest.raises(DegenerateMeter, match="below zero"):
            cqnc_conditional_variance(V, simplified=simplified)

    def test_rounding_below_zero_clamped(self):
        V = np.diag([0.5, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
        V[2, 1] = V[1, 2] = 1.0
        V[2, 2] = 1.0 - 1e-14
        assert cqnc_conditional_variance(V) == 0.0

    def test_no_interaction_returns_bath_variance(self):
        model = cqnc_model(CqncParams(10.0, 0.01, 1.0, g=0.0), FIG_BATH)
        V = output_covariance(model, 1.0)
        assert cqnc_conditional_variance(V) == pytest.approx(1.5, rel=1e-12)
        figs = evaluate(model, 1.0)
        assert figs.Ts == pytest.approx(0.0, abs=1e-4)
        assert figs.Tm == 0.0


class TestHermitianConditioning:
    """Conditioning uses the complex cross-spectral density S V_in S^dagger.

    A pure detector delay multiplies the meter row of S by e^{i phi}.  It
    leaves the record at the detection frequency unchanged up to that
    phase, so the conditional variance and the transfers cannot depend on
    it; conditioning on Re[S V_in S^dagger] alone does.
    """

    @pytest.mark.parametrize("phi", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["displacement", "cqnc"])
    def test_invariant_under_detector_delay(self, monkeypatch, case, phi):
        if case == "displacement":
            model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=0.26), FIG_BATH)
            omega, conditioning = 1.0, "meter"
        else:
            model = cqnc_model(CqncParams(10.0, 0.01, 1.0, C=3.0), FIG_BATH)
            omega, conditioning = 2.2, "meter+ancilla"
        ref = evaluate(model, omega, conditioning=conditioning)
        S = build_scattering(model, omega).copy()
        S[model.layout.meter_index] *= np.exp(1j * phi)
        # the pipeline asks for the rows it reads, entries first (at one point, S's rows)
        monkeypatch.setattr(metrics, "build_scattering", lambda m, w, outputs: S[list(outputs)])
        got = evaluate(model, omega, conditioning=conditioning)
        assert got.Vc == pytest.approx(ref.Vc, rel=1e-10)
        assert (got.Ts, got.Tm) == pytest.approx((ref.Ts, ref.Tm), rel=1e-10)

    def test_schur_complement_of_hermitian_matrix(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        V = G @ G.conj().T + 0.5 * np.eye(6)
        s, obs = 2, [1, 4]
        b = V[s, obs]
        want = (V[s, s] - b @ np.linalg.solve(V[np.ix_(obs, obs)], b.conj())).real
        assert cqnc_conditional_variance(V) == pytest.approx(want, rel=1e-12)
        want_meter = (V[s, s] - abs(V[s, 1]) ** 2 / V[1, 1]).real
        assert conditional_variance(V, signal=2, meter=1) == pytest.approx(want_meter, rel=1e-12)


class TestIdealQndOracle:
    def test_matches_pipeline(self):
        figs = ideal_qnd_metrics(1 / 16, 1.5)
        assert (figs.Vc, figs.Ts, figs.Tm) == pytest.approx((0.375, 1.0, 0.75))
        assert figs.regime is Regime.QND

    def test_zero_cooperativity(self):
        figs = ideal_qnd_metrics(0.0, 1.5)
        assert (figs.Vc, figs.Ts, figs.Tm) == (1.5, 1.0, 0.0)

    def test_thermal_cavity(self):
        figs = ideal_qnd_metrics(1 / 16, 1.5, eta=1.0, n_c=0.5)
        assert figs.Vc == pytest.approx(0.6, rel=1e-12)


GRID = np.logspace(-2, 3, 200)


def _grid_cases():
    lossy = BathSpec(n_m=1.0, eta=0.6)
    for C in (1e-2, 1.0, 1e3):
        disp = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=C), FIG_BATH)
        cqnc = cqnc_model(CqncParams(10.0, 0.01, 1.0, C=C), FIG_BATH)
        yield f"displacement-C{C:g}", disp, None, "meter"
        yield f"cqnc-meter-C{C:g}", cqnc, None, "meter"
        yield f"cqnc-ancilla-C{C:g}", cqnc, None, "meter+ancilla"
        yield (
            f"qnd-imperfect-C{C:g}",
            imperfect_qnd_model(ImperfectQndParams(10.0, 0.01, C=C, nu=0.001), FIG_BATH),
            None, "meter",
        )
        yield f"displacement-eta0.6-C{C:g}", disp, lossy, "meter"
    for g in (0.05, 0.3):
        p = TweezerParams(omega_m=100.0, alpha=0.2, g=g, kappa=1.0, gamma=1e-6)
        yield f"lev-single-g{g:g}", single_tweezer_qnd_model(p, FIG_BATH), None, "meter"


class TestVcOnGrid:
    """One stacked solve over the frequency grid against a loop of
    scalar evaluations of the same model."""

    @pytest.mark.parametrize(
        "model, bath, conditioning",
        [case[1:] for case in _grid_cases()],
        ids=[case[0] for case in _grid_cases()],
    )
    def test_matches_scalar_evaluate(self, model, bath, conditioning):
        got = vc_on_grid(model, GRID, bath=bath, conditioning=conditioning)
        want = np.array([evaluate(model, w, bath=bath, conditioning=conditioning).Vc
                         for w in GRID])
        assert got.shape == GRID.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_singular_frequency_matches_scalar_loop(self):
        # an undamped, decoupled mechanical mode: marginal, so only a model
        # built directly (skipping check_stable) carries it
        A = np.array([
            [-1.0, 0, 0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
            [0, 0, -1.0, 0],
        ])
        model = LinearModel(A, np.diag([1.0, 1.0, 0.0, 0.0]), 0.5 * np.eye(4), FOUR_MODE)
        grid = np.logspace(-2, 2, 201)  # holds omega = 1 exactly
        with pytest.raises(SingularAtFrequency) as scalar:
            for w in grid.tolist():
                evaluate(model, w)
        with pytest.raises(SingularAtFrequency) as stacked:
            vc_on_grid(model, grid)
        assert stacked.value.omega == scalar.value.omega == 1.0
        assert str(stacked.value) == str(scalar.value)

    def test_singular_frequency_is_named_as_a_python_float(self):
        undamped = np.array([
            [-1.0, 0, 0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
            [0, 0, -1.0, 0],
        ])
        damped = undamped - 0.1 * np.eye(4)
        model = LinearModel(undamped, np.diag([1.0, 1.0, 0.0, 0.0]), 0.5 * np.eye(4), FOUR_MODE)
        errors = []
        for run in (lambda: evaluate(model, 1.0),
                    lambda: vc_on_grid(model, np.array([0.5, 1.0])),
                    lambda: evaluate(replace(model, A=np.array([damped, undamped])), 1.0)):
            with pytest.raises(SingularAtFrequency) as err:
                run()
            errors.append(str(err.value))
        assert errors[0].startswith("drift matrix singular at omega=1.0 ")
        assert errors[1] == errors[2] == errors[0]

    def test_degenerate_meter_before_the_singular_frequency(self):
        # decoupled modes: a meter squeezed to 2.5e-17 (degenerate at every
        # frequency) and an undamped mechanical mode (singular at omega = 1)
        A = np.array([
            [-1.0, 0, 0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
            [0, 0, -1.0, 0],
        ])
        Vin = np.diag([1e16, 2.5e-17, 0.5, 0.5])
        model = LinearModel(A, np.diag([np.sqrt(2.0)] * 2 + [0.0] * 2), Vin, FOUR_MODE)
        grid = np.logspace(-2, 2, 201)
        with pytest.raises(DegenerateMeter) as scalar:
            for w in grid:
                evaluate(model, w)
        with pytest.raises(DegenerateMeter) as stacked:
            vc_on_grid(model, grid)
        assert str(stacked.value) == str(scalar.value)

    def test_first_failing_point_raises_its_own_error(self):
        good = np.diag([0.5, 2.0, 1.5, 1.5]).astype(complex)
        negative = good.copy()
        negative[2, 2] = 0.1
        negative[2, 1] = negative[1, 2] = 1.0
        dead_meter = good.copy()
        dead_meter[1, 1] = 0.0
        for stack in ([good, negative, dead_meter], [good, dead_meter, negative]):
            with pytest.raises(DegenerateMeter) as scalar:
                for V in stack:
                    conditional_variance(V, FOUR_MODE)
            with pytest.raises(DegenerateMeter) as stacked:
                conditional_variance(np.array(stack), FOUR_MODE)
            assert str(stacked.value) == str(scalar.value)

    def test_stacked_values_clamp_like_scalar(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        stack = np.array([V, np.diag([1.5, 2.0])])
        got = conditional_variance(stack, signal=0, meter=1)
        assert list(got) == [conditional_variance(v, signal=0, meter=1) for v in stack]
