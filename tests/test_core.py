"""Scattering construction, input/output covariances, detection loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    FOUR_MODE,
    ImperfectQndParams,
    LinearModel,
    SingularAtFrequency,
    UnstableModel,
    build_scattering,
    check_stable,
    conditional_variance,
    cqnc_model,
    cross_spectral_density,
    detected,
    displacement_model,
    evaluate,
    ideal_qnd_model,
    imperfect_qnd_model,
    input_covariance,
    vc_on_grid,
)
from tvmeter import core
from tvmeter.core import RCOND_FLOOR

from conftest import output_covariance

VACUUM = BathSpec()
FIG2_BATH = BathSpec(n_m=1.0)


def closed_form_displacement_scattering(kappa, gamma, omega_m, C, omega):
    """Independent closed-form oracle for the displacement scattering matrix."""
    chi_a = 1.0 / (kappa - 2j * omega)
    den_b = (gamma - 2j * omega) ** 2 + 4 * omega_m**2
    chi_b = 1.0 / den_b
    mu_b = (gamma - 2j * omega) / den_b
    K = (kappa + 2j * omega) / (kappa - 2j * omega)
    Gam = (gamma**2 + 4 * omega**2 - 4 * omega_m**2) / den_b
    Om = 4 * gamma * omega_m / den_b
    s = 4 * np.sqrt(C) * kappa * gamma
    t_m = 16 * C * kappa**2 * gamma * omega_m
    u_m = 8 * np.sqrt(C) * kappa * gamma * omega_m
    return np.array([
        [K, 0, 0, 0],
        [t_m * chi_a**2 * chi_b, K, -s * chi_a * mu_b, -u_m * chi_a * chi_b],
        [-u_m * chi_a * chi_b, 0, Gam, Om],
        [-s * chi_a * mu_b, 0, -Om, Gam],
    ])


class TestBuildScattering:
    def test_matches_closed_form(self):
        kappa, gamma, omega_m, C = 10.0, 0.01, 1.0, 0.26
        model = displacement_model(
            DisplacementParams(kappa, gamma, omega_m, C=C), FIG2_BATH
        )
        for omega in (0.3, 1.0, 2.7, 15.0):
            S = build_scattering(model, omega)
            want = closed_form_displacement_scattering(kappa, gamma, omega_m, C, omega)
            np.testing.assert_allclose(S, want, rtol=1e-10, atol=1e-12)

    def test_decoupled_modes_block_diagonal(self):
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, g=0.0), VACUUM)
        S = build_scattering(model, 0.73)
        assert np.all(S[0:2, 2:4] == 0) and np.all(S[2:4, 0:2] == 0)
        # passive blocks are pure phases
        assert abs(abs(S[0, 0]) - 1) < 1e-12
        block = S[2:4, 2:4]
        np.testing.assert_allclose(block @ block.conj().T, np.eye(2), atol=1e-12)

    def test_ideal_qnd_meter_element_at_carrier(self):
        C = 0.26
        model = ideal_qnd_model(10.0, 0.01, VACUUM, C=C)
        S = build_scattering(model, 0.0)
        np.testing.assert_allclose(S[1, 2], -4 * np.sqrt(C), rtol=1e-12)

    def test_reciprocity(self):
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=3.0), FIG2_BATH)
        for omega in (0.2, 1.0, 9.0):
            Sp = build_scattering(model, omega)
            Sm = build_scattering(model, -omega)
            np.testing.assert_allclose(np.conj(Sp), Sm, rtol=1e-12, atol=1e-14)

    def test_singular_frequency_raises(self):
        # undamped oscillator: resonance at omega_m sits on the imaginary axis
        A = np.array([
            [-1.0, 0, 0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
            [0, 0, -1.0, 0],
        ])
        H = np.diag([1.0, 1.0, 0.0, 0.0])
        model = LinearModel(A, H, 0.5 * np.eye(4), FOUR_MODE)
        with pytest.raises(SingularAtFrequency):
            build_scattering(model, 1.0)

    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_frequency_stack_matches_single_frequencies(self, eta):
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=2.0), FIG2_BATH)
        omegas = np.logspace(-2, 3, 50)
        stack = build_scattering(model, omegas)
        assert stack.shape == (50,) + build_scattering(model, 1.0).shape

        def seen(S):
            return detected(cross_spectral_density(S, model.Vin), slice(0, 2), eta, model.Vin[0, 0])

        for w, S, V in zip(omegas, stack, seen(stack)):
            single = build_scattering(model, w)
            np.testing.assert_allclose(S, single, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(V, seen(single), rtol=1e-12, atol=1e-15)

    def test_first_singular_frequency_of_a_stack(self):
        A = np.array([
            [-1.0, 0, 0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 2.0],
            [0, 0, -2.0, 0],
        ])
        model = LinearModel(A, np.diag([1.0, 1.0, 0.0, 0.0]), 0.5 * np.eye(4), FOUR_MODE)
        with pytest.raises(SingularAtFrequency) as err:
            build_scattering(model, np.array([0.5, 2.0, 3.0, -2.0]))
        assert err.value.omega == 2.0
        assert err.value.rcond < 1e-12


def _stack_cases():
    """(id, builder of a model at C, bath, omega, conditioning)."""
    lossy = BathSpec(n_m=1.0, eta=0.6)
    yield ("displacement", lambda C, b: displacement_model(
        DisplacementParams(10.0, 0.01, 1.0, C=C), b), FIG2_BATH, 1.0, "meter")
    yield ("displacement-eta0.6", lambda C, b: displacement_model(
        DisplacementParams(0.5, 0.01, 1.0, C=C), b), lossy, 1.3, "meter")
    yield ("qnd-ideal", lambda C, b: ideal_qnd_model(10.0, 0.01, b, C=C), FIG2_BATH, 0.0, "meter")
    yield ("cqnc-meter+ancilla", lambda C, b: cqnc_model(
        CqncParams(10.0, 0.01, 1.0, C=C), b), FIG2_BATH, 2.2, "meter+ancilla")
    yield ("qnd-imperfect-eta0.6", lambda C, b: imperfect_qnd_model(
        ImperfectQndParams(10.0, 0.01, C=C, nu=0.001, mu=0.002, xi=0.002), b),
        lossy, 0.003, "meter")


def _bits(f):
    """Each field of the figures ``f`` as the CLI prints it."""
    return [repr(float(x)) for x in (f.Vc, f.Ts, f.Tm, f.ns_eq, f.nm_eq, f.omega)], f.regime


class TestModelStack:
    """A model whose drift is a stack over cooperativities against one
    model built per cooperativity."""

    CS = np.logspace(-3, 6, 60)

    @pytest.mark.parametrize(
        "build, bath, omega, conditioning",
        [case[1:] for case in _stack_cases()],
        ids=[case[0] for case in _stack_cases()],
    )
    def test_same_scattering_and_vc_as_one_model_per_c(self, build, bath, omega, conditioning):
        stack = build(self.CS, bath)
        singles = [build(C, bath) for C in self.CS]
        assert stack.A.shape == (len(self.CS),) + singles[0].A.shape
        np.testing.assert_array_equal(stack.A, [m.A for m in singles])
        S = build_scattering(stack, omega)
        np.testing.assert_array_equal(S, [build_scattering(m, omega) for m in singles])
        got = vc_on_grid(stack, omega, bath=bath, conditioning=conditioning)
        want = [evaluate(m, omega, bath=bath, conditioning=conditioning).Vc for m in singles]
        assert got.shape == self.CS.shape
        np.testing.assert_array_equal(got, want)

    def test_first_unstable_matrix_of_a_stack(self):
        stable, unstable = -np.eye(4), -np.eye(4)
        unstable[2, 2] = 0.25
        worse = -np.eye(4)
        worse[2, 2] = 2.0
        check_stable(np.array([stable, stable]))
        with pytest.raises(UnstableModel) as err:
            check_stable(np.array([stable, unstable, worse]))
        assert err.value.max_real == 0.25

    def test_first_singular_model_of_a_stack(self):
        # (nearly) undamped mechanics at omega_m = 1 in the second and third
        # model; the two are singular with different condition numbers
        A = np.array([-np.eye(4)] * 3)
        A[1:, 2, 2] = A[1:, 3, 3] = 0.0
        A[1:, 2, 3], A[1:, 3, 2] = 1.0, -1.0
        A[2, 2, 2] = -1e-14
        model = LinearModel(A, np.diag([1.0, 1.0, 0.0, 0.0]), 0.5 * np.eye(4), FOUR_MODE)
        with pytest.raises(SingularAtFrequency) as stacked:
            build_scattering(model, 1.0)
        with pytest.raises(SingularAtFrequency) as single:
            build_scattering(LinearModel(A[1], model.H, model.Vin, FOUR_MODE), 1.0)
        assert str(stacked.value) == str(single.value)

    def test_stack_shape_and_misuse_rejected(self):
        with pytest.raises(ValueError):
            LinearModel(-np.ones((3, 4, 6)), np.eye(4), 0.5 * np.eye(4), FOUR_MODE)
        stack = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=self.CS), FIG2_BATH)
        assert stack.H.shape == stack.Vin.shape == (4, 4)
        with pytest.raises(ValueError, match="do not pair"):
            evaluate(stack, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="do not pair"):
            vc_on_grid(stack, np.array([0.5, 1.0]))


class TestPairedStack:
    """vc_on_grid with the frequencies paired with the drift stack."""

    CS = np.logspace(-3, 6, 60)
    OMEGAS = np.linspace(0.0, 3.0, 60)

    @pytest.mark.parametrize(
        "build, bath, omega, conditioning",
        [case[1:] for case in _stack_cases()],
        ids=[case[0] for case in _stack_cases()],
    )
    def test_same_vc_as_evaluate_point_by_point(self, build, bath, omega, conditioning):
        got = vc_on_grid(build(self.CS, bath), self.OMEGAS, bath=bath, conditioning=conditioning)
        want = [evaluate(build(C, bath), w, bath=bath, conditioning=conditioning).Vc
                for C, w in zip(self.CS, self.OMEGAS)]
        np.testing.assert_array_equal(got, want)
        # the frequencies broadcast against the stack's leading axes
        Cs, omegas = self.CS[::12], self.OMEGAS[::15, None]
        got = vc_on_grid(build(Cs, bath), omegas, bath=bath, conditioning=conditioning)
        want = [[evaluate(build(C, bath), w, bath=bath, conditioning=conditioning).Vc for C in Cs]
                for w in omegas[:, 0]]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "build, bath, omega, conditioning",
        [case[1:] for case in _stack_cases()],
        ids=[case[0] for case in _stack_cases()],
    )
    def test_paired_figures_equal_evaluate_point_by_point(self, build, bath, omega, conditioning):
        got = evaluate(build(self.CS, bath), self.OMEGAS, bath=bath, conditioning=conditioning)
        want = [evaluate(build(C, bath), w, bath=bath, conditioning=conditioning)
                for C, w in zip(self.CS, self.OMEGAS.tolist())]
        assert [_bits(f) for f in got] == [_bits(f) for f in want]

    @pytest.mark.parametrize(
        "build, bath, omega, conditioning",
        [case[1:] for case in _stack_cases()],
        ids=[case[0] for case in _stack_cases()],
    )
    def test_frequency_grid_on_one_model(self, build, bath, omega, conditioning):
        model = build(3.0, bath)
        got = evaluate(model, self.OMEGAS, bath=bath, conditioning=conditioning)
        want = [evaluate(model, w, bath=bath, conditioning=conditioning)
                for w in self.OMEGAS.tolist()]
        assert [_bits(f) for f in got] == [_bits(f) for f in want]
        assert [f.Vc for f in got] == vc_on_grid(
            model, self.OMEGAS, bath=bath, conditioning=conditioning).tolist()

    def test_unpaired_frequencies_rejected(self):
        stack = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=self.CS), FIG2_BATH)
        for omegas in [self.OMEGAS[1:], self.OMEGAS[:2], np.stack([self.OMEGAS] * 2, axis=1)]:
            with pytest.raises(ValueError, match="do not pair"):
                evaluate(stack, omegas)

    def test_first_singular_point_raises(self):
        # undamped mechanics at omega_m = 1 in the second and third model;
        # paired with 0.5 the second is regular, so the third raises
        A = np.array([-np.eye(4)] * 3)
        A[1:, 2, 2] = A[1:, 3, 3] = 0.0
        A[1:, 2, 3], A[1:, 3, 2] = 1.0, -1.0
        H, Vin = np.diag([1.0, 1.0, 0.0, 0.0]), 0.5 * np.eye(4)
        omegas = np.array([1.0, 0.5, 1.0])
        with pytest.raises(SingularAtFrequency) as stacked:
            vc_on_grid(LinearModel(A, H, Vin, FOUR_MODE), omegas)
        with pytest.raises(SingularAtFrequency) as single:
            for a, w in zip(A, omegas.tolist()):
                evaluate(LinearModel(a, H, Vin, FOUR_MODE), w)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.omega == 1.0


def _near_singular(exponent, angle):
    """4x4 block whose equilibrated rcond is about 10**exponent: a rotated
    diag(1, eps) block beside a damped one; exponent None gives an exactly
    singular block."""
    M = np.zeros((4, 4), dtype=complex)
    if exponent is None:
        M[:2, :2] = 1.0
    else:
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        M[:2, :2] = R @ np.diag([1.0, 10.0**exponent]) @ R.T
    M[2:, 2:] = [[-1.0, 2.0], [-2.0, -0.5]]
    return M


class TestSingularityGuard:
    """The stacked condition check against the equilibrated SVD rule."""

    @staticmethod
    def _svd_rule(M, omegas):
        """(omega, rcond) of the first matrix the SVD rule rejects, or None."""
        rcond = 1.0 / np.linalg.cond(core._equilibrated(M)[0])
        failing = np.flatnonzero(~(rcond >= RCOND_FLOOR))
        return (omegas[failing[0]], rcond[failing[0]]) if failing.size else None

    @settings(max_examples=80)
    @given(
        exponents=st.lists(st.one_of(st.floats(-13.0, -11.0), st.none()), min_size=1, max_size=12),
        angle=st.floats(0.1, 1.4),
    )
    def test_same_decision_as_the_svd_rule(self, exponents, angle):
        M = np.array([_near_singular(e, angle) for e in exponents])
        omegas = 0.25 * np.arange(len(exponents))
        want = self._svd_rule(M, omegas)
        if want is None:
            core._require_regular(M, omegas)
            return
        with pytest.raises(SingularAtFrequency) as err:
            core._require_regular(M, omegas)
        assert (err.value.omega, err.value.rcond) == want

    def test_straddling_stack(self):
        exponents = np.linspace(-13.0, -11.0, 21)
        M = np.array([_near_singular(e, 0.7) for e in exponents[::-1]])
        omegas = np.arange(len(M), dtype=float)
        want = self._svd_rule(M, omegas)
        assert want is not None and 0 < want[0] < len(M) - 1  # some pass, some fail
        with pytest.raises(SingularAtFrequency) as err:
            core._require_regular(M, omegas)
        assert (err.value.omega, err.value.rcond) == want
        with pytest.raises(SingularAtFrequency) as err:
            core._require_regular(M[int(want[0])], want[0])  # one matrix: the SVD alone
        assert (err.value.omega, err.value.rcond) == want

    def test_well_conditioned_stack_skips_the_svd(self, monkeypatch):
        M = np.array([_near_singular(e, 0.7) for e in np.linspace(-11.0, 0.0, 12)])
        monkeypatch.setattr(np.linalg, "cond", lambda *a: pytest.fail("SVD not expected"))
        core._require_regular(M, np.zeros(len(M)))


class TestGuardFromTheSolve:
    """build_scattering on a stack bounds the condition number with the
    inverse M^-1 = X diag(1/h) of its own solve X = M^-1 H; which matrices
    raise, and the rcond they report, stay those of the SVD rule."""

    H = [0.5, 2.0, 1.0, 3.0]

    @staticmethod
    def _model(A, h):
        return LinearModel(A, np.diag(h), 0.5 * np.eye(4), FOUR_MODE)

    @settings(max_examples=80)
    @given(
        exponents=st.lists(st.one_of(st.floats(-13.0, -11.0), st.none()), min_size=1, max_size=12),
        angle=st.floats(0.1, 1.4),
        h=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
        scales=st.lists(st.integers(-20, 20), min_size=8, max_size=8),
    )
    def test_same_decision_as_the_svd_rule(self, exponents, angle, h, scales):
        # rows and columns scaled by powers of two: a rate hierarchy
        rows, cols = 2.0 ** np.array(scales[:4]), 2.0 ** np.array(scales[4:])
        A = np.array([rows[:, None] * _near_singular(e, angle).real * cols for e in exponents])
        omegas = 1e-14 * np.arange(len(A))  # the first matrix is exactly singular where e is None
        want = TestSingularityGuard._svd_rule(A + 1j * omegas[:, None, None] * np.eye(4), omegas)
        if want is None:
            build_scattering(self._model(A, h), omegas)
            return
        with pytest.raises(SingularAtFrequency) as err:
            build_scattering(self._model(A, h), omegas)
        assert (err.value.omega, err.value.rcond) == want

    def test_zero_in_h_takes_the_inverse(self, monkeypatch):
        A = np.array([_near_singular(e, 0.7).real for e in np.linspace(-11.0, -13.0, 9)])
        want = TestSingularityGuard._svd_rule(A + 0j, np.zeros(len(A)))
        inv, sizes = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda E: sizes.append(len(E)) or inv(E))
        with pytest.raises(SingularAtFrequency) as err:
            build_scattering(self._model(A, [1.0, 1.0, 0.0, 1.0]), 0.0)
        assert (err.value.omega, err.value.rcond) == want
        assert sizes == [len(A)]

    def test_exactly_singular_matrix_stops_the_solve(self):
        A = np.array([_near_singular(e, 0.7).real for e in (-5.0, None, -13.0)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A + 0j, np.diag(self.H) + 0j)
        want = TestSingularityGuard._svd_rule(A + 0j, np.zeros(len(A)))
        assert want[1] < RCOND_FLOOR
        with pytest.raises(SingularAtFrequency) as err:
            build_scattering(self._model(A, self.H), 0.0)
        assert (err.value.omega, err.value.rcond) == want

    def test_well_conditioned_stack_needs_no_inverse_and_no_svd(self, monkeypatch):
        A = np.array([_near_singular(e, 0.7).real for e in np.linspace(-11.0, 0.0, 12)])
        singles = [build_scattering(self._model(a, self.H), 0.3) for a in A]
        disp = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=2.0), FIG2_BATH)
        omegas = np.logspace(-2, 3, 50)
        grid = [build_scattering(disp, w) for w in omegas]
        for name in ("inv", "cond"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name: pytest.fail(name))
        np.testing.assert_array_equal(build_scattering(self._model(A, self.H), 0.3), singles)
        np.testing.assert_array_equal(build_scattering(disp, omegas), grid)


class TestInputCovariance:
    def test_vacuum(self):
        np.testing.assert_array_equal(input_covariance(VACUUM, FOUR_MODE), 0.5 * np.eye(4))

    def test_thermal_mechanical(self):
        V = input_covariance(BathSpec(n_m=1.0), FOUR_MODE)
        np.testing.assert_allclose(V[2:4, 2:4], 1.5 * np.eye(2))

    def test_squeezed_correlations(self):
        V = input_covariance(BathSpec(n_m=1.0, m_sq=0.5j), FOUR_MODE)
        assert V[2, 3] == V[3, 2] == 0.5
        assert V[2, 2] == V[3, 3] == 1.5

    def test_bath_invariants_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(n_m=0.1, m_sq=1.0)
        with pytest.raises(ValueError):
            BathSpec(n_m=-1.0)
        with pytest.raises(ValueError):
            BathSpec(eta=1.5)


class TestOutputCovariance:
    def test_passive_vacuum_preserved(self):
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, g=0.0), VACUUM)
        for omega in (0.0, 0.5, 1.0, 20.0):
            np.testing.assert_allclose(
                output_covariance(model, omega), 0.5 * np.eye(4), atol=1e-12
            )

    @settings(max_examples=40)
    @given(
        omega=st.floats(-30.0, 30.0),
        kappa=st.floats(0.1, 30.0),
        omega_m=st.floats(0.1, 5.0),
    )
    def test_vacuum_preservation_property(self, omega, kappa, omega_m):
        model = displacement_model(DisplacementParams(kappa, 0.01, omega_m, g=0.0), VACUUM)
        np.testing.assert_allclose(
            output_covariance(model, omega), 0.5 * np.eye(4), atol=1e-10
        )

    def test_two_sided_form_agrees(self):
        # V_out(w) = (1/2) [S(w) V_in S(-w)^T + S(-w) V_in S(w)^T]
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=2.0), FIG2_BATH)
        omega = 1.3
        S_plus = build_scattering(model, omega)
        S_minus = build_scattering(model, -omega)
        V = 0.5 * (S_plus @ model.Vin @ S_minus.T + S_minus @ model.Vin @ S_plus.T)
        np.testing.assert_allclose(V.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(V.real, output_covariance(model, omega), atol=1e-12)

    @settings(max_examples=40)
    @given(
        omega=st.floats(0.0, 10.0),
        C=st.floats(0.0, 100.0),
        n_m=st.floats(0.0, 20.0),
    )
    def test_heisenberg_bound_per_mode(self, omega, C, n_m):
        bath = BathSpec(n_m=n_m)
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=C), bath)
        V = output_covariance(model, omega)
        for m in range(2):
            block = V[2 * m : 2 * m + 2, 2 * m : 2 * m + 2]
            assert np.linalg.det(block) >= 0.25 - 1e-9


def augmented_oracle(model, omega, eta):
    """Detected cross-spectral density from the loss-augmented scattering
    matrix: the meter mode's output rows scale by sqrt(eta), and two
    ancilla inputs at the meter mode's input variance enter those rows
    through sqrt(1 - eta) columns."""
    S = build_scattering(model, omega)
    n, r0 = S.shape[-1], 2 * model.meter_mode
    aug = np.zeros(S.shape[:-1] + (n + 2,), dtype=complex)
    aug[..., :n] = S
    aug[..., r0 : r0 + 2, :n] *= np.sqrt(eta)
    aug[..., r0, n] = aug[..., r0 + 1, n + 1] = np.sqrt(1.0 - eta)
    Vin = np.zeros((n + 2, n + 2))
    Vin[:n, :n] = model.Vin
    Vin[n, n] = Vin[n + 1, n + 1] = model.Vin[r0, r0]
    return cross_spectral_density(aug, Vin)


class TestDetectionLoss:
    """Detection loss as a beam splitter on the measured output mode."""

    @staticmethod
    def _seen(model, omega, eta):
        S = build_scattering(model, omega)
        return detected(cross_spectral_density(S, model.Vin), slice(0, 2), eta, model.Vin[0, 0])

    def test_matches_augmented_scattering_oracle(self):
        for eta in (1.0, 0.6, 0.25, 0.0):
            for n_c in (0.0, 0.5):
                bath = BathSpec(n_m=1.0, n_c=n_c)
                for C in (1.3, np.logspace(-3, 4, 30)):
                    model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=C), bath)
                    got, want = self._seen(model, 0.9, eta), augmented_oracle(model, 0.9, eta)
                    assert got.shape == want.shape
                    err = np.abs(got - want).max(axis=(-2, -1))
                    assert np.all(err <= 1e-14 * np.abs(want).max(axis=(-2, -1))), (eta, n_c)

    def test_figures_match_augmented_scattering_oracle(self):
        model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=1.3), FIG2_BATH)
        S = build_scattering(model, 0.9)
        for eta in (0.6, 0.25):
            figs = evaluate(model, 0.9, bath=BathSpec(n_m=1.0, eta=eta))
            V = augmented_oracle(model, 0.9, eta)
            assert figs.Vc == pytest.approx(conditional_variance(V, FOUR_MODE), rel=1e-14)
            nm = V[1, 1].real / (eta * abs(S[1, 2]) ** 2) - FIG2_BATH.V_x
            assert figs.nm_eq == pytest.approx(nm, rel=1e-13)

    def test_lossless_limit_matches_square(self):
        model = ideal_qnd_model(10.0, 0.01, VACUUM, C=1.0)
        V = cross_spectral_density(build_scattering(model, 0.4), model.Vin)
        assert detected(V, slice(0, 2), 1.0, 0.5) is V
        assert evaluate(model, 0.4, bath=BathSpec(eta=1.0)) == evaluate(model, 0.4)

    def test_total_loss_leaves_only_ancilla(self):
        model = ideal_qnd_model(10.0, 0.01, VACUUM, C=1.0)
        V = self._seen(model, 0.0, 0.0)
        np.testing.assert_array_equal(V[0:2, 0:2], 0.5 * np.eye(2))
        np.testing.assert_array_equal(V[0:2, 2:4], 0.0)
        figs = evaluate(model, 0.0, bath=BathSpec(eta=0.0))
        assert figs.Vc == V[2, 2].real and figs.Tm == 0.0

    def test_thermal_ancilla_mirrors_cavity_bath(self):
        # the loss fills the detected meter output with the cavity bath's
        # noise, n_c + 1/2 = 1 here
        bath = BathSpec(n_m=1.0, n_c=0.5)
        model = ideal_qnd_model(10.0, 0.01, bath, C=1.0)
        m, s = model.layout.meter_index, model.layout.signal_index
        S = build_scattering(model, 0.3)
        V_mm = cross_spectral_density(S, model.Vin)[m, m].real
        for eta in (0.6, 0.25):
            figs = evaluate(model, 0.3, bath=BathSpec(n_m=1.0, n_c=0.5, eta=eta))
            nm = (eta * V_mm + (1.0 - eta) * 1.0) / (eta * abs(S[m, s]) ** 2) - bath.V_x
            assert figs.nm_eq == pytest.approx(nm, rel=1e-13)
            V = augmented_oracle(model, 0.3, eta)
            assert figs.Vc == pytest.approx(conditional_variance(V, FOUR_MODE), rel=1e-14)


class TestMatrix:
    """``core.matrix``, the physics literal of a drift as a matrix, or as a
    stack ``[..., i, j]`` when entries are arrays."""

    def test_numbers_give_a_matrix(self):
        rows = [[1, -2.5, np.float64(0.25)], [0, np.array(3.0), -1]]
        M = core.matrix(rows)
        assert M.shape == (2, 3) and M.dtype == np.float64
        assert M.tobytes() == np.array([[1, -2.5, 0.25], [0, 3, -1]], dtype=float).tobytes()

    def test_stack_holds_the_literal_at_each_point(self):
        a = np.linspace(0.1, 0.7, 3)[:, None]  # (3, 1)
        b = np.logspace(-3, 2, 4)  # (4,)
        c = np.array(-1.0 / 3.0)  # 0-d
        M = core.matrix([[a, 0, b], [c, a * b, 2]])
        assert M.shape == (3, 4, 2, 3) and M.dtype == np.float64 and M.flags.c_contiguous
        for i in range(3):
            for j in range(4):
                want = np.array([[a[i, 0], 0, b[j]], [float(c), (a * b)[i, j], 2]])
                assert M[i, j].tobytes() == want.tobytes()

    def test_nan_and_inf_pass_through(self):
        M = core.matrix([[np.array([np.nan, 1.0]), np.inf], [0, -np.inf]])
        want = [[[np.nan, np.inf], [0, -np.inf]], [[1.0, np.inf], [0, -np.inf]]]
        np.testing.assert_array_equal(M, want)
        np.testing.assert_array_equal(core.matrix([[np.nan, np.inf]]), [[np.nan, np.inf]])


class TestModelValidation:
    def test_nondiagonal_H_rejected(self):
        A = -np.eye(4)
        H = np.eye(4)
        H[0, 1] = 0.1
        with pytest.raises(ValueError):
            LinearModel(A, H, 0.5 * np.eye(4), FOUR_MODE)

    def test_subvacuum_input_rejected(self):
        with pytest.raises(ValueError):
            LinearModel(-np.eye(4), np.eye(4), 0.3 * np.eye(4), FOUR_MODE)

    def test_input_covariance_must_match_the_layout(self):
        with pytest.raises(ValueError, match="4 x 4"):
            LinearModel(-np.eye(4), np.eye(4), 0.5 * np.eye(6), FOUR_MODE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_H_rejected(self, bad):
        H = np.eye(4)
        H[1, 1] = bad
        with pytest.raises(ValueError, match="H must be diagonal"):
            LinearModel(-np.eye(4), H, 0.5 * np.eye(4), FOUR_MODE)
        with pytest.raises(ValueError, match="H must be diagonal"):
            LinearModel(-np.stack([np.eye(4)] * 2), np.stack([np.eye(4), H]), 0.5 * np.eye(4),
                        FOUR_MODE)


class TestModeLayout:
    def test_odd_length_rejected(self):
        from tvmeter import ModeLayout

        with pytest.raises(ValueError):
            ModeLayout(("X", "Y", "x"), 2, 1)

    def test_duplicate_roles_rejected(self):
        from tvmeter import ModeLayout

        with pytest.raises(ValueError):
            ModeLayout(("X", "Y", "x", "p"), 2, 2)

    def test_out_of_range_rejected(self):
        from tvmeter import ModeLayout

        with pytest.raises(ValueError):
            ModeLayout(("X", "Y", "x", "p"), 2, 9)
