"""Harmonic (sideband) expansion of the beyond-RWA readout."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmeter import (
    FOUR_MODE,
    BathSpec,
    FloquetDrift,
    SingularAtFrequency,
    UnstableModel,
    check_stable,
    decompose_drift,
    floquet,
    floquet_metrics,
    floquet_qnd_metrics_closed,
    floquet_vc,
    ideal_qnd_metrics,
    input_covariance,
    sideband_scattering,
)
from tvmeter.cli import scenario_figures
from tvmeter.core import matrix
from tvmeter.models import _readout_couplings, cooperativity_to_g

OMEGA_M = 1.0
FIG7_BATH = BathSpec(n_m=1.0)   # gamma/omega_m = 0.01 scenario
COLD_GAMMA = 1e-5               # closed forms assume gamma << kappa, omega_m


def _figs(m):
    return np.array([m.Vc, m.Ts, m.Tm])


def _block_tridiagonal_blocks(fd, H, omega, order):
    """Blocks S_n, |n| <= order, of the harmonic system truncated at
    ``order`` and solved whole: component m sits on the diagonal block
    A(0) + i(w_n - 2 m w_m) I and couples to m + 1 through A(-1) and to
    m - 1 through A(+1), driven by -H at m = 0; S_n reads component n at
    the base frequency w_n = w + 2 n w_m."""
    size = 2 * order + 1
    rhs = np.zeros((4 * size, 4), dtype=complex)
    rhs[4 * order : 4 * order + 4] = -H
    blocks = {}
    for n in range(-order, order + 1):
        M = np.zeros((4 * size, 4 * size), dtype=complex)
        for b, m in enumerate(range(-order, order + 1)):
            rows = slice(4 * b, 4 * b + 4)
            w = omega + 2 * (n - m) * fd.omega_m
            M[rows, rows] = fd.A_zero + 1j * w * np.eye(4)
            if b + 1 < size:
                M[rows, 4 * b + 4 : 4 * b + 8] = fd.A_minus
            if b > 0:
                M[rows, 4 * b - 4 : 4 * b] = fd.A_plus
        u = np.linalg.solve(M, rhs)
        blocks[n] = H @ u[4 * (n + order) : 4 * (n + order) + 4] - (n == 0) * np.eye(4)
    return blocks


class TestDecomposition:
    def test_zero_coupling(self):
        fd = decompose_drift(0.5, 0.01, OMEGA_M, g=0.0)
        assert np.all(fd.A_minus == 0) and np.all(fd.A_plus == 0)

    def test_sideband_entries(self):
        g = 0.37
        fd = decompose_drift(0.5, 0.01, OMEGA_M, g=g)
        assert fd.A_plus[1, 2] == -g
        assert fd.A_plus[1, 3] == -1j * g
        np.testing.assert_array_equal(fd.A_plus, np.conj(fd.A_minus))

    def test_reconstruction_at_sample_times(self):
        kappa, gamma, g = 0.5, 0.01, 0.2
        fd = decompose_drift(kappa, gamma, OMEGA_M, g=g)

        def direct(t):
            c = np.cos(2 * OMEGA_M * t)
            s = np.sin(2 * OMEGA_M * t)
            return np.array([
                [-kappa / 2, 0, 0, 0],
                [0, -kappa / 2, -2 * g * (1 + c), 2 * g * s],
                [-2 * g * s, 0, -gamma / 2, 0],
                [-2 * g * (1 + c), 0, 0, -gamma / 2],
            ])

        def at_time(t):
            return (fd.A_minus * np.exp(-2j * OMEGA_M * t) + fd.A_zero
                    + fd.A_plus * np.exp(2j * OMEGA_M * t)).real

        for t in (0.0, np.pi / (4 * OMEGA_M), 0.77, 3.1):
            np.testing.assert_allclose(at_time(t), direct(t), atol=1e-12)

    def test_sidebands_end_at_first_order(self):
        """The premise of the exact three-component solve: A(-1)^2 = 0,
        nothing drives X, Y drives nothing, and the mechanical block of
        the static part is a multiple of the identity."""
        fd = decompose_drift(0.5, 0.01, OMEGA_M, C=np.logspace(-3, 4, 8))
        assert np.all(fd.A_minus @ fd.A_minus == 0)
        for part in (fd.A_minus, fd.A_zero, fd.A_plus):
            assert np.all(part[..., 0, 1:] == 0)
            assert np.all(part[..., [0, 2, 3], 1] == 0)
        mech = fd.A_zero[..., 2:, 2:]
        np.testing.assert_array_equal(mech, mech[..., :1, :1] * np.eye(2))

    @pytest.mark.parametrize("order", [0, -1, 0.5, 2.9, float("inf"), float("nan"), True, "1", None])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        with pytest.raises(ValueError, match="harmonic order"):
            decompose_drift(0.5, 0.01, OMEGA_M, C=1.0, order=order)

    def test_static_part_is_ideal_qnd_drift(self):
        fd = decompose_drift(0.5, 0.01, OMEGA_M, C=1.0)
        g = cooperativity_to_g(1.0, 0.5, 0.01)
        assert fd.A_zero[1, 2] == pytest.approx(-2 * g)
        assert fd.A_zero[3, 0] == pytest.approx(-2 * g)


#: decay rates about the stability margin (the static drift is unstable where
#: kappa or gamma is below 2 STABILITY_TOL = 2e-10) and about the smallest
#: entry moduli that LAPACK takes unscaled (about 6.7e-139)
_RATES = st.one_of(st.floats(1e-13, 1e3), st.floats(1e-10, 4e-10), st.floats(1e-140, 1e-136),
                   st.sampled_from([2e-10, np.nextafter(2e-10, 0), np.nextafter(2e-10, 1),
                                    5e-324]))
#: couplings up to and beyond the largest entry modulus LAPACK takes unscaled
#: (about 1.5e138), and non-finite ones
_COUPLINGS = st.one_of(st.floats(-1e3, 1e3), st.floats(1e-140, 1e-136), st.floats(3e137, 3e138),
                       st.sampled_from([0.0, -1e200, np.inf, np.nan]))


def _outcome(call):
    """(class, text, max_real) of the error that ``call()`` raises, or None."""
    try:
        call()
    except Exception as err:  # noqa: BLE001 - any error is compared
        return type(err), str(err), getattr(err, "max_real", None)
    return None


class TestStabilityFromTheDiagonal:
    """The static drift is lower triangular in (X, x, Y, p), so its
    stability is that of its diagonal; decompose_drift checks it through
    ``core.check_stable``, as every builder does."""

    @settings(max_examples=200, deadline=None)
    @given(points=st.integers(0, 3), data=st.data())
    def test_same_decision_and_text_as_the_eigenvalues(self, points, data):
        """decompose_drift raises exactly where the eigenvalue check of its
        static drift does, with its text and value, at the first unstable
        point of a stack; non-finite couplings and drifts that LAPACK
        scales included."""
        def draw(values):
            return (data.draw(values) if points == 0 else
                    np.array(data.draw(st.lists(values, min_size=points, max_size=points))))

        kappa, gamma, g = draw(_RATES), draw(_RATES), draw(_COUPLINGS)
        k2, g2m, c = kappa / 2, gamma / 2, -2.0 * g
        A_zero = matrix([[-k2, 0, 0, 0], [0, -k2, c, 0], [0, 0, -g2m, 0], [c, 0, 0, -g2m]])
        with np.errstate(invalid="ignore"):  # an infinite g makes inf * 0 in the sidebands
            got = _outcome(lambda: decompose_drift(kappa, gamma, OMEGA_M, g=g))
        assert got == _outcome(lambda: check_stable(A_zero))


class TestScattering:
    def test_zero_coupling_passive(self):
        fd = decompose_drift(0.5, 0.01, OMEGA_M, g=0.0)
        H = np.diag([np.sqrt(0.5)] * 2 + [np.sqrt(0.01)] * 2)
        blocks = sideband_scattering(fd, H, 0.3)
        np.testing.assert_allclose(np.abs(np.diag(blocks[0])), 1.0, atol=1e-12)
        assert np.max(np.abs(blocks[1])) == 0.0
        assert np.max(np.abs(blocks[-1])) == 0.0

    @pytest.mark.parametrize("omega", [0.0, 0.3])
    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("kappa", [0.05, 0.5, 1.0])
    def test_against_block_tridiagonal_solve(self, kappa, C, omega):
        fd = decompose_drift(kappa, 0.01, OMEGA_M, C=C)
        H = np.diag([np.sqrt(kappa)] * 2 + [np.sqrt(0.01)] * 2)
        want = _block_tridiagonal_blocks(fd, H, omega, order=3)
        got = sideband_scattering(fd, H, omega)
        assert sorted(got) == [-1, 0, 1]
        bound = 1e-10 * max(np.abs(S).max() for S in want.values())
        for n, S in want.items():
            if abs(n) >= 2:
                assert np.abs(S).max() <= bound
            else:
                assert np.abs(got[n] - S).max() <= bound

    def test_singular_block_names_the_detection_frequency(self):
        zero = np.zeros((4, 4), dtype=complex)
        marginal = FloquetDrift(zero, zero.real, zero, OMEGA_M)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the substitution's 1/0 stays quiet
            with pytest.raises(SingularAtFrequency) as err:
                sideband_scattering(marginal, np.eye(4), 0.0)
        assert err.value.omega == 0.0

    @pytest.mark.parametrize("part", ["A_zero", "A_minus"])
    def test_drift_that_is_not_feed_forward_raises(self, part):
        """Y driving X, in the static drift or through a sideband, puts an
        entry above the diagonal of a diagonal block or of a Schur
        complement in the order (X, x, Y, p); the three-component solve
        is not exact for such a drift, and the substitution would be
        wrong."""
        fd = decompose_drift(0.5, 0.01, OMEGA_M, C=1.0)
        parts = {name: getattr(fd, name).copy() for name in ("A_minus", "A_zero")}
        parts[part][0, 1] = 0.1
        drift = FloquetDrift(parts["A_minus"], parts["A_zero"], parts["A_minus"].conj(), OMEGA_M)
        with pytest.raises(ValueError, match="not feed forward"):
            sideband_scattering(drift, _readout_couplings(0.5, 0.01), 0.3)

    @pytest.mark.parametrize("part, entry, value", [
        ("A_zero", (3, 2), 0.05),     # x drives p: the mechanical block is not a multiple of I
        ("A_zero", (3, 3), -0.02),    # p damped unlike x
        ("A_minus", (2, 3), 0.1),     # a sideband inside the mechanical block
        ("A_minus", (1, 3), 0.3j),    # A(-1)^2 = 0 no longer holds
    ], ids=["p-driven-by-x", "unequal-damping", "sideband-x-p", "square"])
    def test_drift_outside_the_premise_raises(self, part, entry, value):
        """The static drifts stay lower triangular in (X, x, Y, p) and still
        give sidebands beyond |n| = 1 (at least 1e-6 of the largest block in
        the order-4 solve), which the three-component solve would drop
        without a word; every drift outside the premise raises instead."""
        fd = decompose_drift(0.5, 0.01, OMEGA_M, C=1.0)
        parts = {name: getattr(fd, name).copy() for name in ("A_minus", "A_zero")}
        parts[part][entry] = value
        drift = FloquetDrift(parts["A_minus"], parts["A_zero"], parts["A_minus"].conj(), OMEGA_M)
        H = _readout_couplings(0.5, 0.01)
        if part == "A_zero":
            blocks = _block_tridiagonal_blocks(drift, H, 0.3, order=4)
            largest = max(np.abs(S).max() for S in blocks.values())
            assert min(np.abs(blocks[n]).max() for n in (-2, 2)) > 1e-6 * largest
        with pytest.raises(ValueError, match="^drift is not feed forward"):
            sideband_scattering(drift, H, 0.3)

    def test_every_feed_forward_drift_is_solved_exactly(self):
        """Entries the QND drift leaves at zero but the premise allows (the
        static X -> x, p -> Y and X -> Y couplings, sidebands whose squares
        cancel only up to rounding) take the same closed form."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            A_zero = np.diag([-0.3, -0.2, -0.05, -0.05])
            A_zero[[2, 3, 1, 1, 1], [0, 0, 2, 3, 0]] = rng.normal(size=5)
            A_minus = np.zeros((4, 4), dtype=complex)
            A_minus[[2, 3, 1], [0, 0, 2]] = rng.normal(size=3) + 1j * rng.normal(size=3)
            A_minus[1, 3] = -A_minus[1, 2] * A_minus[2, 0] / A_minus[3, 0]
            fd = FloquetDrift(A_minus, A_zero, A_minus.conj(), OMEGA_M)
            H = np.diag(rng.uniform(0.1, 1.0, 4))
            want = _block_tridiagonal_blocks(fd, H, 0.3, order=3)
            got = sideband_scattering(fd, H, 0.3)
            bound = 1e-12 * max(np.abs(S).max() for S in want.values())
            for n, S in want.items():
                assert np.abs(got[n] - S if abs(n) < 2 else S).max() <= bound

    def test_input_couplings_must_be_diagonal(self):
        H = _readout_couplings(0.5, 0.01)
        H[1, 0] = 0.1
        with pytest.raises(ValueError, match="diagonal"):
            sideband_scattering(decompose_drift(0.5, 0.01, OMEGA_M, C=1.0), H, 0.3)

    def test_regular_blocks_take_no_lapack_call(self, monkeypatch):
        """Blocks that pass the guard's Frobenius bound are inverted by
        substitution; LAPACK runs only in the guard's SVD fallback."""
        drifts = [decompose_drift(0.5, 0.01, OMEGA_M, C=1.0),
                  decompose_drift(0.05, 0.01, OMEGA_M, C=np.logspace(-3, 4, 40))]
        for name in ("solve", "inv", "cond", "svd"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, name=name, **k: pytest.fail(f"np.linalg.{name} called"))
        for fd in drifts:
            for omega in (0.0, 0.3):
                floquet_metrics(fd, FIG7_BATH, omega)

    @pytest.mark.parametrize("omega_m", [1e3, 1e4])
    def test_rate_hierarchy_is_not_singular(self, omega_m):
        """gamma/omega_m down to 1e-13 inflates only the raw condition
        number; the readout stays in its resolved-sideband limit."""
        got = floquet_metrics(decompose_drift(0.5, 1e-9, omega_m, C=1.0), FIG7_BATH)
        assert got.Vc == pytest.approx(ideal_qnd_metrics(1.0, 1.5).Vc, rel=1e-6)

    def test_kernels_solve_through_the_module_attribute(self, monkeypatch):
        """perfbench times the solve by wrapping ``floquet.sideband_scattering``
        where it is looked up, so both kernels must call it by that name."""
        calls = []
        solve = floquet.sideband_scattering

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(floquet, "sideband_scattering", counted)
        floquet_metrics(decompose_drift(0.5, 0.01, OMEGA_M, C=1.0), FIG7_BATH, 0.3)
        assert len(calls) == 1
        floquet_vc(decompose_drift(0.5, 0.01, OMEGA_M, C=np.logspace(-2, 2, 5)), FIG7_BATH)
        assert len(calls) == 2


class TestMetrics:
    @pytest.mark.parametrize("kappa_ratio", [0.1, 0.5])
    def test_closed_forms_within_one_percent(self, kappa_ratio):
        kappa = kappa_ratio * OMEGA_M
        bath = BathSpec(n_m=1.0)
        for C in [0.0, *np.logspace(-2, 2, 9)]:
            fd = decompose_drift(kappa, COLD_GAMMA, OMEGA_M, C=C)
            got = _figs(floquet_metrics(fd, bath))
            closed = floquet_qnd_metrics_closed(C, kappa, OMEGA_M, bath.V_x)
            np.testing.assert_allclose(got, _figs(closed), rtol=1e-2)
            if C == 0.0:
                assert (closed.nm_eq, closed.Tm) == (np.inf, 0.0)

    def test_resolved_sideband_limit_recovers_ideal(self):
        kappa = 1e-3 * OMEGA_M
        for C in (0.1, 1.0):
            fd = decompose_drift(kappa, 0.01, OMEGA_M, C=C)
            got = _figs(floquet_metrics(fd, FIG7_BATH))
            want = _figs(ideal_qnd_metrics(C, 1.5))
            np.testing.assert_allclose(got, want, atol=1e-4)

    def test_closed_form_equivalent_noises_exact(self):
        # n_eq = V_x (1/T - 1) of the transfer closed forms, in exact
        # arithmetic; in floats that form cancels here, where T = 1 - 3e-11
        figs = floquet_qnd_metrics_closed(1e8, 1e-9, OMEGA_M, 1.5)
        C, kappa, w, Vx = (Fraction(v) for v in (1e8, 1e-9, OMEGA_M, 1.5))
        X = 4 * kappa * w / (kappa**2 + 16 * w**2)
        Ts = 1 / (1 + 8 * C * X**2 / Vx)
        Tm = 32 * C / (32 * C + (1 + 64 * (C * X) ** 2) / Vx)
        assert figs.ns_eq == pytest.approx(float(Vx * (1 / Ts - 1)), rel=1e-14)
        assert figs.nm_eq == pytest.approx(float(Vx * (1 / Tm - 1)), rel=1e-14)

    def test_closed_form_kappa_to_zero_limit(self):
        got = _figs(floquet_qnd_metrics_closed(2.0, 1e-9, OMEGA_M, 1.5))
        want = _figs(ideal_qnd_metrics(2.0, 1.5))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_large_cooperativity_saturation(self):
        # V_c plateaus at V_x and T_m falls below one at fixed sideband ratio
        m = floquet_qnd_metrics_closed(1e8, 0.5, OMEGA_M, 1.5)
        assert m.Vc == pytest.approx(1.5, rel=1e-4)
        assert m.Tm < 1e-3

    @pytest.mark.parametrize("kappa_ratio", [0.1, 0.5])
    def test_qnd_regime_reachable(self, kappa_ratio):
        kappa = kappa_ratio * OMEGA_M
        found = False
        for C in np.logspace(-2, 2, 40):
            fd = decompose_drift(kappa, 0.01 * OMEGA_M, OMEGA_M, C=C)
            figs = floquet_metrics(fd, FIG7_BATH)
            if figs.regime.value == "QND":
                found = True
                break
        assert found

    @pytest.mark.parametrize("gamma, unstable", [(1e-9, False), (1e-10, True), (1e-13, True)])
    def test_stability_guard_matches_ideal_qnd(self, gamma, unstable):
        """The static drift's eigenvalues are the Floquet exponents, so the
        readout becomes unstable at the same gamma as the ideal QND model."""
        bath = BathSpec(n_m=1.0)
        for scenario, extra in (("qnd-ideal", {}), ("qnd-floquet", {"omega_m": OMEGA_M, "order": 1})):
            params = dict(kappa=0.5, gamma=gamma, C=1.0, g=None, **extra)
            if unstable:
                with pytest.raises(UnstableModel):
                    scenario_figures(scenario, params, bath, 0.0, "meter")
            else:
                assert scenario_figures(scenario, params, bath, 0.0, "meter").Vc > 0


class TestDriftStack:
    """A drift stacked over cooperativities against one drift per C."""

    CS = np.logspace(-3, 4, 40)

    # (kappa, gamma, omega) settings, indexed so each case keeps a short id.
    CASES = [(0.5, 0.01, 0.3), (0.05, 0.01, 0.0), (3.0, 0.1, 1.7)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_components_and_blocks_match_one_drift_per_c(self, case):
        kappa, gamma, omega = self.CASES[case]
        stack = decompose_drift(kappa, gamma, OMEGA_M, C=self.CS)
        singles = [decompose_drift(kappa, gamma, OMEGA_M, C=C) for C in self.CS]
        for part in ("A_minus", "A_zero", "A_plus"):
            np.testing.assert_array_equal(getattr(stack, part), [getattr(fd, part) for fd in singles])
        H = np.diag([np.sqrt(kappa)] * 2 + [np.sqrt(gamma)] * 2)
        blocks = sideband_scattering(stack, H, omega)
        for n, S in blocks.items():
            np.testing.assert_array_equal(S, [sideband_scattering(fd, H, omega)[n] for fd in singles])

    @pytest.mark.parametrize("kappa, omega, eta", [(0.5, 0.0, 1.0), (0.05, 0.2, 1.0), (0.3, 0.0, 0.7)])
    def test_vc_matches_floquet_metrics(self, kappa, omega, eta):
        bath = BathSpec(n_m=1.0, eta=eta)
        got = floquet_vc(decompose_drift(kappa, 0.01, OMEGA_M, C=self.CS), bath, omega)
        want = [floquet_metrics(decompose_drift(kappa, 0.01, OMEGA_M, C=C), bath, omega).Vc
                for C in self.CS]
        assert got.shape == self.CS.shape
        np.testing.assert_array_equal(got, want)
        single = decompose_drift(kappa, 0.01, OMEGA_M, C=2.0)
        assert floquet_vc(single, bath, omega) == floquet_metrics(single, bath, omega).Vc


class TestClosedForm:
    """The closed-form blocks on generated drifts: against the solve of the
    whole harmonic system, and each stacked block with the bits of its
    point alone."""

    RATE = st.floats(-3.0, 1.0).map(lambda e: 10.0**e * OMEGA_M)
    POINT = st.tuples(RATE, RATE, st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
                      st.floats(0.0, 3.0 * OMEGA_M))

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(POINT, min_size=1, max_size=50))
    def test_blocks_against_the_harmonic_system_and_each_point_alone(self, points):
        kappa, gamma, C, omega = (np.array(v) for v in zip(*points))
        blocks = sideband_scattering(decompose_drift(kappa, gamma, OMEGA_M, C=C),
                                     _readout_couplings(kappa, gamma), omega)
        for k, (kappa_k, gamma_k, C_k, omega_k) in enumerate(points):
            fd = decompose_drift(kappa_k, gamma_k, OMEGA_M, C=C_k)
            H = _readout_couplings(kappa_k, gamma_k)
            alone = sideband_scattering(fd, H, omega_k)
            want = _block_tridiagonal_blocks(fd, H, omega_k, order=3)
            bound = 1e-10 * max(np.abs(S).max() for S in want.values())
            for n in (-1, 0, 1):
                np.testing.assert_array_equal(blocks[n][k], alone[n])
                assert np.abs(alone[n] - want[n]).max() <= bound


class TestPairedFrequencies:
    """An array of detection frequencies pairs with the drift stack as
    ``vc_on_grid`` pairs it: one drift at every frequency, or one
    frequency per drift, each point with the bits of its own call."""

    OMEGAS = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    BATH = BathSpec(n_m=1.0, eta=0.8)

    def test_one_drift_at_every_frequency(self):
        # five frequencies once paired with the five sideband offsets
        fd = decompose_drift(0.5, 0.01, 1.0, C=1.0)
        got = floquet_vc(fd, BathSpec(n_m=1.0), self.OMEGAS)
        want = [floquet_vc(fd, BathSpec(n_m=1.0), float(w)) for w in self.OMEGAS]
        assert got.shape == (5,)
        assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]
        figs = floquet_metrics(fd, self.BATH, self.OMEGAS)
        assert figs == [floquet_metrics(fd, self.BATH, float(w)) for w in self.OMEGAS]

    def test_one_frequency_per_drift(self):
        Cs, omega_m = np.logspace(-2, 2, 5), np.linspace(0.5, 2.0, 5)
        fd = decompose_drift(0.5, 0.01, omega_m, C=Cs)
        singles = [decompose_drift(0.5, 0.01, wm, C=C) for wm, C in zip(omega_m, Cs)]
        got = floquet_vc(fd, self.BATH, self.OMEGAS)
        np.testing.assert_array_equal(
            got, [floquet_vc(s, self.BATH, float(w)) for s, w in zip(singles, self.OMEGAS)])
        figs = floquet_metrics(fd, self.BATH, self.OMEGAS)
        assert figs == [floquet_metrics(s, self.BATH, float(w)) for s, w in zip(singles, self.OMEGAS)]

    @pytest.mark.parametrize("omegas", [np.ones(3), np.ones((5, 2)), np.ones(4)])
    def test_unpaired_frequencies_are_named(self, omegas):
        fd = decompose_drift(0.5, 0.01, 1.0, C=np.logspace(-2, 2, 5))
        for kernel in (floquet_vc, floquet_metrics):
            with pytest.raises(ValueError, match="do not pair with a stack of shape"):
                kernel(fd, self.BATH, omegas)

    def test_singular_block_names_its_own_frequency(self):
        # undamped at the detection frequency 0.3: the singular block is at the second point
        fd = decompose_drift(0.5, 0.01, 1.0, C=1.0)
        A_zero = fd.A_zero.copy()
        A_zero[1, 1] = A_zero[0, 0] = 0.0
        undamped = FloquetDrift(fd.A_minus, A_zero, fd.A_plus, fd.omega_m)
        H = np.diag([1.0, 1.0, 0.1, 0.1])
        with pytest.raises(SingularAtFrequency) as err:
            sideband_scattering(undamped, H, np.array([0.3, 0.0, 0.7]))
        assert err.value.omega == 0.0


def _mp_solve(M, B):
    """M^-1 B by Gauss-Jordan elimination with partial pivoting, on lists
    of rows of mpmath numbers."""
    n = len(M)
    rows = [row + b for row, b in zip(M, B)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(n):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _mp_figures(fd, bath, omega):
    """(V_c, T_s, T_m) of one drift from a 40-digit solve of the whole
    three-component system, one 12 x 12 system per base frequency, with
    the float drift, couplings and input covariance taken as exact."""
    import mpmath as mp

    with mp.workdps(40):
        kappa, gamma = -2 * fd.A_zero[0, 0], -2 * fd.A_zero[2, 2]
        h = [mp.mpf(x) for x in np.diag(_readout_couplings(kappa, gamma))]
        parts = [[[mp.mpc(complex(x)) for x in row] for row in part]
                 for part in (fd.A_plus, fd.A_zero, fd.A_minus)]
        blocks = []
        for n in (-1, 0, 1):
            M = [[mp.mpc(0)] * 12 for _ in range(12)]
            for b, m in enumerate((-1, 0, 1)):  # component m couples to m + 1 through A(-1)
                shift = mp.mpc(0, 1) * (mp.mpf(omega) + 2 * (n - m) * mp.mpf(fd.omega_m))
                for c, part in zip((b - 1, b, b + 1), parts):
                    if 0 <= c < 3:
                        for i in range(4):
                            for j in range(4):
                                diagonal = shift if c == b and i == j else 0
                                M[4 * b + i][4 * c + j] = part[i][j] + diagonal
            B = [[-h[j] if r == 4 + j else 0 for j in range(4)] for r in range(12)]
            u = _mp_solve(M, B)[4 * (n + 1) : 4 * (n + 2)]
            eye = 1 if n == 0 else 0
            blocks.append(mp.matrix([[h[i] * u[i][j] - (eye if i == j else 0) for j in range(4)]
                                     for i in range(4)]))
        Vin = mp.matrix(input_covariance(bath, FOUR_MODE).tolist())
        eta, noise = mp.mpf(bath.eta), mp.mpf(bath.optical_variance)

        def detected(V):
            for i in range(2):
                for j in range(4):
                    V[i, j] *= mp.sqrt(eta)
                    V[j, i] *= mp.sqrt(eta)
                V[i, i] += (1 - eta) * noise
            return V

        V = detected(sum((S * Vin * S.H for S in blocks), mp.zeros(4, 4)))
        s, m = FOUR_MODE.signal_index, FOUR_MODE.meter_index
        Vc = mp.re(V[s, s]) - abs(V[s, m]) ** 2 / mp.re(V[m, m])
        Seff = blocks[0] + blocks[1] + blocks[2]
        Veff = detected((Seff * Vin * Seff.H).apply(mp.re))
        Vx = mp.mpf(bath.V_x)
        Ts = Vx * abs(Seff[s, s]) ** 2 / Veff[s, s]
        Tm = Vx * eta * abs(Seff[m, s]) ** 2 / Veff[m, m]
        return np.array([float(Vc), float(Ts), float(Tm)])


class TestExtendedPrecision:
    """The kernel against a 40-digit solve of the three-component system
    (the old LU kernel, the substitution and the closed form all measure
    4.75e-14 on V_c over this grid)."""

    @pytest.mark.parametrize("omega", [0.0, 0.3])
    @pytest.mark.parametrize("kappa", [0.05, 0.2, 1.0])
    def test_figures_match_the_oracle(self, kappa, omega):
        Cs = np.logspace(-3, 3, 13)
        fd = decompose_drift(kappa, 0.01, OMEGA_M, C=Cs)
        vcs = floquet_vc(fd, FIG7_BATH, omega)
        for C, vc, figs in zip(Cs, vcs, floquet_metrics(fd, FIG7_BATH, omega)):
            want = _mp_figures(decompose_drift(kappa, 0.01, OMEGA_M, C=C), FIG7_BATH, omega)
            np.testing.assert_allclose([vc, figs.Vc, figs.Ts, figs.Tm], want[[0, 0, 1, 2]],
                                       rtol=1e-13, atol=0)
