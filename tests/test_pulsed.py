"""Pulsed readout: propagator, gain, covariance integrals, metrics."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad, solve_ivp
from scipy.linalg import expm

from tvmeter import (
    BathSpec,
    PulsedParams,
    Regime,
    UnstableModel,
    measurement_gain,
    prepare_state_lyapunov,
    propagator,
    pulsed_covariances,
    pulsed_metrics,
)
from tvmeter.pulsed import readout_drift

FIG9_BATH = BathSpec(n_m=1e7)
ORACLE_GRID = Path(__file__).parent / "golden" / "pulsed_oracle.json"


def m23(p):
    """M23(t) of a readout of scalar rates, (r / d) exp(-kappa t / 2)
    (exp(d t) - 1) for d = (kappa - gamma) / 2, which is the equal-rates
    form r t exp(-kappa t / 2) at gamma = kappa."""
    r, d = p.measurement_rate, (p.kappa - p.gamma) / 2
    if d == 0.0:
        return lambda t: r * t * math.exp(-p.kappa * t / 2)
    return lambda t: r * math.exp(-p.kappa * t / 2) * math.expm1(d * t) / d


def fig9_params(g=0.6, alpha2=0.6, V0=None, kappa=1.0):
    if V0 is None:
        V0, _ = prepare_state_lyapunov(kappa, 1e-9 * kappa, 0.6 * kappa, 0.2, FIG9_BATH)
    return PulsedParams(
        kappa=kappa, gamma=1e-9 * kappa, omega_m=100.0 * kappa,
        g=g * kappa, alpha2=alpha2, V0=V0, bath=FIG9_BATH,
    )


class TestPropagator:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(propagator(fig9_params(), 0.0), np.eye(4))

    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            kappa = rng.uniform(0.5, 5.0)
            p = PulsedParams(
                kappa=kappa,
                gamma=rng.uniform(1e-4, 0.3) * kappa,
                omega_m=rng.uniform(1.0, 100.0),
                g=rng.uniform(0.0, 1.0) * kappa,
                alpha2=rng.uniform(0.0, 1.0),
                V0=1.0,
                bath=BathSpec(),
            )
            t = rng.uniform(0.0, 10.0 / kappa)
            got = propagator(p, t)
            want = expm(readout_drift(p) * t)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_degenerate_rates_limit_form(self):
        """At and near gamma = kappa the cross entries take the equal-rates
        form r t exp(-kappa t / 2), with no rate difference to cancel."""
        for gamma in (1.0, 1.0 - 1e-13, 1.0 - 1e-6):
            p = PulsedParams(
                kappa=1.0, gamma=gamma, omega_m=10.0, g=0.4, alpha2=0.5,
                V0=1.0, bath=BathSpec(),
            )
            got = propagator(p, 2.0)
            np.testing.assert_allclose(got, expm(readout_drift(p) * 2.0), atol=1e-10)
            assert got[[1, 3], [2, 0]] == pytest.approx([m23(p)(2.0)] * 2, rel=1e-14)
            assert got[1, 2] == pytest.approx(p.measurement_rate * 2 * math.exp(-1.0), rel=1e-6)

    def test_no_coupling_has_no_cross_terms(self):
        p = fig9_params(g=0.0)
        M = propagator(p, 3.0)
        assert M[1, 2] == M[3, 0] == 0.0


class TestGain:
    def test_unity_at_zero_duration(self):
        assert measurement_gain(fig9_params(), 0.0) == 1.0

    def test_gain_matches_quadrature(self):
        p = fig9_params()
        for ktau in (0.5, 5.0, 20.0):
            got = measurement_gain(p, ktau / p.kappa)
            c = p.alpha2 * p.g / (p.kappa - p.gamma)
            m23 = lambda s: c * (np.exp(-p.gamma * s / 2) - np.exp(-p.kappa * s / 2))
            integral, err = quad(lambda s: m23(s) ** 2, 0.0, ktau / p.kappa)
            assert got == pytest.approx(1.0 + p.kappa * integral, rel=1e-8)

    def test_nondecreasing_in_duration(self):
        p = fig9_params()
        taus = np.linspace(0.01, 30.0, 40) / p.kappa
        gains = [measurement_gain(p, t) for t in taus]
        assert all(b >= a for a, b in zip(gains, gains[1:]))

    def test_long_pulse_limit_finite(self):
        p = fig9_params()
        c = p.alpha2 * p.g / (p.kappa - p.gamma)
        limit = 1.0 + p.kappa * c**2 * (
            1 / p.gamma - 4 / (p.kappa + p.gamma) + 1 / p.kappa
        )
        assert measurement_gain(p, 1e12 / p.kappa) == pytest.approx(limit, rel=1e-9)

    def test_zero_coupling(self):
        assert measurement_gain(fig9_params(g=0.0), 5.0) == 1.0

    def test_filter_normalization_identity(self):
        # kappa * int M23^2 = G - 1 (matched filter, unit norm)
        p = fig9_params()
        for ktau in (1e-3, 1.0, 8.0):
            tau = ktau / p.kappa
            G = measurement_gain(p, tau)
            c = p.alpha2 * p.g / (p.kappa - p.gamma)
            m23 = lambda s: c * (np.exp(-p.gamma * s / 2) - np.exp(-p.kappa * s / 2))
            integral, _ = quad(lambda s: m23(s) ** 2, 0.0, tau)
            assert p.kappa * integral == pytest.approx(G - 1.0, rel=1e-8)


class TestPreparation:
    def test_no_coupling_returns_bath_variance(self):
        V0, V = prepare_state_lyapunov(1.0, 1e-9, 0.0, 0.2, FIG9_BATH)
        assert V0 == pytest.approx(FIG9_BATH.V_x, rel=1e-9)

    def test_cooling_limit_matches_broadened_line(self):
        kappa, gamma, g = 1.0, 1e-9, 0.1
        V0, _ = prepare_state_lyapunov(kappa, gamma, g, 0.0, FIG9_BATH)
        gm = gamma + g**2 / kappa
        want = (gamma * FIG9_BATH.V_x + g**2 / (2 * kappa)) / gm
        assert V0 == pytest.approx(want, rel=1e-2)

    def test_residual_of_lyapunov_equation(self):
        kappa, gamma, g, alpha = 1.0, 1e-9, 0.6, 0.2
        V0, V = prepare_state_lyapunov(kappa, gamma, g, alpha, FIG9_BATH)
        c_m, c_p = (alpha - 2) * g / 4, (alpha + 2) * g / 4
        A = np.array([
            [-kappa / 2, 0, 0, c_m],
            [0, -kappa / 2, c_p, 0],
            [0, c_m, -gamma / 2, 0],
            [c_p, 0, 0, -gamma / 2],
        ])
        H = np.diag([1.0, 1.0, np.sqrt(gamma), np.sqrt(gamma)])
        Vin = np.diag([0.5, 0.5, FIG9_BATH.V_x, FIG9_BATH.V_p])
        D = H @ Vin @ H.T
        res = A @ V + V @ A.T + D
        assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(D))

    def test_squeezed_preparation_below_vacuum(self):
        V0, _ = prepare_state_lyapunov(1.0, 1e-9, 0.6, 0.2, FIG9_BATH)
        assert V0 < 0.5

    @pytest.mark.parametrize("kappa, gamma, text", [
        (1.0, -0.1, "gamma must be positive, got -0.1"),
        (0.0, 1e-9, "kappa must be positive, got 0.0"),
        (np.nan, 1e-9, "kappa must be positive, got nan"),
    ])
    def test_rates_must_be_positive(self, kappa, gamma, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            prepare_state_lyapunov(kappa, gamma, 0.6, 0.2, FIG9_BATH)

    def test_x_variance_independent_of_x2_rate(self):
        a, b = (
            prepare_state_lyapunov(1.0, 1e-9, 0.6, 0.2, FIG9_BATH, x2_rate=r)[0]
            for r in (0.0, 5.0)
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_against_extended_precision_solution(self):
        """Every entry of V against a 40-digit solution of the same
        Lyapunov equation, relative to sqrt(V_ii V_jj), on generated
        stable drifts; half of them with an x^2 rate and half with a
        squeezed bath.  Worst over 1,000 such drifts: 2.6e-15.  The
        residual is at rounding level of the terms it sums,
        ||A V + V A^T + D|| <= 8 eps (2 ||A|| ||V|| + ||D||); relative to
        ||D|| alone it is not, since gamma << kappa makes ||A|| ||V||
        >> ||D|| even for the exact V."""
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        drawn = 0
        while drawn < 100:
            kappa, gamma = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-9, 0)
            g, alpha = kappa * 10 ** rng.uniform(-3, 0.5), rng.uniform(0, 3)
            x2_rate = 10 ** rng.uniform(-3, 2) if rng.uniform() < 0.5 else 0.0
            n_m = 10 ** rng.uniform(-2, 8)
            m_sq = n_m * complex(*rng.uniform(-0.4, 0.4, 2)) if rng.uniform() < 0.5 else 0.0
            bath = BathSpec(n_m=n_m, m_sq=m_sq)
            try:
                _, V = prepare_state_lyapunov(kappa, gamma, g, alpha, bath, x2_rate)
            except UnstableModel:
                continue
            drawn += 1
            A, D = _preparation_system(kappa, gamma, g, alpha, bath, x2_rate)
            want = _lyapunov_oracle(A, D)
            scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
            assert np.max(np.abs(V - want) / scale) <= 1e-13
            residual = np.linalg.norm(A @ V + V @ A.T + D)
            assert residual <= 8 * eps * (2 * np.linalg.norm(A) * np.linalg.norm(V)
                                          + np.linalg.norm(D))


def _preparation_system(kappa, gamma, g, alpha, bath, x2_rate=0.0):
    """Drift A and diffusion D of the preparation stage, A V + V A^T + D = 0."""
    c_m, c_p = (alpha - 2) * g / 4, (alpha + 2) * g / 4
    A = np.array([
        [-kappa / 2, 0, 0, c_m],
        [0, -kappa / 2, c_p, 0],
        [0, c_m, -gamma / 2, 0],
        [c_p, 0, -2 * x2_rate, -gamma / 2],
    ])
    D = np.zeros((4, 4))
    D[0, 0] = D[1, 1] = kappa * bath.optical_variance
    D[2:, 2:] = gamma * bath.mechanical_block()
    return A, D


def _lyapunov_oracle(A, D):
    """V with A V + V A^T + D = 0 from a 40-digit LU solve of the
    Kronecker system, rounded to floats; A and D are taken as exact."""
    import mpmath as mp

    n = len(A)
    with mp.workdps(40):
        K = mp.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):  # (A V)_ij + (V A^T)_ij, V_ij at index n i + j
                    K[n * i + j, n * k + j] += mp.mpf(A[i, k])
                    K[n * i + j, n * i + k] += mp.mpf(A[j, k])
        v = mp.lu_solve(K, mp.matrix([-mp.mpf(x) for x in D.ravel()]))
        return np.array([float(x) for x in v]).reshape(n, n)


def _ode_covariances(p, tau, n_steps=4000):
    """Time-domain oracle: propagate the (Y, x, filtered-Y) covariance ODE."""
    Vx = p.bath.V_x
    c1 = p.alpha2 * p.g / (p.kappa - p.gamma)
    G1 = measurement_gain(p, tau) - 1.0
    Nf = np.sqrt(p.kappa / G1)

    def fout(t):
        return Nf * c1 * (np.exp(-p.gamma * t / 2) - np.exp(-p.kappa * t / 2))

    r = p.measurement_rate

    def rhs(t, y):
        VYY, VYx, Vxx, VFY, VFx, VFF = y
        f = fout(t)
        # dynamics: dY = (-k/2 Y + r x) dt + sqrt(k) Yin, dx = -g/2 x + sqrt(g) xin
        # filter: dF = f (sqrt(k) Y - Yin) dt
        dVYY = -p.kappa * VYY + 2 * r * VYx + p.kappa * 0.5
        dVYx = -(p.kappa + p.gamma) / 2 * VYx + r * Vxx
        dVxx = -p.gamma * Vxx + p.gamma * Vx
        dVFY = f * np.sqrt(p.kappa) * (VYY - 0.5) - p.kappa / 2 * VFY + r * VFx
        dVFx = f * np.sqrt(p.kappa) * VYx - p.gamma / 2 * VFx
        dVFF = 2 * f * np.sqrt(p.kappa) * VFY + 0.5 * f * f
        return [dVYY, dVYx, dVxx, dVFY, dVFx, dVFF]

    y0 = [0.5, 0.0, p.V0, 0.0, 0.0, 0.0]
    sol = solve_ivp(
        rhs, (0.0, tau), y0, rtol=1e-10, atol=1e-12, dense_output=False, method="DOP853"
    )
    VYY, VYx, Vxx, VFY, VFx, VFF = sol.y[:, -1]
    return Vxx, VFx, VFF


class TestPulsedCovariances:
    def test_short_pulse_limits(self):
        p = fig9_params()
        tau = 1e-4 / p.kappa
        V33, V32, V22 = pulsed_covariances(p, tau)
        assert V33 == pytest.approx(p.V0, abs=1e-5)
        assert abs(V32) < 1e-3
        assert V22 == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("ktau", [0.5, 2.0, 5.0, 10.0, 20.0])
    def test_against_time_domain_ode(self, ktau):
        p = fig9_params()
        tau = ktau / p.kappa
        got = pulsed_covariances(p, tau)
        want = _ode_covariances(p, tau)
        np.testing.assert_allclose(got, want, rtol=1e-2)

    def test_against_direct_quadrature(self):
        p = fig9_params()
        tau = 5.0 / p.kappa
        V33, V32, V22 = pulsed_covariances(p, tau)
        c1 = p.alpha2 * p.g / (p.kappa - p.gamma)
        G1 = measurement_gain(p, tau) - 1.0
        Nf = np.sqrt(p.kappa / G1)
        m23 = lambda t: c1 * (np.exp(-p.gamma * t / 2) - np.exp(-p.kappa * t / 2))
        m33 = lambda t: np.exp(-p.gamma * t / 2)
        fo = lambda t: Nf * m23(t)
        J2, _ = dblquad(
            lambda t, s: fo(t) * m33(tau - s) * m23(t - s),
            0.0, tau, lambda s: s, lambda s: tau,
        )
        want_32 = p.V0 * np.sqrt(G1) * m33(tau) + p.gamma * np.sqrt(p.kappa) * p.bath.V_x * J2
        assert V32 == pytest.approx(want_32, rel=1e-8)

    def test_gamma_heating_dominates_long_pulses(self):
        p = fig9_params()
        V33, _, _ = pulsed_covariances(p, 1e10 / p.kappa)
        # x has thermalized appreciably toward the bath by gamma * tau = 10
        assert V33 > 100 * p.V0


class TestPulsedMetrics:
    def test_short_pulse_figures(self):
        p = fig9_params()
        figs = pulsed_metrics(p, 1e-4 / p.kappa)
        assert figs.Ts == pytest.approx(1.0, abs=1e-3)
        assert figs.Tm == pytest.approx(0.0, abs=1e-3)
        assert figs.Vc == pytest.approx(p.V0, abs=1e-3)

    def test_qnd_window_exists(self):
        p = fig9_params(g=0.6, alpha2=0.6)
        assert p.V0 < 0.5
        regimes = [
            pulsed_metrics(p, ktau / p.kappa).regime
            for ktau in np.logspace(-1, 2, 30)
        ]
        assert Regime.QND in regimes

    def test_transfer_decays_for_long_pulses(self):
        p = fig9_params()
        early = pulsed_metrics(p, 5.0 / p.kappa)
        late = pulsed_metrics(p, 1e10 / p.kappa)
        assert late.Ts < 0.01 and late.Ts < early.Ts
        assert late.Tm < early.Tm

    def test_no_coupling(self):
        p = fig9_params(g=0.0)
        for ktau in (0.1, 5.0):
            figs = pulsed_metrics(p, ktau / p.kappa)
            assert figs.Tm == 0.0
            assert figs.nm_eq == np.inf
            # nothing to condition on: V_c is the unconditioned x variance
            assert figs.Vc == pulsed_covariances(p, ktau / p.kappa)[0]

    def test_flat_filter_less_efficient_for_initial_state(self):
        p = fig9_params()
        tau = 5.0 / p.kappa
        matched = pulsed_metrics(p, tau, pulse_shape="matched")
        flat = pulsed_metrics(p, tau, pulse_shape="flat")
        assert flat.Tm <= matched.Tm + 1e-12

    def test_state_bundle(self):
        p = fig9_params()
        tau = 2.0 / p.kappa
        assert measurement_gain(p, tau) > 1.0
        assert propagator(p, tau).shape == (4, 4)
        assert pulsed_covariances(p, tau)[2] > 0.5


def gain_by_quadrature(p, tau, rel=1e-8):
    """kappa times the integral of M23^2 over [0, tau] by adaptive
    quadrature, which must certify the relative accuracy ``rel``."""
    f = m23(p)
    value, err = quad(lambda s: f(s) ** 2, 0.0, tau, epsrel=rel, limit=200)
    assert err <= rel * abs(value), f"quadrature error {err:.2e} of {value:.6e}"
    return p.kappa * value


class TestQuadratureCheck:
    def test_matches_closed_form_gain(self):
        for gamma in (1e-9, 0.999, 1.0):
            p = replace(fig9_params(), gamma=gamma)
            for ktau in (0.5, 5.0):
                tau = ktau / p.kappa
                got = gain_by_quadrature(p, tau)
                assert got == pytest.approx(measurement_gain(p, tau) - 1.0, rel=1e-8)


class TestDetectionLoss:
    @staticmethod
    def lossy(p, eta):
        return replace(p, bath=replace(p.bath, eta=eta))

    def test_vc_nondecreasing_as_eta_drops(self):
        p = fig9_params()
        for ktau in (0.05, 1.0, 20.0):
            vcs = [pulsed_metrics(self.lossy(p, eta), ktau).Vc for eta in (1.0, 0.8, 0.5, 0.2, 0.0)]
            assert all(b >= a for a, b in zip(vcs, vcs[1:]))
            assert vcs[-1] > vcs[0]

    def test_no_detection_leaves_unconditioned_variance(self):
        p = self.lossy(fig9_params(), 0.0)
        for ktau in (0.05, 5.0):
            figs = pulsed_metrics(p, ktau)
            assert figs.Vc == pulsed_covariances(p, ktau)[0]
            assert figs.Tm == 0.0


def _oracle(p, tau, pulse_shape="matched"):
    """V33, V32, V22, Vc, ns_eq, nm_eq, Ts and Tm of the readout with either
    filter from 30-digit Gauss-Legendre quadratures of their defining
    integrals, on the same float inputs as the kernel.  M23 is written as
    (r / d) exp(-kappa t / 2) expm1(d t), d = (kappa - gamma) / 2, and as
    its limit r t exp(-kappa t / 2) at gamma = kappa."""
    import mpmath as mp

    with mp.workdps(30):
        k, gam, tau = mp.mpf(p.kappa), mp.mpf(p.gamma), mp.mpf(tau)
        V0, Vx, nopt = mp.mpf(p.V0), mp.mpf(p.bath.V_x), mp.mpf(p.bath.optical_variance)
        r, d = mp.mpf(p.alpha2) * mp.mpf(p.g) / 2, (k - gam) / 2

        def m23(t):
            return r * mp.exp(-k * t / 2) * (mp.expm1(d * t) / d if d else t)

        def m22(t):
            return mp.exp(-k * t / 2)

        f = m23 if pulse_shape == "matched" else (lambda t: 1)

        def quad(g, lo, hi):
            return mp.quad(g, [lo, hi], method="gauss-legendre")

        inner = {}

        def G_F(s):  # int_s^tau f(t) M(t - s) dt for M = M23, M22 (unnormalized filter)
            if s not in inner:
                inner[s] = (quad(lambda t: f(t) * m23(t - s), s, tau),
                            quad(lambda t: f(t) * m22(t - s), s, tau))
            return inner[s]

        if pulse_shape == "matched":
            gm1 = k * quad(lambda t: m23(t) ** 2, 0, tau)
            norm2 = k / gm1
        else:
            norm2 = 1 / tau
            gm1 = k * norm2 * quad(m23, 0, tau) ** 2
        V33 = mp.exp(-gam * tau) * V0 + Vx * (1 - mp.exp(-gam * tau))
        J2 = quad(lambda s: mp.exp(-gam * (tau - s) / 2) * G_F(s)[0], 0, tau)
        V32 = mp.sqrt(gm1) * mp.exp(-gam * tau / 2) * V0 + gam * mp.sqrt(k) * Vx * mp.sqrt(norm2) * J2
        V22 = (
            gm1 * V0
            + k * norm2 * quad(lambda t: f(t) * m22(t), 0, tau) ** 2 * nopt
            + nopt * norm2 * quad(lambda t: f(t) ** 2, 0, tau)
            - 2 * nopt * k * norm2 * quad(lambda s: f(s) * G_F(s)[1], 0, tau)
            + k**2 * nopt * norm2 * quad(lambda s: G_F(s)[1] ** 2, 0, tau)
            + k * gam * Vx * norm2 * quad(lambda s: G_F(s)[0] ** 2, 0, tau)
        )
        ns_eq = V33 * mp.exp(gam * tau) - V0
        return {
            "V33": V33, "V32": V32, "V22": V22, "Vc": V33 - V32**2 / V22,
            "ns_eq": ns_eq, "nm_eq": V22 / gm1 - V0, "Ts": V0 / (V0 + ns_eq), "Tm": V0 * gm1 / V22,
        }


@pytest.mark.parametrize("tau", [0.012067926406393288, 0.5289893076098151, 5.0])
def test_against_extended_precision_quadrature(tau):
    """The kernel against 30-digit quadrature, at the tv pulsed parameters
    (--n-m 1e7) and at the tau of the golden table (0.01207) and of the
    500-row sweep (0.529) where the former sums of t^k exp(a t) terms
    were least accurate: they were off by 3.0e-11 in nm_eq and T_m at
    tau = 0.0121 and by 6e-14 at tau = 0.529.  The block exponentials
    are good to 6.7e-16 in every figure at these three points."""
    p = fig9_params()
    want = _oracle(p, tau)
    V33, V32, V22 = pulsed_covariances(p, tau)
    figs = pulsed_metrics(p, tau)
    got = {"V33": V33, "V32": V32, "V22": V22, "Vc": figs.Vc, "nm_eq": figs.nm_eq, "Tm": figs.Tm}
    for name, value in got.items():
        assert value == pytest.approx(float(want[name]), rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("tau", [2.5, 3.0, 3.5])
def test_phi_series_against_extended_precision_quadrature(tau):
    """Slow rates, kappa = 0.2 and gamma = 0.05, at the tau where the former
    closed-form antiderivatives of t^k exp(a t) cancelled (V22 and T_m off
    by 2.9e-9) and phi-function series took their place (3e-12), against
    30-digit quadrature: the block exponentials are good to 6.7e-16 here."""
    bath = BathSpec(n_m=100.0)
    V0, _ = prepare_state_lyapunov(0.2, 0.05, 0.6, 0.2, bath)
    p = PulsedParams(kappa=0.2, gamma=0.05, omega_m=20.0, g=1.0, alpha2=0.2, V0=V0, bath=bath)
    want = _oracle(p, tau)
    V33, V32, V22 = pulsed_covariances(p, tau)
    figs = pulsed_metrics(p, tau)
    got = {"V33": V33, "V32": V32, "V22": V22, "Vc": figs.Vc, "nm_eq": figs.nm_eq, "Tm": figs.Tm}
    for name, value in got.items():
        assert value == pytest.approx(float(want[name]), rel=1e-13, abs=0.0), name


def _grid_params(grid, gamma):
    return PulsedParams(kappa=grid["kappa"], gamma=gamma, omega_m=100.0, g=grid["g"],
                        alpha2=grid["alpha2"], V0=grid["V0"], bath=BathSpec(n_m=grid["n_m"]))


def test_gamma_tau_grid_against_extended_precision_quadrature():
    """Both filters on the grid gamma / kappa in {1e-9, ..., 1} x kappa tau in
    {0.012, ..., 50}, each gamma's taus as one stack, against the 30-digit
    quadratures of ``record_pulsed_oracle.py`` (checked in, since the grid
    takes a minute): V_c, T_s and T_m within 1e-12 relative, n_eq within
    1e-12 of n_eq + V0.  Before the block exponentials, V_c was off by
    8.0e-9 at gamma = 0.9, 4.2e-5 at 0.99 and 0.62 at 0.999 (tau = 1)."""
    grid = json.loads(ORACLE_GRID.read_text())
    for shape in ("matched", "flat"):
        for gamma in grid["gammas"]:
            rows = [row for row in grid["rows"] if (row["pulse_shape"], row["gamma"]) == (shape, gamma)]
            assert [row["tau"] for row in rows] == grid["taus"]
            figs = pulsed_metrics(_grid_params(grid, gamma), np.array(grid["taus"]), shape)
            for row, got in zip(rows, figs):
                for name in ("Vc", "Ts", "Tm"):
                    want = float(row[name])
                    assert abs(getattr(got, name) - want) <= 1e-12 * want, (row, name)
                for name in ("ns_eq", "nm_eq"):
                    want = float(row[name])
                    assert abs(getattr(got, name) - want) <= 1e-12 * (want + grid["V0"]), (row, name)


def test_checked_in_oracle_grid_is_the_oracle():
    """The gamma = kappa row of the matched filter, recomputed."""
    grid = json.loads(ORACLE_GRID.read_text())
    p = _grid_params(grid, grid["kappa"])
    for row in grid["rows"]:
        if (row["pulse_shape"], row["gamma"]) == ("matched", grid["kappa"]):
            want = _oracle(p, row["tau"])
            for name, value in want.items():
                assert float(value) == pytest.approx(float(row[name]), rel=1e-25, abs=0.0)


def _rates(kappa):
    """gamma from 1e-9 kappa to 2 kappa, or kappa itself."""
    return st.one_of(st.just(kappa), st.floats(-9.0, math.log10(2.0)).map(lambda u: kappa * 10**u))


def _per_row(draw, n: int, values):
    """One value of the strategy ``values`` shared by the n rows, or one
    per row."""
    if draw(st.booleans()):
        return draw(values)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)))


@st.composite
def _pulsed_stacks(draw):
    kappa = draw(st.floats(0.1, 10.0))
    gamma = draw(_rates(kappa))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30))
    n = len(exponents)
    g = kappa * _per_row(draw, n, st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    alpha2 = _per_row(draw, n, st.one_of(st.just(0.0), st.floats(1e-2, 1.5)))
    bath = BathSpec(n_m=10 ** draw(st.floats(-2.0, 7.0)), eta=draw(st.floats(0.1, 1.0)))
    p = PulsedParams(kappa=kappa, gamma=gamma, omega_m=100.0 * kappa, g=g, alpha2=alpha2,
                     V0=_per_row(draw, n, st.floats(0.05, 100.0)), bath=bath)
    return p, 10 ** np.array(exponents) / kappa, draw(st.sampled_from(["matched", "flat"]))


def _row(p, k):
    """Row k of PulsedParams whose g, alpha2 and V0 are numbers or arrays."""
    row = {}
    for name in ("g", "alpha2", "V0"):
        value = getattr(p, name)
        row[name] = float(value[k]) if np.ndim(value) else value
    return replace(p, **row)


@settings(max_examples=60)
@given(case=_pulsed_stacks())
@example(case=(  # V_c = V33 - V32^2 / V22 cancelled from 3 to 1.3e-4 here
    PulsedParams(kappa=1.0, gamma=1e-9, omega_m=100.0, g=2.0, alpha2=1.0, V0=3.0,
                 bath=BathSpec(n_m=1.0)),
    np.array([1000.0]), "flat"))
def test_stacked_rows_equal_the_scalar_path(case):
    """A stack of rows (tau from 1e-3 / kappa to 1e3 / kappa, with g, alpha2
    and V0 shared or one per row) gives every row's figures as the row
    alone does, within 1e-11: a row's exponentials run in a stack with
    the other rows'.  n_eq = V / G - V0 is a difference, so it is held to
    1e-11 of V / G."""
    p, taus, shape = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stack = pulsed_metrics(p, taus, pulse_shape=shape)
    assert len(stack) == len(taus)
    for k, (tau, got) in enumerate(zip(taus, stack)):
        row = _row(p, k)
        want = pulsed_metrics(row, float(tau), pulse_shape=shape)
        for name in ("Vc", "Ts", "Tm"):
            assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-11), name
        for name in ("ns_eq", "nm_eq"):
            a, b = getattr(got, name), getattr(want, name)
            assert a == b or abs(a - b) <= 1e-11 * (abs(b) + row.V0), name
    for bad in (0.0, -taus[0]):
        with pytest.raises(ValueError, match="pulse duration must be positive"):
            pulsed_metrics(p, np.append(taus[1:], bad), pulse_shape=shape)


def test_mixed_stack_against_extended_precision_quadrature():
    """A stack whose rows differ in g, alpha2, V0 and tau (two rows share a
    tau, so they share a group), against 30-digit quadrature of each row."""
    g, alpha2 = np.array([0.6, 1.0, 0.3, 2.0]), np.array([0.6, 0.2, 1.0, 0.5])
    V0, taus = np.array([0.3, 1.0, 5.0, 0.45]), np.array([0.5, 5.0, 2.0, 0.5])
    p = replace(fig9_params(), g=g, alpha2=alpha2, V0=V0)
    V33, V32, V22 = pulsed_covariances(p, taus)
    figs = pulsed_metrics(p, taus)
    for k, tau in enumerate(taus):
        want = _oracle(_row(p, k), tau)
        got = {"V33": V33[k], "V32": V32[k], "V22": V22[k], "Vc": figs[k].Vc,
               "nm_eq": figs[k].nm_eq, "Tm": figs[k].Tm}
        for name, value in got.items():
            assert value == pytest.approx(float(want[name]), rel=1e-10, abs=0.0), (k, name)
