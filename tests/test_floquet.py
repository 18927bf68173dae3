"""Truncated harmonic expansion of the beyond-RWA readout."""

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    decompose_drift,
    floquet_metrics,
    floquet_qnd_metrics_closed,
    floquet_scattering,
    floquet_vc,
    ideal_qnd_metrics,
    sideband_scattering,
)
from tvmeter.models import cooperativity_to_g

OMEGA_M = 1.0
FIG7_BATH = BathSpec(n_m=1.0)   # gamma/omega_m = 0.01 scenario
COLD_GAMMA = 1e-5               # closed forms assume gamma << kappa, omega_m


def _figs(m):
    return np.array([m.Vc, m.Ts, m.Tm])


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

        for t in (0.0, np.pi / (4 * OMEGA_M), 0.77, 3.1):
            np.testing.assert_allclose(fd.at_time(t), direct(t), atol=1e-12)

    def test_static_part_is_ideal_qnd_drift(self):
        fd = decompose_drift(0.5, 0.01, OMEGA_M, C=1.0)
        g = cooperativity_to_g(1.0, 0.5, 0.01)
        assert fd.A_zero[1, 2] == pytest.approx(-2 * g)
        assert fd.A_zero[3, 0] == pytest.approx(-2 * g)


class TestScattering:
    def test_zero_coupling_passive(self):
        fd = decompose_drift(0.5, 0.01, OMEGA_M, g=0.0)
        H = np.diag([np.sqrt(0.5)] * 2 + [np.sqrt(0.01)] * 2)
        blocks = sideband_scattering(fd, H, 0.3)
        np.testing.assert_allclose(np.abs(np.diag(blocks[0])), 1.0, atol=1e-12)
        assert np.max(np.abs(blocks[1])) == 0.0
        assert np.max(np.abs(blocks[-1])) == 0.0

    def test_effective_matrix_is_block_sum(self):
        fd = decompose_drift(0.5, COLD_GAMMA, OMEGA_M, C=3.0)
        H = np.diag([np.sqrt(0.5)] * 2 + [np.sqrt(COLD_GAMMA)] * 2)
        blocks = sideband_scattering(fd, H, 0.1)
        S = floquet_scattering(fd, H, 0.1).S
        np.testing.assert_allclose(S, sum(blocks.values()))


class TestMetrics:
    @pytest.mark.parametrize("kappa_ratio", [0.1, 0.5])
    def test_closed_forms_within_one_percent(self, kappa_ratio):
        kappa = kappa_ratio * OMEGA_M
        bath = BathSpec(n_m=1.0)
        for C in np.logspace(-2, 2, 9):
            fd = decompose_drift(kappa, COLD_GAMMA, OMEGA_M, C=C)
            got = _figs(floquet_metrics(fd, bath))
            want = _figs(floquet_qnd_metrics_closed(C, kappa, OMEGA_M, bath.V_x))
            np.testing.assert_allclose(got, want, rtol=1e-2)

    def test_resolved_sideband_limit_recovers_ideal(self):
        kappa = 1e-3 * OMEGA_M
        for C in (0.1, 1.0):
            fd = decompose_drift(kappa, 0.01, OMEGA_M, C=C)
            got = _figs(floquet_metrics(fd, FIG7_BATH))
            want = _figs(ideal_qnd_metrics(C, 1.5))
            np.testing.assert_allclose(got, want, atol=1e-4)

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

    def test_truncation_consistency(self):
        kappa = 0.5 * OMEGA_M
        for C in (0.5, 10.0):
            results = {}
            for order in (0, 1, 2):
                fd = decompose_drift(kappa, 0.01 * OMEGA_M, OMEGA_M, C=C, order=order)
                results[order] = _figs(floquet_metrics(fd, FIG7_BATH))
            step01 = np.abs(results[1] - results[0])
            step12 = np.abs(results[2] - results[1])
            assert np.all(step12 <= 0.1 * step01 + 1e-12)


class TestDriftStack:
    """A drift stacked over cooperativities against one drift per C."""

    CS = np.logspace(-3, 4, 40)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_components_and_blocks_match_one_drift_per_c(self, order):
        stack = decompose_drift(0.5, 0.01, OMEGA_M, C=self.CS, order=order)
        singles = [decompose_drift(0.5, 0.01, OMEGA_M, C=C, order=order) for C in self.CS]
        for part in ("A_minus", "A_zero", "A_plus"):
            np.testing.assert_array_equal(getattr(stack, part), [getattr(fd, part) for fd in singles])
        H = np.diag([np.sqrt(0.5)] * 2 + [np.sqrt(0.01)] * 2)
        blocks = sideband_scattering(stack, H, 0.3)
        for n, S in blocks.items():
            np.testing.assert_array_equal(S, [sideband_scattering(fd, H, 0.3)[n] for fd in singles])

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
