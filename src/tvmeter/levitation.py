"""Modulated-tweezer (coherent-scattering) measurement scenarios.

Amplitude modulation of an optical tweezer at (approximately) the
mechanical frequency turns coherent scattering into a single-quadrature
readout of the levitated particle.  This module maps such setups onto
linear models: the single-tweezer QND readout, and a dual-tweezer
scheme in which a primary tweezer prepares (cools or dissipatively
squeezes) the mechanical state while a weaker readout tweezer measures
it through a second cavity mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import DUAL_TWEEZER_LAYOUT, BathSpec, LinearModel, check_sign, check_stable, detected
from .errors import NegativeLinewidth
from .metrics import (
    MeasurementFigures,
    _abs2,
    classify_regime,
    conditional_variance,
    measured_figures,
)
from .models import ImperfectQndParams, imperfect_qnd_model


def qnd_modulation_frequency(omega_m: float, alpha: float) -> float:
    """Modulation frequency removing the momentum backaction channel,
    Omega = omega_m (16 + 7 alpha^2) / (16 + 8 alpha^2)."""
    check_sign("nonnegative", alpha=alpha)
    a2 = alpha * alpha
    return omega_m * (16 + 7 * a2) / (16 + 8 * a2)


@dataclass(frozen=True)
class TweezerParams:
    """One modulated tweezer scattering into one cavity mode.

    ``g`` is the bare coherent-scattering rate (G x_zpf); the
    single-quadrature coupling after modulation is alpha g / 4 in the
    2 g X x convention.  ``Omega`` defaults to the backaction-free
    modulation frequency; detuning it induces a quadratic momentum term.
    ``phi`` selects the measured quadrature x_phi; the model is written
    in the rotated basis, so the drift does not depend on it.  Every
    numeric parameter may be an array, as in :mod:`tvmeter.models`.
    """

    omega_m: float
    alpha: float
    g: float
    kappa: float
    gamma: float
    Omega: float | None = None
    phi: float = 0.0

    def __post_init__(self):
        check_sign("positive", omega_m=self.omega_m, kappa=self.kappa, gamma=self.gamma)
        check_sign("nonnegative", alpha=self.alpha)

    @classmethod
    def from_trap_frequency(cls, omega_tr: float, alpha: float, **kw) -> "TweezerParams":
        """Build with the modulation-renormalized mechanical frequency
        omega_m = omega_tr sqrt(1 + alpha^2 / 2)."""
        return cls(omega_m=omega_tr * np.sqrt(1 + _abs2(alpha) / 2), alpha=alpha, **kw)

    @property
    def modulation_frequency(self) -> float:
        if self.Omega is not None:
            return self.Omega
        return qnd_modulation_frequency(self.omega_m, self.alpha)

    @property
    def qnd_coupling(self) -> float:
        """Coupling of the measured quadrature in the 2 g X x convention."""
        return self.alpha * self.g / 4.0

    @property
    def effective_cooperativity(self) -> float:
        """Cooperativity of the equivalent ideal readout,
        4 (alpha g / 4)^2 / (kappa gamma)."""
        return _abs2(self.alpha) * _abs2(self.g) / (4.0 * self.kappa * self.gamma)


def single_tweezer_qnd_params(p: TweezerParams) -> ImperfectQndParams:
    """Imperfect-QND parameters equivalent to a modulated tweezer.

    At the backaction-free modulation frequency the residual mechanical
    terms reduce to a pure x^2 rate mu = alpha^2 omega_m / [8 (2 + alpha^2)]
    (harmless); detuning Omega away from it splits into mu and nu.
    """
    a2 = _abs2(p.alpha)
    q = a2 * p.omega_m / (16.0 * (2.0 + a2))
    if p.Omega is None:
        # exactly the backaction-free point
        return ImperfectQndParams(p.kappa, p.gamma, g=p.qnd_coupling, mu=2.0 * q, nu=0.0)
    half_det = (p.omega_m - p.Omega) / 2.0
    return ImperfectQndParams(
        p.kappa, p.gamma, g=p.qnd_coupling,
        mu=half_det + q, nu=half_det - q,
    )


def single_tweezer_qnd_model(p: TweezerParams, bath: BathSpec) -> LinearModel:
    """Four-mode model of the modulated-tweezer readout of x_phi."""
    return imperfect_qnd_model(single_tweezer_qnd_params(p), bath)


@dataclass(frozen=True)
class DualTweezerParams:
    """Primary (1, preparation) and readout (2) tweezers on one particle.

    The rescaled cooperativities are C_i = g_i^2 / (4 gamma kappa_i).
    ``x2_rate`` is the residual x^2 Hamiltonian rate 2(a1~ + a2~); the
    default assumes trap frequencies splitting as the coupling powers.
    The figures of merit do not depend on it (it only drives the
    unmeasured momentum quadrature).
    """

    omega_m: float
    gamma: float
    kappa_1: float
    kappa_2: float
    g_1: float
    g_2: float
    alpha_1: float
    alpha_2: float
    x2_rate: float | None = None

    def __post_init__(self):
        check_sign("positive", omega_m=self.omega_m, gamma=self.gamma, kappa_1=self.kappa_1,
                   kappa_2=self.kappa_2)
        check_sign("nonnegative", g_1=self.g_1, g_2=self.g_2, alpha_1=self.alpha_1,
                   alpha_2=self.alpha_2)

    @classmethod
    def from_intensity_split(
        cls, g_total: float, readout_fraction: float, **kw
    ) -> "DualTweezerParams":
        """Fix the total trapping intensity, g_1^2 + g_2^2 = g_total^2,
        and put ``readout_fraction`` of it into the readout tweezer."""
        if not 0.0 <= readout_fraction <= 1.0:
            raise ValueError("readout_fraction must lie in [0, 1]")
        g2 = g_total * np.sqrt(readout_fraction)
        g1 = g_total * np.sqrt(1.0 - readout_fraction)
        return cls(g_1=g1, g_2=g2, **kw)

    @property
    def C_1(self) -> float:
        return self.g_1**2 / (4.0 * self.gamma * self.kappa_1)

    @property
    def C_2(self) -> float:
        return self.g_2**2 / (4.0 * self.gamma * self.kappa_2)

    @property
    def gamma_m(self) -> float:
        """Optically broadened mechanical linewidth."""
        return self.gamma + self.g_1**2 * (1.0 - self.alpha_1**2 / 4.0) / self.kappa_1

    def _x2_rate(self) -> float:
        if self.x2_rate is not None:
            return self.x2_rate
        # trap weights proportional to tweezer intensity ~ g_i^2
        gsq = self.g_1**2 + self.g_2**2
        if gsq == 0.0:
            return 0.0
        w1, w2 = self.g_1**2 / gsq, self.g_2**2 / gsq
        norm = w1 * (1 + self.alpha_1**2 / 2) + w2 * (1 + self.alpha_2**2 / 2)
        tr1 = self.omega_m**2 * w1 / norm
        tr2 = self.omega_m**2 * w2 / norm
        a1t = self.alpha_1 * tr1 / (4.0 * self.omega_m)
        a2t = self.alpha_2**2 * tr2 / (16.0 * self.omega_m)
        return 2.0 * (a1t + a2t)


def dual_tweezer_model(p: DualTweezerParams, bath: BathSpec) -> LinearModel:
    """Six-mode model with layout (X1, Y1, X2, Y2, x, p).

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


def compound_signal_variances(
    p: DualTweezerParams, bath: BathSpec, omega: float = 0.0
) -> tuple[float, float, float]:
    """(gamma_m, Vx_bar, Vp_bar) of the compound signal formed by the
    mechanical mode dressed by the primary cavity's noise.

    At carrier detection the optical contribution reduces to
    g_1^2 (2 -/+ alpha_1)^2 / (8 gamma_m kappa_1).
    """
    gm = p.gamma_m
    if gm <= 0:
        raise NegativeLinewidth(f"broadened linewidth {gm:.3e} is not positive")
    chi1_sq = 1.0 / (p.kappa_1**2 + 4.0 * omega**2)
    opt = p.g_1**2 * p.kappa_1 * chi1_sq / (8.0 * gm)
    vx = p.gamma / gm * bath.V_x + opt * (2.0 - p.alpha_1) ** 2
    vp = p.gamma / gm * bath.V_p + opt * (2.0 + p.alpha_1) ** 2
    return gm, vx, vp


def reduced_scattering(p: DualTweezerParams, omega: float) -> NDArray[np.complex128]:
    """Reduced 4x4 scattering matrix on (X2, Y2, x_bar, p_bar) after
    eliminating the primary cavity into the compound signal."""
    gm = p.gamma_m
    if gm <= 0:
        raise NegativeLinewidth(f"broadened linewidth {gm:.3e} is not positive")
    chi2 = 1.0 / (p.kappa_2 - 2j * omega)
    chim = 1.0 / (gm - 2j * omega)
    Km = (p.kappa_2 + 2j * omega) * chi2
    Gm = (gm + 2j * omega) * chim
    sm = 2.0 * p.g_2 * p.alpha_2 * chi2 * chim * np.sqrt(gm * p.kappa_2)
    Om = -8.0 * p._x2_rate() * gm * chim**2
    return np.array([
        [Km, 0, 0, 0],
        [0, Km, sm, 0],
        [0, 0, Gm, 0],
        [sm, 0, Om, Gm],
    ])


def reduced_metrics(
    p: DualTweezerParams, bath: BathSpec, omega: float = 0.0
) -> MeasurementFigures:
    """Figures of merit from the reduced scattering matrix and the
    compound-signal covariance (the pipeline side of the closed forms),
    with detection loss on the readout cavity's output (X2, Y2)."""
    gm, vx, vp = compound_signal_variances(p, bath, omega)
    S = reduced_scattering(p, omega)
    n = bath.optical_variance
    Vin = np.diag([n, n, vx, vp])
    Vin[2, 3] = Vin[3, 2] = p.gamma / gm * bath.V_xp
    V = detected(S @ Vin @ S.conj().T, slice(0, 2), bath.eta, n)
    return measured_figures(
        conditional_variance(V, signal=2, meter=1), V[2, 2].real, V[1, 1].real,
        abs(S[2, 2]) ** 2, bath.eta * abs(S[1, 2]) ** 2, vx, omega,
    )


def dual_tweezer_metrics(
    C1: float, C2: float, alpha1: float, alpha2: float, Vx_s: float
) -> MeasurementFigures:
    """Closed-form figures of the dual-tweezer readout at the carrier.

    ``Vx_s`` is the variance of the compound signal quadrature; pass the
    value from :func:`compound_signal_variances` (recommended) or from
    :func:`threshold_signal_variance` when checking the cooperativity
    threshold.
    """
    if min(C1, C2) < 0 or Vx_s <= 0:
        raise ValueError("cooperativities must be nonnegative and Vx_s positive")
    broad = 1.0 + C1 * (4.0 - alpha1**2)
    meas = 32.0 * alpha2**2 * C2
    Vc = broad / (broad / Vx_s + meas)
    Tm = meas / (broad / Vx_s + meas)
    nm = Vx_s * (1.0 / Tm - 1.0) if Tm > 0 else np.inf
    return MeasurementFigures(
        Vc=Vc, Ts=1.0, Tm=Tm, ns_eq=0.0, nm_eq=nm,
        regime=classify_regime(Vc, 1.0, Tm), omega=0.0,
    )


def dual_tweezer_threshold(C1: float, alpha1: float, alpha2: float, Vx: float) -> float:
    """Readout cooperativity C_2 at which the conditional variance
    crosses 1/2 (in terms of the bare mechanical bath variance Vx)."""
    if alpha2 == 0.0:
        raise ValueError("readout modulation depth must be nonzero")
    num = (C1 * (4.0 - alpha1**2) + 1.0) * (
        2.0 * Vx - C1 * alpha1**2 * (3.0 - alpha1**2) - 1.0
    )
    den = 16.0 * alpha2**2 * (2.0 * Vx + C1 * (2.0 - alpha1**2) ** 2)
    return num / den


def threshold_signal_variance(C1: float, alpha1: float, Vx: float) -> float:
    """Compound-signal variance convention under which
    :func:`dual_tweezer_threshold` is the exact V_c = 1/2 crossing of
    :func:`dual_tweezer_metrics`.

    Differs from the carrier value of :func:`compound_signal_variances`
    in the modulation dependence of the optical term ((2 - alpha_1^2)^2
    instead of (2 - alpha_1)^2).
    """
    return (Vx + C1 * (2.0 - alpha1**2) ** 2 / 2.0) / (1.0 + C1 * (4.0 - alpha1**2))
