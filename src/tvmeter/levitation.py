"""Modulated-tweezer (coherent-scattering) measurement scenarios.

Amplitude modulation of an optical tweezer at (approximately) the
mechanical frequency turns coherent scattering into a single-quadrature
readout of the levitated particle.  This module maps the single-tweezer
QND readout onto a linear model, and reduces a dual-tweezer scheme, in
which a primary tweezer prepares (cools or dissipatively squeezes) the
mechanical state while a weaker readout tweezer measures it through a
second cavity mode, to a scattering map on the readout cavity and the
compound signal, which goes through :func:`metrics._from_scattering`, the
pipeline every scattering map shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (FOUR_MODE, BathSpec, LinearModel, check_paired, check_sign, check_signs,
                   matrix, raise_first)
from .errors import NegativeLinewidth, TvmeterError
from .metrics import MeasurementFigures, _from_scattering, _read_rows, figures_from_parts
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
    Every numeric parameter may be an array, as in :mod:`tvmeter.models`.
    """

    omega_m: float
    alpha: float
    g: float
    kappa: float
    gamma: float
    Omega: float | None = None

    def __post_init__(self):
        check_signs(dict(omega_m=self.omega_m, kappa=self.kappa, gamma=self.gamma),
                    dict(alpha=self.alpha))

    @classmethod
    def from_trap_frequency(cls, omega_tr: float, alpha: float, **kw) -> "TweezerParams":
        """Build with the modulation-renormalized mechanical frequency
        omega_m = omega_tr sqrt(1 + alpha^2 / 2)."""
        return cls(omega_m=omega_tr * np.sqrt(1 + alpha**2 / 2), alpha=alpha, **kw)

    @property
    def qnd_coupling(self) -> float:
        """Coupling of the measured quadrature in the 2 g X x convention."""
        return self.alpha * self.g / 4.0

    @property
    def effective_cooperativity(self) -> float:
        """Cooperativity of the equivalent ideal readout,
        4 (alpha g / 4)^2 / (kappa gamma)."""
        return self.alpha**2 * self.g**2 / (4.0 * self.kappa * self.gamma)


def single_tweezer_qnd_params(p: TweezerParams) -> ImperfectQndParams:
    """Imperfect-QND parameters equivalent to a modulated tweezer.

    At the backaction-free modulation frequency the residual mechanical
    terms reduce to a pure x^2 rate mu = alpha^2 omega_m / [8 (2 + alpha^2)]
    (harmless); detuning Omega away from it splits into mu and nu.
    """
    a2 = p.alpha**2
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
    """Four-mode model of the modulated-tweezer readout of x."""
    return imperfect_qnd_model(single_tweezer_qnd_params(p), bath)


@dataclass(frozen=True)
class DualTweezerParams:
    """Primary (1, preparation) and readout (2) tweezers on one particle.

    The rescaled cooperativities are C_i = g_i^2 / (4 gamma kappa_i).  Any
    parameter may be an array, as in :mod:`tvmeter.models`."""

    omega_m: float
    gamma: float
    kappa_1: float
    kappa_2: float
    g_1: float
    g_2: float
    alpha_1: float
    alpha_2: float

    def __post_init__(self):
        check_signs(dict(omega_m=self.omega_m, gamma=self.gamma, kappa_1=self.kappa_1,
                         kappa_2=self.kappa_2),
                    dict(g_1=self.g_1, g_2=self.g_2, alpha_1=self.alpha_1, alpha_2=self.alpha_2))

    @classmethod
    def from_intensity_split(
        cls, g_total: float, readout_fraction: float, **kw
    ) -> "DualTweezerParams":
        """Fix the total trapping intensity, g_1^2 + g_2^2 = g_total^2,
        and put ``readout_fraction`` of it into the readout tweezer."""
        if not np.all((0.0 <= readout_fraction) & (readout_fraction <= 1.0)):
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
        """Residual x^2 Hamiltonian rate 2(a1~ + a2~), for trap frequencies
        splitting as the coupling powers.  The figures of merit do not
        depend on it (it only drives the unmeasured momentum quadrature).
        """
        # trap weights proportional to tweezer intensity ~ g_i^2; no rate without light
        norm = np.asarray(self.g_1**2 * (1 + self.alpha_1**2 / 2)
                          + self.g_2**2 * (1 + self.alpha_2**2 / 2), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self.omega_m * (self.alpha_1 * self.g_1**2 / 2
                                   + self.alpha_2**2 * self.g_2**2 / 8) / norm
        return np.where(norm == 0.0, 0.0, rate)


def _broadened_linewidth(p: DualTweezerParams, omega: float | NDArray):
    """(gamma_m, 1 / (kappa_1^2 + 4 omega^2)); at the first failing point, a nonpositive
    gamma_m raises :class:`NegativeLinewidth`, and an overflow :class:`TvmeterError`."""
    with np.errstate(over="ignore"):
        gm, den = p.gamma_m, p.kappa_1**2 + 4.0 * omega**2
    raise_first((gm <= 0, lambda k: NegativeLinewidth(f"broadened linewidth "
                 f"{np.broadcast_arrays(gm, den)[0].flat[k]:.3e} is not positive")),
                (np.isinf(gm) | (den < 1.0 / np.finfo(float).max), lambda k: TvmeterError(
                    f"kappa_1 = {np.broadcast_arrays(p.kappa_1, gm, den)[0].flat[k]:.3e} "
                    "overflows the compound signal")))
    return gm, 1.0 / den


def compound_signal_variances(
    p: DualTweezerParams, bath: BathSpec, omega: float = 0.0
) -> tuple[float, float, float]:
    """(gamma_m, Vx_bar, Vp_bar) of the compound signal formed by the
    mechanical mode dressed by the primary cavity's noise.

    At carrier detection the optical contribution reduces to
    g_1^2 (2 -/+ alpha_1)^2 / (8 gamma_m kappa_1).  Arrays broadcast.
    """
    gm, chi1_sq = _broadened_linewidth(p, omega)
    opt = p.g_1**2 * p.kappa_1 * chi1_sq / (8.0 * gm)
    vx = p.gamma / gm * bath.V_x + opt * (2.0 - p.alpha_1) ** 2
    vp = p.gamma / gm * bath.V_p + opt * (2.0 + p.alpha_1) ** 2
    return gm, vx, vp


def reduced_scattering(p: DualTweezerParams, omega: float | NDArray) -> NDArray[np.complex128]:
    """Reduced 4x4 scattering matrix on (X2, Y2, x_bar, p_bar) after
    eliminating the primary cavity into the compound signal.  Arrays of
    the parameters and of ``omega``, paired as :func:`metrics.vc_on_grid`
    pairs them, give the stack ``[..., i, j]``."""
    shape = check_paired(omega, np.broadcast_shapes(*map(np.shape, vars(p).values())))
    gm = _broadened_linewidth(p, omega)[0]
    # the complex arithmetic on Python numbers, point by point: numpy's rounds differently
    k2, gm_, w, sig, x2 = (np.asarray(x, dtype=float).astype(object) for x in (
        p.kappa_2, gm, omega, 2.0 * p.g_2 * p.alpha_2, -8.0 * p._x2_rate() * gm))
    chi2, chim = 1.0 / (k2 - 2j * w), 1.0 / (gm_ - 2j * w)
    S = np.zeros(shape + (4, 4), dtype=complex)
    S[..., 0, 0] = S[..., 1, 1] = (k2 + 2j * w) * chi2
    S[..., 1, 2] = S[..., 3, 0] = sig * chi2 * chim * np.sqrt(gm * p.kappa_2).astype(object)
    S[..., 2, 2] = S[..., 3, 3] = (gm_ + 2j * w) * chim
    S[..., 3, 2] = x2 * chim**2
    return S


def _reduced(p: DualTweezerParams, bath: BathSpec, omega, figures: bool):
    """:func:`reduced_metrics`, or without ``figures`` :func:`reduced_vc`."""
    gm, vx, vp = compound_signal_variances(p, bath, omega)
    n, xp = bath.optical_variance, p.gamma / gm * bath.V_xp
    Vin = matrix([[n, 0, 0, 0], [0, n, 0, 0], [0, 0, vx, xp], [0, 0, xp, vp]])
    return _from_scattering(_read_rows((reduced_scattering(p, omega),), FOUR_MODE), Vin,
                            FOUR_MODE, bath.eta, omega, figures)


def reduced_vc(p: DualTweezerParams, bath: BathSpec, omega: float | NDArray = 0.0):
    """``reduced_metrics(p, bath, omega).Vc``, an array of them for a stack."""
    return _reduced(p, bath, omega, figures=False)


def reduced_metrics(
    p: DualTweezerParams, bath: BathSpec, omega: float | NDArray = 0.0
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit from the reduced scattering matrix and the
    compound-signal covariance (the pipeline side of the closed forms),
    with detection loss on the readout cavity's output (X2, Y2), filled
    at the optical bath variance.  A stack (as in
    :func:`reduced_scattering`) gives a list of figures, one per point,
    each with the bits of that point's own call; the first point that
    fails a guard, in stack order, raises."""
    return _reduced(p, bath, omega, figures=True)


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
    nm = np.inf if meas == 0.0 else broad / meas
    return figures_from_parts(Vc, 0.0, nm, Vx_s, 0.0)


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
