"""Scenario builders and closed-form benchmarks.

Each builder returns a :class:`~tvmeter.core.LinearModel` for one
measurement scenario: resonant displacement detection, coherent
quantum noise cancellation (CQNC) with a negative-mass ancilla, and
single-quadrature (QND) readout with its systematic imperfections
(cavity detuning, bilinear mechanical terms, position squeezing).

Rates are accepted in any consistent frequency unit; the builders are
scale free.  Couplings may be given either as the rate g entering the
Hamiltonian 2g X x or as the cooperativity C = 4 g^2 / (kappa gamma).
Every numeric parameter may be an array: the arrays broadcast against
each other and give one model whose drift is the stack of the drift
matrices at each point (:func:`~tvmeter.core.matrix`), for a scan in
one stacked solve.  An array of kappa or gamma stacks the input
couplings H as well; the input covariance and layout are shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    CQNC_LAYOUT,
    FOUR_MODE,
    BathSpec,
    LinearModel,
    check_sign,
    check_stable,
    input_covariance,
    matrix,
)
from .metrics import MeasurementFigures, classify_regime, figures_from_parts


def cooperativity_to_g(C: float | NDArray, kappa: float, gamma: float) -> float | NDArray:
    g = np.sqrt(C * kappa * gamma) / 2.0
    return g if isinstance(g, np.ndarray) else float(g)


def g_to_cooperativity(g: float, kappa: float, gamma: float) -> float:
    return 4.0 * g * g / (kappa * gamma)


def _resolve_coupling(
    kappa: float, gamma: float, g: float | NDArray | None, C: float | NDArray | None
) -> float | NDArray:
    if (g is None) == (C is None):
        raise ValueError("specify exactly one of g and C")
    if C is not None:
        check_sign("nonnegative", cooperativity=C)
        return cooperativity_to_g(C, kappa, gamma)
    return g if np.ndim(g) else float(g)


@dataclass(frozen=True)
class DisplacementParams:
    """Resonantly driven cavity reading out mechanical position."""

    kappa: float
    gamma: float
    omega_m: float
    g: float | None = None
    C: float | None = None

    def __post_init__(self):
        check_sign("positive", kappa=self.kappa, gamma=self.gamma)
        check_sign("nonnegative", omega_m=self.omega_m)

    @property
    def coupling(self) -> float:
        return _resolve_coupling(self.kappa, self.gamma, self.g, self.C)

    @property
    def cooperativity(self) -> float:
        return g_to_cooperativity(self.coupling, self.kappa, self.gamma)


@dataclass(frozen=True)
class CqncParams:
    """Displacement detection plus a matched negative-mass oscillator.

    The ancilla shares g, omega_m, and gamma with the mechanical mode
    (the backaction-cancellation matching condition); its bath defaults
    to the mechanical one.
    """

    kappa: float
    gamma: float
    omega_m: float
    g: float | None = None
    C: float | None = None
    ancilla_bath: BathSpec | None = None

    def __post_init__(self):
        check_sign("positive", kappa=self.kappa, gamma=self.gamma, omega_m=self.omega_m)

    @property
    def coupling(self) -> float:
        return _resolve_coupling(self.kappa, self.gamma, self.g, self.C)


@dataclass(frozen=True)
class ImperfectQndParams:
    """Single-quadrature readout with systematic imperfections.

    ``delta_c`` detunes the cavity, ``mu``/``nu`` are the quadratic
    position/momentum rates, and ``xi`` squeezes the measured position
    quadrature.  The alternative (detuning, squeezing) parameterization
    delta_m = mu + nu, zeta = mu - nu is available through
    :meth:`from_detuning` and the accessors.
    """

    kappa: float
    gamma: float
    g: float | None = None
    C: float | None = None
    delta_c: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        check_sign("positive", kappa=self.kappa, gamma=self.gamma)

    @classmethod
    def from_detuning(
        cls,
        kappa: float,
        gamma: float,
        *,
        delta_m: float,
        zeta: float,
        g: float | None = None,
        C: float | None = None,
        delta_c: float = 0.0,
        xi: float = 0.0,
    ) -> "ImperfectQndParams":
        return cls(
            kappa, gamma, g=g, C=C, delta_c=delta_c,
            mu=(delta_m + zeta) / 2.0, nu=(delta_m - zeta) / 2.0, xi=xi,
        )

    @property
    def delta_m(self) -> float:
        return self.mu + self.nu

    @property
    def zeta(self) -> float:
        return self.mu - self.nu

    @property
    def is_compensated(self) -> bool:
        """True when free oscillation cancels the squeezing (nu = 0)."""
        return self.nu == 0.0

    @property
    def coupling(self) -> float:
        return _resolve_coupling(self.kappa, self.gamma, self.g, self.C)

    @property
    def cooperativity(self) -> float:
        return g_to_cooperativity(self.coupling, self.kappa, self.gamma)


def _readout_couplings(kappa, gamma, mechanical_modes: int = 1) -> NDArray:
    """Input couplings H = diag(sqrt(kappa) I_2, sqrt(gamma) I_2 per mechanical
    mode), a stack of them when kappa or gamma is an array."""
    d = matrix([[np.sqrt(kappa)] * 2 + [np.sqrt(gamma)] * (2 * mechanical_modes)])
    return d[..., 0, :, None] * np.eye(d.shape[-1])


def displacement_model(p: DisplacementParams, bath: BathSpec) -> LinearModel:
    """Four-mode model for displacement detection; omega_m = 0 gives the
    ideal single-quadrature (QND) readout."""
    k2, g2m, wm, c = p.kappa / 2, p.gamma / 2, p.omega_m, -2 * p.coupling
    A = matrix([
        [-k2, 0, 0, 0],
        [0, -k2, c, 0],
        [0, 0, -g2m, wm],
        [c, 0, -wm, -g2m],
    ])
    check_stable(A)
    H = _readout_couplings(p.kappa, p.gamma)
    return LinearModel(A, H, input_covariance(bath, FOUR_MODE), FOUR_MODE)


def ideal_qnd_model(
    kappa: float, gamma: float, bath: BathSpec,
    g: float | None = None, C: float | None = None,
) -> LinearModel:
    """Ideal QND readout, realized as displacement detection at omega_m = 0."""
    return displacement_model(
        DisplacementParams(kappa, gamma, 0.0, g=g, C=C), bath
    )


def cqnc_model(p: CqncParams, bath: BathSpec) -> LinearModel:
    """Six-mode CQNC model with layout (X, Y, x, p, Xc, Yc).

    The negative-mass oscillator counter-rotates and couples with the
    same rate: Y sees x and Xc, and p and Yc both feel the cavity
    amplitude X, which cancels the backaction path into the measured
    optical quadrature (S[Y, X_in] = 0 identically).
    """
    k2, g2m, wm, c = p.kappa / 2, p.gamma / 2, p.omega_m, -2 * p.coupling
    A = matrix([
        [-k2, 0, 0, 0, 0, 0],
        [0, -k2, c, 0, c, 0],
        [0, 0, -g2m, wm, 0, 0],
        [c, 0, -wm, -g2m, 0, 0],
        [0, 0, 0, 0, -g2m, -wm],
        [c, 0, 0, 0, wm, -g2m],
    ])
    check_stable(A)
    H = _readout_couplings(p.kappa, p.gamma, mechanical_modes=2)
    Vin = input_covariance(bath, CQNC_LAYOUT)
    if p.ancilla_bath is not None:
        Vin[4:6, 4:6] = p.ancilla_bath.mechanical_block()
    return LinearModel(A, H, Vin, CQNC_LAYOUT)


def imperfect_qnd_model(p: ImperfectQndParams, bath: BathSpec) -> LinearModel:
    """Single-quadrature readout with detuning, bilinear mechanics, and
    position squeezing; all imperfections zero reduces it to the ideal
    QND model."""
    k2, g2m, dc, c = p.kappa / 2, p.gamma / 2, p.delta_c, -2 * p.coupling
    A = matrix([
        [-k2, dc, 0, 0],
        [-dc, -k2, c, 0],
        [0, 0, p.xi - g2m, 2 * p.nu],
        [c, 0, -2 * p.mu, -p.xi - g2m],
    ])
    check_stable(A)
    H = _readout_couplings(p.kappa, p.gamma)
    return LinearModel(A, H, input_covariance(bath, FOUR_MODE), FOUR_MODE)


# ---------------------------------------------------------------------------
# closed-form benchmarks


def ideal_qnd_metrics(
    C: float, V_x: float, eta: float = 1.0, n_c: float = 0.0
) -> MeasurementFigures:
    """Ideal QND figures at the carrier.

    V_c = 1 / (V_x^-1 + 16 C eta / (n_c + 1/2)),  T_s = 1, and T_m the
    fraction the measurement term contributes to V_c^-1.  At eta = 1 and
    n_c = 0 the measurement term is the familiar 32 C.
    """
    if C < 0 or V_x <= 0 or not 0 <= eta <= 1 or n_c < 0:
        raise ValueError("invalid ideal-QND parameters")
    meas = 16.0 * C * eta / (n_c + 0.5)
    Vc = 1.0 / (1.0 / V_x + meas)
    Tm = meas / (1.0 / V_x + meas)
    nm = np.inf if meas == 0.0 else (n_c + 0.5) / (16.0 * C * eta)
    return figures_from_parts(Vc, 0.0, nm, V_x, omega=0.0)


def qnd_cooperativity_threshold(V_x: float) -> float:
    """Cooperativity above which the ideal readout squeezes below vacuum,
    max(0, (2 V_x - 1) / (32 V_x))."""
    if V_x <= 0:
        raise ValueError("V_x must be positive")
    return max(0.0, (2.0 * V_x - 1.0) / (32.0 * V_x))


def c_sql(kappa: float, gamma: float, omega_m: float, omega: float) -> float:
    """Cooperativity balancing imprecision and backaction noise in the
    measured output, |S_YX| = |S_YY|, at detection frequency omega."""
    check_sign("positive", kappa=kappa, gamma=gamma, omega_m=omega_m)
    return (
        (kappa**2 + 4 * omega**2)
        / (16 * kappa**2 * gamma * omega_m)
        * abs(4 * omega_m**2 + (2j * omega - gamma) ** 2)
    )


def c_sql_resonant_approx(kappa: float, omega_m: float) -> float:
    """High-Q on-resonance approximation 1/4 + omega_m^2 / kappa^2."""
    return 0.25 + (omega_m / kappa) ** 2


def detuning_rescaled_cooperativity(C: float, kappa: float, delta_c: float) -> float:
    """Effective cooperativity of a detuned single-quadrature readout,
    C kappa^4 / (kappa^2 + 4 delta_c^2)^2."""
    return C * kappa**4 / (kappa**2 + 4 * delta_c**2) ** 2


def nu_model_closed_metrics(C: float, nu: float, gamma: float, bath: BathSpec) -> MeasurementFigures:
    """Closed forms for the quadratic-momentum imperfection at carrier
    detection and unit efficiency, including the V_p and V_xp terms."""
    Vx, Vp, Vxp = bath.V_x, bath.V_p, bath.V_xp
    g2, n2 = gamma**2, nu**2
    num_vc = g2 * Vx + 16 * gamma * nu * Vxp + 64 * n2 * (
        (2 * C + Vp) * (1 + 8 * C * Vx) - 8 * C * Vxp**2
    )
    den = 512 * C * n2 * (2 * C + Vp) + g2 * (1 + 32 * C * Vx) + 256 * C * gamma * nu * Vxp
    Vc = num_vc / den
    Ts = (Vx * g2) / (Vx * g2 + 16 * nu * (4 * nu * (2 * C + Vp) + gamma * Vxp))
    Tm = 32 * C * g2 * Vx / den
    ns = Vx * (1.0 / Ts - 1.0) if Ts > 0 else np.inf
    nm = Vx * (1.0 / Tm - 1.0) if Tm > 0 else np.inf
    return MeasurementFigures(
        Vc=Vc, Ts=Ts, Tm=Tm, ns_eq=ns, nm_eq=nm,
        regime=classify_regime(Vc, Ts, Tm), omega=0.0,
    )


def xi_model_closed_metrics(C: float, xi: float, gamma: float, bath: BathSpec) -> MeasurementFigures:
    """Closed forms for pure position squeezing at rate xi (|xi| < gamma/2).

    Squeezing rescales the apparent mechanical variance to
    V_xi = V_x (gamma + 2 xi)^2 / (gamma - 2 xi)^2 and the measurement
    rate to 32 C gamma^2 / (gamma + 2 xi)^2; otherwise the readout stays
    ideal.
    """
    if abs(xi) >= gamma / 2:
        raise ValueError("|xi| must be below gamma/2 for a stable readout")
    V_xi = bath.V_x * (gamma + 2 * xi) ** 2 / (gamma - 2 * xi) ** 2
    meas = 32.0 * C * gamma**2 / (gamma + 2 * xi) ** 2
    Vc = 1.0 / (1.0 / V_xi + meas)
    Tm = meas / (1.0 / V_xi + meas)
    nm = bath.V_x * (1.0 / Tm - 1.0) if Tm > 0 else np.inf
    return MeasurementFigures(
        Vc=Vc, Ts=1.0, Tm=Tm, ns_eq=0.0, nm_eq=nm,
        regime=classify_regime(Vc, 1.0, Tm), omega=0.0,
    )
