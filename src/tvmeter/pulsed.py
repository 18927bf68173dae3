"""Sequential prepare-then-measure readout with temporal-mode filtering.

The mechanical state is first stabilized by a modulated tweezer
(steady state of a Lyapunov equation), after which the tweezer is
re-tuned for single-quadrature readout.  The cavity output collected
over a pulse of duration tau is filtered into one discrete mode

    Y(tau) = int_0^tau f_out(s) Y_out(s) ds,

whose variance and covariance with the surviving mechanical position
determine the figures of merit.  All time integrals are sums of
polynomial-times-exponential terms and are evaluated in closed form;
an adaptive-quadrature cross-check lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_continuous_lyapunov

from .core import BathSpec, check_stable
from .metrics import MeasurementFigures, conditional_variance, measured_figures

#: relative |kappa - gamma| below which the propagator switches to the
#: equal-rates limit form
DEGENERATE_RATE_TOL = 1e-12


# ---------------------------------------------------------------------------
# closed-form integration of sums of c * t^k * exp(E + a t)
#
# The exponent offset E keeps every evaluated exponent nonpositive, so
# long pulses cannot overflow intermediate factors like exp(+kappa s / 2)
# (those always come paired with a constant carrying exp(-kappa tau / 2)).

_Term = tuple[float, int, float, float]  # (c, k, a, E)


def _consolidate(terms: list[_Term]) -> list[_Term]:
    acc: dict[tuple[int, float, float], float] = {}
    for c, k, a, E in terms:
        if c != 0.0:
            acc[(k, a, E)] = acc.get((k, a, E), 0.0) + c
    return [(c, k, a, E) for (k, a, E), c in acc.items() if c != 0.0]


def _mul(f: list[_Term], g: list[_Term]) -> list[_Term]:
    return _consolidate(
        [(cf * cg, kf + kg, af + ag, Ef + Eg)
         for cf, kf, af, Ef in f for cg, kg, ag, Eg in g]
    )


def _eval(f: list[_Term], t: float) -> float:
    return sum(c * t**k * math.exp(min(E + a * t, 700.0)) for c, k, a, E in f)


def _int_tk_exp(k: int, a: float, E: float, x: float) -> float:
    """exp(E) * integral_0^x t^k exp(a t) dt, assuming E + a x <= ~0."""
    if x == 0.0:
        return 0.0
    if abs(a) * x < 0.5:
        # series around a = 0, which avoids the cancellation of the
        # antiderivative form; truncation error below (a x)^22 / 22!
        acc, fac = 0.0, 1.0
        for m in range(22):
            acc += fac * x ** (k + m + 1) / (k + m + 1)
            fac *= a / (m + 1)
        return math.exp(E) * acc
    if k == 0:
        if a < 0:
            return math.exp(E) * math.expm1(a * x) / a
        return (math.exp(E + a * x) - math.exp(E)) / a
    # antiderivative e^{at} sum_i (-1)^{k-i} (k!/i!) t^i / a^{k-i+1}
    upper = 0.0
    fac = 1.0  # k!/i! starting at i = k
    for i in range(k, -1, -1):
        upper += (-1.0) ** (k - i) * fac * x**i / a ** (k - i + 1)
        fac *= i
    lower = (-1.0) ** k * math.factorial(k) / a ** (k + 1)
    return math.exp(E + a * x) * upper - math.exp(E) * lower


def _integrate(f: list[_Term], x: float) -> float:
    """integral_0^x f(t) dt."""
    return sum(c * _int_tk_exp(k, a, E, x) for c, k, a, E in f)


def _tail_convolution(f: list[_Term], g: list[_Term], tau: float) -> list[_Term]:
    """h(s) = integral_s^tau f(t) g(t - s) dt as a term list in s."""
    out: list[_Term] = []
    for cf, kf, af, Ef in f:
        for cg, kg, ag, Eg in g:
            E0 = Ef + Eg
            b = af + ag
            for j in range(kg + 1):
                pref = cf * cg * math.comb(kg, j) * (-1.0) ** (kg - j)
                K = kf + j
                spow = kg - j
                if abs(b) * tau < 0.5:
                    # antiderivative as a truncated series: AD(x) = sum_m b^m/m! x^(K+m+1)/(K+m+1)
                    fac = 1.0
                    for m in range(22):
                        coeff = fac / (K + m + 1)
                        # + AD(tau) constant, - AD(s) polynomial
                        out.append((pref * coeff * tau ** (K + m + 1), spow, -ag, E0))
                        out.append((-pref * coeff, spow + K + m + 1, -ag, E0))
                        fac *= b / (m + 1)
                else:
                    # antiderivative e^{bt} P(t), P_i = (-1)^(K-i) (K!/i!) / b^(K-i+1)
                    fac = 1.0
                    for i in range(K, -1, -1):
                        Pi = (-1.0) ** (K - i) * fac / b ** (K - i + 1)
                        fac *= i
                        # + e^{b tau} P(tau) term (constant in t)
                        out.append((pref * Pi * tau**i, spow, -ag, E0 + b * tau))
                        # - e^{b s} P(s) term
                        out.append((-pref * Pi, spow + i, b - ag, E0))
    return _consolidate(out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulsedParams:
    """Readout-stage parameters.

    ``g`` and ``alpha2`` set the measurement rate alpha2 g / 2; the
    residual x^2 rate ``nu_x2`` (defaulting to
    alpha2^2 omega_m / [8 (2 + alpha2^2)]) only drives the unmeasured
    momentum quadrature.  ``V0`` is the prepared variance of x and
    ``bath`` the environment during readout.
    """

    kappa: float
    gamma: float
    omega_m: float
    g: float
    alpha2: float
    V0: float
    bath: BathSpec
    nu_x2: float | None = None

    def __post_init__(self):
        if min(self.kappa, self.gamma, self.omega_m) <= 0:
            raise ValueError("kappa, gamma, omega_m must be positive")
        if self.V0 <= 0:
            raise ValueError("prepared variance must be positive")
        if self.alpha2 < 0 or self.g < 0:
            raise ValueError("coupling and modulation depth must be nonnegative")

    @property
    def x2_rate(self) -> float:
        if self.nu_x2 is not None:
            return self.nu_x2
        return self.alpha2**2 * self.omega_m / (8.0 * (2.0 + self.alpha2**2))

    @property
    def measurement_rate(self) -> float:
        return self.alpha2 * self.g / 2.0

    @property
    def degenerate_rates(self) -> bool:
        return abs(self.kappa - self.gamma) < DEGENERATE_RATE_TOL * self.kappa


@dataclass(frozen=True)
class PulsedState:
    """Propagator, gain, and pulsed covariance entries at hold time tau."""

    M: NDArray[np.float64]
    gain: float
    V33: float
    V32: float
    V22: float
    tau: float


def readout_drift(p: PulsedParams) -> NDArray[np.float64]:
    r = p.measurement_rate
    return np.array([
        [-p.kappa / 2, 0, 0, 0],
        [0, -p.kappa / 2, r, 0],
        [0, 0, -p.gamma / 2, 0],
        [r, 0, p.x2_rate, -p.gamma / 2],
    ])


def _m23_terms(p: PulsedParams) -> list[_Term]:
    if p.degenerate_rates:
        return [(p.measurement_rate, 1, -p.kappa / 2, 0.0)]
    c = 2.0 * p.measurement_rate / (p.kappa - p.gamma)
    return [(c, 0, -p.gamma / 2, 0.0), (-c, 0, -p.kappa / 2, 0.0)]


def propagator(p: PulsedParams, t: float) -> NDArray[np.float64]:
    """exp(A t) of the readout drift, in closed form.

    Equal decay rates switch the off-diagonal entries to their
    t exp(-kappa t / 2) limit automatically.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    M = np.zeros((4, 4))
    ek, eg = math.exp(-p.kappa * t / 2), math.exp(-p.gamma * t / 2)
    M[0, 0] = M[1, 1] = ek
    M[2, 2] = M[3, 3] = eg
    cross = _eval(_m23_terms(p), t)
    M[1, 2] = M[3, 0] = cross
    M[3, 2] = p.x2_rate * t * eg
    return M


def measurement_gain(p: PulsedParams, tau: float, pulse_shape: str = "matched") -> float:
    """Optomechanical gain G(tau) = 1 + (signal amplitude)^2.

    For the matched (decaying-exponential) filter this is the familiar
    1 + kappa * integral of M23^2; for the flat filter the signal
    amplitude is kappa-weighted by the average of M23 instead.
    """
    if tau < 0:
        raise ValueError("pulse duration must be nonnegative")
    if tau == 0.0:
        return 1.0
    return 1.0 + _signal_amplitude(p, tau, pulse_shape) ** 2


def _gain_integral(p: PulsedParams, tau: float) -> float:
    """kappa * integral_0^tau M23(s)^2 ds."""
    m23 = _m23_terms(p)
    return p.kappa * _integrate(_mul(m23, m23), tau)


def _filter_shape(p: PulsedParams, tau: float, pulse_shape: str) -> tuple[list[_Term], float]:
    """Output filter split as (unnormalized shape, scalar norm factor).

    The matched filter's norm diverges as the pulse shrinks, so it is
    kept out of the symbolic integrals and applied to the results.
    """
    if pulse_shape == "matched":
        gm1 = _gain_integral(p, tau)
        if gm1 == 0.0:
            raise ValueError("matched filter undefined at zero coupling")
        return _m23_terms(p), math.sqrt(p.kappa / gm1)
    if pulse_shape == "flat":
        return [(1.0, 0, 0.0, 0.0)], 1.0 / math.sqrt(tau)
    raise ValueError(f"unknown pulse shape {pulse_shape!r}")


def _signal_amplitude(p: PulsedParams, tau: float, pulse_shape: str) -> float:
    """Coefficient of x(0) in the filtered output quadrature."""
    if p.measurement_rate == 0.0:
        return 0.0
    if pulse_shape == "matched":
        return math.sqrt(_gain_integral(p, tau))
    shape, norm = _filter_shape(p, tau, pulse_shape)
    return math.sqrt(p.kappa) * norm * _integrate(_mul(shape, _m23_terms(p)), tau)


def prepare_state_lyapunov(
    kappa: float,
    gamma: float,
    g: float,
    alpha: float,
    bath: BathSpec,
    x2_rate: float = 0.0,
) -> tuple[float, NDArray[np.float64]]:
    """Steady state of the preparation stage (cooling/dissipative
    squeezing tweezer); returns the prepared x variance and the full
    4x4 covariance.

    The x variance does not depend on ``x2_rate`` (that term only feeds
    the momentum quadrature), so the default omits it.
    """
    c_m = (alpha - 2.0) * g / 4.0
    c_p = (alpha + 2.0) * g / 4.0
    A = np.array([
        [-kappa / 2, 0, 0, c_m],
        [0, -kappa / 2, c_p, 0],
        [0, c_m, -gamma / 2, 0],
        [c_p, 0, -2.0 * x2_rate, -gamma / 2],
    ])
    check_stable(A)
    H = np.diag([np.sqrt(kappa)] * 2 + [np.sqrt(gamma)] * 2)
    n = bath.optical_variance
    Vin = np.diag([n, n, 0.0, 0.0])
    Vin[2:4, 2:4] = bath.mechanical_block()
    D = H @ Vin @ H.T
    V = solve_continuous_lyapunov(A, -D)
    V = 0.5 * (V + V.T)
    return float(V[2, 2]), V


def pulsed_covariances(
    p: PulsedParams, tau: float, pulse_shape: str = "matched"
) -> tuple[float, float, float]:
    """(V33, V32, V22) of mechanical position and the filtered output
    quadrature at hold time tau, all integrals in closed form."""
    if tau <= 0:
        raise ValueError("pulse duration must be positive")
    Vx = p.bath.V_x
    nopt = p.bath.optical_variance
    g_tau = math.exp(-p.gamma * tau)
    V33 = g_tau * p.V0 + Vx * (-math.expm1(-p.gamma * tau))
    if p.measurement_rate == 0.0:
        return V33, 0.0, nopt
    shape, norm = _filter_shape(p, tau, pulse_shape)
    m22 = [(1.0, 0, -p.kappa / 2, 0.0)]
    m23 = _m23_terms(p)
    Gs = _signal_amplitude(p, tau, pulse_shape)
    # G(s) = int_s^tau phi(t) M23(t-s) dt, F(s) likewise with M22; the
    # filter norm multiplies the assembled results instead of the terms
    G = _tail_convolution(shape, m23, tau)
    F = _tail_convolution(shape, m22, tau)
    # V32: signal term plus bath noise shared by x(tau) and the filter
    aging = [(1.0, 0, p.gamma / 2, -p.gamma * tau / 2)]  # M33(tau - s)
    J2 = norm * _integrate(_mul(aging, G), tau)
    V32 = p.V0 * Gs * math.exp(-p.gamma * tau / 2) + p.gamma * math.sqrt(p.kappa) * Vx * J2
    # V22 per the formal-integration noise decomposition
    a0 = norm * _integrate(_mul(shape, m22), tau)
    t_cav0 = p.kappa * a0**2 * nopt            # initial intracavity Y
    t_shot = nopt * norm**2 * _integrate(_mul(shape, shape), tau)  # = nopt
    t_cross = -2.0 * nopt * p.kappa * norm**2 * _integrate(_mul(shape, F), tau)
    t_refl = p.kappa**2 * nopt * norm**2 * _integrate(_mul(F, F), tau)
    t_mech = p.kappa * p.gamma * Vx * norm**2 * _integrate(_mul(G, G), tau)
    V22 = Gs**2 * p.V0 + t_cav0 + t_shot + t_cross + t_refl + t_mech
    return V33, V32, V22


def pulsed_state(p: PulsedParams, tau: float, pulse_shape: str = "matched") -> PulsedState:
    V33, V32, V22 = pulsed_covariances(p, tau, pulse_shape)
    return PulsedState(
        M=propagator(p, tau),
        gain=measurement_gain(p, tau, pulse_shape),
        V33=V33, V32=V32, V22=V22, tau=tau,
    )


def gain_quadrature_check(p: PulsedParams, tau: float, rel: float = 1e-8) -> float:
    """Adaptive-quadrature evaluation of the gain integral kappa times
    the integral of M23^2, cross-checking the closed form.

    Raises :class:`QuadratureNonConvergence` when the quadrature cannot
    certify the requested relative accuracy.
    """
    from scipy.integrate import quad

    from .errors import QuadratureNonConvergence

    m23 = _m23_terms(p)
    sq = _mul(m23, m23)
    value, err = quad(lambda s: _eval(sq, s), 0.0, tau, epsrel=rel, limit=200)
    if value != 0.0 and err > rel * abs(value):
        raise QuadratureNonConvergence("kappa * int M23^2", p.kappa * value, p.kappa * err)
    return p.kappa * value


def pulsed_metrics(
    p: PulsedParams, tau: float, pulse_shape: str = "matched"
) -> MeasurementFigures:
    """Figures of merit of the pulsed readout.

    The signal content of the mechanical output is the surviving
    fraction of the initial state, M33(tau)^2 V0; the meter signal is
    (G - 1) V0 against the filtered noise variance.  V_c conditions
    x(tau) on the filtered output mode.
    """
    V33, V32, V22 = pulsed_covariances(p, tau, pulse_shape)
    Vc = conditional_variance(np.array([[V22, V32], [V32, V33]]), signal=1, meter=0)
    Gs2 = _signal_amplitude(p, tau, pulse_shape) ** 2
    return measured_figures(Vc, V33, V22, math.exp(-p.gamma * tau), Gs2, p.V0, omega=0.0)
