"""Sequential prepare-then-measure readout with temporal-mode filtering.

The mechanical state is first stabilized by a modulated tweezer
(steady state of a Lyapunov equation), after which the tweezer is
re-tuned for single-quadrature readout.  The cavity output collected
over a pulse of duration tau is filtered into one discrete mode

    Y(tau) = int_0^tau f_out(s) Y_out(s) ds,

whose variance and covariance with the surviving mechanical position
determine the figures of merit.  All time integrals are sums of
polynomial-times-exponential terms, integrated in closed form or, where
|rate| tau < 0.5 and the closed form would cancel, as power series cut
at the first term below SERIES_CUTOFF of the leading one; the test suite
cross-checks them by adaptive and by 30-digit quadrature.  V_c is good
to about 3e-15 and nm_eq, T_m to about 3e-11, worst at small kappa tau
where the exponential-sum form of M23 cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_continuous_lyapunov

from .core import BathSpec, check_sign, check_stable, detected
from .metrics import MeasurementFigures, conditional_variance, measured_figures

#: relative |kappa - gamma| below which the propagator switches to the
#: equal-rates limit form
DEGENERATE_RATE_TOL = 1e-12

#: series terms below this fraction of the leading term are left out
SERIES_CUTOFF = 1e-18


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
            key = (k, a, E)
            acc[key] = acc.get(key, 0.0) + c
    return [(c, *key) for key, c in acc.items() if c != 0.0]


def _mul(f: list[_Term], g: list[_Term]) -> list[_Term]:
    return _consolidate(
        [(cf * cg, kf + kg, af + ag, Ef + Eg)
         for cf, kf, af, Ef in f for cg, kg, ag, Eg in g]
    )


def _eval(f: list[_Term], t: float) -> float:
    return sum(c * t**k * math.exp(min(E + a * t, 700.0)) for c, k, a, E in f)


def _series(b: float, x: float) -> list[float]:
    """Coefficients b^m / m! of integral_0^x t^K exp(b t) dt = sum_m (b^m / m!)
    x^(K+m+1) / (K+m+1), |b| x < 0.5, up to the first term whose ratio to the
    leading one, at most |b x|^m / m!, is below SERIES_CUTOFF."""
    facs, z = [1.0], abs(b) * x
    ratio = z
    while ratio >= SERIES_CUTOFF:
        facs.append(facs[-1] * (b / len(facs)))
        ratio *= z / len(facs)
    return facs


def _int_tk_exp(k: int, a: float, E: float, x: float, series: dict[float, list[float]]) -> float:
    """exp(E) * integral_0^x t^k exp(a t) dt, assuming E + a x <= ~0;
    ``series`` keeps the _series coefficients of each rate at this x."""
    if abs(a) * x < 0.5:  # series around a = 0
        acc = 0.0
        for P, fac in enumerate(series.get(a) or series.setdefault(a, _series(a, x)), k + 1):
            acc += fac * x**P / P
        return math.exp(E) * acc
    if k == 0:
        if a < 0:
            return math.exp(E) * math.expm1(a * x) / a
        return (math.exp(E + a * x) - math.exp(E)) / a
    # antiderivative e^{at} sum_i (-1)^{k-i} (k!/i!) t^i / a^{k-i+1}
    upper = 0.0
    fac = 1.0  # (-1)^{k-i} k!/i! starting at i = k
    for i in range(k, -1, -1):
        upper += fac * x**i / a ** (k - i + 1)
        fac *= -i
    lower = (-1.0) ** k * math.factorial(k) / a ** (k + 1)
    return math.exp(E + a * x) * upper - math.exp(E) * lower


def _integrate(f: list[_Term], x: float) -> float:
    """integral_0^x f(t) dt."""
    series: dict[float, list[float]] = {}
    return sum(c * _int_tk_exp(k, a, E, x, series) for c, k, a, E in f)


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
                # AD(t) = integral_0^t u^K e^{bu} du as terms c t^P e^{rate t}
                if abs(b) * tau < 0.5:  # sum_m (b^m / m!) t^P / P, P = K + m + 1
                    ad = [(fac / P, P, 0.0) for P, fac in enumerate(_series(b, tau), K + 1)]
                else:  # e^{bt} sum_i (-1)^(K-i) (K!/i!) t^i / b^(K-i+1), less AD(0)
                    ad = [((-1.0) ** (K - i) * math.perm(K, K - i) / b ** (K - i + 1), i, b)
                          for i in range(K, -1, -1)]
                for c, P, rate in ad:  # + AD(tau), constant in s, and - AD(s)
                    out.append((pref * c * tau**P, spow, -ag, E0 + rate * tau))
                    out.append((-pref * c, spow + P, rate - ag, E0))
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
        check_sign("positive", kappa=self.kappa, gamma=self.gamma, omega_m=self.omega_m,
                   V0=self.V0)
        check_sign("nonnegative", alpha2=self.alpha2, g=self.g)

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
    if tau == 0.0 or p.measurement_rate == 0.0:
        return 1.0
    return 1.0 + _filter(p, tau, pulse_shape)[2] ** 2


def _filter(p: PulsedParams, tau: float, pulse_shape: str) -> tuple[list[_Term], float, float]:
    """Output filter as (unnormalized shape, scalar norm factor, signal
    amplitude: the coefficient of x(0) in the filtered quadrature).  The
    matched filter's norm diverges as the pulse shrinks, so it is kept
    out of the symbolic integrals and applied to the results."""
    m23 = _m23_terms(p)
    if pulse_shape == "matched":
        gm1 = p.kappa * _integrate(_mul(m23, m23), tau)  # kappa * int M23^2
        if gm1 == 0.0:
            raise ValueError("matched filter undefined at zero coupling")
        return m23, math.sqrt(p.kappa / gm1), math.sqrt(gm1)
    if pulse_shape == "flat":
        norm = 1.0 / math.sqrt(tau)
        return [(1.0, 0, 0.0, 0.0)], norm, math.sqrt(p.kappa) * norm * _integrate(m23, tau)
    raise ValueError(f"unknown pulse shape {pulse_shape!r}")


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
    return _covariances(p, tau, pulse_shape)[:3]


def _covariances(
    p: PulsedParams, tau: float, pulse_shape: str
) -> tuple[float, float, float, float]:
    """:func:`pulsed_covariances` and the signal amplitude."""
    if tau <= 0:
        raise ValueError("pulse duration must be positive")
    Vx = p.bath.V_x
    nopt = p.bath.optical_variance
    V33 = math.exp(-p.gamma * tau) * p.V0 + Vx * (-math.expm1(-p.gamma * tau))
    if p.measurement_rate == 0.0:
        return V33, 0.0, nopt, 0.0
    shape, norm, Gs = _filter(p, tau, pulse_shape)
    m22 = [(1.0, 0, -p.kappa / 2, 0.0)]
    m23 = _m23_terms(p)
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
    t_cross = -2.0 * nopt * p.kappa * norm**2 * _integrate(_mul(shape, F), tau)
    t_refl = p.kappa**2 * nopt * norm**2 * _integrate(_mul(F, F), tau)
    t_mech = p.kappa * p.gamma * Vx * norm**2 * _integrate(_mul(G, G), tau)
    # shot noise nopt: the filter has norm**2 * int shape^2 = 1
    V22 = Gs**2 * p.V0 + t_cav0 + nopt + t_cross + t_refl + t_mech
    return V33, V32, V22, Gs


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
    x(tau) on the filtered output mode.  Detection loss ``bath.eta``
    is a beam splitter on that mode, mixing in optical input noise.
    """
    V33, V32, V22, Gs = _covariances(p, tau, pulse_shape)
    eta = p.bath.eta
    V = detected(np.array([[V22, V32], [V32, V33]]), slice(0, 1), eta, p.bath.optical_variance)
    Vc = conditional_variance(V, signal=1, meter=0)
    return measured_figures(
        Vc, V33, float(V[0, 0]), math.exp(-p.gamma * tau), eta * Gs**2, p.V0, omega=0.0)
