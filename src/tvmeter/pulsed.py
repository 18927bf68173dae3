"""Sequential prepare-then-measure readout with temporal-mode filtering.

The mechanical state is first stabilized by a modulated tweezer
(steady state of a 4x4 Lyapunov equation, solved with numpy as one
balanced 16x16 Kronecker system: every entry good to about 3e-15 of
sqrt(V_ii V_jj) against 40-digit solutions), after which the tweezer is
re-tuned for single-quadrature readout.  The cavity output collected
over a pulse of duration tau is filtered into one discrete mode

    Y(tau) = int_0^tau f_out(s) Y_out(s) ds,

whose variance and covariance with the surviving mechanical position
determine the figures of merit.  All time integrals are sums of
polynomial-times-exponential terms t^k exp(a t), integrated in closed
form or, where the closed form would cancel, as series cut at the first
term below SERIES_CUTOFF of the leading one: a power series where
|a| tau < 0.5, and for k >= 1 the phi-function series where
0.5 <= |a| tau <= k + 1.  A 1-D array of tau runs the same term algebra
with one coefficient per row, once per group of rows whose series and
closed-form branches agree.

The test suite cross-checks the integrals by adaptive and by 30-digit
quadrature.  At the ``tv pulsed`` defaults (kappa = 1, gamma = 1e-9,
g = alpha = 0.6, n_m = 1e7) V_c is good to 3e-15 and nm_eq, T_m to
7e-14 at tau = 0.53 and 5, and at kappa = 0.2, gamma = 0.05, g = 1,
alpha = 0.2, n_m = 100 every figure to 3e-12 for tau = 2.5-3.5.  At
small kappa tau (3e-11 in nm_eq and T_m at tau = 0.012 at the defaults)
and wherever |kappa - gamma| tau is small without the rates being
degenerate, the exponential-sum form of M23 cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import BathSpec, check_sign, check_stable
from .errors import DegenerateMeter
from .metrics import (
    METER_FLOOR,
    MeasurementFigures,
    _clamped,
    measured_figures,
)

#: relative |kappa - gamma| below which the propagator switches to the
#: equal-rates limit form
DEGENERATE_RATE_TOL = 1e-12

#: series terms below this fraction of the leading term are left out
SERIES_CUTOFF = 1e-18


# ---------------------------------------------------------------------------
# closed-form integration of sums of c * t^k * exp(e tau + a t)
#
# The exponent offset E = e tau keeps every evaluated exponent
# nonpositive, so long pulses cannot overflow intermediate factors like
# exp(+kappa s / 2) (those always come paired with a constant carrying
# exp(-kappa tau / 2)).  Every offset is a multiple of the pulse duration
# tau, so one term list serves a stack of tau: tau and the coefficients c
# are then arrays with one entry per row, and (k, a, e) are shared.  A
# float tau runs the same functions on Python floats and libm.

_Rows = float | NDArray[np.float64]  # one value, or one per row of a stack of tau
_Term = tuple[_Rows, int, float, float]  # (c, k, a, e)


class _Split(Exception):
    """A branch test of the term algebra disagrees between rows of a
    stack; ``at`` is the first row (in ascending tau) whose outcome
    differs from the first row's."""

    def __init__(self, at: int):
        super().__init__(at)
        self.at = at


def _fn(x: _Rows):
    """``math`` for a float, numpy for the rows of a stack."""
    return np if isinstance(x, np.ndarray) else math


def _agree(test) -> bool:
    """The outcome of a branch test: a bool, or one per row of a stack,
    where every row must agree; rows that do not raise :class:`_Split`.
    Neither branch is evaluated where it does not apply: a closed form
    overflows where its series applies."""
    if not isinstance(test, np.ndarray):
        return test
    differs = test != test[0]
    if differs.any():
        raise _Split(int(differs.argmax()))
    return bool(test[0])


def _top(x: _Rows) -> float:
    """The largest of ``x``, a float or a stack's ascending rows."""
    return float(x[-1]) if isinstance(x, np.ndarray) else x


def _nonzero_terms(acc: dict[tuple[int, float, float], _Rows]) -> list[_Term]:
    """The terms of ``acc`` {(k, a, e): c}, less those whose float c is zero."""
    return [(c, *key) for key, c in acc.items() if isinstance(c, np.ndarray) or c != 0.0]


def _consolidate(terms: list[_Term]) -> list[_Term]:
    acc: dict[tuple[int, float, float], _Rows] = {}
    for c, k, a, e in terms:
        key = (k, a, e)
        acc[key] = acc.get(key, 0.0) + c
    return _nonzero_terms(acc)


def _mul(f: list[_Term], g: list[_Term]) -> list[_Term]:
    acc: dict[tuple[int, float, float], _Rows] = {}
    for cf, kf, af, ef in f:
        for cg, kg, ag, eg in g:
            key = (kf + kg, af + ag, ef + eg)
            acc[key] = acc.get(key, 0.0) + cf * cg
    return _nonzero_terms(acc)


def _eval(f: list[_Term], t: float) -> float:
    """f(t) of float terms without an offset (e = 0), as M23's."""
    return sum(c * t**k * math.exp(min(a * t, 700.0)) for c, k, a, e in f)


def _series(b: float, x: _Rows) -> list[float]:
    """Coefficients b^m / m! of integral_0^x t^K exp(b t) dt = sum_m (b^m / m!)
    x^(K+m+1) / (K+m+1), |b| x < 0.5, up to the first term whose ratio to the
    leading one, at most |b x|^m / m!, is below SERIES_CUTOFF (on every row
    of a stack ``x``)."""
    facs, z = [1.0], abs(b) * _top(x)
    ratio = z
    while ratio >= SERIES_CUTOFF:
        facs.append(facs[-1] * (b / len(facs)))
        ratio *= z / len(facs)
    return facs


def _phi(k: int, w: _Rows, z: float) -> _Rows:
    """k! phi_{k+1}(w) = sum_m k! w^m / (m+k+1)! (Hochbruck and Ostermann,
    Acta Numerica 19, 209 (2010)) for |w| <= z <= k + 1, where the terms
    shrink from the first, up to the first term whose ratio to the
    leading one, at most z^m (k+1)! / (m+k+1)!, is below SERIES_CUTOFF."""
    term = acc = 1.0 / (k + 1)
    ratio, m = 1.0, k + 2
    while True:
        ratio *= z / m
        if ratio < SERIES_CUTOFF:
            return acc
        term = term * w / m
        acc = acc + term
        m += 1


def _int_tk_exp(
    k: int, a: float, E: _Rows, x: _Rows, fn, series: dict[float, list[float]]
) -> _Rows:
    """exp(E) * integral_0^x t^k exp(a t) dt, assuming E + a x <= ~0; ``fn``
    is ``_fn(x)`` and ``series`` keeps the _series coefficients of each
    rate at this x.  The branch tests of a float skip :func:`_agree`,
    whose call would cost the scalar path a few percent."""
    stacked = fn is np
    z = abs(a) * x
    if _agree(z < 0.5) if stacked else z < 0.5:  # series around a = 0
        acc = 0.0
        for P, fac in enumerate(series.get(a) or series.setdefault(a, _series(a, x)), k + 1):
            acc += fac * x**P / P
        return fn.exp(E) * acc
    if k == 0:
        if a < 0:
            return fn.exp(E) * fn.expm1(a * x) / a
        return (fn.exp(E + a * x) - fn.exp(E)) / a
    if _agree(z <= k + 1) if stacked else z <= k + 1:
        # x^(k+1) e^(ax) k! phi_{k+1}(-ax), where the closed form below cancels
        return x ** (k + 1) * fn.exp(E + a * x) * _phi(k, -a * x, _top(z))
    # antiderivative e^{at} sum_i (-1)^{k-i} (k!/i!) t^i / a^{k-i+1}
    upper = 0.0
    fac = 1.0  # (-1)^{k-i} k!/i! starting at i = k
    for i in range(k, -1, -1):
        upper += fac * x**i / a ** (k - i + 1)
        fac *= -i
    lower = (-1.0) ** k * math.factorial(k) / a ** (k + 1)
    return fn.exp(E + a * x) * upper - fn.exp(E) * lower


def _integrate(f: list[_Term], x: _Rows) -> _Rows:
    """integral_0^x f(t) dt for a pulse of duration x."""
    fn = _fn(x)
    series: dict[float, list[float]] = {}
    return sum(c * _int_tk_exp(k, a, e * x, x, fn, series) for c, k, a, e in f)


def _tail_convolution(f: list[_Term], g: list[_Term], tau: _Rows) -> list[_Term]:
    """h(s) = integral_s^tau f(t) g(t - s) dt as a term list in s."""
    out: list[_Term] = []
    for cf, kf, af, ef in f:
        for cg, kg, ag, eg in g:
            e0 = ef + eg
            b = af + ag
            for j in range(kg + 1):
                pref = cf * cg * math.comb(kg, j) * (-1.0) ** (kg - j)
                K = kf + j
                spow = kg - j
                # AD(t) = integral_0^t u^K e^{bu} du as terms c t^P e^{rate t}
                if _agree(abs(b) * tau < 0.5):  # sum_m (b^m / m!) t^P / P, P = K + m + 1
                    ad = [(fac / P, P, 0.0) for P, fac in enumerate(_series(b, tau), K + 1)]
                else:  # e^{bt} sum_i (-1)^(K-i) (K!/i!) t^i / b^(K-i+1), less AD(0)
                    ad = [((-1.0) ** (K - i) * math.perm(K, K - i) / b ** (K - i + 1), i, b)
                          for i in range(K, -1, -1)]
                for c, P, rate in ad:  # + AD(tau), constant in s, and - AD(s)
                    out.append((pref * c * tau**P, spow, -ag, e0 + rate))
                    out.append((-pref * c, spow + P, rate - ag, e0))
    return _consolidate(out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulsedParams:
    """Readout-stage parameters.

    ``g`` and ``alpha2`` set the measurement rate alpha2 g / 2; the
    residual x^2 rate alpha2^2 omega_m / [8 (2 + alpha2^2)] only drives
    the unmeasured momentum quadrature.  ``V0`` is the prepared variance
    of x and ``bath`` the environment during readout.
    """

    kappa: float
    gamma: float
    omega_m: float
    g: float
    alpha2: float
    V0: float
    bath: BathSpec

    def __post_init__(self):
        check_sign("positive", kappa=self.kappa, gamma=self.gamma, omega_m=self.omega_m,
                   V0=self.V0)
        check_sign("nonnegative", alpha2=self.alpha2, g=self.g)

    @property
    def x2_rate(self) -> float:
        return self.alpha2**2 * self.omega_m / (8.0 * (2.0 + self.alpha2**2))

    @property
    def measurement_rate(self) -> float:
        return self.alpha2 * self.g / 2.0

    @property
    def degenerate_rates(self) -> bool:
        return abs(self.kappa - self.gamma) < DEGENERATE_RATE_TOL * self.kappa


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


def _filter(p: PulsedParams, tau: _Rows, pulse_shape: str) -> tuple[list[_Term], _Rows, _Rows]:
    """Output filter as (unnormalized shape, scalar norm factor, signal
    amplitude: the coefficient of x(0) in the filtered quadrature).  The
    matched filter's norm diverges as the pulse shrinks, so it is kept
    out of the symbolic integrals and applied to the results."""
    m23 = _m23_terms(p)
    fn = _fn(tau)
    if pulse_shape == "matched":
        gm1 = p.kappa * _integrate(_mul(m23, m23), tau)  # kappa * int M23^2
        if np.any(gm1 <= 0.0):  # zero coupling, or M23 lost to cancellation
            raise DegenerateMeter(
                f"matched filter undefined: kappa * int M23^2 = {np.min(gm1):.3e}")
        return m23, fn.sqrt(p.kappa / gm1), fn.sqrt(gm1)
    if pulse_shape == "flat":
        norm = 1.0 / fn.sqrt(tau)
        return [(1.0, 0, 0.0, 0.0)], norm, math.sqrt(p.kappa) * norm * _integrate(m23, tau)
    raise ValueError(f"unknown pulse shape {pulse_shape!r}")


def _balance(A: NDArray[np.float64]) -> NDArray[np.float64]:
    """Powers of two t such that diag(t)^-1 A diag(t) has off-diagonal
    row and column 1-norms within a factor of 2 of each other (Parlett and
    Reinsch, Numer. Math. 13, 293 (1969)).  Every rescaling lowers the
    total off-diagonal 1-norm; the cap only bounds the work."""
    B, t = A.copy(), np.ones(len(A))
    np.fill_diagonal(B, 0.0)
    for _ in range(64):
        changed = False
        for i in range(len(B)):
            c, r = np.abs(B[:, i]).sum(), np.abs(B[i]).sum()
            if c == 0.0 or r == 0.0:
                continue
            f = 2.0 ** round(0.5 * math.log2(r / c))
            if f != 1.0:
                B[:, i] *= f
                B[i] /= f
                t[i] *= f
                changed = True
        if not changed:
            break
    return t


def _solve_lyapunov(A: NDArray[np.float64], D: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symmetric V with A V + V A^T + D = 0, as one dense solve of the
    Kronecker system (I x A + A x I) vec V = -vec D.

    A is balanced first by the diagonal similarity T = diag(t) of
    :func:`_balance`: W = T^-1 V T^-1 solves the equation with T^-1 A T
    and T^-1 D T^-1, and powers of two make those scalings exact.
    Unbalanced, the same solve was off by up to 4e-6 of sqrt(V_ii V_jj)
    on the drifts quoted in :func:`prepare_state_lyapunov`, worst with a
    large x^2 rate against a small gamma.
    """
    t = _balance(A)
    scale = np.outer(t, t)
    B = A * (t / t[:, None])
    eye = np.eye(len(A))
    W = np.linalg.solve(np.kron(eye, B) + np.kron(B, eye), -(D / scale).ravel())
    V = W.reshape(A.shape) * scale
    return 0.5 * (V + V.T)


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

    The Lyapunov equation A V + V A^T + D = 0 is solved as the balanced
    16x16 Kronecker system of :func:`_solve_lyapunov`.  Against a
    40-digit solution of the same equation, over 1,000 random stable
    drifts (kappa from 1e-3 to 1e3, gamma from 1e-9 to 1, alpha from 0
    to 3, half of them with an x^2 rate up to 1e2), every entry V_ij is
    good to 2.6e-15 of sqrt(V_ii V_jj); Bartels-Stewart (scipy's
    ``solve_continuous_lyapunov``) is off by up to 1.6e-8 there.

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
    V = _solve_lyapunov(A, H @ Vin @ H.T)
    return float(V[2, 2]), V


def pulsed_covariances(
    p: PulsedParams, tau: _Rows, pulse_shape: str = "matched"
) -> tuple[_Rows, _Rows, _Rows]:
    """(V33, V32, V22) of mechanical position and the filtered output
    quadrature at hold time tau, all integrals in closed form; for a 1-D
    array of tau, one array each (see :func:`pulsed_metrics`)."""
    return _covariances(p, tau, pulse_shape)[:3]


def _covariances(p: PulsedParams, tau: _Rows, pulse_shape: str) -> tuple[_Rows, ...]:
    """:func:`pulsed_covariances`, the signal amplitude and the noise
    parts of V33, V32 and V22 (what each holds besides V0 times its
    signal coefficient), as :func:`_group_covariances` returns them.

    An array of tau is sorted and run group by group through
    :func:`_group_covariances`, each group on a term list whose
    coefficients hold one value per row.  A group starts as all rows; a
    branch test that disagrees between its rows cuts it where the
    outcome changes, and both parts are run again.  Overflow, division
    by zero and invalid values raise FloatingPointError, where libm on a
    float tau raises OverflowError, ZeroDivisionError or ValueError.
    """
    if np.any(tau <= 0):
        raise ValueError("pulse duration must be positive")
    if not isinstance(tau, np.ndarray):
        return _group_covariances(p, tau, pulse_shape)
    tau = tau.astype(float, copy=False)
    order = np.argsort(tau, kind="stable")
    out = np.empty((7, len(tau)))
    spans = [(0, len(tau))] if len(tau) else []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        while spans:
            lo, hi = spans.pop()
            rows = order[lo:hi]
            try:
                out[:, rows] = _group_covariances(p, tau[rows], pulse_shape)
            except _Split as split:
                spans += [(lo, lo + split.at), (lo + split.at, hi)]
    return tuple(out)


def _group_covariances(p: PulsedParams, tau: _Rows, pulse_shape: str) -> tuple[_Rows, ...]:
    """(V33, V32, V22, Gs, B, C, N) of a float tau, or of ascending rows
    of tau on which every branch test agrees: V33 = exp(-gamma tau) V0 + B,
    V32 = Gs exp(-gamma tau / 2) V0 + C and V22 = Gs^2 V0 + N."""
    fn = _fn(tau)
    Vx = p.bath.V_x
    nopt = p.bath.optical_variance
    B = Vx * (-fn.expm1(-p.gamma * tau))
    V33 = fn.exp(-p.gamma * tau) * p.V0 + B
    if p.measurement_rate == 0.0:
        return V33, 0.0 * tau, nopt + 0.0 * tau, 0.0 * tau, B, 0.0 * tau, nopt + 0.0 * tau
    shape, norm, Gs = _filter(p, tau, pulse_shape)
    m22 = [(1.0, 0, -p.kappa / 2, 0.0)]
    m23 = _m23_terms(p)
    # G(s) = int_s^tau phi(t) M23(t-s) dt, F(s) likewise with M22; the
    # filter norm multiplies the assembled results instead of the terms
    G = _tail_convolution(shape, m23, tau)
    F = _tail_convolution(shape, m22, tau)
    # V32: signal term plus bath noise shared by x(tau) and the filter
    aging = [(1.0, 0, p.gamma / 2, -p.gamma / 2)]  # M33(tau - s)
    J2 = norm * _integrate(_mul(aging, G), tau)
    C = p.gamma * math.sqrt(p.kappa) * Vx * J2
    V32 = p.V0 * Gs * fn.exp(-p.gamma * tau / 2) + C
    # V22 per the formal-integration noise decomposition
    a0 = norm * _integrate(_mul(shape, m22), tau)
    t_cav0 = p.kappa * a0**2 * nopt            # initial intracavity Y
    t_cross = -2.0 * nopt * p.kappa * norm**2 * _integrate(_mul(shape, F), tau)
    t_refl = p.kappa**2 * nopt * norm**2 * _integrate(_mul(F, F), tau)
    t_mech = p.kappa * p.gamma * Vx * norm**2 * _integrate(_mul(G, G), tau)
    # shot noise nopt: the filter has norm**2 * int shape^2 = 1
    V22 = Gs**2 * p.V0 + t_cav0 + nopt + t_cross + t_refl + t_mech
    return V33, V32, V22, Gs, B, C, t_cav0 + nopt + t_cross + t_refl + t_mech


def pulsed_metrics(
    p: PulsedParams, tau: _Rows, pulse_shape: str = "matched"
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of the pulsed readout.

    The signal content of the mechanical output is the surviving
    fraction of the initial state, M33(tau)^2 V0; the meter signal is
    (G - 1) V0 against the filtered noise variance.  V_c conditions
    x(tau) on the filtered output mode.  Detection loss ``bath.eta``
    is a beam splitter on that mode, mixing in optical input noise.

    A 1-D array of tau gives a list of figures, one per tau in order, as
    :func:`~tvmeter.metrics.evaluate` does on a stack; the term algebra
    runs once per group of rows whose series and closed-form branches
    agree (:func:`_covariances`).

    V_c = V33 - eta V32^2 / V_mm is formed with its V0^2 terms cancelled
    by hand.  Where the meter resolves x(0) well those terms are nearly
    all of V33 V_mm and of eta V32^2, and their difference in floating
    point loses digits (1e-11 of V_c at kappa tau = 1000, g = 2 kappa).
    """
    V33, _, _, Gs, B, C, N = _covariances(p, tau, pulse_shape)
    eta, fn = p.bath.eta, _fn(tau)
    G_m = eta * Gs**2  # detected signal power gain
    N_m = eta * N + (1.0 - eta) * p.bath.optical_variance  # detected meter noise
    V_mm = G_m * p.V0 + N_m
    if np.any(V_mm <= METER_FLOOR):
        raise DegenerateMeter(f"meter variance {np.min(V_mm):.3e} is not positive")
    Vc = (fn.exp(-p.gamma * tau) * p.V0 * (N_m / V_mm) + B
          - eta * C * (2.0 * p.V0 * Gs * fn.exp(-p.gamma * tau / 2) + C) / V_mm)
    return measured_figures(_clamped(Vc, V33), V33, V_mm, fn.exp(-p.gamma * tau), G_m, p.V0,
                            omega=0.0)
