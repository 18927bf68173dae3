"""Sequential prepare-then-measure readout with temporal-mode filtering.

The mechanical state is first stabilized by a modulated tweezer
(steady state of a 4x4 Lyapunov equation, solved with numpy as one
balanced 16x16 Kronecker system: every entry good to about 3e-15 of
sqrt(V_ii V_jj) against 40-digit solutions), after which the tweezer is
re-tuned for single-quadrature readout.  The cavity output collected
over a pulse of duration tau is filtered into one discrete mode

    Y(tau) = int_0^tau f_out(s) Y_out(s) ds,

whose variance and covariance with the surviving mechanical position
determine the figures of merit.

Every time integral of the readout is a nested integral, over ordered
times tau >= t_1 >= ... >= 0, of products of entries of exp(a t) for the
(Y_c, x) block a = [[-kappa/2, r], [0, -gamma/2]] of the readout drift
(X_c and p never reach x or the filtered quadrature).  Each is one entry
of the exponential of a block-bidiagonal matrix C tau (C. F. Van Loan,
IEEE Trans. Autom. Control 23, 395 (1978); for nested integrals
F. Carbonell, J. C. Jimenez and L. M. Pedroso, J. Comput. Appl. Math.
213, 300 (2008)) with one diagonal block per time segment, the
Kronecker sum of the factors live on it.  C is upper triangular with no
negative entry off its diagonal, so exp(C tau) has no negative entry and
the squarings of :func:`expm` cancel nothing; no rate difference kappa -
gamma is formed.  A stack of rows runs as one stack of exponentials per
chain.  Against 30-digit quadrature, on the grid gamma / kappa in {1e-9,
0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1} x kappa tau in {0.012, 0.53, 1, 5,
50} for both filters (kappa = 1, g = alpha = 0.6, n_m = 1e7), V_c, T_s
and T_m are good to 7.6e-15 relative and n_eq to 7.6e-15 of n_eq + V0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import BathSpec, check_signs, check_stable, matrix, raise_first
from .errors import DegenerateMeter, TvmeterError
from .metrics import METER_FLOOR, MeasurementFigures, _clamped, measured_figures

#: the error texts of a matched filter lost to a kappa * int M23^2 too small
#: for its norm sqrt(kappa / kappa int M23^2) (zero, or subnormal) and of
#: integrals that overflow
_LOST_FILTER = "matched filter undefined: kappa * int M23^2 = {:.3e}"
_NOT_FINITE = "pulsed readout integrals are not finite"

_Rows = float | NDArray[np.float64]  # one value shared by the rows, or one per row

#: b_0 .. b_13 of the [13/13] Pade approximant of exp, and the 1-norm up
#: to which it is good to double precision (N. J. Higham, SIAM J. Matrix
#: Anal. Appl. 26, 1179 (2005))
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """exp(X) of each matrix of the stack X[k, i, j], by scaling and
    squaring with the [13/13] Pade approximant, each matrix scaled by its
    own power of two; a matrix with an entry that is not finite gives NaN."""
    norm = np.abs(X).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    s = np.ceil(np.log2(np.maximum(np.where(finite, norm, 0.0), _THETA13) / _THETA13)).astype(int)
    X = np.where(finite[:, None, None], X, 0.0) * np.exp2(-s)[:, None, None]
    b, eye, at = _PADE13, np.eye(X.shape[-1]), np.arange(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2
             + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    # a triangular stack takes its exact diagonal at every step, whose
    # rounding the squarings would otherwise raise to the power 2^s (A. H.
    # Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009))
    diagonal = None if np.tril(X, -1).any() else X[:, at, at]
    R = np.linalg.solve(V - U, V + U)
    for j in range(s.max(initial=0) + 1):
        if diagonal is not None:
            R[:, at, at] = np.exp(diagonal * np.exp2(np.minimum(j, s))[:, None])
        more = s > j
        R[more] = R[more] @ R[more]
    R[~finite] = np.nan
    return R


# ---------------------------------------------------------------------------
# The readout integrals as chains of time segments, latest first.  A
# segment names the factors live on it: F and f the filter at the later
# and earlier time (M23 from 0; absent for the flat filter), G and g M23
# of a lag, K and k M22 of a lag, m M33(tau - s); letters written together
# are copies that started together.  Going forward in time, a link starts
# a factor with e_x (e_x e_x for a pair) and ends it, or one copy of a
# pair, with e_Y^T: slices of identity matrices.  The integral named at a
# segment is read at its last column, where the sub-chain up to it starts
# every factor at time 0 on e_x.  F2 and G2 are halves of int F^2 and int
# G^2, whose two times are ordered here.

#: rows per stack of exponentials, which bounds the peak memory of a block
_CHUNK = 64

_CHAINS = (
    (("", "F G", "Ff Gg", "Ff"), {1: "signal", 3: "G2"}),
    (("", "F K", "Ff Kk", "Ff"), {1: "fM22", 3: "F2"}),
    (("", "F K", "Ff"), {2: "fF"}),
    (("m", "m F G", "F"), {2: "J2"}),
)


def _kron(A: NDArray, B: NDArray) -> NDArray:
    """Kronecker products of the stacks A[..., i, j] and B[..., k, l]."""
    rows = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(
        *rows, A.shape[-2] * B.shape[-2], A.shape[-1] * B.shape[-1])


def _integrals(kappa, gamma, r, tau, pulse_shape: str) -> dict[str, NDArray]:
    """The integrals named in :data:`_CHAINS` of each row (1-D arrays, tau >= 0)."""
    zero = np.zeros_like(tau)
    a = matrix([[-kappa / 2, r], [zero, -gamma / 2]])
    # a (+) a on the symmetric tensors e_Y e_Y, e_Y e_x + e_x e_Y, e_x e_x
    pair = matrix([[-kappa, 2 * r, zero], [zero, -(kappa + gamma) / 2, r], [zero, zero, -gamma]])
    blocks = {"F": a, "G": a, "Ff": pair, "Gg": pair, "K": -kappa[:, None, None] / 2,
              "Kk": -kappa[:, None, None], "m": -gamma[:, None, None] / 2}
    out = {}
    for segments, read in _CHAINS:
        if pulse_shape == "flat":
            segments = [s.replace("F", "").replace("f", "") for s in segments]
        live = [{t[0]: blocks[t] for t in s.split()} for s in segments]
        diag = []
        for factors in live:
            K = np.zeros((len(tau), 1, 1))
            for M in factors.values():
                K = _kron(K, np.eye(M.shape[-1])) + _kron(np.eye(K.shape[-1]), M)
            diag.append(K)
        ends = np.cumsum([K.shape[-1] for K in diag])
        C = np.zeros((len(tau), ends[-1], ends[-1]))
        for j, K in enumerate(diag):
            C[:, ends[j] - K.shape[-1]:ends[j], ends[j] - K.shape[-1]:ends[j]] = K
            if j + 1 < len(diag):
                later, earlier, link = live[j], live[j + 1], np.ones((1, 1))
                for key in sorted(later.keys() | earlier.keys(), key="mFGK".index):
                    n = later[key].shape[-1] if key in later else 1
                    m = earlier[key].shape[-1] if key in earlier else 1
                    link = _kron(link, np.eye(n, m, 0 if key in earlier else 1 - n))
                C[:, ends[j] - K.shape[-1]:ends[j], ends[j]:ends[j + 1]] = link
        at = [ends[j] - 1 for j in read]
        first = np.concatenate([expm(C[k:k + _CHUNK] * tau[k:k + _CHUNK, None, None])[:, 0, at]
                                for k in range(0, len(tau) or 1, _CHUNK)])
        out.update(zip(read.values(), first.T))
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulsedParams:
    """Readout-stage parameters.

    ``g`` and ``alpha2`` set the measurement rate alpha2 g / 2; the
    residual x^2 rate alpha2^2 omega_m / [8 (2 + alpha2^2)] only drives
    the unmeasured momentum quadrature.  ``V0`` is the prepared variance
    of x and ``bath`` the environment during readout.  Every field but
    the bath may be a 1-D array, one value per row of a stack (see
    :func:`pulsed_metrics`).
    """

    kappa: _Rows
    gamma: _Rows
    omega_m: _Rows
    g: _Rows
    alpha2: _Rows
    V0: _Rows
    bath: BathSpec

    def __post_init__(self):
        check_signs(dict(kappa=self.kappa, gamma=self.gamma, omega_m=self.omega_m, V0=self.V0),
                    dict(alpha2=self.alpha2, g=self.g))

    @property
    def x2_rate(self) -> _Rows:
        return self.alpha2**2 * self.omega_m / (8.0 * (2.0 + self.alpha2**2))

    @property
    def measurement_rate(self) -> _Rows:
        return self.alpha2 * self.g / 2.0


#: the fields of :class:`PulsedParams` that may hold one value per row
_ROW_FIELDS = ("kappa", "gamma", "omega_m", "g", "alpha2", "V0")


def readout_drift(p: PulsedParams) -> NDArray[np.float64]:
    r = p.measurement_rate
    return np.array([
        [-p.kappa / 2, 0, 0, 0],
        [0, -p.kappa / 2, r, 0],
        [0, 0, -p.gamma / 2, 0],
        [r, 0, p.x2_rate, -p.gamma / 2],
    ])


def propagator(p: PulsedParams, t: float) -> NDArray[np.float64]:
    """exp(A t) of the readout drift, by :func:`expm`."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return expm(readout_drift(p)[None] * t)[0]


def measurement_gain(p: PulsedParams, tau: float, pulse_shape: str = "matched") -> float:
    """Optomechanical gain G(tau) = 1 + (signal amplitude)^2.

    For the matched (decaying-exponential) filter this is the familiar
    1 + kappa * integral of M23^2; for the flat filter the signal
    amplitude is kappa-weighted by the average of M23 instead.
    """
    if not tau >= 0:  # NaN is not
        raise ValueError("pulse duration must be nonnegative")
    if tau == 0.0:
        return 1.0
    out, guards = _covariances(p, tau, pulse_shape)
    raise_first(*guards)
    return 1.0 + out[3].item() ** 2


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
    the momentum quadrature), so the default omits it.  ``kappa`` and
    ``gamma`` must be positive, as for the readout (:class:`PulsedParams`).
    """
    check_signs(dict(kappa=kappa, gamma=gamma))
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
    quadrature at hold time tau; for a 1-D stack of rows, one array each
    (see :func:`pulsed_metrics`, whose first guards it checks)."""
    out, guards = _covariances(p, tau, pulse_shape)
    raise_first(*guards)
    return tuple(out[:3])


def _covariances(p: PulsedParams, tau: _Rows, pulse_shape: str) -> tuple[NDArray, list]:
    """V33, V32, V22, the signal amplitude Gs and the noise parts B, C, N
    (V33 = exp(-gamma tau) V0 + B, V32 = Gs exp(-gamma tau / 2) V0 + C,
    V22 = Gs^2 V0 + N) in an array of shape (7, rows...) (tau and the
    fields of ``p`` broadcast to the rows; one tau with numbers is a stack
    of one of shape ()), and the guards a row checks: tau > 0, finite
    integrals, a defined matched filter."""
    if pulse_shape not in ("matched", "flat"):
        raise ValueError(f"unknown pulse shape {pulse_shape!r}")
    shape = np.broadcast_shapes(np.shape(tau), *(np.shape(getattr(p, f)) for f in _ROW_FIELDS))
    tau, kappa, gamma, r, V0 = (np.broadcast_to(x, shape).astype(float).reshape(-1)
                                for x in (tau, p.kappa, p.gamma, p.measurement_rate, p.V0))
    run = tau > 0  # the other rows run at tau = 0 and fail their first guard
    Vx, nopt = p.bath.V_x, p.bath.optical_variance
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        I = _integrals(kappa, gamma, r, np.where(run, tau, 0.0), pulse_shape)
        if pulse_shape == "matched":  # its norm diverges as tau shrinks: it scales the results
            gm1 = kappa * I["signal"]
            defined = np.where(gm1 > 0.0, gm1, np.nan)  # else lost: no coupling, or underflow
            norm, Gs = np.sqrt(kappa / defined), np.sqrt(defined)  # inf at a subnormal: lost
        else:
            gm1, norm = np.nan * tau, 1.0 / np.sqrt(tau)
            Gs = np.sqrt(kappa) * norm * I["signal"]
        # V32: bath noise shared by x(tau) and the filter; V22 per the
        # formal-integration noise decomposition: the initial intracavity
        # Y, shot noise (the filter has unit norm), its cross term and
        # reflection, and the mechanical bath
        C = gamma * np.sqrt(kappa) * Vx * norm * I["J2"]
        N = (nopt * (1.0 + kappa * norm**2 * (I["fM22"]**2 - 2.0 * I["fF"] + 2.0 * kappa * I["F2"]))
             + 2.0 * kappa * gamma * Vx * norm**2 * I["G2"])
        coupled, lost = r > 0.0, (r > 0.0) & ((gm1 <= 0.0) | (norm == np.inf))
        Gs, C, N = np.where(coupled, Gs, 0.0), np.where(coupled, C, 0.0), np.where(coupled, N, nopt)
        B = Vx * (-np.expm1(-gamma * tau))
        out = np.array([np.exp(-gamma * tau) * V0 + B, Gs * np.exp(-gamma * tau / 2) * V0 + C,
                        Gs**2 * V0 + N, Gs, B, C, N])
    guards = [(~run, lambda k: ValueError("pulse duration must be positive")),
              (~(lost | np.isfinite(out).all(axis=0)), lambda k: TvmeterError(_NOT_FINITE)),
              (lost, lambda k: DegenerateMeter(_LOST_FILTER.format(gm1[k])))]
    return out.reshape(7, *shape), [(np.reshape(f, shape), e) for f, e in guards]


def pulsed_metrics(
    p: PulsedParams, tau: _Rows, pulse_shape: str = "matched"
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of the pulsed readout.

    The signal content of the mechanical output is the surviving
    fraction of the initial state, M33(tau)^2 V0; the meter signal is
    (G - 1) V0 against the filtered noise variance.  V_c conditions
    x(tau) on the filtered output mode.  Detection loss ``bath.eta``
    is a beam splitter on that mode, mixing in optical input noise.

    Tau and the fields of ``p`` may be 1-D arrays, which broadcast to the
    rows of a stack: it gives a list of figures, one per row in order, as
    :func:`~tvmeter.metrics.evaluate` does on a stack.  A stack raises
    the error of its first failing row in the caller's order, from the
    stack's own values, as a loop over the rows would.

    V_c = V33 - eta V32^2 / V_mm is formed with its V0^2 terms cancelled
    by hand.  Where the meter resolves x(0) well those terms are nearly
    all of V33 V_mm and of eta V32^2, and their difference in floating
    point loses digits (1e-11 of V_c at kappa tau = 1000, g = 2 kappa).
    """
    (V33, _, _, Gs, B, C, N), guards = _covariances(p, tau, pulse_shape)
    eta = p.bath.eta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows that fail
        G_m = eta * Gs**2  # detected signal power gain
        N_m = eta * N + (1.0 - eta) * p.bath.optical_variance  # detected meter noise
        V_mm = G_m * p.V0 + N_m
        Vc = (np.exp(-p.gamma * tau) * p.V0 * (N_m / V_mm) + B
              - eta * C * (2.0 * p.V0 * Gs * np.exp(-p.gamma * tau / 2) + C) / V_mm)
    Vc = _clamped(Vc, V33, *guards, (V_mm <= METER_FLOOR, lambda k: DegenerateMeter(
        f"meter variance {np.ravel(V_mm)[k]:.3e} is not positive")))
    return measured_figures(Vc, V33, V_mm, np.exp(-p.gamma * tau), G_m, p.V0, omega=0.0)
