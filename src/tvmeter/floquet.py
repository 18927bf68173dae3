"""Single-quadrature readout beyond the rotating-wave approximation.

The counterrotating part of the interaction makes the drift matrix
periodic at twice the mechanical frequency,

    A(t) = A(-1) e^{-2i w_m t} + A(0) + A(+1) e^{+2i w_m t}.

Expanding the quadrature vector in the same harmonics turns the
frequency-domain equations of motion into a block-tridiagonal system
coupling component n to n +/- 1, with diagonal blocks
A(0) + i(w - 2 n w_m) I.  The output spectrum at detection frequency w
collects component n driven by the input at w + 2 n w_m, through one
scattering block S_n per component.

The expansion ends at |n| = 1 without truncation error.  The sidebands
route X -> (x, p) and (x, p) -> Y only: nothing drives X, Y drives
nothing, and the mechanical block of every diagonal block is a multiple
of the identity.  So A(+-1) D^-1 A(+-1) is a multiple of A(+-1)^2 = 0 for
any diagonal block D, the equations of the components |n| >= 2 hold
with those components zero, and the three-component system is the whole
of it.  Eliminating the +-1 components leaves one 4x4 Schur complement
per base frequency (cf. the harmonic-balance treatment of Malz and
Nunnenkamp, PRA 94, 023803 (2016)).

Two reductions of the blocks are used downstream:

* the spectral output covariance sums the sideband contributions
  S_n V_in S_n^dagger incoherently (inputs at distinct frequencies are
  uncorrelated); the Hermitian sum, complex off the diagonal, feeds the
  conditional variance;
* the transfer coefficients use the coherent sum of the blocks as an
  effective scattering matrix, which reproduces the closed-form
  benchmarks below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (FOUR_MODE, BathSpec, _require_regular, check_sign, check_stable, detected,
                   input_covariance, matrix)
from .metrics import (
    MeasurementFigures,
    _abs2,
    classify_regime,
    conditional_variance,
    measured_figures,
)
from .models import _readout_couplings, _resolve_coupling


@dataclass(frozen=True)
class FloquetDrift:
    """Harmonic components of the periodic drift matrix, or stacks of them
    ``[..., i, j]`` (``omega_m`` an array broadcast against their axes)."""

    A_minus: NDArray[np.complex128]
    A_zero: NDArray[np.float64]
    A_plus: NDArray[np.complex128]
    omega_m: float | NDArray[np.float64]

    def __post_init__(self):
        if not np.allclose(self.A_plus, np.conj(self.A_minus), atol=1e-12):
            raise ValueError("A_plus must be the elementwise conjugate of A_minus")
        if np.max(np.abs(np.asarray(self.A_zero).imag)) > 1e-12:
            raise ValueError("A_zero must be real")


#: the counterrotating coupling: A(-1) = g * this
_SIDEBAND_COUPLING = np.array([
    [0, 0, 0, 0],
    [0, 0, -1, 1j],
    [-1j, 0, 0, 0],
    [-1, 0, 0, 0],
])

#: offsets j of the diagonal blocks D_j = A(0) + i(w + 2 j w_m) I that the
#: three base frequencies w + 2 n w_m, n = -1, 0, 1, need
_OFFSETS = np.arange(-2, 3)


def decompose_drift(
    kappa: float, gamma: float, omega_m: float,
    g: float | None = None, C: float | None = None,
    order: int = 1,
) -> FloquetDrift:
    """Harmonic components for QND readout with counterrotating terms.

    The static component is the ideal single-quadrature drift; the
    sidebands couple the mechanical quadratures to the off-resonant
    cavity amplitude.  Arrays of any numeric parameters broadcast and
    give the components as stacks ``[..., i, j]``, one drift per point.
    The drift is feed forward, so its Floquet exponents are the
    eigenvalues of the static component, which must be stable.  ``order``
    is the harmonic order of the expansion; every integer >= 1 gives the
    same exact solve.
    """
    check_sign("positive", kappa=kappa, gamma=gamma, omega_m=omega_m)
    try:
        orders = order.ravel().tolist() if isinstance(order, np.ndarray) else [order]
        integral = not isinstance(order, bool) and all(
            o >= 1 and float(o).is_integer() for o in orders)
    except TypeError:
        integral = False
    if not integral:
        raise ValueError(f"harmonic order must be an integer >= 1, got {order!r}")
    g = _resolve_coupling(kappa, gamma, g, C)
    if isinstance(order, np.ndarray):  # the same drift at every order
        g = np.broadcast_to(g, np.broadcast_shapes(np.shape(g), order.shape))
    A_minus = np.multiply.outer(g, _SIDEBAND_COUPLING)
    k2, g2m, c = kappa / 2, gamma / 2, -2 * g
    A_zero = matrix([
        [-k2, 0, 0, 0],
        [0, -k2, c, 0],
        [0, 0, -g2m, 0],
        [c, 0, 0, -g2m],
    ])
    check_stable(A_zero)
    return FloquetDrift(A_minus, A_zero, A_minus.conj(), omega_m)


def sideband_scattering(
    fd: FloquetDrift, H: NDArray, omega: float
) -> dict[int, NDArray[np.complex128]]:
    """Scattering blocks S_n(w), n = -1, 0, 1: the part of the output at w
    contributed by component n, driven by the input at w + 2 n w_m.

    At base frequency w + 2 n w_m the components -1, 0, +1 sit on the
    diagonal blocks D_{n+1}, D_n, D_{n-1}.  With P_j = D_j^-1 A(+1) and
    Q_j = D_j^-1 A(-1), the centre component solves
    (D_n - A(-1) P_{n-1} - A(+1) Q_{n+1}) u_0 = -H, and u_{+1} = -P_{n-1} u_0,
    u_{-1} = -Q_{n+1} u_0.  A stacked drift (or a stack of ``H``) gives
    stacks of blocks ``[..., i, j]``; the diagonal blocks, then the Schur
    complements, are checked as in :func:`core.build_scattering`, and the
    first singular one, in stack order, raises
    :class:`SingularAtFrequency` at ``omega``.
    """
    H = np.asarray(H, dtype=float)
    I4 = np.eye(4)
    shifts = 1j * (omega + np.multiply.outer(2 * fd.omega_m, _OFFSETS))
    D = fd.A_zero[..., None, :, :] + shifts[..., None, None] * I4
    _require_regular(D, omega)
    PQ = np.linalg.solve(D, np.concatenate([fd.A_plus, fd.A_minus], axis=-1)[..., None, :, :])
    P, Q = PQ[..., :4], PQ[..., 4:]
    schur = (D[..., 1:4, :, :] - fd.A_minus[..., None, :, :] @ P[..., 0:3, :, :]
             - fd.A_plus[..., None, :, :] @ Q[..., 2:5, :, :])
    _require_regular(schur, omega)
    u0 = np.linalg.solve(schur, -H[..., None, :, :])
    return {
        -1: -(H @ (Q[..., 2, :, :] @ u0[..., 0, :, :])),
        0: H @ u0[..., 1, :, :] - I4,
        1: -(H @ (P[..., 2, :, :] @ u0[..., 2, :, :])),
    }


def _readout(fd: FloquetDrift, bath: BathSpec) -> tuple[NDArray, NDArray]:
    """Input couplings H and input covariance of the readout; the decay
    rates are read off the static drift diagonal, so a stacked drift
    gives a stack of H."""
    kappa, gamma = -2.0 * fd.A_zero[..., 0, 0], -2.0 * fd.A_zero[..., 2, 2]
    return _readout_couplings(kappa, gamma), input_covariance(bath, FOUR_MODE)


def _conditional_variance(
    blocks: dict[int, NDArray], Vin: NDArray, bath: BathSpec
) -> float | NDArray[np.float64]:
    """V_c on the incoherent sideband sum of the Hermitian cross-spectral
    densities, after detection loss; a stack of blocks gives a stack."""
    V = sum(S @ Vin @ S.conj().swapaxes(-1, -2) for S in blocks.values())
    V = 0.5 * (V + V.conj().swapaxes(-1, -2))
    return conditional_variance(detected(V, slice(0, 2), bath.eta, bath.optical_variance), FOUR_MODE)


def floquet_vc(
    fd: FloquetDrift, bath: BathSpec, omega: float = 0.0
) -> float | NDArray[np.float64]:
    """Conditional variance of the beyond-RWA readout, ``floquet_metrics(fd,
    bath, omega).Vc``.

    For a stacked drift (from parameter arrays) it gives one value
    per drift from one stacked solve, each with the bits of the single
    drift's; the first drift that fails a guard, in stack order, raises.
    """
    H, Vin = _readout(fd, bath)
    return _conditional_variance(sideband_scattering(fd, H, omega), Vin, bath)


def floquet_metrics(
    fd: FloquetDrift, bath: BathSpec, omega: float = 0.0
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of the beyond-RWA readout.

    The decay rates are read off the static drift diagonal.  Detection
    loss ``bath.eta`` is a beam splitter on the optical output, filled
    with noise at the cavity-bath variance.  A stacked drift (an array
    of parameters) gives a list of figures, one per drift in stack
    order, from one stacked solve, each with the bits of the single
    drift's; the first drift that fails a guard, in stack order, raises.
    """
    H, Vin = _readout(fd, bath)
    blocks = sideband_scattering(fd, H, omega)
    Vc = _conditional_variance(blocks, Vin, bath)
    Seff = sum(blocks.values())
    Veff = np.real(Seff @ Vin @ Seff.conj().swapaxes(-1, -2))
    Veff = detected(Veff, slice(0, 2), bath.eta, bath.optical_variance)
    s, m = FOUR_MODE.signal_index, FOUR_MODE.meter_index
    meter_signal = np.hypot(Seff[..., m, s].real, Seff[..., m, s].imag)
    return measured_figures(
        Vc, Veff[..., s, s], Veff[..., m, m], _abs2(Seff[..., s, s]),
        bath.eta * np.float_power(meter_signal, 2), bath.V_x, omega,
    )


def floquet_qnd_metrics_closed(
    C: float, kappa: float, omega_m: float, V_x: float
) -> MeasurementFigures:
    """Closed-form benchmark for the sideband solve at carrier detection.

    Valid for gamma much smaller than both kappa and omega_m.  With
    r = kappa^2/(kappa^2 + 16 omega_m^2) and the sideband admixture
    X = 4 kappa omega_m/(kappa^2 + 16 omega_m^2), the correction terms
    scale as C r (conditional variance), C X^2 (signal transfer), and
    (C X)^2 (meter transfer); kappa -> 0 recovers the ideal readout.
    """
    if C < 0 or kappa <= 0 or omega_m <= 0 or V_x <= 0:
        raise ValueError("invalid closed-form parameters")
    r = kappa**2 / (kappa**2 + 16 * omega_m**2)
    X = 4 * kappa * omega_m / (kappa**2 + 16 * omega_m**2)
    Vc = (1 + (8 * C + 1 / V_x) * (4 * C * r)) / (
        1 / V_x + 32 * C + 32 * C**2 * r / V_x
    )
    Ts = 1.0 / (1.0 + 8 * C * X**2 / V_x)
    Tm = 32 * C / (32 * C + (1 + 64 * (C * X) ** 2) / V_x) if C > 0 else 0.0
    ns = V_x * (1.0 / Ts - 1.0)
    nm = V_x * (1.0 / Tm - 1.0) if Tm > 0 else np.inf
    return MeasurementFigures(
        Vc=Vc, Ts=Ts, Tm=Tm, ns_eq=ns, nm_eq=nm,
        regime=classify_regime(Vc, Ts, Tm), omega=0.0,
    )
